"""2D projective geometric algebra over the basis {1, e0, e1, e2, e01, e20, e12, e012}.

The degenerate direction satisfies e0^2 = 0 while e1^2 = e2^2 = 1, which lets
the even-grade elements (motors) represent planar roto-translations acting by
sandwich product.  Component storage order is fixed once here:

    index   0    1    2    3    4     5     6     7
    blade   1    e0   e1   e2   e01   e20   e12   e012

and is identical in every flattened or serialized form in this package.  With
this order the dual is a pure coefficient reversal.

Geometry encodings:
    line  a*x + b*y + c = 0   ->  a*e1 + b*e2 + c*e0
    point (x, y)              ->  x*e20 + y*e01 + e12
    translation by (a, b)     ->  1 - (a/2)*e01 + (b/2)*e20
    ccw rotation by theta     ->  cos(theta/2) - sin(theta/2)*e12

The algebra itself is the structure tensors below, built from the axioms;
every product runs on coefficient arrays through them (`autodiff.bilinear8`,
`batch.sandwich_matrix`).  Poses are arrays [..., 3] of (x, y, theta), as a
scene's map holds them, or `Pose2` records in an agent's states;
`compose_poses` is their one group product.
"""

import math
from dataclasses import dataclass

import numpy as np

COMPONENTS = 8
BLADES = ((), (0,), (1,), (2,), (0, 1), (2, 0), (1, 2), (0, 1, 2))
GRADES = (0, 1, 1, 1, 2, 2, 2, 3)

# squared norms of the generating vectors: e0^2 = 0, e1^2 = e2^2 = 1
_METRIC = (0.0, 1.0, 1.0)

# Indices entering the invariant inner product <x,y> = x_s y_s + x_1 y_1 + x_2 y_2 + x_12 y_12.
INNER_INDICES = (0, 2, 3, 6)

# how far a motor's (scalar, e12) norm may stray from 1
MOTOR_UNIT_TOL = 1e-9


def _multiply_blades(a, b):
    """Geometric product of two basis blades: (canonical blade, sign); sign 0 if annihilated."""
    factors = list(a) + list(b)
    sign = 1
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(factors) - 1:
            if factors[i] == factors[i + 1]:
                m = _METRIC[factors[i]]
                if m == 0.0:
                    return (), 0
                sign = int(sign * m)
                del factors[i + 1]
                del factors[i]
                changed = True
            elif factors[i] > factors[i + 1]:
                factors[i], factors[i + 1] = factors[i + 1], factors[i]
                sign = -sign
                changed = True
                i += 1
            else:
                i += 1
    return tuple(factors), sign


def _build_tables():
    """Structure tensors T[i, j, k]: e_i * e_j = sum_k T[i,j,k] e_k, from the axioms."""
    blade_to_slot = {}
    for idx, blade in enumerate(BLADES):
        canonical, csign = _multiply_blades(blade, ())  # sorted factors, the sort's sign
        blade_to_slot[canonical] = (idx, csign)

    geom = np.zeros((COMPONENTS, COMPONENTS, COMPONENTS))
    wedge = np.zeros((COMPONENTS, COMPONENTS, COMPONENTS))
    for i, bi in enumerate(BLADES):
        for j, bj in enumerate(BLADES):
            blade, sign = _multiply_blades(bi, bj)
            if sign == 0:
                continue
            slot, slot_sign = blade_to_slot[blade]
            geom[i, j, slot] = sign * slot_sign
            # wedge keeps only the non-contracting products
            if not set(bi) & set(bj):
                wedge[i, j, slot] = sign * slot_sign
    geom.flags.writeable = False
    wedge.flags.writeable = False
    return geom, wedge


GEOM_TABLE, WEDGE_TABLE = _build_tables()

# join(a, b) = dual(wedge(dual(a), dual(b))); with reversal duality this is a
# reindexed wedge tensor, identical sign for sign.
JOIN_TABLE = WEDGE_TABLE[::-1, ::-1, ::-1].copy()
JOIN_TABLE.flags.writeable = False


def _wrap_angle(theta: float) -> float:
    """Wrap to (-pi, pi]."""
    wrapped = (float(theta) + math.pi) % (2.0 * math.pi) - math.pi
    if wrapped == -math.pi:
        wrapped = math.pi
    return wrapped


@dataclass(frozen=True)
class Pose2:
    """A validated planar pose record of the scene data model (meters, meters, radians); theta
    is wrapped to (-pi, pi].  Poses compose on arrays only: `compose_poses`, `pose_deltas`."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.theta)):
            raise ValueError(f"pose components must be finite, got {self}")
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "theta", _wrap_angle(self.theta))


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """`_wrap_angle` per angle, bit for bit."""
    wrapped = np.remainder(theta + math.pi, 2.0 * math.pi) - math.pi
    return np.where(wrapped == -math.pi, math.pi, wrapped)


def compose_poses(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The SE(2) group product of poses [..., 3] of (x, y, theta): b expressed in a's frame,
    mapped to a's parent frame, its angle wrapped; b's angles must be wrapped already, as a
    Pose2's are."""
    c, s = np.cos(a[..., 2]), np.sin(a[..., 2])
    x, y = b[..., 0], b[..., 1]
    return np.stack([a[..., 0] + c * x - s * y, a[..., 1] + s * x + c * y,
                     wrap_angles(a[..., 2] + b[..., 2])], axis=-1)


def pose_deltas(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The local increments d [..., 3] from poses a to b, with compose_poses(a, d) == b: the
    product of a's inverse and b."""
    c, s = np.cos(a[..., 2]), np.sin(a[..., 2])
    x, y = a[..., 0], a[..., 1]
    inverse = np.stack([-(c * x + s * y), -(-s * x + c * y), wrap_angles(-a[..., 2])], axis=-1)
    return compose_poses(inverse, b)


# motor coefficient slots within the even subalgebra: [s, e01, e20, e12].
MOTOR_SLOTS = (0, 4, 5, 6)

