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
"""

import math
from dataclasses import dataclass

import numpy as np

COMPONENTS = 8
BASIS_NAMES = ("1", "e0", "e1", "e2", "e01", "e20", "e12", "e012")
BLADES = ((), (0,), (1,), (2,), (0, 1), (2, 0), (1, 2), (0, 1, 2))
GRADES = (0, 1, 1, 1, 2, 2, 2, 3)

# squared norms of the generating vectors: e0^2 = 0, e1^2 = e2^2 = 1
_METRIC = (0.0, 1.0, 1.0)

# Indices entering the invariant inner product <x,y> = x_s y_s + x_1 y_1 + x_2 y_2 + x_12 y_12.
INNER_INDICES = (0, 2, 3, 6)

IDEAL_EPS = 1e-12
MOTOR_UNIT_TOL = 1e-9
_MOTOR_RENORM_DRIFT = 1e-12


class IdealPointError(ValueError):
    """Raised when decoding a projective point whose e12 weight vanishes."""


class NonUnitMotorError(ValueError):
    """Raised when a motor's (scalar, e12) pair is not unit length."""


def _sort_blade(blade):
    """Canonicalize a factor list: sorted indices plus the permutation sign."""
    blade = list(blade)
    sign = 1
    for i in range(len(blade)):
        for j in range(len(blade) - 1 - i):
            if blade[j] > blade[j + 1]:
                blade[j], blade[j + 1] = blade[j + 1], blade[j]
                sign = -sign
    return tuple(blade), sign


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
        canonical, csign = _sort_blade(blade)
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

_GRADE_MASKS = np.zeros((4, COMPONENTS))
for _i, _g in enumerate(GRADES):
    _GRADE_MASKS[_g, _i] = 1.0
_GRADE_MASKS.flags.writeable = False


def _as_coeffs(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (COMPONENTS,):
        raise ValueError(f"multivector needs {COMPONENTS} coefficients, got shape {arr.shape}")
    return arr


class Multivector:
    """Immutable element of the algebra, stored as 8 float64 coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs):
        c = _as_coeffs(coeffs).copy()
        c.flags.writeable = False
        object.__setattr__(self, "_c", c)

    @property
    def coeffs(self) -> np.ndarray:
        return self._c

    @classmethod
    def zero(cls) -> "Multivector":
        return cls(np.zeros(COMPONENTS))

    @classmethod
    def scalar(cls, value: float) -> "Multivector":
        c = np.zeros(COMPONENTS)
        c[0] = value
        return cls(c)

    @classmethod
    def basis(cls, index: int) -> "Multivector":
        c = np.zeros(COMPONENTS)
        c[index] = 1.0
        return cls(c)

    def __getitem__(self, index: int) -> float:
        return float(self._c[index])

    def __add__(self, other: "Multivector") -> "Multivector":
        return Multivector(self._c + other._c)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return Multivector(self._c - other._c)

    def __neg__(self) -> "Multivector":
        return Multivector(-self._c)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        return Multivector(self._c * float(other))

    def __rmul__(self, other) -> "Multivector":
        return Multivector(self._c * float(other))

    def __xor__(self, other: "Multivector") -> "Multivector":
        return wedge_product(self, other)

    def dual(self) -> "Multivector":
        return dual(self)

    def grade(self, k: int) -> "Multivector":
        return grade_project(self, k)

    def inner(self, other: "Multivector") -> float:
        return invariant_inner_product(self, other)

    def isclose(self, other: "Multivector", atol: float = 1e-12) -> bool:
        return bool(np.allclose(self._c, other._c, rtol=0.0, atol=atol))

    def __repr__(self) -> str:
        terms = [
            f"{coeff:+g}*{name}" if name != "1" else f"{coeff:+g}"
            for coeff, name in zip(self._c, BASIS_NAMES)
            if coeff != 0.0
        ]
        return "Multivector(" + (" ".join(terms) if terms else "0") + ")"


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Associative bilinear product; bit-identical to expanding the 64-entry table."""
    return Multivector(np.einsum("i,j,ijk->k", a.coeffs, b.coeffs, GEOM_TABLE))


def wedge_product(a: Multivector, b: Multivector) -> Multivector:
    """Antisymmetrized product with v ^ v = 0; intersects lines into points."""
    return Multivector(np.einsum("i,j,ijk->k", a.coeffs, b.coeffs, WEDGE_TABLE))


def dual(x: Multivector) -> Multivector:
    """Coefficient reversal in canonical order; an involution."""
    return Multivector(x.coeffs[::-1])


def join(a: Multivector, b: Multivector) -> Multivector:
    """dual(wedge(dual(a), dual(b))): line through two points, point-line distance."""
    return dual(wedge_product(dual(a), dual(b)))


def grade_project(x: Multivector, k: int) -> Multivector:
    if k not in (0, 1, 2, 3):
        raise ValueError(f"grade must be 0..3, got {k}")
    return Multivector(x.coeffs * _GRADE_MASKS[k])


def invariant_inner_product(a: Multivector, b: Multivector) -> float:
    """Symmetric bilinear form ignoring e0-containing components; SE(2)-invariant."""
    ca, cb = a.coeffs, b.coeffs
    return float(
        ca[0] * cb[0] + ca[2] * cb[2] + ca[3] * cb[3] + ca[6] * cb[6]
    )


def _wrap_angle(theta: float) -> float:
    """Wrap to (-pi, pi]."""
    wrapped = (float(theta) + math.pi) % (2.0 * math.pi) - math.pi
    if wrapped == -math.pi:
        wrapped = math.pi
    return wrapped


@dataclass(frozen=True)
class Pose2:
    """Planar pose (meters, meters, radians); theta is wrapped to (-pi, pi]."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.theta)):
            raise ValueError(f"pose components must be finite, got {self}")
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "theta", _wrap_angle(self.theta))

    def compose(self, other: "Pose2") -> "Pose2":
        """Group product: `other` expressed in this pose's frame, mapped to the global frame."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        return Pose2(
            self.x + c * other.x - s * other.y,
            self.y + s * other.x + c * other.y,
            self.theta + other.theta,
        )

    def inverse(self) -> "Pose2":
        c, s = math.cos(self.theta), math.sin(self.theta)
        return Pose2(-(c * self.x + s * self.y), -(-s * self.x + c * self.y), -self.theta)

    def delta_to(self, other: "Pose2") -> "Pose2":
        """Local pose increment d with self.compose(d) == other."""
        return self.inverse().compose(other)


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """`_wrap_angle` per angle, bit for bit."""
    wrapped = np.remainder(theta + math.pi, 2.0 * math.pi) - math.pi
    return np.where(wrapped == -math.pi, math.pi, wrapped)


def compose_poses(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`Pose2.compose` on arrays [..., 3] of (x, y, theta), bit for bit; b's angles must be
    wrapped already, as a Pose2's are."""
    c, s = np.cos(a[..., 2]), np.sin(a[..., 2])
    x, y = b[..., 0], b[..., 1]
    return np.stack([a[..., 0] + c * x - s * y, a[..., 1] + s * x + c * y,
                     wrap_angles(a[..., 2] + b[..., 2])], axis=-1)


def pose_deltas(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`Pose2.delta_to` on arrays [..., 3], bit for bit: the local increments from a to b."""
    c, s = np.cos(a[..., 2]), np.sin(a[..., 2])
    x, y = a[..., 0], a[..., 1]
    inverse = np.stack([-(c * x + s * y), -(-s * x + c * y), wrap_angles(-a[..., 2])], axis=-1)
    return compose_poses(inverse, b)


# Motor coefficient slots within the even subalgebra: [s, e01, e20, e12].
MOTOR_SLOTS = (0, 4, 5, 6)


def _motor_norm(coeffs: np.ndarray) -> float:
    # only scalar and e12 enter the unit condition; e01/e20 square to zero
    return math.hypot(coeffs[0], coeffs[3])


class Motor:
    """Unit even-grade multivector: a planar roto-translation acting by sandwich."""

    __slots__ = ("_c",)

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=np.float64).copy()
        if c.shape != (4,):
            raise ValueError(f"motor needs 4 coefficients [s, e01, e20, e12], got {c.shape}")
        n = _motor_norm(c)
        if abs(n - 1.0) > MOTOR_UNIT_TOL:
            raise NonUnitMotorError(f"motor (s, e12) norm {n!r} deviates from 1 beyond {MOTOR_UNIT_TOL}")
        if abs(n - 1.0) > _MOTOR_RENORM_DRIFT:
            c = c / n
        c.flags.writeable = False
        object.__setattr__(self, "_c", c)

    @property
    def coeffs(self) -> np.ndarray:
        return self._c

    @classmethod
    def identity(cls) -> "Motor":
        return cls([1.0, 0.0, 0.0, 0.0])

    @classmethod
    def translator(cls, a: float, b: float) -> "Motor":
        return cls([1.0, -a / 2.0, b / 2.0, 0.0])

    @classmethod
    def rotor(cls, theta: float) -> "Motor":
        half = theta / 2.0
        return cls([math.cos(half), 0.0, 0.0, -math.sin(half)])

    @classmethod
    def from_pose(cls, pose: Pose2) -> "Motor":
        return cls.translator(pose.x, pose.y) @ cls.rotor(pose.theta)

    def to_multivector(self) -> Multivector:
        c = np.zeros(COMPONENTS)
        c[list(MOTOR_SLOTS)] = self._c
        return Multivector(c)

    def inverse(self) -> "Motor":
        """Reverse: negates the bivector coefficients. Valid because self is unit."""
        s, a, b, c = self._c
        return Motor([s, -a, -b, -c])

    def __matmul__(self, other: "Motor") -> "Motor":
        full = np.einsum("i,j,ijk->k", self.to_multivector().coeffs, other.to_multivector().coeffs, GEOM_TABLE)
        return Motor(full[list(MOTOR_SLOTS)])

    def apply(self, x: Multivector) -> Multivector:
        return sandwich(self, x)

    def pose(self) -> Pose2:
        """Pose this motor maps the origin frame onto."""
        s, a, b, c = self._c
        theta = 2.0 * math.atan2(-c, s)
        # strip the rotation off the right: t = self @ rotor(theta).inverse()
        ch, sh = math.cos(theta / 2.0), math.sin(theta / 2.0)
        t_e01 = a * ch + b * sh
        t_e20 = b * ch - a * sh
        return Pose2(-2.0 * t_e01, 2.0 * t_e20, theta)

    def __repr__(self) -> str:
        s, a, b, c = self._c
        return f"Motor(s={s:g}, e01={a:g}, e20={b:g}, e12={c:g})"


def motor_from_pose(pose: Pose2) -> Motor:
    """translator(x, y) composed with rotor(theta): sends the origin frame to `pose`."""
    return Motor.from_pose(pose)


def sandwich(u: Motor, x: Multivector) -> Multivector:
    """u x u^{-1}: apply the roto-translation u to a geometric element x."""
    um = u.to_multivector()
    return geometric_product(geometric_product(um, x), u.inverse().to_multivector())


def encode_point(x: float, y: float) -> Multivector:
    c = np.zeros(COMPONENTS)
    c[5] = x  # e20
    c[4] = y  # e01
    c[6] = 1.0  # e12
    return Multivector(c)


def decode_point(m: Multivector) -> tuple[float, float]:
    w = m[6]
    if abs(w) <= IDEAL_EPS:
        raise IdealPointError(f"e12 weight {w!r} is within {IDEAL_EPS} of zero (ideal point)")
    return m[5] / w, m[4] / w


def encode_line(a: float, b: float, c: float, normalize: bool = True) -> Multivector:
    """Line a*x + b*y + c = 0; normalized to a unit normal unless disabled."""
    norm = math.hypot(a, b)
    if norm == 0.0:
        raise ValueError("degenerate line: (a, b) must not be (0, 0)")
    if normalize:
        a, b, c = a / norm, b / norm, c / norm
    out = np.zeros(COMPONENTS)
    out[2] = a  # e1
    out[3] = b  # e2
    out[1] = c  # e0
    return Multivector(out)
