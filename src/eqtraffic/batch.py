"""Batched multivector channels and auxiliary scalars.

Multivector features live in arrays of shape [..., C, 8] (last axis = the
canonical component order from :mod:`eqtraffic.pga`); auxiliary invariant
scalars in arrays of shape [..., C'].  The raw-array helpers at the bottom
also accept autodiff Vars so the same code path serves training.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .pga import COMPONENTS, GEOM_TABLE, MOTOR_UNIT_TOL


@dataclass(frozen=True)
class MvArray:
    """Multivector channels: data[..., C, 8], row-major, immutable."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim < 2 or arr.shape[-1] != COMPONENTS:
            raise ValueError(f"MvArray needs shape [..., C, {COMPONENTS}], got {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def channels(self) -> int:
        return self.data.shape[-2]

    @property
    def batch_shape(self) -> tuple:
        return self.data.shape[:-2]

    def flatten(self) -> "ScalarArray":
        return flatten_components(self)


@dataclass(frozen=True)
class ScalarArray:
    """Invariant scalar channels: data[..., C']."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim < 1:
            raise ValueError("ScalarArray needs at least one axis")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def channels(self) -> int:
        return self.data.shape[-1]

    @property
    def batch_shape(self) -> tuple:
        return self.data.shape[:-1]


def _channel_axis(x) -> int:
    return -2 if isinstance(x, MvArray) else -1


def concat_channels(a, b):
    """Concatenate two arrays of the same kind along their channel axis."""
    if type(a) is not type(b):
        raise ValueError(f"cannot concatenate {type(a).__name__} with {type(b).__name__}")
    if a.batch_shape != b.batch_shape:
        raise ValueError(f"batch shapes differ: {a.batch_shape} vs {b.batch_shape}")
    out = np.concatenate([a.data, b.data], axis=_channel_axis(a))
    return type(a)(out)


def split_channels(x, sizes):
    """Inverse of repeated concat: chunks of the given channel sizes, in order."""
    if sum(sizes) != x.channels:
        raise ValueError(f"sizes {sizes} do not sum to channel count {x.channels}")
    parts = np.split(x.data, np.cumsum(sizes)[:-1], axis=_channel_axis(x))
    return [type(x)(p) for p in parts]


def flatten_components(x: MvArray) -> ScalarArray:
    """[..., C, 8] -> [..., 8C], channel-major: element (c, k) lands at 8c + k."""
    if not isinstance(x, MvArray):
        raise ValueError("flatten_components expects an MvArray")
    flat = x.data.reshape(x.batch_shape + (x.channels * COMPONENTS,))
    return ScalarArray(flat)


def batched_sandwich(motors: np.ndarray, x: MvArray) -> MvArray:
    """Apply one motor per token to every channel of x.

    motors: [..., 4] coefficient array matching x's token dims.
    """
    m = np.asarray(motors, dtype=np.float64)
    if m.shape[:-1] != x.batch_shape:
        raise ValueError(f"motor dims {m.shape[:-1]} do not match token dims {x.batch_shape}")
    return MvArray(sandwich_array(m, x.data))


# ---------------------------------------------------------------------------
# raw-array helpers (ndarray or autodiff Var), shared with the layer stack
# ---------------------------------------------------------------------------

def motors_to_mv(motors: np.ndarray) -> np.ndarray:
    """Embed motor coefficients [..., 4] into full multivectors [..., 8]."""
    m = np.asarray(motors)
    if m.shape[-1] != 4:
        raise ValueError(f"motor arrays need a trailing axis of 4, got {m.shape}")
    norm = np.hypot(m[..., 0], m[..., 3])
    if np.any(np.abs(norm - 1.0) > MOTOR_UNIT_TOL):
        worst = float(np.max(np.abs(norm - 1.0)))
        raise ValueError(f"non-unit motor in batch: max |norm-1| = {worst:.3e}")
    out = np.zeros(m.shape[:-1] + (COMPONENTS,), dtype=m.dtype)
    out[..., 0] = m[..., 0]
    out[..., 4] = m[..., 1]
    out[..., 5] = m[..., 2]
    out[..., 6] = m[..., 3]
    return out


def motor_reverse(motors: np.ndarray) -> np.ndarray:
    m = np.asarray(motors)
    out = m.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def pose_frame_motors(poses: np.ndarray) -> np.ndarray:
    """Motors [..., 4] mapping global coordinates into the frame of each pose [..., 3].

    Closed form of `motor_from_pose(p).inverse()`, the reverse of
    translator(x, y) @ rotor(theta); the zero pose gives the identity.
    """
    p = np.asarray(poses, dtype=np.float64)
    x, y = p[..., 0] / 2.0, p[..., 1] / 2.0
    ch, sh = np.cos(p[..., 2] / 2.0), np.sin(p[..., 2] / 2.0)
    return np.stack([ch, x * ch + y * sh, x * sh - y * ch, sh], axis=-1)


def sandwich_array(motors: np.ndarray, x):
    """u x u^{-1} per token, broadcast over the channel axis of x [..., C, 8].

    `motors` is always a constant; `x` may be a tracked Var.
    """
    u = motors_to_mv(motors)[..., None, :]
    u_inv = motors_to_mv(motor_reverse(motors))[..., None, :]
    return ad.bilinear8(ad.bilinear8(u, x, GEOM_TABLE), u_inv, GEOM_TABLE)
