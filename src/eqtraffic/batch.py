"""Per-token motor actions on batched multivector arrays.

Features live in multivector arrays of shape [..., C, 8] (last axis = the
canonical component order from :mod:`eqtraffic.pga`); motors in arrays of
coefficients [..., 4] over the slots [s, e01, e20, e12].  `x` may be an
autodiff Var so the same code path serves training.
"""

import numpy as np

from . import autodiff as ad
from .pga import GEOM_TABLE, MOTOR_SLOTS, MOTOR_UNIT_TOL


def _build_sandwich_table():
    """[16, 64]: motor coefficient products m_p m_q -> the 8x8 matrix of x -> u x ũ.

    Entry (4p + q, 8a + k) is the e_k coefficient of (u_p e_a) ũ_q, where u_p
    is motor slot p and ũ_q the reversed slot q (bivectors change sign).
    """
    slots = list(MOTOR_SLOTS)
    reverse = np.array([1.0, -1.0, -1.0, -1.0])
    left = GEOM_TABLE[slots]                                  # [p, a, l]
    right = GEOM_TABLE[:, slots] * reverse[None, :, None]    # [l, q, k]
    table = np.einsum("pal,lqk->pqak", left, right).reshape(16, 64)
    table.flags.writeable = False
    return table


SANDWICH_TABLE = _build_sandwich_table()


def pose_frame_motors(poses: np.ndarray) -> np.ndarray:
    """The motors [..., 4] mapping global coordinates into the frame of each pose [..., 3].

    In closed form, the reverse of translator(x, y) * rotor(theta), the motor
    that sends the origin frame to the pose; the zero pose gives the identity.
    """
    p = np.asarray(poses, dtype=np.float64)
    x, y = p[..., 0] / 2.0, p[..., 1] / 2.0
    ch, sh = np.cos(p[..., 2] / 2.0), np.sin(p[..., 2] / 2.0)
    return np.stack([ch, x * ch + y * sh, x * sh - y * ch, sh], axis=-1)


def sandwich_matrix(motors: np.ndarray, dtype=np.float64) -> np.ndarray:
    """The per-token matrices [..., 8, 8] with x @ matrix = u x u^{-1} for the motors [..., 4].

    The sandwich is linear in x, so it is one constant matrix per motor,
    built from SANDWICH_TABLE in float64 and then cast to `dtype`.
    """
    m = np.asarray(motors)
    if m.shape[-1] != 4:
        raise ValueError(f"motor arrays need a trailing axis of 4, got {m.shape}")
    norm = np.hypot(m[..., 0], m[..., 3])
    if np.any(np.abs(norm - 1.0) > MOTOR_UNIT_TOL):
        worst = float(np.max(np.abs(norm - 1.0)))
        raise ValueError(f"non-unit motor in batch: max |norm-1| = {worst:.3e}")
    pairs = (m[..., :, None] * m[..., None, :]).reshape(m.shape[:-1] + (16,))
    return (pairs @ SANDWICH_TABLE).reshape(m.shape[:-1] + (8, 8)).astype(dtype, copy=False)


def sandwich_array(motors: np.ndarray, x):
    """u x u^{-1} per token, broadcast over the channel axis of x [..., C, 8].

    `motors` is always a constant; `x` may be a tracked Var, and keeps its float dtype.
    """
    return ad.matmul(x, sandwich_matrix(motors, np.promote_types(ad.data_of(x).dtype, np.float32)))
