"""Batched motor actions against the per-multivector oracle in helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from eqtraffic.batch import pose_frame_motors, sandwich_array
from eqtraffic.pga import Pose2
from helpers import encode_point, motor_from_pose, motor_product, rand_motor, rand_pose, reverse, sandwich


def test_batched_sandwich_identity_and_reduction():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 3, 8))
    ident = np.tile([1.0, 0.0, 0.0, 0.0], (5, 1))
    assert np.allclose(sandwich_array(ident, x), x, atol=1e-15)

    u = rand_motor(rng)
    single = rng.normal(size=(1, 1, 8))
    got = sandwich_array(u[None, :], single)[0, 0]
    want = sandwich(u, single[0, 0])
    assert np.allclose(got, want, atol=1e-13)


def test_batched_sandwich_matches_scalar_loop_oracle():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 3, 4, 8))
    motors = np.stack(
        [rand_motor(rng) for _ in range(6)], axis=0
    ).reshape(2, 3, 4)
    out = sandwich_array(motors, x)
    worst = 0.0
    for i in range(2):
        for j in range(3):
            for c in range(4):
                want = sandwich(motors[i, j], x[i, j, c])
                worst = max(worst, float(np.max(np.abs(out[i, j, c] - want))))
    assert worst <= 1e-13


def test_batched_sandwich_shape_and_unit_checks():
    x = np.zeros((4, 2, 8))
    with pytest.raises(ValueError):
        sandwich_array(np.tile([1.0, 0, 0, 0], (3, 1)), x)
    with pytest.raises(ValueError):
        sandwich_array(np.tile([1.0, 0, 0], (4, 1)), x)
    bad = np.tile([2.0, 0, 0, 0], (4, 1))
    with pytest.raises(ValueError, match="non-unit motor"):
        sandwich_array(bad, x)


def test_motor_embedding_roundtrip():
    """The per-token 8x8 action maps each basis blade to its sandwich; the reverse undoes it."""
    rng = np.random.default_rng(6)
    for _ in range(20):
        u = rand_motor(rng, trans=1e4)
        tol = 1e-13 * (1.0 + np.max(np.abs(u)))
        rows = sandwich_array(u, np.eye(8))
        for a in range(8):
            assert np.max(np.abs(rows[a] - sandwich(u, np.eye(8)[a]))) <= tol
        x = rng.normal(size=(3, 8))
        back = sandwich_array(reverse(u), sandwich_array(u, x))
        assert np.max(np.abs(back - x)) <= tol * np.max(np.abs(x))


def test_sandwich_array_composes_with_pose_motors():
    rng = np.random.default_rng(7)
    poses = [rand_pose(rng) for _ in range(6)]
    motors = np.stack([motor_from_pose(p) for p in poses])
    pts = np.stack([encode_point(*rng.normal(0, 10, 2)) for _ in range(6)])
    out = sandwich_array(motors, pts[:, None, :])[:, 0, :]
    for i in range(6):
        assert np.allclose(out[i], sandwich(motors[i], pts[i]), atol=1e-12)


def test_pose_frame_motors_match_motor_inverse():
    rng = np.random.default_rng(8)
    n = 400
    theta = np.concatenate([rng.uniform(-np.pi, np.pi, n // 2),
                            np.pi - rng.uniform(0.0, 1e-9, n // 4),
                            -np.pi + rng.uniform(0.0, 1e-9, n // 4)])
    poses = np.column_stack([rng.uniform(-1e5, 1e5, n), rng.uniform(-1e5, 1e5, n), theta])
    got = pose_frame_motors(poses.reshape(20, 20, 3)).reshape(n, 4)
    for i in range(n):
        want = reverse(motor_from_pose(Pose2(*poses[i])))
        assert np.max(np.abs(got[i] - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(pose_frame_motors(np.zeros((2, 3))), np.tile([1.0, 0, 0, 0], (2, 1)))


# ---------------------------------------------------------------------------
# properties over random unit motors and inputs
# ---------------------------------------------------------------------------

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=60)


@st.composite
def motor_arrays(draw, lead):
    """Unit motors [*lead, 4] of random poses, translations up to 1e5 m."""
    n = int(np.prod(lead))
    coord = st.floats(-1e5, 1e5)
    xs = draw(st.lists(coord, min_size=n, max_size=n))
    ys = draw(st.lists(coord, min_size=n, max_size=n))
    ts = draw(st.lists(st.floats(-math.pi, math.pi), min_size=n, max_size=n))
    coeffs = [motor_from_pose(Pose2(*p)) for p in zip(xs, ys, ts)]
    return np.array(coeffs).reshape(lead + (4,))


@st.composite
def sandwich_cases(draw, n_motors):
    lead = draw(hnp.array_shapes(min_dims=1, max_dims=2, max_side=3))
    channels = draw(st.integers(1, 3))
    x = draw(hnp.arrays(np.float64, lead + (channels, 8), elements=st.floats(-10, 10)))
    return (x,) + tuple(draw(motor_arrays(lead)) for _ in range(n_motors))


def _tolerance(x, *motors):
    """Relative to the size of the summed terms: |x| times (1 + the motors' translations)."""
    return 1e-14 * (1.0 + np.max(np.abs(x))) * (1.0 + sum(np.max(np.abs(m)) for m in motors))


@PROPERTY_SETTINGS
@given(sandwich_cases(n_motors=1))
def test_sandwich_array_equals_scalar_sandwich_per_token(case):
    x, motors = case
    out = sandwich_array(motors, x)
    for idx in np.ndindex(motors.shape[:-1]):
        for c in range(x.shape[-2]):
            want = sandwich(motors[idx], x[idx + (c,)])
            assert np.max(np.abs(out[idx + (c,)] - want)) <= _tolerance(x, motors)


@PROPERTY_SETTINGS
@given(sandwich_cases(n_motors=2))
def test_sandwich_array_composition_is_motor_product(case):
    x, u1, u2 = case
    product = np.empty_like(u1)
    for idx in np.ndindex(u1.shape[:-1]):
        product[idx] = motor_product(u1[idx], u2[idx])
    nested = sandwich_array(u1, sandwich_array(u2, x))
    once = sandwich_array(product, x)
    assert np.max(np.abs(nested - once)) <= _tolerance(x, u1, u2)
