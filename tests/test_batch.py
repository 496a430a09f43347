"""Batched container plumbing against elementwise scalar-loop oracles."""

import numpy as np
import pytest

from eqtraffic import pga
from eqtraffic.batch import (
    MvArray,
    ScalarArray,
    batched_sandwich,
    concat_channels,
    flatten_components,
    motor_reverse,
    motors_to_mv,
    pose_frame_motors,
    sandwich_array,
    split_channels,
)
from helpers import rand_motor, rand_pose


def test_mv_array_validates_last_axis():
    MvArray(np.zeros((2, 3, 8)))
    with pytest.raises(ValueError):
        MvArray(np.zeros((2, 3, 7)))


def test_concat_shapes_and_order():
    rng = np.random.default_rng(0)
    a = MvArray(rng.normal(size=(2, 4, 2, 8)))
    b = MvArray(rng.normal(size=(2, 4, 3, 8)))
    joined = concat_channels(a, b)
    assert joined.data.shape == (2, 4, 5, 8)
    assert np.array_equal(joined.data[..., :2, :], a.data)
    assert np.array_equal(joined.data[..., 2:, :], b.data)

    s1 = ScalarArray(rng.normal(size=(2, 4, 6)))
    s2 = ScalarArray(rng.normal(size=(2, 4, 1)))
    assert concat_channels(s1, s2).data.shape == (2, 4, 7)

    with pytest.raises(ValueError):
        concat_channels(a, s1)
    with pytest.raises(ValueError):
        concat_channels(a, MvArray(rng.normal(size=(3, 4, 2, 8))))


def test_concat_with_empty_is_identity():
    rng = np.random.default_rng(1)
    a = MvArray(rng.normal(size=(5, 2, 8)))
    empty = MvArray(np.zeros((5, 0, 8)))
    assert np.array_equal(concat_channels(a, empty).data, a.data)


def test_split_inverts_concat():
    rng = np.random.default_rng(2)
    a = MvArray(rng.normal(size=(3, 2, 8)))
    b = MvArray(rng.normal(size=(3, 3, 8)))
    back_a, back_b = split_channels(concat_channels(a, b), [2, 3])
    assert np.array_equal(back_a.data, a.data)
    assert np.array_equal(back_b.data, b.data)

    quarters = split_channels(MvArray(rng.normal(size=(3, 4, 8))), [1, 1, 1, 1])
    assert all(q.data.shape == (3, 1, 8) for q in quarters)

    with pytest.raises(ValueError):
        split_channels(a, [1, 2])


def test_flatten_layout_channel_major():
    rng = np.random.default_rng(3)
    x = MvArray(rng.normal(size=(4, 2, 8)))
    flat = flatten_components(x)
    assert flat.data.shape == (4, 16)
    for c in range(2):
        for k in range(8):
            assert np.array_equal(flat.data[:, 8 * c + k], x.data[:, c, k])
    assert not flatten_components(MvArray(np.zeros((2, 3, 8)))).data.any()


def test_batched_sandwich_identity_and_reduction():
    rng = np.random.default_rng(4)
    x = MvArray(rng.normal(size=(5, 3, 8)))
    ident = np.tile([1.0, 0.0, 0.0, 0.0], (5, 1))
    assert np.allclose(batched_sandwich(ident, x).data, x.data, atol=1e-15)

    u = rand_motor(rng)
    single = MvArray(rng.normal(size=(1, 1, 8)))
    got = batched_sandwich(u.coeffs[None, :], single).data[0, 0]
    want = pga.sandwich(u, pga.Multivector(single.data[0, 0])).coeffs
    assert np.allclose(got, want, atol=1e-13)


def test_batched_sandwich_matches_scalar_loop_oracle():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 3, 4, 8))
    motors = np.stack(
        [rand_motor(rng).coeffs for _ in range(6)], axis=0
    ).reshape(2, 3, 4)
    out = batched_sandwich(motors, MvArray(x)).data
    worst = 0.0
    for i in range(2):
        for j in range(3):
            u = pga.Motor(motors[i, j])
            for c in range(4):
                want = pga.sandwich(u, pga.Multivector(x[i, j, c])).coeffs
                worst = max(worst, float(np.max(np.abs(out[i, j, c] - want))))
    assert worst <= 1e-13


def test_batched_sandwich_shape_and_unit_checks():
    x = MvArray(np.zeros((4, 2, 8)))
    with pytest.raises(ValueError):
        batched_sandwich(np.tile([1.0, 0, 0, 0], (3, 1)), x)
    bad = np.tile([2.0, 0, 0, 0], (4, 1))
    with pytest.raises(ValueError):
        batched_sandwich(bad, x)


def test_motor_embedding_roundtrip():
    rng = np.random.default_rng(6)
    u = rand_motor(rng)
    mv = motors_to_mv(u.coeffs[None, :])[0]
    assert np.array_equal(mv, u.to_multivector().coeffs)
    rev = motor_reverse(u.coeffs[None, :])[0]
    assert np.array_equal(rev, u.inverse().coeffs)


def test_sandwich_array_composes_with_pose_motors():
    rng = np.random.default_rng(7)
    poses = [rand_pose(rng) for _ in range(6)]
    motors = np.stack([pga.motor_from_pose(p).coeffs for p in poses])
    pts = np.stack([pga.encode_point(*rng.normal(0, 10, 2)).coeffs for _ in range(6)])
    out = sandwich_array(motors, pts[:, None, :])[:, 0, :]
    for i, p in enumerate(poses):
        want = pga.sandwich(pga.motor_from_pose(p), pga.Multivector(pts[i])).coeffs
        assert np.allclose(out[i], want, atol=1e-12)


def test_pose_frame_motors_match_motor_inverse():
    rng = np.random.default_rng(8)
    n = 400
    theta = np.concatenate([rng.uniform(-np.pi, np.pi, n // 2),
                            np.pi - rng.uniform(0.0, 1e-9, n // 4),
                            -np.pi + rng.uniform(0.0, 1e-9, n // 4)])
    poses = np.column_stack([rng.uniform(-1e5, 1e5, n), rng.uniform(-1e5, 1e5, n), theta])
    got = pose_frame_motors(poses.reshape(20, 20, 3)).reshape(n, 4)
    for i in range(n):
        want = pga.motor_from_pose(pga.Pose2(*poses[i])).inverse().coeffs
        assert np.max(np.abs(got[i] - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(pose_frame_motors(np.zeros((2, 3))), np.tile([1.0, 0, 0, 0], (2, 1)))
