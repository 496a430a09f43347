"""Equivariant layer primitives: basis actions, equivariance, attention identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from eqtraffic import autodiff as ad
from eqtraffic import pga
from eqtraffic.batch import sandwich_array
from eqtraffic.layers import (
    AttentionConfig,
    EqMlpBlockParams,
    MlpParams,
    distance_features_key,
    distance_features_query,
    eq_attention,
    eq_attention_logits,
    eq_layer_norm,
    eq_linear,
    eq_mlp_block,
    gated_relu,
    geometric_bilinear,
    invariant_adapter,
    noneq_linear,
    rms_normalize,
    scalar_layer_norm,
)
from helpers import max_rel_err, rand_motor, rand_pose


def transform_mv(motor, x):
    """Apply one motor to every token/channel of [..., C, 8]."""
    return np.asarray(sandwich_array(np.asarray(motor.coeffs), np.asarray(x)))


def deviation(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b))))


def rand_eq_weight(rng, c_out, c_in, scale=1.0):
    return rng.normal(0.0, scale, size=(c_out, c_in, 10))


# ---------------------------------------------------------------------------
# linear layer
# ---------------------------------------------------------------------------

def test_eq_linear_identity_params():
    rng = np.random.default_rng(0)
    weight = np.zeros((1, 1, 10))
    weight[0, 0, :4] = 1.0
    x = rng.normal(size=(5, 1, 8))
    assert np.allclose(eq_linear(x, weight), x, atol=1e-15)


def test_eq_linear_basis_action():
    # per-basis action of a single generic channel map
    rng = np.random.default_rng(1)
    w = rng.normal(size=4)
    v = rng.normal(size=3)
    u = rng.normal(size=3)
    weight = np.concatenate([w, v, u]).reshape(1, 1, 10)

    def act(comp):
        x = np.zeros((1, 8))
        x[0, comp] = 1.0
        return np.asarray(eq_linear(x[None], weight))[0, 0]

    e = np.eye(8)
    assert np.allclose(act(0), w[0] * e[0] + v[0] * e[1] + u[0] * e[7])  # 1
    assert np.allclose(act(1), w[1] * e[1])                              # e0
    assert np.allclose(act(2), w[1] * e[2] + v[1] * e[4] + u[1] * e[5])  # e1
    assert np.allclose(act(3), w[1] * e[3] - v[1] * e[5] + u[1] * e[4])  # e2
    assert np.allclose(act(4), w[2] * e[4])                              # e01
    assert np.allclose(act(5), w[2] * e[5])                              # e20
    assert np.allclose(act(6), w[2] * e[6] + v[2] * e[7] - u[2] * e[1])  # e12
    assert np.allclose(act(7), w[3] * e[7])                              # e012


def test_eq_linear_bias_on_scalar_component_only():
    weight = np.zeros((2, 1, 10))
    bias = np.array([0.5, -1.5])
    out = np.asarray(eq_linear(np.zeros((3, 1, 8)), weight, bias))
    assert np.allclose(out[..., 0], np.broadcast_to(bias, (3, 2)))
    assert np.allclose(out[..., 1:], 0.0)


def test_eq_linear_channel_mixing_matches_loop():
    rng = np.random.default_rng(2)
    weight = rand_eq_weight(rng, 3, 2)
    x = rng.normal(size=(4, 2, 8))
    got = np.asarray(eq_linear(x, weight))
    # slow oracle: per-pair map built from explicit grade projections
    for o in range(3):
        for t in range(4):
            acc = np.zeros(8)
            for i in range(2):
                mv = pga.Multivector(x[t, i])
                for k in range(4):
                    acc += weight[o, i, k] * pga.grade_project(mv, k).coeffs
                for k in range(3):
                    gk = pga.grade_project(mv, k)
                    acc += weight[o, i, 4 + k] * pga.geometric_product(pga.Multivector.basis(1), gk).coeffs
                    acc += weight[o, i, 7 + k] * pga.geometric_product(pga.Multivector.basis(7), gk).coeffs
            assert np.allclose(got[t, o], acc, atol=1e-12)


def test_eq_linear_equivariance():
    rng = np.random.default_rng(3)
    weight = rand_eq_weight(rng, 3, 2)
    bias = rng.normal(size=3)
    x = rng.normal(size=(6, 2, 8))
    worst = 0.0
    for _ in range(200):
        u = rand_motor(rng)
        lhs = np.asarray(eq_linear(transform_mv(u, x), weight, bias))
        rhs = transform_mv(u, np.asarray(eq_linear(x, weight, bias)))
        worst = max(worst, deviation(lhs, rhs))
    assert worst <= 1e-10


def test_grade_mixing_linear_breaks_equivariance():
    rng = np.random.default_rng(4)
    weight = np.zeros((2, 2, 11))
    weight[..., :10] = rand_eq_weight(rng, 2, 2)
    weight[..., 10] = rng.normal(size=(2, 2))  # the forbidden slot
    x = rng.normal(size=(6, 2, 8))
    worst = 0.0
    for _ in range(50):
        u = rand_motor(rng)
        lhs = np.asarray(noneq_linear(transform_mv(u, x), weight))
        rhs = transform_mv(u, np.asarray(noneq_linear(x, weight)))
        worst = max(worst, deviation(lhs, rhs))
    assert worst > 1e-3


# ---------------------------------------------------------------------------
# bilinear, gate, norm
# ---------------------------------------------------------------------------

def test_geometric_bilinear_unit_vectors():
    e1 = np.zeros((1, 2, 8))
    e1[..., 2] = 1.0
    out = np.asarray(geometric_bilinear(e1, e1, e1, e1))
    assert out.shape == (1, 4, 8)
    # first half: e1 * e1 = 1 per channel
    assert np.allclose(out[0, :2], np.eye(8)[0])
    # second half: join(e1, e1) = dual(e20 ^ e20) = 0
    assert np.allclose(out[0, 2:], 0.0)


def test_geometric_bilinear_scalar_identity():
    rng = np.random.default_rng(5)
    ones = np.zeros((3, 2, 8))
    ones[..., 0] = 1.0
    x = rng.normal(size=(3, 2, 8))
    out = np.asarray(geometric_bilinear(ones, x, x, x))
    assert np.allclose(out[:, :2], x, atol=1e-14)


def test_geometric_bilinear_join_matches_scalar_join():
    rng = np.random.default_rng(6)
    y = rng.normal(size=(4, 3, 8))
    z = rng.normal(size=(4, 3, 8))
    out = np.asarray(geometric_bilinear(y, y, y, z))[:, 3:]
    for t in range(4):
        for c in range(3):
            want = pga.join(pga.Multivector(y[t, c]), pga.Multivector(z[t, c])).coeffs
            assert np.allclose(out[t, c], want, atol=1e-12)


def test_geometric_bilinear_equivariance():
    rng = np.random.default_rng(7)
    args = [rng.normal(size=(5, 2, 8)) for _ in range(4)]
    worst = 0.0
    for _ in range(100):
        u = rand_motor(rng)
        lhs = np.asarray(geometric_bilinear(*[transform_mv(u, a) for a in args]))
        rhs = transform_mv(u, np.asarray(geometric_bilinear(*args)))
        worst = max(worst, deviation(lhs, rhs))
    assert worst <= 1e-11


def test_gated_relu_examples():
    dead = np.zeros((1, 1, 8))
    dead[0, 0] = [-1.0, 0.3, 0.2, 0.1, 0.0, 0.0, 0.5, 0.0]
    assert np.allclose(gated_relu(dead), 0.0)

    x = np.zeros((1, 1, 8))
    x[0, 0, 0] = 2.0
    x[0, 0, 2] = 1.0
    out = np.asarray(gated_relu(x))
    assert np.allclose(out[0, 0, 0], 4.0)
    assert np.allclose(out[0, 0, 2], 2.0)


def test_gated_relu_equivariance():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(6, 3, 8))
    worst = 0.0
    for _ in range(200):
        u = rand_motor(rng)
        lhs = np.asarray(gated_relu(transform_mv(u, x)))
        rhs = transform_mv(u, np.asarray(gated_relu(x)))
        worst = max(worst, deviation(lhs, rhs))
    assert worst <= 1e-10


def test_eq_layer_norm_single_channel():
    x = np.zeros((1, 1, 8))
    x[0, 0, 2] = 2.0  # <x,x> = 4
    out = np.asarray(eq_layer_norm(x, eps=0.0))
    assert np.allclose(out, x / 2.0)


def test_eq_layer_norm_zero_input():
    out = np.asarray(eq_layer_norm(np.zeros((2, 3, 8))))
    assert np.all(np.isfinite(out)) and np.allclose(out, 0.0)


def test_eq_layer_norm_normalizes_energy():
    rng = np.random.default_rng(9)
    for _ in range(100):
        x = rng.normal(0.0, 2.0, size=(4, 8))[None]
        out = np.asarray(eq_layer_norm(x, eps=1e-6))[0]
        energy = np.mean([np.sum(out[c][[0, 2, 3, 6]] ** 2) for c in range(4)])
        assert 1.0 - 1e-6 <= energy <= 1.0


def test_eq_layer_norm_equivariance():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(6, 4, 8))
    worst = 0.0
    for _ in range(200):
        u = rand_motor(rng)
        lhs = np.asarray(eq_layer_norm(transform_mv(u, x)))
        rhs = transform_mv(u, np.asarray(eq_layer_norm(x)))
        worst = max(worst, deviation(lhs, rhs))
    assert worst <= 1e-10


def test_scalar_layer_norm_moments():
    rng = np.random.default_rng(11)
    s = rng.normal(3.0, 2.0, size=(5, 16))
    out = np.asarray(scalar_layer_norm(s))
    assert np.allclose(out.mean(-1), 0.0, atol=1e-12)
    assert np.allclose(out.std(-1), 1.0, atol=1e-3)


# ---------------------------------------------------------------------------
# fused norm and distance primitives against the composite formulas
# ---------------------------------------------------------------------------

def ref_eq_layer_norm(x, eps):
    inner = x[..., list(pga.INNER_INDICES)]
    mean_sq = (inner * inner).sum(axis=-1).mean(axis=-1, keepdims=True)
    return x / np.sqrt(mean_sq + eps)[..., None]


def ref_scalar_layer_norm(s, eps):
    centered = s - s.mean(axis=-1, keepdims=True)
    return centered / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)


def ref_rms_normalize(x, eps):
    return x / np.sqrt((x * x).mean(axis=-1, keepdims=True) + eps)


def ref_distance_features(x, eps, side):
    a, b, c = x[..., 4:5], x[..., 5:6], x[..., 6:7]
    if side == "query":
        parts = [c * c, a * a + b * b, a * c, b * c]
    else:
        parts = [-(a * a + b * b), -(c * c), 2.0 * a * c, 2.0 * b * c]
    return c / (c * c + eps) * np.concatenate(parts, axis=-1)


@st.composite
def point_channels(draw):
    """[*lead, C, 8] random multivectors whose e01/e20/e12 encode weighted points up to 1e5 m out."""
    lead = draw(hnp.array_shapes(min_dims=0, max_dims=3, max_side=3))
    channels = draw(st.integers(1, 4))
    x = draw(hnp.arrays(np.float64, lead + (channels, 8), elements=st.floats(-10, 10)))
    coords = draw(hnp.arrays(np.float64, lead + (channels, 2), elements=st.floats(-1e5, 1e5)))
    weight = draw(hnp.arrays(np.float64, lead + (channels,), elements=st.floats(0.1, 10)))
    sign = draw(hnp.arrays(np.float64, lead + (channels,), elements=st.sampled_from([-1.0, 1.0])))
    x[..., 6] = sign * weight
    x[..., 4] = x[..., 6] * coords[..., 1]
    x[..., 5] = x[..., 6] * coords[..., 0]
    return x


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(point_channels(), st.sampled_from([0.0, 1e-6]))
def test_fused_primitives_match_composite_formulas(x, eps):
    assert max_rel_err(eq_layer_norm(x, eps), ref_eq_layer_norm(x, eps)) <= 1e-13
    assert max_rel_err(distance_features_query(x, eps), ref_distance_features(x, eps, "query")) <= 1e-13
    assert max_rel_err(distance_features_key(x, eps), ref_distance_features(x, eps, "key")) <= 1e-13
    flat = x.reshape(x.shape[:-2] + (-1,))
    assert max_rel_err(scalar_layer_norm(flat), ref_scalar_layer_norm(flat, 1e-6)) <= 1e-13
    assert max_rel_err(rms_normalize(flat), ref_rms_normalize(flat, 1e-6)) <= 1e-13


def test_fused_primitives_keep_f32():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(3, 2, 8)).astype(np.float32)
    s = x.reshape(3, 16)
    outputs = [eq_layer_norm(x), distance_features_query(x), distance_features_key(x),
               scalar_layer_norm(s), rms_normalize(s)]
    assert [np.asarray(out).dtype for out in outputs] == [np.float32] * 5
    x_var = ad.Var(x)
    with ad.Tape() as tape:
        loss = ad.reduce_sum(ad.reshape(distance_features_key(eq_layer_norm(x_var)), (-1,)), axis=0)
    assert all(node.output.dtype == np.float32 for node in tape.nodes)
    assert ad.backward(tape, loss)[x_var].dtype == np.float32


# ---------------------------------------------------------------------------
# distance awareness
# ---------------------------------------------------------------------------

def test_distance_features_negative_squared_distance():
    q = pga.encode_point(0.0, 0.0)
    k = pga.encode_point(3.0, 4.0)
    dot = float(np.dot(distance_features_query(q.coeffs, eps=0.0), distance_features_key(k.coeffs, eps=0.0)))
    assert math.isclose(dot, -25.0, abs_tol=1e-12)


def test_distance_features_zero_bivector_weight():
    q = np.zeros(8)
    q[4], q[5] = 1.3, -0.4  # q12 = 0
    feats = np.asarray(distance_features_query(q[None, None]))[0, 0]
    assert np.allclose(feats, 0.0)


def test_distance_features_identical_points():
    p = pga.encode_point(-2.0, 7.0)
    dot = float(np.dot(distance_features_query(p.coeffs, eps=0.0), distance_features_key(p.coeffs, eps=0.0)))
    assert abs(dot) <= 1e-12


def test_distance_identity_random_points():
    rng = np.random.default_rng(12)
    eps = 1e-6
    for _ in range(1000):
        qx, qy, kx, ky = rng.uniform(-50, 50, size=4)
        q, k = pga.encode_point(qx, qy), pga.encode_point(kx, ky)
        dot = float(np.dot(distance_features_query(q.coeffs, eps=eps), distance_features_key(k.coeffs, eps=eps)))
        want = -((kx - qx) ** 2 + (ky - qy) ** 2) / (1.0 + eps) ** 2
        assert abs(dot - want) <= 1e-9 * max(1.0, abs(want))


def test_concatenated_logits_equal_three_term_sum():
    rng = np.random.default_rng(13)
    heads, c, cs, lq, lk = 2, 3, 5, 4, 6
    cfg = AttentionConfig(heads=heads, mv_per_head=c, scalar_per_head=cs)
    mv_q = rng.normal(size=(lq, heads * c, 8))
    mv_k = rng.normal(size=(lk, heads * c, 8))
    sq = rng.normal(size=(lq, heads * cs))
    sk = rng.normal(size=(lk, heads * cs))
    logits = np.asarray(eq_attention_logits(mv_q, mv_k, sq, sk, cfg))

    denom = math.sqrt(4 * c + 4 * c + cs)
    for h in range(heads):
        for i in range(lq):
            for j in range(lk):
                total = 0.0
                for cc in range(c):
                    qc = pga.Multivector(mv_q[i, h * c + cc])
                    kc = pga.Multivector(mv_k[j, h * c + cc])
                    total += pga.invariant_inner_product(qc, kc)
                    total += float(
                        np.dot(distance_features_query(qc.coeffs), distance_features_key(kc.coeffs))
                    )
                total += float(np.dot(sq[i, h * cs:(h + 1) * cs], sk[j, h * cs:(h + 1) * cs]))
                assert abs(logits[h, i, j] - total / denom) <= 1e-12 * max(1.0, abs(total))


def test_logit_denominator_without_distance_awareness():
    cfg = AttentionConfig(heads=1, mv_per_head=2, scalar_per_head=3, distance_awareness=False)
    assert cfg.logit_denominator == math.sqrt(4 * 2 + 3)


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def test_single_key_passes_value_through():
    cfg = AttentionConfig(heads=1, mv_per_head=1, scalar_per_head=0, distance_awareness=False)
    e1 = np.zeros((1, 1, 8))
    e1[0, 0, 2] = 1.0
    value = np.random.default_rng(14).normal(size=(1, 1, 8))
    empty = np.zeros((1, 0))
    logits = np.asarray(eq_attention_logits(e1, e1, empty, empty, cfg))
    assert np.allclose(logits, 1.0 / math.sqrt(4.0))
    mv_out, s_out = eq_attention(e1, e1, value, empty, empty, empty, cfg)
    assert np.allclose(np.asarray(mv_out), value, atol=1e-14)
    assert np.asarray(s_out).shape == (1, 0)


def test_identical_keys_average_values():
    rng = np.random.default_rng(15)
    cfg = AttentionConfig(heads=1, mv_per_head=2, scalar_per_head=2)
    key = rng.normal(size=(1, 2, 8))
    keys = np.concatenate([key, key], axis=0)
    sk = np.tile(rng.normal(size=(1, 2)), (2, 1))
    values = rng.normal(size=(2, 2, 8))
    sv = rng.normal(size=(2, 2))
    q = rng.normal(size=(1, 2, 8))
    sq = rng.normal(size=(1, 2))
    mv_out, s_out = eq_attention(q, keys, values, sq, sk, sv, cfg)
    assert np.allclose(np.asarray(mv_out)[0], values.mean(0), atol=1e-12)
    assert np.allclose(np.asarray(s_out)[0], sv.mean(0), atol=1e-12)


def test_attention_logits_invariant_under_motors():
    rng = np.random.default_rng(16)
    cfg = AttentionConfig(heads=2, mv_per_head=2, scalar_per_head=3)
    mv_q = rng.normal(size=(3, 4, 8))
    mv_k = rng.normal(size=(5, 4, 8))
    sq = rng.normal(size=(3, 6))
    sk = rng.normal(size=(5, 6))
    base = np.asarray(eq_attention_logits(mv_q, mv_k, sq, sk, cfg))
    worst = 0.0
    for _ in range(1000):
        u = rand_motor(rng)
        moved = np.asarray(
            eq_attention_logits(transform_mv(u, mv_q), transform_mv(u, mv_k), sq, sk, cfg)
        )
        worst = max(worst, deviation(moved, base))
    assert worst <= 1e-10


def test_attention_value_path_equivariance():
    rng = np.random.default_rng(17)
    cfg = AttentionConfig(heads=2, mv_per_head=2, scalar_per_head=2)
    mv = rng.normal(size=(4, 4, 8))
    s = rng.normal(size=(4, 4))
    worst = 0.0
    for _ in range(200):
        u = rand_motor(rng)
        mv_t = transform_mv(u, mv)
        out_t, s_t = eq_attention(mv_t, mv_t, mv_t, s, s, s, cfg)
        out, s_base = eq_attention(mv, mv, mv, s, s, s, cfg)
        worst = max(worst, deviation(np.asarray(out_t), transform_mv(u, np.asarray(out))))
        worst = max(worst, deviation(np.asarray(s_t), np.asarray(s_base)))
    assert worst <= 1e-10


def test_attention_all_masked_rows_are_zero():
    rng = np.random.default_rng(18)
    cfg = AttentionConfig(heads=1, mv_per_head=1, scalar_per_head=1)
    mv = rng.normal(size=(3, 1, 8))
    s = rng.normal(size=(3, 1))
    mask = np.array([[True, True, True], [False, False, False], [True, False, True]])
    mv_out, s_out = eq_attention(mv, mv, mv, s, s, s, cfg, mask=mask)
    assert np.allclose(np.asarray(mv_out)[1], 0.0)
    assert np.allclose(np.asarray(s_out)[1], 0.0)
    assert np.all(np.isfinite(np.asarray(mv_out)))


def test_causal_attention_ignores_future():
    rng = np.random.default_rng(19)
    cfg = AttentionConfig(heads=1, mv_per_head=1, scalar_per_head=2, causal=True)
    mv = rng.normal(size=(5, 1, 8))
    s = rng.normal(size=(5, 2))
    out1, s1 = eq_attention(mv, mv, mv, s, s, s, cfg)
    mv2 = mv.copy()
    mv2[3:] = rng.normal(size=(2, 1, 8))
    s2_in = s.copy()
    s2_in[3:] = rng.normal(size=(2, 2))
    out2, s2 = eq_attention(mv2, mv2, mv2, s2_in, s2_in, s2_in, cfg)
    assert np.array_equal(np.asarray(out1)[:3], np.asarray(out2)[:3])
    assert np.array_equal(np.asarray(s1)[:3], np.asarray(s2)[:3])
    # fewer queries than keys: the queries are the last positions
    tail, s_tail = eq_attention(mv[3:], mv, mv, s[3:], s, s, cfg)
    assert np.allclose(np.asarray(tail), np.asarray(out1)[3:], rtol=0, atol=1e-14)
    assert np.allclose(np.asarray(s_tail), np.asarray(s1)[3:], rtol=0, atol=1e-14)
    with pytest.raises(ValueError, match="lq <= lk"):
        eq_attention(mv, mv[:3], mv[:3], s, s[:3], s[:3], cfg)


def test_attention_config_validation():
    cfg = AttentionConfig(heads=2, mv_per_head=2, scalar_per_head=1)
    with pytest.raises(ValueError):
        eq_attention_logits(
            np.zeros((2, 3, 8)), np.zeros((2, 3, 8)), np.zeros((2, 2)), np.zeros((2, 2)), cfg
        )


# ---------------------------------------------------------------------------
# invariant adapter and MLP block
# ---------------------------------------------------------------------------

def rand_mlp(rng, d_in, hidden, d_out, scale=0.3):
    return MlpParams(
        w1=rng.normal(0, scale, size=(d_in, hidden)),
        b1=rng.normal(0, scale, size=hidden),
        w2=rng.normal(0, scale, size=(hidden, d_out)),
        b2=rng.normal(0, scale, size=d_out),
    )


def test_adapter_zero_mlp_keeps_scalars():
    rng = np.random.default_rng(20)
    mv = rng.normal(size=(4, 2, 8))
    s = rng.normal(size=(4, 5))
    frames = np.tile([1.0, 0.0, 0.0, 0.0], (4, 1))
    mlp = MlpParams(np.zeros((16, 3)), np.zeros(3), np.zeros((3, 5)), np.zeros(5))
    out = np.asarray(invariant_adapter(mv, s, frames, mlp))
    assert np.array_equal(out, s)


def test_adapter_sees_own_position_at_origin():
    rng = np.random.default_rng(21)
    poses = [rand_pose(rng) for _ in range(5)]
    mv = np.stack([[pga.encode_point(p.x, p.y).coeffs] for p in poses])  # [5, 1, 8]
    frames = np.stack([pga.motor_from_pose(p).inverse().coeffs for p in poses])
    local = np.asarray(sandwich_array(frames, mv))
    origin = pga.encode_point(0.0, 0.0).coeffs
    for n in range(5):
        assert np.allclose(local[n, 0], origin, atol=1e-10)


def test_adapter_invariance_under_scene_transform():
    rng = np.random.default_rng(22)
    poses = [rand_pose(rng) for _ in range(6)]
    mv = rng.normal(size=(6, 3, 8))
    s = rng.normal(size=(6, 4))
    mlp = rand_mlp(rng, 24, 8, 4)

    def frames_of(pose_list):
        return np.stack([pga.motor_from_pose(p).inverse().coeffs for p in pose_list])

    base = np.asarray(invariant_adapter(mv, s, frames_of(poses), mlp))
    worst = 0.0
    for _ in range(100):
        g = rand_motor(rng)
        gp = g.pose()
        moved_poses = [
            pga.Pose2(*_compose(gp, p)) for p in poses
        ]
        moved = np.asarray(
            invariant_adapter(transform_mv(g, mv), s, frames_of(moved_poses), mlp)
        )
        worst = max(worst, deviation(moved, base))
    assert worst <= 1e-10


def _compose(g, p):
    c, s = math.cos(g.theta), math.sin(g.theta)
    return (
        g.x + c * p.x - s * p.y,
        g.y + s * p.x + c * p.y,
        g.theta + p.theta,
    )


def test_eq_mlp_block_zero_weights_is_residual_identity():
    rng = np.random.default_rng(23)
    c, cs = 2, 4
    params = EqMlpBlockParams(
        expand=_zero_eq(4 * c, c),
        mid=_zero_eq(2 * c, 2 * c),
        out=_zero_eq(c, 2 * c),
        scalar=MlpParams(np.zeros((cs, 2 * cs)), np.zeros(2 * cs), np.zeros((2 * cs, cs)), np.zeros(cs)),
    )
    mv = rng.normal(size=(5, c, 8))
    s = rng.normal(size=(5, cs))
    mv_out, s_out = eq_mlp_block(mv, s, params)
    assert np.array_equal(np.asarray(mv_out), mv)
    assert np.array_equal(np.asarray(s_out), s)


def _zero_eq(c_out, c_in):
    from eqtraffic.layers import EqLinearParams

    return EqLinearParams(np.zeros((c_out, c_in, 10)), np.zeros(c_out))


def _rand_eq(rng, c_out, c_in, scale=0.4):
    from eqtraffic.layers import EqLinearParams

    return EqLinearParams(rng.normal(0, scale, size=(c_out, c_in, 10)), rng.normal(0, scale, size=c_out))


def test_eq_mlp_block_equivariance():
    rng = np.random.default_rng(24)
    c, cs = 2, 4
    params = EqMlpBlockParams(
        expand=_rand_eq(rng, 4 * c, c),
        mid=_rand_eq(rng, 2 * c, 2 * c),
        out=_rand_eq(rng, c, 2 * c),
        scalar=rand_mlp(rng, cs, 2 * cs, cs),
    )
    mv = rng.normal(size=(5, c, 8))
    s = rng.normal(size=(5, cs))
    base_mv, base_s = eq_mlp_block(mv, s, params)
    worst = 0.0
    for _ in range(100):
        u = rand_motor(rng)
        mv_t, s_t = eq_mlp_block(transform_mv(u, mv), s, params)
        worst = max(worst, deviation(np.asarray(mv_t), transform_mv(u, np.asarray(base_mv))))
        worst = max(worst, deviation(np.asarray(s_t), np.asarray(base_s)))
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# gradients through the layer stack
# ---------------------------------------------------------------------------

def test_eq_linear_grad_check():
    rng = np.random.default_rng(25)
    x = rng.normal(size=(3, 2, 8))
    weight = rand_eq_weight(rng, 2, 2, scale=0.5)
    bias = rng.normal(size=2)

    def fn(v):
        out = eq_linear(v[0], v[1], v[2])
        return ad.reduce_sum(ad.reshape(ad.mul(out, out), (-1,)), axis=0)

    assert ad.grad_check(fn, [x, weight, bias]) <= 1e-6


def test_attention_grad_check():
    rng = np.random.default_rng(26)
    cfg = AttentionConfig(heads=1, mv_per_head=2, scalar_per_head=2)
    mv = rng.normal(size=(3, 2, 8))
    s = rng.normal(size=(3, 2))

    def fn(v):
        mv_out, s_out = eq_attention(v[0], v[0], v[0], v[1], v[1], v[1], cfg)
        a = ad.reduce_sum(ad.reshape(ad.mul(mv_out, mv_out), (-1,)), axis=0)
        b = ad.reduce_sum(ad.reshape(ad.mul(s_out, s_out), (-1,)), axis=0)
        return ad.add(a, b)

    assert ad.grad_check(fn, [mv, s], max_coords=80) <= 1e-5


def test_mlp_block_grad_check():
    rng = np.random.default_rng(27)
    c, cs = 2, 3
    mv = rng.normal(size=(2, c, 8))
    s = rng.normal(size=(2, cs))
    arrays = [
        mv, s,
        rng.normal(0, 0.4, size=(4 * c, c, 10)), rng.normal(0, 0.4, size=4 * c),
        rng.normal(0, 0.4, size=(2 * c, 2 * c, 10)), rng.normal(0, 0.4, size=2 * c),
        rng.normal(0, 0.4, size=(c, 2 * c, 10)), rng.normal(0, 0.4, size=c),
        rng.normal(0, 0.4, size=(cs, 2 * cs)), rng.normal(0, 0.4, size=2 * cs),
        rng.normal(0, 0.4, size=(2 * cs, cs)), rng.normal(0, 0.4, size=cs),
    ]

    def fn(v):
        from eqtraffic.layers import EqLinearParams

        params = EqMlpBlockParams(
            expand=EqLinearParams(v[2], v[3]),
            mid=EqLinearParams(v[4], v[5]),
            out=EqLinearParams(v[6], v[7]),
            scalar=MlpParams(v[8], v[9], v[10], v[11]),
        )
        mv_out, s_out = eq_mlp_block(v[0], v[1], params)
        a = ad.reduce_sum(ad.reshape(ad.mul(mv_out, mv_out), (-1,)), axis=0)
        b = ad.reduce_sum(ad.reshape(ad.mul(s_out, s_out), (-1,)), axis=0)
        return ad.add(a, b)

    assert ad.grad_check(fn, arrays, max_coords=40) <= 1e-5
