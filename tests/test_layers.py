"""Equivariant layer primitives: basis actions, equivariance, attention identities."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from eqtraffic import autodiff as ad
from eqtraffic.batch import sandwich_array, sandwich_matrix
from eqtraffic.layers import (
    DISTANCE_EPS,
    KEY_MIX,
    QUERY_MIX,
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
from eqtraffic.pga import INNER_INDICES, Pose2
from helpers import (
    attend,
    distance_features,
    encode_point,
    gp,
    grad_check,
    grade,
    inner,
    join,
    max_rel_err,
    motor_from_pose,
    rand_motor,
    rand_pose,
    reverse,
)


def distance_features_query(x, eps=DISTANCE_EPS):
    """Query-side features, [..., C, 8] -> [..., C, 4]."""
    return distance_features(x, QUERY_MIX, eps)


def distance_features_key(x, eps=DISTANCE_EPS):
    """Key-side features; dotted with the query side they give (up to the eps factor) the
    negative squared distance between encoded points."""
    return distance_features(x, KEY_MIX, eps)


def transform_mv(motor, x):
    """Apply one motor to every token/channel of [..., C, 8]."""
    return np.asarray(sandwich_array(motor, np.asarray(x)))


def deviation(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b))))


def rand_eq_weight(rng, c_out, c_in, scale=1.0):
    return rng.normal(0.0, scale, size=(c_out, c_in, 10))


# ---------------------------------------------------------------------------
# linear layer
# ---------------------------------------------------------------------------

def linear(weight, bias=None) -> dict:
    """A parameter mapping holding one equivariant linear, "l"."""
    return {"l/weight": weight} if bias is None else {"l/weight": weight, "l/bias": bias}


def test_eq_linear_identity_params():
    rng = np.random.default_rng(0)
    weight = np.zeros((1, 1, 10))
    weight[0, 0, :4] = 1.0
    x = rng.normal(size=(5, 1, 8))
    assert np.allclose(eq_linear(x, linear(weight), "l"), x, atol=1e-15)


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
        return np.asarray(eq_linear(x[None], linear(weight), "l"))[0, 0]

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
    out = np.asarray(eq_linear(np.zeros((3, 1, 8)), linear(weight, bias), "l"))
    assert np.allclose(out[..., 0], np.broadcast_to(bias, (3, 2)))
    assert np.allclose(out[..., 1:], 0.0)


def test_eq_linear_channel_mixing_matches_loop():
    rng = np.random.default_rng(2)
    weight = rand_eq_weight(rng, 3, 2)
    x = rng.normal(size=(4, 2, 8))
    got = np.asarray(eq_linear(x, linear(weight), "l"))
    # slow oracle: per-pair map built from explicit grade projections
    for o in range(3):
        for t in range(4):
            acc = np.zeros(8)
            for i in range(2):
                for k in range(4):
                    acc += weight[o, i, k] * grade(x[t, i], k)
                for k in range(3):
                    gk = grade(x[t, i], k)
                    acc += weight[o, i, 4 + k] * gp(np.eye(8)[1], gk)
                    acc += weight[o, i, 7 + k] * gp(np.eye(8)[7], gk)
            assert np.allclose(got[t, o], acc, atol=1e-12)


def test_eq_linear_equivariance():
    rng = np.random.default_rng(3)
    weight = rand_eq_weight(rng, 3, 2)
    bias = rng.normal(size=3)
    x = rng.normal(size=(6, 2, 8))
    worst = 0.0
    for _ in range(200):
        u = rand_motor(rng)
        lhs = np.asarray(eq_linear(transform_mv(u, x), linear(weight, bias), "l"))
        rhs = transform_mv(u, np.asarray(eq_linear(x, linear(weight, bias), "l")))
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
            want = join(y[t, c], z[t, c])
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
    parts = x[..., list(INNER_INDICES)]
    mean_sq = (parts * parts).sum(axis=-1).mean(axis=-1, keepdims=True)
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
    ad.backward(tape, loss)
    assert x_var.grad.dtype == np.float32

    leaves = [ad.Var(a) for a in (x, x, x, s, s, s)]
    with ad.Tape() as tape:
        attend(*leaves, heads=2, mask=np.tri(3, dtype=bool))
    assert [node.op for node in tape.nodes] == ["key_rows", "mv_attention"]
    for node in tape.nodes:
        assert [out.dtype for out in node.outputs] == [np.float32] * 2
        cotangents = ad._VJPS[node.op](node, tuple(np.ones_like(out.data) for out in node.outputs))
        assert [g.dtype for g in cotangents] == [np.float32] * 4

    with ad.Tape() as tape:
        out = geometric_bilinear(*leaves[:3], leaves[0])
    assert out.dtype == np.float32
    for node in tape.nodes[:2]:  # the geometric product and the join
        assert node.op == "bilinear8"
        cotangents = ad._VJPS["bilinear8"](node, np.ones_like(node.output.data))
        assert [g.dtype for g in cotangents] == [np.float32] * 2


# ---------------------------------------------------------------------------
# fused attention against the composite attention it replaced
# ---------------------------------------------------------------------------

def composite_attention(mv_q, mv_k, mv_v, sq, sk, sv, heads, mask=None, distance_awareness=True):
    """Reference: eq_attention spelled out in elementary tape ops (36 nodes per call)."""
    c, cs = ad.data_of(mv_q).shape[-2] // heads, ad.data_of(sq).shape[-1] // heads

    def heads_mv(x):
        d = ad.data_of(x)
        return ad.moveaxis(ad.reshape(x, d.shape[:-2] + (heads, c, 8)), -3, -4)

    def heads_scalar(x):
        d = ad.data_of(x)
        return ad.moveaxis(ad.reshape(x, d.shape[:-1] + (heads, cs)), -2, -3)

    def merge_heads(x, tail):
        d = ad.data_of(x)
        ax = d.ndim - 3 - tail
        moved = ad.moveaxis(x, ax, ax + 1)
        return ad.reshape(moved, d.shape[:ax] + (d.shape[ax + 1], d.shape[ax] * d.shape[ax + 2]) + d.shape[ax + 3:])

    def rows(mv, s, feature):
        mv_h = heads_mv(mv)
        lead = ad.data_of(mv_h).shape[:-2]
        pieces = [ad.reshape(ad.take_last(mv_h, INNER_INDICES), lead + (4 * c,))]
        if distance_awareness:
            pieces.append(ad.reshape(feature(mv_h, DISTANCE_EPS), lead + (4 * c,)))
        pieces.append(heads_scalar(s))
        return ad.concat(pieces, axis=-1)

    qf = rows(mv_q, sq, distance_features_query)
    kf = rows(mv_k, sk, distance_features_key)
    width = (8 if distance_awareness else 4) * c + cs
    logits = ad.div(ad.matmul(qf, ad.moveaxis(kf, -1, -2)), math.sqrt(width))
    if mask is not None and mask.ndim > 2:
        mask = np.expand_dims(mask, -3)
    weights = ad.masked_softmax(logits, mask)
    mv_v_h = heads_mv(mv_v)
    lead = ad.data_of(mv_v_h).shape[:-2]
    v_flat = ad.concat([ad.reshape(mv_v_h, lead + (8 * c,)), heads_scalar(sv)], axis=-1)
    out = ad.matmul(weights, v_flat)
    mv_flat, s_out = ad.split(out, [8 * c, cs], axis=-1)
    mv_out = ad.reshape(mv_flat, ad.data_of(mv_flat).shape[:-1] + (c, 8))
    return merge_heads(mv_out, 1), merge_heads(s_out, 0)


def attention_case(heads, c, cs, lq, lk, lead_q, lead_k, distance_awareness, mask_kind, causal, seed):
    """Arrays, mask and output cotangents of one fused-attention check; `mask_kind` is None,
    "random" or "row_off" (random, with the first query row masked entirely)."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=lead + (length,) + tail)
              for lead, length, tail in ((lead_q, lq, (heads * c, 8)), (lead_k, lk, (heads * c, 8)),
                                         (lead_k, lk, (heads * c, 8)), (lead_q, lq, (heads * cs,)),
                                         (lead_k, lk, (heads * cs,)), (lead_k, lk, (heads * cs,)))]
    mask = None if mask_kind is None else rng.random(size=lead_q + (lq, lk)) < 0.7
    if mask_kind == "row_off":
        mask[..., 0, :] = False
    if causal:  # the queries are the last lq of the lk key positions
        tri = np.tri(lq, lk, lk - lq, dtype=bool)
        mask = tri if mask is None else mask & tri
    cotangents = [rng.normal(size=lead_q + (lq, heads * c, 8)), rng.normal(size=lead_q + (lq, heads * cs))]
    return heads, distance_awareness, arrays, mask, cotangents


@st.composite
def attention_cases(draw):
    """Random head layouts, causal and masked rows, empty key sets, and keys without the queries' lead dims."""
    heads, c, cs = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(0, 2))
    lq, lk = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    lead_q = draw(st.sampled_from([(), (2,), (2, 3)]))
    lead_k = draw(st.sampled_from([lead_q, lead_q[1:]]))
    distance_awareness = draw(st.booleans())
    causal = draw(st.booleans()) and lq <= lk
    seed = draw(st.integers(0, 2**32 - 1))
    mask_kind = "random" if draw(st.booleans()) else None
    return attention_case(heads, c, cs, lq, lk, lead_q, lead_k, distance_awareness, mask_kind, causal, seed)


def scale_dev(actual, expected) -> float:
    """max |actual - expected| over max |expected|: the error relative to the array's scale."""
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    if expected.size == 0 or not np.any(expected):
        return float(np.max(np.abs(actual), initial=0.0))
    return float(np.max(np.abs(actual - expected)) / np.max(np.abs(expected)))


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(attention_cases())
# keys with fewer (and with size-1) leading dims than the queries, which the VJP folds into its rows
@example(attention_case(2, 2, 1, 3, 4, (2, 3), (3,), True, "random", False, 1))
@example(attention_case(1, 2, 2, 2, 3, (2, 3), (1, 3), True, None, False, 2))
# no keys at all, with keys that broadcast over the queries' leading dims
@example(attention_case(2, 1, 2, 3, 0, (2, 3), (3,), True, "random", False, 3))
@example(attention_case(1, 1, 0, 2, 0, (2,), (), False, None, False, 4))
# a query row with every key masked
@example(attention_case(2, 2, 2, 3, 4, (2,), (), True, "row_off", False, 5))
@example(attention_case(1, 2, 1, 2, 3, (), (), True, "row_off", True, 6))
def test_fused_attention_matches_composite(case):
    heads, distance_awareness, arrays, mask, cotangents = case
    results = []
    for attention in (attend, composite_attention):
        leaves = [ad.Var(a) for a in arrays]
        with ad.Tape() as tape:
            outs = attention(*leaves, heads, mask, distance_awareness)
            loss = ad.add(*[ad.reduce_sum(ad.reshape(ad.mul(out, g), (-1,)), axis=0)
                            for out, g in zip(outs, cotangents)])
        ad.backward(tape, loss)
        results.append([ad.data_of(out) for out in outs] + [leaf.grad for leaf in leaves])
    for fused, composite in zip(*results):
        assert scale_dev(fused, composite) <= 1e-13


# ---------------------------------------------------------------------------
# distance awareness
# ---------------------------------------------------------------------------

def test_distance_features_negative_squared_distance():
    q = encode_point(0.0, 0.0)
    k = encode_point(3.0, 4.0)
    dot = float(np.dot(distance_features_query(q, eps=0.0), distance_features_key(k, eps=0.0)))
    assert math.isclose(dot, -25.0, abs_tol=1e-12)


def test_distance_features_zero_bivector_weight():
    q = np.zeros(8)
    q[4], q[5] = 1.3, -0.4  # q12 = 0
    feats = np.asarray(distance_features_query(q[None, None]))[0, 0]
    assert np.allclose(feats, 0.0)


def test_distance_features_identical_points():
    p = encode_point(-2.0, 7.0)
    dot = float(np.dot(distance_features_query(p, eps=0.0), distance_features_key(p, eps=0.0)))
    assert abs(dot) <= 1e-12


def test_distance_identity_random_points():
    rng = np.random.default_rng(12)
    eps = 1e-6
    for _ in range(1000):
        qx, qy, kx, ky = rng.uniform(-50, 50, size=4)
        q, k = encode_point(qx, qy), encode_point(kx, ky)
        dot = float(np.dot(distance_features_query(q, eps=eps), distance_features_key(k, eps=eps)))
        want = -((kx - qx) ** 2 + (ky - qy) ** 2) / (1.0 + eps) ** 2
        assert abs(dot - want) <= 1e-9 * max(1.0, abs(want))


def test_concatenated_logits_equal_three_term_sum():
    rng = np.random.default_rng(13)
    heads, c, cs, lq, lk = 2, 3, 5, 4, 6
    mv_q = rng.normal(size=(lq, heads * c, 8))
    mv_k = rng.normal(size=(lk, heads * c, 8))
    sq = rng.normal(size=(lq, heads * cs))
    sk = rng.normal(size=(lk, heads * cs))
    logits = np.asarray(eq_attention_logits(mv_q, mv_k, sq, sk, heads))

    denom = math.sqrt(4 * c + 4 * c + cs)
    for h in range(heads):
        for i in range(lq):
            for j in range(lk):
                total = 0.0
                for cc in range(c):
                    qc, kc = mv_q[i, h * c + cc], mv_k[j, h * c + cc]
                    total += inner(qc, kc)
                    total += float(np.dot(distance_features_query(qc), distance_features_key(kc)))
                total += float(np.dot(sq[i, h * cs:(h + 1) * cs], sk[j, h * cs:(h + 1) * cs]))
                assert abs(logits[h, i, j] - total / denom) <= 1e-12 * max(1.0, abs(total))


def test_logit_denominator_without_distance_awareness():
    """Without distance features a head's row is its 4c inner components and its scalars."""
    rng = np.random.default_rng(20)
    heads, c, cs = 2, 2, 3
    mv_q, mv_k = rng.normal(size=(3, heads * c, 8)), rng.normal(size=(4, heads * c, 8))
    sq, sk = rng.normal(size=(3, heads * cs)), rng.normal(size=(4, heads * cs))
    logits = eq_attention_logits(mv_q, mv_k, sq, sk, heads, distance_awareness=False)
    for h in range(heads):
        for i in range(3):
            for j in range(4):
                total = sum(inner(mv_q[i, h * c + cc], mv_k[j, h * c + cc]) for cc in range(c))
                total += float(np.dot(sq[i, h * cs:(h + 1) * cs], sk[j, h * cs:(h + 1) * cs]))
                assert abs(logits[h, i, j] - total / math.sqrt(4 * c + cs)) <= 1e-12 * max(1.0, abs(total))


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def test_single_key_passes_value_through():
    e1 = np.zeros((1, 1, 8))
    e1[0, 0, 2] = 1.0
    value = np.random.default_rng(14).normal(size=(1, 1, 8))
    empty = np.zeros((1, 0))
    logits = np.asarray(eq_attention_logits(e1, e1, empty, empty, heads=1, distance_awareness=False))
    assert np.allclose(logits, 1.0 / math.sqrt(4.0))
    mv_out, s_out = attend(e1, e1, value, empty, empty, empty, heads=1, distance_awareness=False)
    assert np.allclose(np.asarray(mv_out), value, atol=1e-14)
    assert np.asarray(s_out).shape == (1, 0)


def test_identical_keys_average_values():
    rng = np.random.default_rng(15)
    key = rng.normal(size=(1, 2, 8))
    keys = np.concatenate([key, key], axis=0)
    sk = np.tile(rng.normal(size=(1, 2)), (2, 1))
    values = rng.normal(size=(2, 2, 8))
    sv = rng.normal(size=(2, 2))
    q = rng.normal(size=(1, 2, 8))
    sq = rng.normal(size=(1, 2))
    mv_out, s_out = attend(q, keys, values, sq, sk, sv, heads=1)
    assert np.allclose(np.asarray(mv_out)[0], values.mean(0), atol=1e-12)
    assert np.allclose(np.asarray(s_out)[0], sv.mean(0), atol=1e-12)


def test_attention_logits_invariant_under_motors():
    rng = np.random.default_rng(16)
    mv_q = rng.normal(size=(3, 4, 8))
    mv_k = rng.normal(size=(5, 4, 8))
    sq = rng.normal(size=(3, 6))
    sk = rng.normal(size=(5, 6))
    base = np.asarray(eq_attention_logits(mv_q, mv_k, sq, sk, heads=2))
    worst = 0.0
    for _ in range(1000):
        u = rand_motor(rng)
        moved = np.asarray(
            eq_attention_logits(transform_mv(u, mv_q), transform_mv(u, mv_k), sq, sk, heads=2)
        )
        worst = max(worst, deviation(moved, base))
    assert worst <= 1e-10


def test_attention_value_path_equivariance():
    rng = np.random.default_rng(17)
    mv = rng.normal(size=(4, 4, 8))
    s = rng.normal(size=(4, 4))
    worst = 0.0
    for _ in range(200):
        u = rand_motor(rng)
        mv_t = transform_mv(u, mv)
        out_t, s_t = attend(mv_t, mv_t, mv_t, s, s, s, heads=2)
        out, s_base = attend(mv, mv, mv, s, s, s, heads=2)
        worst = max(worst, deviation(np.asarray(out_t), transform_mv(u, np.asarray(out))))
        worst = max(worst, deviation(np.asarray(s_t), np.asarray(s_base)))
    assert worst <= 1e-10


def test_attention_all_masked_rows_are_zero():
    rng = np.random.default_rng(18)
    mv = rng.normal(size=(3, 1, 8))
    s = rng.normal(size=(3, 1))
    mask = np.array([[True, True, True], [False, False, False], [True, False, True]])
    mv_out, s_out = attend(mv, mv, mv, s, s, s, heads=1, mask=mask)
    assert np.allclose(np.asarray(mv_out)[1], 0.0)
    assert np.allclose(np.asarray(s_out)[1], 0.0)
    assert np.all(np.isfinite(np.asarray(mv_out)))


def test_causal_attention_ignores_future():
    rng = np.random.default_rng(19)
    mv = rng.normal(size=(5, 1, 8))
    s = rng.normal(size=(5, 2))
    out1, s1 = attend(mv, mv, mv, s, s, s, heads=1, mask=np.tri(5, dtype=bool))
    mv2 = mv.copy()
    mv2[3:] = rng.normal(size=(2, 1, 8))
    s2_in = s.copy()
    s2_in[3:] = rng.normal(size=(2, 2))
    out2, s2 = attend(mv2, mv2, mv2, s2_in, s2_in, s2_in, heads=1, mask=np.tri(5, dtype=bool))
    assert np.array_equal(np.asarray(out1)[:3], np.asarray(out2)[:3])
    assert np.array_equal(np.asarray(s1)[:3], np.asarray(s2)[:3])
    # fewer queries than keys: the queries are the last positions
    tail, s_tail = attend(mv[3:], mv, mv, s[3:], s, s, heads=1, mask=np.tri(2, 5, 3, dtype=bool))
    assert np.allclose(np.asarray(tail), np.asarray(out1)[3:], rtol=0, atol=1e-14)
    assert np.allclose(np.asarray(s_tail), np.asarray(s1)[3:], rtol=0, atol=1e-14)


def test_attention_rejects_heads_that_do_not_split_the_channels():
    mv, s = np.zeros((2, 3, 8)), np.zeros((2, 2))
    with pytest.raises(ValueError, match="3 mv channels and 2 scalar channels do not split into 2 heads"):
        eq_attention_logits(mv, mv, s, s, heads=2)
    mv, s = np.zeros((2, 4, 8)), np.zeros((2, 3))
    with pytest.raises(ValueError, match="4 mv channels and 3 scalar channels do not split into 2 heads"):
        attend(mv, mv, mv, s, s, s, heads=2)


# ---------------------------------------------------------------------------
# invariant adapter and MLP block
# ---------------------------------------------------------------------------

def rand_mlp(rng, name, d_in, hidden, d_out, scale=0.3) -> dict:
    """The weights of a two-layer MLP `name`, drawn in the order w1, b1, w2, b2."""
    return {
        f"{name}/w1": rng.normal(0, scale, size=(d_in, hidden)),
        f"{name}/b1": rng.normal(0, scale, size=hidden),
        f"{name}/w2": rng.normal(0, scale, size=(hidden, d_out)),
        f"{name}/b2": rng.normal(0, scale, size=d_out),
    }


def test_adapter_zero_mlp_keeps_scalars():
    rng = np.random.default_rng(20)
    mv = rng.normal(size=(4, 2, 8))
    s = rng.normal(size=(4, 5))
    sandwich = sandwich_matrix(np.tile([1.0, 0.0, 0.0, 0.0], (4, 1)))
    mlp = {"a/w1": np.zeros((16, 3)), "a/b1": np.zeros(3), "a/w2": np.zeros((3, 5)), "a/b2": np.zeros(5)}
    out = np.asarray(invariant_adapter(mv, s, sandwich, mlp, "a"))
    assert np.array_equal(out, s)


def test_adapter_sees_own_position_at_origin():
    rng = np.random.default_rng(21)
    poses = [rand_pose(rng) for _ in range(5)]
    mv = np.stack([[encode_point(p.x, p.y)] for p in poses])  # [5, 1, 8]
    frames = np.stack([reverse(motor_from_pose(p)) for p in poses])
    local = np.asarray(sandwich_array(frames, mv))
    origin = encode_point(0.0, 0.0)
    for n in range(5):
        assert np.allclose(local[n, 0], origin, atol=1e-10)


def test_adapter_invariance_under_scene_transform():
    rng = np.random.default_rng(22)
    poses = [rand_pose(rng) for _ in range(6)]
    mv = rng.normal(size=(6, 3, 8))
    s = rng.normal(size=(6, 4))
    mlp = rand_mlp(rng, "a", 24, 8, 4)

    def sandwich_of(pose_list):
        return sandwich_matrix(np.stack([reverse(motor_from_pose(p)) for p in pose_list]))

    base = np.asarray(invariant_adapter(mv, s, sandwich_of(poses), mlp, "a"))
    worst = 0.0
    for _ in range(100):
        g = rand_pose(rng)
        moved_poses = [Pose2(*_compose(g, p)) for p in poses]
        moved = np.asarray(
            invariant_adapter(transform_mv(motor_from_pose(g), mv), s, sandwich_of(moved_poses), mlp, "a")
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
    params = {name: np.zeros_like(arr) for name, arr in _rand_block(np.random.default_rng(0), c, cs).items()}
    mv = rng.normal(size=(5, c, 8))
    s = rng.normal(size=(5, cs))
    mv_out, s_out = eq_mlp_block(mv, s, params, "mlp")
    assert np.array_equal(np.asarray(mv_out), mv)
    assert np.array_equal(np.asarray(s_out), s)


def _rand_block(rng, c, cs, scale=0.4) -> dict:
    """The weights of an equivariant MLP block "mlp" on c multivector and cs scalar channels."""
    params = {}
    for name, c_out, c_in in (("expand", 4 * c, c), ("mid", 2 * c, 2 * c), ("out", c, 2 * c)):
        params[f"mlp/{name}/weight"] = rng.normal(0, scale, size=(c_out, c_in, 10))
        params[f"mlp/{name}/bias"] = rng.normal(0, scale, size=c_out)
    return params | rand_mlp(rng, "mlp/scalar", cs, 2 * cs, cs, scale=0.3)


def test_eq_mlp_block_equivariance():
    rng = np.random.default_rng(24)
    c, cs = 2, 4
    params = _rand_block(rng, c, cs)
    mv = rng.normal(size=(5, c, 8))
    s = rng.normal(size=(5, cs))
    base_mv, base_s = eq_mlp_block(mv, s, params, "mlp")
    worst = 0.0
    for _ in range(100):
        u = rand_motor(rng)
        mv_t, s_t = eq_mlp_block(transform_mv(u, mv), s, params, "mlp")
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
        out = eq_linear(v[0], linear(v[1], v[2]), "l")
        return ad.reduce_sum(ad.reshape(ad.mul(out, out), (-1,)), axis=0)

    assert grad_check(fn, [x, weight, bias]) <= 1e-6


def test_attention_grad_check():
    rng = np.random.default_rng(26)
    mv = rng.normal(size=(3, 2, 8))
    s = rng.normal(size=(3, 2))

    def fn(v):
        mv_out, s_out = attend(v[0], v[0], v[0], v[1], v[1], v[1], heads=1)
        a = ad.reduce_sum(ad.reshape(ad.mul(mv_out, mv_out), (-1,)), axis=0)
        b = ad.reduce_sum(ad.reshape(ad.mul(s_out, s_out), (-1,)), axis=0)
        return ad.add(a, b)

    assert grad_check(fn, [mv, s], max_coords=80) <= 1e-5


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

    names = list(_rand_block(np.random.default_rng(0), c, cs))

    def fn(v):
        mv_out, s_out = eq_mlp_block(v[0], v[1], dict(zip(names, v[2:])), "mlp")
        a = ad.reduce_sum(ad.reshape(ad.mul(mv_out, mv_out), (-1,)), axis=0)
        b = ad.reduce_sum(ad.reshape(ad.mul(s_out, s_out), (-1,)), axis=0)
        return ad.add(a, b)

    assert grad_check(fn, arrays, max_coords=40) <= 1e-5
