"""Gradient engine: VJP correctness against central differences, Adam, tape mechanics."""

import math

import numpy as np
import pytest

from eqtraffic import autodiff as ad
from eqtraffic.pga import GEOM_TABLE, JOIN_TABLE, WEDGE_TABLE
from helpers import (
    biased_matmul_composite,
    bilinear8_vjp,
    centered_rms_norm_composite,
    embedding_vjp,
    grad_check,
    matmul_vjp,
    mv_linear_gx,
    split_composite,
)


def scalarize(x):
    """Reduce any tracked tensor to a scalar with non-uniform weights."""
    d = ad.data_of(x)
    weights = np.linspace(0.5, 1.5, d.size).reshape(d.shape)
    return ad.reduce_sum(ad.reshape(ad.mul(x, weights), (-1,)), axis=0)


def test_add_mul_broadcast_gradients():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4,))
    err = grad_check(lambda v: scalarize(ad.mul(ad.add(v[0], v[1]), v[0])), [a, b])
    assert err <= 1e-7


def test_div_sqrt_gradients():
    # the library's square root is the one inside rms_norm: x / sqrt(sum w x^2 + eps)
    rng = np.random.default_rng(1)
    a = rng.uniform(0.5, 2.0, size=(5,))
    b = rng.uniform(0.5, 2.0, size=(5,))
    err = grad_check(lambda v: scalarize(ad.div(ad.rms_norm(v[0], 0.2, -1, 1e-6), v[1])), [a, b])
    assert err <= 1e-7


def test_matmul_gradients():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(4, 5))
    err = grad_check(lambda v: scalarize(ad.matmul(v[0], v[1])), [a, b])
    assert err <= 1e-6


def test_reshape_moveaxis_concat_slice_gradients():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(2, 3, 2))

    def fn(v):
        x = ad.moveaxis(v[0], -1, 0)          # [4, 2, 3]
        x = ad.moveaxis(x, 0, -1)             # back
        joined = ad.concat([x, v[1]], axis=-1)  # [2, 3, 6]
        head, tail = ad.split(joined, [2, 4], axis=-1)
        return ad.add(scalarize(head), scalarize(ad.reshape(tail, (2, 12))))

    assert grad_check(fn, [a, b]) <= 1e-7


def test_take_last_and_reductions():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 8))

    def fn(v):
        picked = ad.take_last(v[0], [0, 2, 3, 6])
        m = ad.mul(ad.reduce_sum(picked, axis=0), 1.0 / 3.0)
        return ad.reduce_sum(ad.mul(m, m), axis=0)

    assert grad_check(fn, [a]) <= 1e-7


def test_relu_gradient():
    a = np.array([-1.0, -0.3, 0.4, 2.0])
    err = grad_check(lambda v: scalarize(ad.relu(v[0])), [a])
    assert err <= 1e-8


def test_masked_softmax_gradient_and_all_masked_row():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(2, 4))
    mask = np.array([[True, True, False, True], [False, False, False, False]])
    out = ad.masked_softmax(logits, mask)
    assert np.allclose(out[1], 0.0)
    assert math.isclose(out[0].sum(), 1.0, abs_tol=1e-12)
    assert out[0, 2] == 0.0

    err = grad_check(lambda v: scalarize(ad.masked_softmax(v[0], mask)), [logits])
    assert err <= 1e-7


def test_log_softmax_gradient():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 5))
    idx = np.array([0, 3, 2])

    def fn(v):
        ls = ad.log_softmax(v[0])
        return ad.mul(ad.reduce_sum(ad.gather_last(ls, idx), axis=0), 1.0 / 3.0)

    assert grad_check(fn, [x]) <= 1e-7


def test_bilinear8_matches_inner_loop_and_gradients():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 3, 8))
    b = rng.normal(size=(2, 3, 8))
    out = ad.bilinear8(a, b, GEOM_TABLE)
    oracle = np.einsum("...i,...j,ijk->...k", a, b, GEOM_TABLE)
    assert np.allclose(out, oracle, atol=1e-13)

    for table in (GEOM_TABLE, WEDGE_TABLE):
        err = grad_check(lambda v, t=table: scalarize(ad.bilinear8(v[0], v[1], t)), [a, b])
        assert err <= 1e-6


def test_bilinear8_broadcasting_gradients():
    rng = np.random.default_rng(8)
    u = rng.normal(size=(4, 1, 8))
    x = rng.normal(size=(4, 3, 8))
    err = grad_check(lambda v: scalarize(ad.bilinear8(v[0], v[1], GEOM_TABLE)), [u, x])
    assert err <= 1e-6


@pytest.mark.parametrize("table", [GEOM_TABLE, WEDGE_TABLE, JOIN_TABLE], ids=["geom", "wedge", "join"])
def test_bilinear8_vjp_matches_the_dense_formula(table):
    rng = np.random.default_rng(10)
    for shape_a, shape_b in (((1, 3, 8), (4, 5, 3, 8)), ((4, 5, 3, 8), (1, 3, 8)), ((2, 3, 8), (2, 3, 8)),
                             ((0, 3, 8), (1, 3, 8))):
        a, b = rng.normal(size=shape_a), rng.normal(size=shape_b)
        with ad.Tape() as tape:
            out = ad.bilinear8(ad.Var(a), ad.Var(b), table)
        g = rng.normal(size=out.shape)
        for actual, expected in zip(ad._VJPS["bilinear8"](tape.nodes[0], g), bilinear8_vjp(a, b, table, g)):
            assert actual.shape == expected.shape and actual.dtype == expected.dtype
            scale = np.max(np.abs(expected), initial=0.0)
            assert np.max(np.abs(actual - expected), initial=0.0) <= 1e-13 * scale


def _vjp(op, *arrays):
    """A seeded cotangent of `op`'s output on the arrays, tracked, and the VJP of the one node it records."""
    with ad.Tape() as tape:
        out = op(*[ad.Var(x) for x in arrays])
    g = np.random.default_rng(11).normal(size=out.shape).astype(out.dtype)
    return g, ad._VJPS[tape.nodes[0].op](tape.nodes[0], g)


def _assert_close(actual, expected, tol=1e-13):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    scale = np.max(np.abs(expected), initial=0.0)
    assert np.max(np.abs(actual - expected), initial=0.0) <= tol * scale


@pytest.mark.parametrize("lead", [(), (3,), (2, 3, 4), (0, 5), "moveaxis"], ids=str)
def test_matmul_vjp_with_a_weight_matches_the_batched_formula(lead):
    rng = np.random.default_rng(12)
    # a non-contiguous left operand: the [3, 4, 5] view of a [5, 3, 4] array
    a = np.moveaxis(rng.normal(size=(5, 3, 4)), 0, -1) if lead == "moveaxis" else rng.normal(size=lead + (4, 5))
    b = rng.normal(size=(5, 6))
    g, (ga, gb, _gbias) = _vjp(ad.matmul, a, b)
    for actual, expected in zip((ga, gb), matmul_vjp(a, b, g)):
        _assert_close(actual, expected)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_ops_match_their_composites_bit_for_bit(dtype):
    """A biased matmul, a centred rms_norm and a split: outputs, and cotangents as `backward`
    accumulates them, equal those of the composites they fuse (matmul + add, sub / reduce_mean /
    rms_norm, one slice node per part)."""
    rng = np.random.default_rng(15)
    a, b, bias, g = (rng.normal(size=shape).astype(dtype) for shape in ((2, 3, 4), (4, 5), (5,), (2, 3, 5)))
    tracked = [ad.Var(x) for x in (a, b, bias)]
    with ad.Tape() as tape:
        out = ad.matmul(*tracked)
    ad.backward(tape, out, g)
    actual = (out.data, *(v.grad for v in tracked))
    for got, want in zip(actual, biased_matmul_composite(a, b, bias, g), strict=True):
        assert got.dtype == dtype and np.array_equal(got, want)

    x, g = (rng.normal(3.0, 2.0, size=(2, 3, 6)).astype(dtype) for _ in range(2))
    vx = ad.Var(x)
    with ad.Tape() as tape:
        normed = ad.rms_norm(vx, 1.0 / 6.0, -1, 1e-6, center=True)
        out = ad.add(normed, vx)  # a residual: x's cotangent holds g when the norm's two terms arrive
    ad.backward(tape, out, g)
    gx = vx.grad
    want_normed, want_gx = centered_rms_norm_composite(x, 1.0 / 6.0, 1e-6, g, g_before=g)
    assert normed.dtype == gx.dtype == dtype
    assert np.array_equal(normed.data, want_normed) and np.array_equal(gx, want_gx)

    x = rng.normal(size=(2, 7, 8)).astype(dtype)
    with ad.Tape() as tape:
        parts = ad.split(ad.Var(x), [2, 4, 1], axis=-2)
    gs = (rng.normal(size=parts[0].shape).astype(dtype), None, rng.normal(size=parts[2].shape).astype(dtype))
    (gx,) = ad._VJPS["split"](tape.nodes[0], gs)
    want_parts, want_gx = split_composite(x, [2, 4, 1], -2, gs)
    assert len(tape.nodes) == 1 and all(np.array_equal(p.data, w) for p, w in zip(parts, want_parts, strict=True))
    assert gx.dtype == dtype and np.array_equal(gx, want_gx)
    assert all(type(p) is np.ndarray for p in ad.split(x, [2, 4, 1], axis=1))  # untracked: plain slices


def test_mv_linear_input_cotangent_matches_the_batched_formula():
    from eqtraffic.layers import LINEAR_BASIS

    rng = np.random.default_rng(13)
    weight = rng.normal(size=(3, 2, LINEAR_BASIS.shape[0]))
    for lead in ((), (4,), (2, 3, 5), (0, 2)):
        x = rng.normal(size=lead + (2, 8))
        g, (gx, _gw, _gb) = _vjp(lambda v, w: ad.mv_linear(v, w, LINEAR_BASIS), x, weight)
        _assert_close(gx, mv_linear_gx(weight, LINEAR_BASIS, g))


@pytest.mark.parametrize("shape, idx", [
    ((6, 3), np.array([[0, 5, 5], [5, 2, -1]])),            # repeated rows, and one counted from the end
    ((3, 64, 64), np.array([[0, 2, 2, 1], [2, 0, 2, 2]])),   # a table of matrices, as the decoder heads
    ((4, 3), np.zeros((0, 2), dtype=int)),                     # no lookup at all
], ids=["repeated", "matrices", "empty"])
def test_embedding_vjp_matches_add_at(shape, idx):
    rng = np.random.default_rng(14)
    for dtype in (np.float64, np.float32):
        table = rng.normal(size=shape).astype(dtype)
        g, (gt,) = _vjp(lambda t: ad.embedding(t, idx), table)
        assert gt.dtype == dtype and gt.shape == shape
        expected = embedding_vjp(shape, idx, g)
        if dtype == np.float64:  # float64 sums in the same order: bit-identical
            assert np.array_equal(gt, expected)
        else:
            _assert_close(gt, expected, tol=1e-6)


def test_embedding_and_gather_gradients():
    rng = np.random.default_rng(9)
    table = rng.normal(size=(6, 3))
    idx = np.array([[0, 5], [5, 2]])
    err = grad_check(lambda v: scalarize(ad.embedding(v[0], idx)), [table])
    assert err <= 1e-7


def test_identity_linear_passes_cotangent_through():
    x = ad.Var(np.arange(6.0).reshape(2, 3))
    with ad.Tape() as tape:
        y = ad.add(x, np.zeros((2, 3)))
        loss = ad.reduce_sum(ad.reshape(y, (-1,)), axis=0)
    ad.backward(tape, loss)
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_gradients_answer_only_for_leaves():
    """A leaf's cotangents are added into its `grad`; an op output holds its slot and no grad."""
    x = ad.Var(np.arange(6.0).reshape(2, 3))
    with ad.Tape() as tape:
        y = ad.mul(x, 2.0)
        loss = ad.reduce_sum(ad.reshape(y, (-1,)), axis=0)
    assert ad.backward(tape, loss) is None
    assert x.slot is None and np.array_equal(x.grad, np.full((2, 3), 2.0))
    assert [(out.slot, out.grad) for node in tape.nodes for out in node.outputs] == [(0, None), (1, None), (2, None)]
    assert tape.outputs == [y, tape.nodes[1].output, loss]
    ad.backward(tape, loss, 0.5)  # a second pass adds to what the first left
    assert np.array_equal(x.grad, np.full((2, 3), 3.0))


def test_param_store_leaves_add_into_one_flat_gradient():
    store = ad.ParamStore([("a", (2, 3)), ("b", (4,))], np.arange(10.0))
    grad = np.zeros(10)
    pvars = store.as_vars(grad)
    assert all(var.grad.base is grad and var.grad.shape == var.shape for var in pvars.values())
    with ad.Tape() as tape:
        squares = ad.reduce_sum(ad.reshape(ad.mul(pvars["a"], pvars["a"]), (-1,)), axis=0)
        loss = ad.add(squares, ad.reduce_sum(pvars["b"], axis=0))
    ad.backward(tape, loss)
    assert np.array_equal(grad, np.concatenate([2.0 * np.arange(6.0), np.ones(4)]))
    assert all(not var.grad.any() for var in store.as_vars().values())
    with pytest.raises(ValueError, match=r"gradient buffer float32 \(10,\) != parameter buffer float64 \(10,\)"):
        store.as_vars(np.zeros(10, dtype=np.float32))
    with pytest.raises(ValueError, match=r"gradient buffer float64 \(9,\) != parameter buffer"):
        store.as_vars(np.zeros(9))


def test_an_op_output_of_another_tape_raises():
    """An op output is numbered on the tape that recorded it; on any other tape, closed or still
    open around this one, its slot would name another value, so no op or backward takes it."""
    x = ad.Var(np.arange(3.0))
    with ad.Tape():
        y = ad.mul(x, 2.0)
    with ad.Tape():
        with pytest.raises(RuntimeError, match="op 'mul' received the output of an op recorded on another tape"):
            ad.mul(y, 3.0)  # y's slot is past this tape's end
        ad.mul(x, 4.0)
        with pytest.raises(RuntimeError, match="op 'reduce_sum' received the output of an op recorded"):
            ad.reduce_sum(y, axis=0)  # y's slot 0 is this tape's first output
    with ad.Tape():
        outer = ad.mul(x, 2.0)
        with ad.Tape() as inner:
            with pytest.raises(RuntimeError, match="op 'add' received the output of an op recorded"):
                ad.add(outer, x)
            z = ad.reduce_sum(x, axis=0)
    with ad.Tape() as other:
        ad.reduce_sum(x, axis=0)
    for tape, loss in ((other, z), (inner, outer)):
        with pytest.raises(TypeError, match="backward needs as its loss the output of an op recorded on its tape"):
            ad.backward(tape, loss)
    assert not x.grad.any()


def test_a_leaf_cotangent_in_another_dtype_raises():
    """A float64 constant promotes a float32 leaf's product, and with it the leaf's cotangent:
    backward refuses it rather than cast it into the float32 grad."""
    x = ad.Var(np.ones(3, dtype=np.float32))
    with ad.Tape() as tape:
        loss = ad.reduce_sum(ad.mul(x, np.full(3, 2.0)), axis=0)
    with pytest.raises(TypeError, match="casting rule 'no'"):
        ad.backward(tape, loss)


def test_missing_vjp_raises_with_op_name():
    x = ad.Var(np.ones(3))
    with ad.Tape() as tape:
        out = ad._record("definitely_unregistered_op", x.data * 2.0, (x,), {})
        loss = ad.reduce_sum(out, axis=0)
    with pytest.raises(ad.MissingVJPError, match="definitely_unregistered_op"):
        ad.backward(tape, loss)


def test_tracked_op_outside_tape_raises():
    x = ad.Var(np.ones(3))
    with pytest.raises(RuntimeError):
        ad.add(x, x)


def test_untracked_ops_return_plain_arrays():
    with ad.Tape() as tape:
        out = ad.add(np.ones(3), np.ones(3))
        assert isinstance(out, np.ndarray)
    assert tape.nodes == []


def test_inner_product_gradient_is_masked_double():
    # d/dx <x,x> = 2 * (components 0,2,3,6 of x), zero elsewhere
    rng = np.random.default_rng(10)
    x = ad.Var(rng.normal(size=8))
    with ad.Tape() as tape:
        picked = ad.take_last(x, [0, 2, 3, 6])
        loss = ad.reduce_sum(ad.mul(picked, picked), axis=0)
    ad.backward(tape, loss)
    g = x.grad
    expect = np.zeros(8)
    for i in (0, 2, 3, 6):
        expect[i] = 2.0 * x.data[i]
    assert np.allclose(g, expect, atol=1e-14)


def test_gradient_determinism():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 8))
    b = rng.normal(size=(4, 8))

    def run():
        va, vb = ad.Var(a.copy()), ad.Var(b.copy())
        with ad.Tape() as tape:
            out = ad.bilinear8(va, vb, GEOM_TABLE)
            loss = ad.reduce_sum(ad.reshape(ad.mul(out, out), (-1,)), axis=0)
        ad.backward(tape, loss)
        return va.grad, vb.grad

    ga1, gb1 = run()
    ga2, gb2 = run()
    assert np.array_equal(ga1, ga2) and np.array_equal(gb1, gb2)


def test_adam_zero_gradient_keeps_params():
    params = ad.ParamStore([("w", (2,))], np.array([1.0, -2.0]))
    state = ad.AdamState(params)
    ad.adam_step(params, np.zeros(2), state, lr=0.1)
    assert np.array_equal(params["w"], [1.0, -2.0])


def test_adam_descends_on_quadratic():
    params = ad.ParamStore([("w", (1,))], np.array([1.0]))
    state = ad.AdamState(params)
    ad.adam_step(params, np.array([2.0]), state, lr=0.1)  # grad of w^2 at w=1
    assert abs(params["w"][0]) < 1.0


def test_adam_converges_on_quadratic():
    params = ad.ParamStore([("w", (1,))], np.array([3.0]))
    state = ad.AdamState(params)
    for _ in range(500):
        ad.adam_step(params, 2.0 * params.flat, state, lr=0.05)
    assert abs(params["w"][0]) < 1e-2


def _adam_per_array(params, grads, state, lr, betas=(0.9, 0.999), eps=1e-8):
    """The reference update: one parameter array at a time, moments in float64."""
    b1, b2 = betas
    state["t"] += 1
    for name, arr in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        m, v = state["m"][name], state["v"][name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** state["t"])
        v_hat = v / (1.0 - b2 ** state["t"])
        update = lr * m_hat / (np.sqrt(v_hat) + eps)
        params[name] = (arr.astype(np.float64) - update).astype(arr.dtype)


def test_flat_adam_is_bit_identical_to_the_per_array_update():
    """Adam on a store's buffer, in place, with one flat gradient, equals the per-array update;
    one store per dtype against the same reference."""
    shapes = {"a": (3, 4), "b": (), "c": (2, 2, 5), "d": (7,)}
    for dtype in (np.float32, np.float64):
        rng = np.random.default_rng(11)
        values = rng.normal(size=sum(math.prod(shape) for shape in shapes.values())).astype(dtype)
        store = ad.ParamStore(shapes.items(), values)
        ref = {name: arr.copy() for name, arr in store.items()}
        state = ad.AdamState(store)
        ref_state = {"t": 0, "m": {n: np.zeros(np.shape(a)) for n, a in ref.items()},
                     "v": {n: np.zeros(np.shape(a)) for n, a in ref.items()}}
        for step in range(6):
            grads = {n: rng.normal(size=np.shape(a)).astype(dtype) for n, a in ref.items()}
            flat_grad = np.concatenate([grads[n] for n in store], axis=None)
            ad.adam_step(store, flat_grad, state, lr=ad.cosine_lr(step, 6, 1e-2))
            _adam_per_array(ref, grads, ref_state, lr=ad.cosine_lr(step, 6, 1e-2))
            for name, arr in ref.items():
                assert store[name].dtype == arr.dtype and np.array_equal(store[name], arr), (dtype, name)
                assert store[name].base is store.flat, (dtype, name)
        with pytest.raises(ValueError, match="gradient shape"):
            ad.adam_step(store, np.zeros(3), state, lr=1e-3)


def test_cosine_schedule_endpoints():
    assert math.isclose(ad.cosine_lr(0, 100, 1e-3), 1e-3)
    assert abs(ad.cosine_lr(99, 100, 1e-3)) <= 1e-12
    mid = ad.cosine_lr(50, 101, 1e-3)
    assert math.isclose(mid, 5e-4, rel_tol=1e-6)


def test_grad_check_constant_function_is_exact():
    err = grad_check(lambda v: ad.reduce_sum(ad.mul(v[0], np.zeros(3)), axis=0), [np.ones(3)])
    assert err == 0.0


def test_param_store_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate parameter name 'a'"):
        ad.ParamStore([("a", (2,)), ("a", (2,))], np.ones(4))


def test_param_store_arrays_are_views_of_one_buffer():
    store = ad.ParamStore([("a", (2, 3)), ("b", ())], np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0]))
    assert store.flat.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0]
    store["a"] = -1.0  # writes into the buffer; the name keeps its view
    store["b"] += 1.0
    assert store.flat.tolist() == [-1.0] * 6 + [8.0]
    assert all(arr.base is store.flat for arr in store.values())
    copy = store.astype(np.float32)
    assert copy.flat.dtype == np.float32 and all(arr.base is copy.flat for arr in copy.values())
    assert copy["a"].shape == (2, 3) and copy["b"].shape == ()


def test_every_primitive_over_twenty_instantiations():
    from helpers import primitive_grad_cases

    worst = {}
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        for name, fn, arrays, floor in primitive_grad_cases(rng):
            err = grad_check(fn, arrays, step=1e-6, seed=trial, min_grad=floor)
            worst[name] = max(worst.get(name, 0.0), err)
    offenders = {k: v for k, v in worst.items() if v > 1e-5}
    assert not offenders, offenders


def test_peaked_attention_grad_case_drops_weights_below_eps_squared():
    """The peaked attention case reaches the forward's cut: every row has a shifted logit (an exp
    argument) below 2·ln eps, and the weight there is exactly 0, never a value below eps²."""
    from helpers import primitive_grad_cases

    cut = 2.0 * math.log(np.finfo(np.float64).eps)
    for trial in range(20):
        (fn, arrays), = [(fn, arrays) for name, fn, arrays, _floor in
                         primitive_grad_cases(np.random.default_rng(1000 + trial)) if name == "mv_attention/peaked"]
        with ad.Tape() as tape:
            fn([ad.Var(a) for a in arrays])
        ctx = next(nd for nd in tape.nodes if nd.op == "mv_attention").ctx
        logits = ctx["qf"] @ ctx["kf"].swapaxes(-1, -2) / ctx["denom"]
        below = logits - logits.max(axis=-1, keepdims=True) < cut
        assert below.any(axis=-1).all() and np.all(ctx["w"][below] == 0.0), trial


def test_every_registered_vjp_has_a_grad_check_case():
    from helpers import primitive_grad_cases

    cases = {name.split("/")[0] for name, _fn, _arrays, _floor in primitive_grad_cases(np.random.default_rng(0))}
    assert set(ad._VJPS) - cases == set()
