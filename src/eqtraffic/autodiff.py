"""Minimal reverse-mode automatic differentiation over numpy arrays.

A forward pass runs inside a ``Tape`` context; values that need gradients are
wrapped in ``Var``.  Each primitive op computes with plain numpy and records a
node (op name + saved inputs), numbering each output by a per-tape slot, when
any input is tracked.  ``backward`` walks the nodes in exact reverse order,
calling each op's registered vector-Jacobian product; an op output's cotangent
lives in a list at its slot until its VJP has used it, and a leaf's cotangents
are added into its ``grad`` (a view into one flat buffer: ``ParamStore.as_vars``).

Ops called on plain ndarrays never record, so the same layer code serves both
inference and training.  Everything is single precision or double precision
according to the inputs; the engine itself never changes dtype.
"""

import itertools
import math
from typing import Callable

import numpy as np

from .pga import INNER_INDICES


class MissingVJPError(RuntimeError):
    """Backward hit a recorded op with no registered vector-Jacobian product."""


class Var:
    """A tracked array: a leaf, whose cotangents `backward` adds into `grad` (fresh zeros unless
    given), or the output of a recorded op, numbered `slot` on its tape and with no `grad`."""

    __slots__ = ("data", "grad", "slot")

    def __init__(self, data, grad=None, slot=None):
        self.data = np.asarray(data)
        self.grad = np.zeros_like(self.data) if grad is None and slot is None else grad
        self.slot = slot

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Var(shape={self.data.shape}, dtype={self.data.dtype})"


class _Node:
    __slots__ = ("op", "inputs", "output", "ctx")

    def __init__(self, op, inputs, output, ctx):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.ctx = ctx

    @property
    def outputs(self) -> tuple:
        return self.output if type(self.output) is tuple else (self.output,)


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of ops, and of their outputs by slot; backward traverses exactly the reverse order."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.outputs: list[Var] = []

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False


def data_of(x) -> np.ndarray:
    return x.data if isinstance(x, Var) else np.asarray(x)


def _record(op: str, out_data, inputs: tuple, ctx: dict):
    """Return a Var recorded on the active tape, or plain data if untracked.

    A tuple `out_data` records one node with a tuple of output Vars; its VJP
    then receives a tuple of cotangents, None for an output the loss never used.
    """
    for x in inputs:
        if type(x) is Var:
            break
    else:
        return out_data
    if not _TAPE_STACK:
        raise RuntimeError(f"op '{op}' received tracked inputs outside a Tape context")
    tape = _TAPE_STACK[-1]
    outputs, n = tape.outputs, len(tape.outputs)
    for x in inputs:
        if type(x) is Var and x.slot is not None and (x.slot >= n or outputs[x.slot] is not x):
            raise RuntimeError(f"op '{op}' received the output of an op recorded on another tape")
    if type(out_data) is tuple:
        out = tuple(Var(d, slot=slot) for slot, d in enumerate(out_data, n))
        outputs.extend(out)
    else:
        out = Var(out_data, slot=n)
        outputs.append(out)
    tape.nodes.append(_Node(op, inputs, out, ctx))
    return out


_VJPS: dict[str, Callable] = {}


def register_vjp(op: str, fn: Callable) -> None:
    """fn(node, grad_out) -> tuple of input cotangents (None for untracked slots)."""
    _VJPS[op] = fn


def backward(tape: Tape, loss, cotangent=1.0) -> None:
    """Add `cotangent` times the gradient of `loss`, an op output on `tape`, into the `grad` of every
    leaf Var it reaches.  An op output's cotangent is dropped once its node's VJP has used it; a
    leaf's must come in the leaf's dtype, as it is never cast."""
    outputs = tape.outputs
    if not (isinstance(loss, Var) and loss.slot is not None and loss.slot < len(outputs)
            and outputs[loss.slot] is loss):
        raise TypeError("backward needs as its loss the output of an op recorded on its tape")
    cotangents: list = [None] * len(outputs)
    cotangents[loss.slot] = np.full(loss.data.shape, cotangent, dtype=loss.data.dtype)
    for node in reversed(tape.nodes):
        if type(node.output) is tuple:
            g = tuple(cotangents[out.slot] for out in node.output)
            if all(gi is None for gi in g):
                continue
            for out in node.output:
                cotangents[out.slot] = None
        else:
            g = cotangents[node.output.slot]
            if g is None:
                continue
            cotangents[node.output.slot] = None
        vjp = _VJPS.get(node.op)
        if vjp is None:
            raise MissingVJPError(f"no VJP registered for op '{node.op}'")
        for inp, gi in zip(node.inputs, vjp(node, g)):
            if gi is None or type(inp) is not Var:
                continue
            if inp.slot is None:
                np.add(inp.grad, gi, out=inp.grad, casting="no")
            elif cotangents[inp.slot] is None:
                cotangents[inp.slot] = np.array(gi)  # a copy, in the dtype the VJP computed in
            else:
                cotangents[inp.slot] += gi
        g = gi = None  # no cotangent outlives its VJP into the next one


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def _operands(a, b):
    """Both operands' arrays; a Python scalar takes the other operand's dtype.

    A 0-d float64 array is not a weak scalar under NEP 50, so `data_of(1.0)`
    would promote a float32 operand to float64.
    """
    da, db = data_of(a), data_of(b)
    if isinstance(a, (int, float)):
        da = da.astype(db.dtype)
    elif isinstance(b, (int, float)):
        db = db.astype(da.dtype)
    return da, db


def add(a, b):
    da, db = _operands(a, b)
    return _record("add", da + db, (a, b), {"sa": da.shape, "sb": db.shape})


register_vjp("add", lambda n, g: (_unbroadcast(g, n.ctx["sa"]), _unbroadcast(g, n.ctx["sb"])))


def rms_norm(x, weights, axes, eps: float, center: bool = False):
    """x / sqrt(sum over `axes` of weights * x^2 + eps); constant `weights` broadcast against x.
    With `center`, `axes` is one axis and x first loses its mean over it (a layer norm without
    affine terms)."""
    dx = data_of(x)
    if center:  # sum / n rounds as numpy's mean does, without its Python-level overhead
        dx = dx - dx.sum(axis=axes, keepdims=True) / dx.shape[axes]
    w = np.asarray(weights, dtype=dx.dtype)
    r = np.sqrt((w * dx * dx).sum(axis=axes, keepdims=True) + eps)
    return _record("rms_norm", dx / r, (x, x) if center else (x,), {"dx": dx, "w": w, "r": r, "axes": axes})


def _rms_norm_vjp(n, g):
    """With centring, x is listed twice and takes its two cotangent terms one per input, in the
    order the composite sub(x, reduce_mean(x)) would add them."""
    dx, w, r, axes = n.ctx["dx"], n.ctx["w"], n.ctx["r"], n.ctx["axes"]
    gx = (g - w * dx * ((g * dx).sum(axis=axes, keepdims=True) / (r * r))) / r
    if len(n.inputs) == 1:
        return (gx,)
    return gx, np.broadcast_to(-gx.sum(axis=axes, keepdims=True) / dx.shape[axes], gx.shape)


register_vjp("rms_norm", _rms_norm_vjp)


def _distance_features(dx, mix, eps: float):
    """[..., 8] -> [..., 4]: c / (c^2 + eps) * ([c^2, a^2 + b^2, ac, bc] @ mix) for a constant
    [4, 4] `mix`, with a, b, c the e01, e20, e12 components; and what `_distance_features_grad`
    needs."""
    a, b, c = dx[..., 4], dx[..., 5], dx[..., 6]
    parts = np.empty(dx.shape[:-1] + (4,), dtype=dx.dtype)
    np.multiply(c, c, out=parts[..., 0])
    np.multiply(a, a, out=parts[..., 1])
    parts[..., 1] += b * b
    np.multiply(a, c, out=parts[..., 2])
    np.multiply(b, c, out=parts[..., 3])
    den = parts[..., 0] + eps
    m = np.asarray(mix, dtype=dx.dtype)
    return (c / den)[..., None] * (parts @ m), (dx, m, den, parts)


def _distance_features_grad(saved, g):
    dx, mix, den, parts = saved
    a, b, c = dx[..., 4], dx[..., 5], dx[..., 6]
    h = g @ mix.T                               # cotangent of parts, before the factor
    fh = (c / den)[..., None] * h
    g_factor = (parts * h).sum(axis=-1)
    gx = np.zeros(dx.shape, dtype=g.dtype)
    gx[..., 4] = 2.0 * a * fh[..., 1] + c * fh[..., 2]
    gx[..., 5] = 2.0 * b * fh[..., 1] + c * fh[..., 3]
    gx[..., 6] = (2.0 * c * fh[..., 0] + a * fh[..., 2] + b * fh[..., 3]
                  + g_factor * (den - 2.0 * c * c) / (den * den))
    return gx


def mul(a, b):
    da, db = _operands(a, b)
    return _record("mul", da * db, (a, b), {"da": da, "db": db})


register_vjp(
    "mul",
    lambda n, g: (
        _unbroadcast(g * n.ctx["db"], n.ctx["da"].shape),
        _unbroadcast(g * n.ctx["da"], n.ctx["db"].shape),
    ),
)


def div(a, b):
    da, db = _operands(a, b)
    return _record("div", da / db, (a, b), {"da": da, "db": db})


register_vjp(
    "div",
    lambda n, g: (
        _unbroadcast(g / n.ctx["db"], n.ctx["da"].shape),
        _unbroadcast(-g * n.ctx["da"] / (n.ctx["db"] ** 2), n.ctx["db"].shape),
    ),
)


def matmul(a, b, bias=None):
    """a @ b, plus `bias` (broadcast against the product) added in place when given."""
    da, db = data_of(a), data_of(b)
    if da.ndim < 2 or db.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")
    out = da @ db
    if bias is not None:
        out += data_of(bias)
    return _record("matmul", out, (a, b, bias), {"da": da, "db": db})


def _matmul_vjp(n, g):
    da, db, bias = n.ctx["da"], n.ctx["db"], n.inputs[2]
    gbias = None if bias is None else _unbroadcast(g, data_of(bias).shape)
    if db.ndim == 2:  # a weight: both cotangents as one flat 2-D product, no [..., k, n] stack to sum
        gf = g.reshape(-1, db.shape[1])
        return (gf @ db.T).reshape(da.shape), da.reshape(-1, db.shape[0]).T @ gf, gbias
    ga = g @ np.swapaxes(db, -1, -2)
    gb = np.swapaxes(da, -1, -2) @ g
    return _unbroadcast(ga, da.shape), _unbroadcast(gb, db.shape), gbias


register_vjp("matmul", _matmul_vjp)


def reshape(a, shape):
    da = data_of(a)
    return _record("reshape", da.reshape(shape), (a,), {"orig": da.shape})


register_vjp("reshape", lambda n, g: (g.reshape(n.ctx["orig"]),))


def _move_perm(ndim: int, src: int, dst: int) -> list:
    """The transpose order of np.moveaxis(., src, dst), without its axis normalisation."""
    perm = [i for i in range(ndim) if i != src % ndim]
    perm.insert(dst % ndim, src % ndim)
    return perm


def moveaxis(a, src: int, dst: int):
    da = data_of(a)
    return _record("moveaxis", da.transpose(_move_perm(da.ndim, src, dst)), (a,), {"src": src, "dst": dst})


register_vjp("moveaxis", lambda n, g: (g.transpose(_move_perm(g.ndim, n.ctx["dst"], n.ctx["src"])),))


def concat(parts, axis):
    datas = [data_of(p) for p in parts]
    sizes = [d.shape[axis] for d in datas]
    out = np.concatenate(datas, axis=axis)
    return _record("concat", out, tuple(parts), {"sizes": sizes, "axis": axis})


def _concat_vjp(n, g):
    splits = np.cumsum(n.ctx["sizes"])[:-1]
    return tuple(np.split(g, splits, axis=n.ctx["axis"]))


register_vjp("concat", _concat_vjp)


def split(a, sizes, axis):
    """Consecutive slices of `sizes` along `axis`: one node with a tuple of outputs."""
    da = data_of(a)
    if sum(sizes) != da.shape[axis]:
        raise ValueError(f"split sizes {sizes} do not sum to axis length {da.shape[axis]}")
    lead, stops = (slice(None),) * (axis % da.ndim), itertools.accumulate(sizes)
    parts = tuple(da[lead + (slice(stop - size, stop),)] for size, stop in zip(sizes, stops))
    return _record("split", parts, (a,), {"axis": axis})


register_vjp("split", lambda n, g: (np.concatenate(
    [np.zeros(out.shape, out.dtype) if gi is None else gi for gi, out in zip(g, n.output)], axis=n.ctx["axis"]),))


def take_last(a, indices):
    """Select components along the last axis: out[..., i] = a[..., indices[i]]."""
    da = data_of(a)
    idx = tuple(int(i) for i in indices)
    return _record("take_last", da[..., list(idx)], (a,), {"shape": da.shape, "idx": idx})


def _take_last_vjp(n, g):
    out = np.zeros(n.ctx["shape"], dtype=g.dtype)
    for pos, comp in enumerate(n.ctx["idx"]):
        out[..., comp] += g[..., pos]
    return (out,)


register_vjp("take_last", _take_last_vjp)


def reduce_sum(a, axis, keepdims=False):
    da = data_of(a)
    return _record(
        "reduce_sum", da.sum(axis=axis, keepdims=keepdims),
        (a,), {"shape": da.shape, "axis": axis, "keepdims": keepdims},
    )


def _expand_reduced(g, shape, axis, keepdims):
    if not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


register_vjp(
    "reduce_sum",
    lambda n, g: (_expand_reduced(g, n.ctx["shape"], n.ctx["axis"], n.ctx["keepdims"]).copy(),),
)


def relu(a):
    da = data_of(a)
    return _record("relu", np.maximum(da, 0.0), (a,), {"mask": da > 0.0})


register_vjp("relu", lambda n, g: (g * n.ctx["mask"],))


def masked_softmax(logits, mask):
    """Softmax over the last axis; `mask` marks attendable entries (True = keep).

    Rows with no attendable entry, or an empty last axis, produce all-zero
    weights rather than NaN.  `mask` is a constant (never differentiated);
    pass None for a full softmax.
    """
    out = _softmax(data_of(logits).copy(), mask)
    return _record("masked_softmax", out, (logits,), {"out": out})


def _softmax(x, mask):
    """`masked_softmax` of the array `x`, computed in place.  A shifted logit below 2·ln eps(dtype)
    goes to -inf before `exp`, so its weight is exactly 0: it would be below eps², all such weights
    of a row at most L·eps² of it, and a subnormal one slows every product it enters."""
    if mask is not None:
        np.copyto(x, -np.inf, where=~np.asarray(mask, dtype=bool))
    mx = x.max(axis=-1, keepdims=True, initial=-np.inf)
    x -= np.where(np.isfinite(mx), mx, 0.0)
    np.copyto(x, -np.inf, where=x < 2.0 * math.log(np.finfo(x.dtype).eps))
    np.exp(x, out=x)
    denom = x.sum(axis=-1, keepdims=True)
    x /= np.where(denom == 0.0, 1.0, denom)
    return x


def _softmax_grad(y, g):
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


register_vjp("masked_softmax", lambda n, g: (_softmax_grad(n.ctx["out"], g),))


def key_rows(mv_k, mv_v, sk, sv, heads: int, key_mix, eps: float):
    """The key side of attention as one tape node with two outputs: per-head key rows kf
    [..., H, Lk, 4c (+ 4c) + cs], [inner-product components | distance features with `key_mix`
    (left out when None) | scalars], and value rows vf [..., H, Lk, 8c + cs], all 8 components
    then the scalars, of keys and values [..., Lk, C, 8] and [..., Lk, S].  A key's rows depend on
    that key alone, so rows built once serve every later query (`mv_attention`)."""
    inputs = (mv_k, mv_v, sk, sv)
    dk, dv, dsk, dsv = [data_of(x) for x in inputs]
    kf, saved = _attention_rows(dk, dsk, heads, key_mix, eps)
    v_h = _split_heads(dv, heads, 1)
    c = v_h.shape[-2]
    vf = np.concatenate([v_h.reshape(v_h.shape[:-2] + (8 * c,)), _split_heads(dsv, heads, 0)], axis=-1)
    return _record("key_rows", (kf, vf), inputs, {"c": c, "saved": saved})


def _key_rows_vjp(n, g):
    g_kf, g_vf = (np.zeros_like(out.data) if gi is None else gi for gi, out in zip(g, n.output))
    c = n.ctx["c"]
    g_mv_k, g_sk = _attention_rows_grad(g_kf, n.ctx["saved"], c)
    g_mv_v = _merge_heads(g_vf[..., :8 * c].reshape(g_vf.shape[:-1] + (c, 8)), 1)
    return g_mv_k, g_mv_v, g_sk, _merge_heads(g_vf[..., 8 * c:], 0)


register_vjp("key_rows", _key_rows_vjp)


def mv_attention(mv_q, sq, kf, vf, heads: int, query_mix, eps: float, denom: float, mask):
    """Attention of multivector queries (mv [..., Lq, C, 8], s [..., Lq, S]) over the key and
    value rows of `key_rows`, whose leading dims broadcast against the queries', as one tape node.

    Per head, a query row is [inner-product components | distance features
    with `query_mix` (left out when None) | scalars].  Logits are its dot
    products with the key rows over `denom`, softmaxed over the keys `mask`
    ([..., Lq, Lk] or None) keeps (zeros for a row with none); the weights
    average the value rows.
    """
    inputs = (mv_q, sq, kf, vf)
    dq, dsq, dkf, dvf = [data_of(x) for x in inputs]
    qf, q_saved = _attention_rows(dq, dsq, heads, query_mix, eps)
    logits = qf @ dkf.swapaxes(-1, -2)
    logits /= denom
    if mask is not None and np.ndim(mask) > 2:
        mask = np.expand_dims(mask, -3)  # broadcast across heads
    w = _softmax(logits, mask)
    out = w @ dvf
    c, lead = dq.shape[-2] // heads, out.shape[:-1]
    mv_out = _merge_heads(out[..., :8 * c].reshape(lead + (c, 8)), 1)
    s_out = _merge_heads(out[..., 8 * c:], 0)
    ctx = {"heads": heads, "denom": denom, "w": w, "qf": qf, "kf": dkf, "vf": dvf, "q_saved": q_saved}
    return _record("mv_attention", (mv_out, s_out), inputs, ctx)


def _split_heads(x, heads: int, tail: int):
    """[..., L, heads * k, *tail] -> [..., heads, L, k, *tail], a view; `tail` trailing axes."""
    ax = x.ndim - 1 - tail
    return x.reshape(x.shape[:ax] + (heads, x.shape[ax] // heads) + x.shape[ax + 1:]).swapaxes(ax - 1, ax)


def _merge_heads(x, tail: int):
    """[..., heads, L, k, *tail] -> [..., L, heads * k, *tail], the inverse of `_split_heads`."""
    ax = x.ndim - 3 - tail
    y = x.swapaxes(ax, ax + 1)
    return y.reshape(y.shape[:ax + 1] + (y.shape[ax + 1] * y.shape[ax + 2],) + y.shape[ax + 3:])


def _attention_rows(mv, s, heads: int, mix, eps: float):
    """Per-head rows [..., H, L, 4c (+ 4c) + cs] and the saved distance-feature state (or None),
    computed on the head-split multivectors copied once to flat [N, 8] rows (2-D products only)."""
    mv_h = _split_heads(mv, heads, 1)
    rows_shape = mv_h.shape[:-2]
    width = 4 * mv_h.shape[-2]
    x = mv_h.reshape(-1, 8)
    pieces = [x[:, list(INNER_INDICES)].reshape(rows_shape + (width,))]
    saved = None
    if mix is not None:
        feats, saved = _distance_features(x, mix, eps)
        pieces.append(feats.reshape(rows_shape + (width,)))
    pieces.append(_split_heads(s, heads, 0))
    return np.concatenate(pieces, axis=-1), saved


def _attention_rows_grad(g, saved, c: int):
    """Cotangents (mv [..., L, C, 8], s [..., L, S]) of the rows built by `_attention_rows`."""
    rows_shape = g.shape[:-1]
    width = 4 * c if saved is None else 8 * c
    gx = (np.zeros((math.prod(rows_shape) * c, 8), dtype=g.dtype) if saved is None
          else _distance_features_grad(saved, g[..., 4 * c:width].reshape(-1, 4)))
    gx[:, list(INNER_INDICES)] += g[..., :4 * c].reshape(-1, 4)
    return _merge_heads(gx.reshape(rows_shape + (c, 8)), 1), _merge_heads(g[..., width:], 0)


def _key_grad(p, x, shape: tuple):
    """pᵀ @ x for p [..., H, Lq, Lk] and x [..., H, Lq, n], summed to the keys' `shape` [..., H, Lk, n]:
    the lead axes the keys broadcast over (missing or 1) join the row axis, so each head is one
    [Lk, E·Lq] @ [E·Lq, n] product and no [..., H, Lk, n] stack is formed and summed."""
    lead, nd = p.shape[:-3], p.ndim - 3
    k_lead = (1,) * (nd + 3 - len(shape)) + shape[:-3]
    keep = [i for i in range(nd) if k_lead[i] != 1]
    perm = keep + [nd] + [i for i in range(nd) if k_lead[i] == 1] + [nd + 1, nd + 2]

    def rows(a):
        a = np.broadcast_to(a, lead + a.shape[-3:]).transpose(perm)
        return a.reshape(a.shape[:len(keep) + 1] + (math.prod(a.shape[len(keep) + 1:-1]), a.shape[-1]))

    return (rows(p).swapaxes(-1, -2) @ rows(x)).reshape(shape)


def _mv_attention_vjp(n, g):
    ctx = n.ctx
    heads, w, vf, qf, kf = ctx["heads"], ctx["w"], ctx["vf"], ctx["qf"], ctx["kf"]
    # saved weights below eps(dtype)² count as exact zeros: the forward zeroes those whose exp
    # argument is below 2·ln eps, and a row's denominator can take a few more under eps²; subnormal
    # weights are several times slower in arithmetic, and the dropped terms are at most L·eps² of
    # their row, below the dtype's resolution
    w = np.where(w < np.finfo(w.dtype).eps ** 2, 0.0, w)
    g_mv, g_s = (np.zeros_like(out.data) if gi is None else gi for gi, out in zip(g, n.output))
    c = g_mv.shape[-2] // heads
    g_out = np.concatenate([_split_heads(g_mv, heads, 1).reshape(w.shape[:-1] + (8 * c,)),
                            _split_heads(g_s, heads, 0)], axis=-1)
    g_logits = _softmax_grad(w, g_out @ vf.swapaxes(-1, -2))
    g_logits /= ctx["denom"]
    g_qf = _unbroadcast(g_logits @ kf, qf.shape)
    g_mv_q, g_sq = _attention_rows_grad(g_qf, ctx["q_saved"], c)
    return g_mv_q, g_sq, _key_grad(g_logits, qf, kf.shape), _key_grad(w, g_out, vf.shape)


register_vjp("mv_attention", _mv_attention_vjp)


def log_softmax(a):
    x = data_of(a)
    mx = x.max(axis=-1, keepdims=True)
    shifted = x - mx
    out = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return _record("log_softmax", out, (a,), {"out": out})


register_vjp(
    "log_softmax",
    lambda n, g: (g - np.exp(n.ctx["out"]) * g.sum(axis=-1, keepdims=True),),
)


def bilinear8(a, b, table):
    """Channelwise algebra product: out[..., k] = sum_ij a[..., i] b[..., j] table[i, j, k].

    `table` is an [8, 8, 8] constant structure tensor (geometric, wedge, join).
    Leading dims of `a` and `b` broadcast.
    """
    da, db = data_of(a), data_of(b)
    outer = da[..., :, None] * db[..., None, :]
    out = np.tensordot(outer, table, axes=([-2, -1], [0, 1]))
    return _record("bilinear8", out, (a, b), {"da": da, "db": db, "table": table})


def _bilinear8_vjp(n, g):
    """Over the table's non-zeros (i, j, k): the cotangent of each term a_i b_j t_ijk, times the
    other operand, scattered to its component by one [N, nnz] @ [nnz, 8] product."""
    da, db, table = n.ctx["da"], n.ctx["db"], n.ctx["table"]
    i, j, k = np.nonzero(table)
    gp = g[..., k] * table[i, j, k]
    flat, onehot = (math.prod(g.shape[:-1]), i.size), np.eye(8, dtype=gp.dtype)
    ga = ((gp * db[..., j]).reshape(flat) @ onehot[i]).reshape(g.shape)
    gb = ((gp * da[..., i]).reshape(flat) @ onehot[j]).reshape(g.shape)
    return _unbroadcast(ga, da.shape), _unbroadcast(gb, db.shape)


register_vjp("bilinear8", _bilinear8_vjp)


def mv_linear(x, weight, basis, bias=None):
    """Channel-mixing multivector map, plus an optional bias on the scalar component.

    x: [..., C_in, 8]; weight: [C_out, C_in, P]; basis: constant [P, 8, 8]
    stack of componentwise linear actions; bias: [C_out] or None.
    out[..., o, b] = sum_{i,p,a} weight[o,i,p] basis[p,a,b] x[..., i, a] (+ bias[o] at b = 0).
    """
    dx, dw = data_of(x), data_of(weight)
    c_out, c_in, p = dw.shape
    if dx.shape[-2] != c_in or dx.shape[-1] != basis.shape[1]:
        raise ValueError(f"mv_linear shape mismatch: x {dx.shape}, weight {dw.shape}")
    mixed = (dw.reshape(c_out * c_in, p) @ basis.reshape(p, 64)).reshape(c_out, c_in, 8, 8)
    mat = mixed.transpose(1, 2, 0, 3).reshape(c_in * 8, c_out * 8)
    flat = dx.reshape(dx.shape[:-2] + (c_in * 8,))
    out = (flat @ mat).reshape(dx.shape[:-2] + (c_out, 8))
    if bias is not None:
        out[..., 0] += data_of(bias)
    return _record("mv_linear", out, (x, weight, bias),
                   {"dx": dx, "mat": mat, "basis": basis, "wshape": dw.shape})


def _mv_linear_vjp(n, g):
    dx, mat, basis = n.ctx["dx"], n.ctx["mat"], n.ctx["basis"]
    c_out, c_in, p = n.ctx["wshape"]
    gf = g.reshape(-1, c_out * 8)
    gx = (gf @ mat.T).reshape(dx.shape)
    gmat = dx.reshape(-1, c_in * 8).T @ gf  # [C_in*8, C_out*8]
    gmixed = gmat.reshape(c_in, 8, c_out, 8).transpose(2, 0, 1, 3).reshape(c_out * c_in, 64)
    gw = (gmixed @ basis.reshape(p, 64).T).reshape(c_out, c_in, p)
    return gx, gw, None if n.inputs[2] is None else _unbroadcast(g, g.shape[-2:])[:, 0]


register_vjp("mv_linear", _mv_linear_vjp)


def gather_last(a, idx):
    """out[...] = a[..., idx[...]] with idx matching the leading shape of a."""
    da = data_of(a)
    ii = np.asarray(idx)
    out = np.take_along_axis(da, ii[..., None], axis=-1)[..., 0]
    return _record("gather_last", out, (a,), {"shape": da.shape, "idx": ii})


def _gather_last_vjp(n, g):
    out = np.zeros(n.ctx["shape"], dtype=g.dtype)
    np.put_along_axis(out, n.ctx["idx"][..., None], g[..., None], axis=-1)
    return (out,)


register_vjp("gather_last", _gather_last_vjp)


def embedding(table, idx):
    """Row lookup: out[...] = table[idx[...], :]; gradients accumulate per row."""
    dt = data_of(table)
    ii = np.asarray(idx)
    return _record("embedding", dt[ii], (table,), {"shape": dt.shape, "idx": ii})


def _embedding_vjp(n, g):
    """One bincount over the (row, column) slots each looked-up element came from; it sums in
    float64 in index order, as `np.add.at` does on a float64 table."""
    shape = n.ctx["shape"]
    cols = math.prod(shape[1:])
    rows = n.ctx["idx"].reshape(-1, 1) % shape[0]
    out = np.bincount((rows * cols + np.arange(cols)).ravel(), g.ravel(), math.prod(shape))
    return (out.reshape(shape).astype(g.dtype, copy=False),)


register_vjp("embedding", _embedding_vjp)


# ---------------------------------------------------------------------------
# parameters and optimization
# ---------------------------------------------------------------------------

class ParamStore(dict):
    """Named parameters, name -> array in insertion order, each array a view into `flat`: one
    contiguous 1-D buffer in one dtype.  The arrays change only in place (assigning to a name
    writes into its view), so `flat` always holds every value."""

    def __init__(self, shapes, flat: np.ndarray):
        """Views of `flat` for the (name, shape) pairs `shapes`, laid out in order over all of it."""
        super().__init__()
        self.flat, offset = flat, 0
        for name, shape in shapes:
            if name in self:
                raise ValueError(f"duplicate parameter name '{name}'")
            size = math.prod(shape)
            dict.__setitem__(self, name, flat[offset:offset + size].reshape(shape))
            offset += size
        if offset != flat.size:
            raise ValueError(f"parameter shapes cover {offset} of the buffer's {flat.size} values")

    def __setitem__(self, name: str, value):
        self[name][...] = value

    def astype(self, dtype) -> "ParamStore":
        return ParamStore([(name, arr.shape) for name, arr in self.items()], self.flat.astype(dtype))

    def as_vars(self, grad: np.ndarray | None = None) -> dict[str, Var]:
        """A leaf Var per parameter, whose grad is its view into `grad`, a buffer laid out as `flat`,
        or else fresh zeros."""
        if grad is not None and (grad.shape != self.flat.shape or grad.dtype != self.flat.dtype):
            raise ValueError(f"gradient buffer {grad.dtype} {grad.shape} != parameter buffer "
                             f"{self.flat.dtype} {self.flat.shape}")
        views = {} if grad is None else ParamStore([(name, arr.shape) for name, arr in self.items()], grad)
        return {name: Var(arr, views.get(name)) for name, arr in self.items()}


class AdamState:
    """First/second-moment buffers, flat float64 over a store's buffer, plus the step counter."""

    def __init__(self, params: ParamStore):
        self.m = np.zeros(params.flat.size)
        self.v = np.zeros(params.flat.size)
        self.step = 0


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


def adam_step(params: ParamStore, grad: np.ndarray, state: AdamState, lr: float):
    """One adaptive-moment update of `params.flat`, in place, from the flat gradient `grad` in the
    buffer's order; moments and update are float64 whatever the buffer's dtype."""
    if np.shape(grad) != params.flat.shape:
        raise ValueError(f"gradient shape {np.shape(grad)} != parameter buffer shape {params.flat.shape}")
    g = np.array(grad, dtype=np.float64)  # a copy: it serves as scratch below
    b1, b2 = ADAM_BETAS
    state.step += 1
    t = state.step
    # in place, through one scratch buffer: fresh temporaries of this size cost page faults
    m, v = state.m, state.v
    m *= b1
    tmp = np.multiply(1.0 - b1, g)
    m += tmp
    v *= b2
    np.multiply(1.0 - b2, g, out=tmp)
    tmp *= g
    v += tmp
    m_hat = np.divide(m, 1.0 - b1**t, out=tmp)
    denom = np.divide(v, 1.0 - b2**t, out=g)     # v_hat
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    m_hat *= lr
    m_hat /= denom
    params.flat -= m_hat  # in float64, rounded once to the buffer's dtype
    return params, state


def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """Cosine-annealed learning rate; reaches 0 at the final step."""
    if total_steps <= 1:
        return 0.0
    frac = min(max(step / (total_steps - 1), 0.0), 1.0)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * frac))
