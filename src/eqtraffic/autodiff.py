"""Minimal reverse-mode automatic differentiation over numpy arrays.

A forward pass runs inside a ``Tape`` context; values that need gradients are
wrapped in ``Var``.  Each primitive op computes with plain numpy and records a
node (op name + saved inputs) when any input is tracked.  ``backward`` walks
the node list in exact reverse order, looking up each op's vector-Jacobian
product in a registry; cotangents accumulate in buffers keyed by value
identity.

Ops called on plain ndarrays never record, so the same layer code serves both
inference and training.  Everything is single precision or double precision
according to the inputs; the engine itself never changes dtype.
"""

import math
from typing import Callable

import numpy as np


class MissingVJPError(RuntimeError):
    """Backward hit a recorded op with no registered vector-Jacobian product."""


class Var:
    """A tracked array; leaf unless produced by a recorded op."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = np.asarray(data)

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


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of ops; backward traverses exactly the reverse order."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False


def _active_tape() -> "Tape | None":
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def data_of(x) -> np.ndarray:
    return x.data if isinstance(x, Var) else np.asarray(x)


def _record(op: str, out_data: np.ndarray, inputs: tuple, ctx: dict):
    """Return a Var recorded on the active tape, or plain data if untracked."""
    if not any(isinstance(x, Var) for x in inputs):
        return out_data
    tape = _active_tape()
    if tape is None:
        raise RuntimeError(f"op '{op}' received tracked inputs outside a Tape context")
    out = Var(out_data)
    tape.nodes.append(_Node(op, inputs, out, ctx))
    return out


_VJPS: dict[str, Callable] = {}


def register_vjp(op: str, fn: Callable) -> None:
    """fn(node, grad_out) -> tuple of input cotangents (None for untracked slots)."""
    _VJPS[op] = fn


def backward(tape: Tape, loss, cotangent=1.0):
    """Accumulate cotangents for every tracked value reachable from `loss`.

    Returns a ``Gradients`` view; ``grads[var]`` is the cotangent array (zeros
    if the value never influenced the loss).
    """
    if not isinstance(loss, Var):
        raise TypeError("backward needs a tracked Var as the loss")
    buffers: dict[int, np.ndarray] = {
        id(loss): np.broadcast_to(np.asarray(cotangent, dtype=loss.data.dtype), loss.data.shape).copy()
    }
    for node in reversed(tape.nodes):
        g = buffers.get(id(node.output))
        if g is None:
            continue
        vjp = _VJPS.get(node.op)
        if vjp is None:
            raise MissingVJPError(f"no VJP registered for op '{node.op}'")
        input_grads = vjp(node, g)
        for inp, gi in zip(node.inputs, input_grads):
            if gi is None or not isinstance(inp, Var):
                continue
            buf = buffers.get(id(inp))
            if buf is None:
                buffers[id(inp)] = np.asarray(gi, dtype=inp.data.dtype).copy()
            else:
                buf += gi
    return Gradients(buffers)


class Gradients:
    def __init__(self, buffers):
        self._buffers = buffers

    def __getitem__(self, var: Var) -> np.ndarray:
        g = self._buffers.get(id(var))
        if g is None:
            return np.zeros_like(var.data)
        return g


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

def add(a, b):
    da, db = data_of(a), data_of(b)
    return _record("add", da + db, (a, b), {"sa": da.shape, "sb": db.shape})


register_vjp("add", lambda n, g: (_unbroadcast(g, n.ctx["sa"]), _unbroadcast(g, n.ctx["sb"])))


def sub(a, b):
    da, db = data_of(a), data_of(b)
    return _record("sub", da - db, (a, b), {"sa": da.shape, "sb": db.shape})


register_vjp("sub", lambda n, g: (_unbroadcast(g, n.ctx["sa"]), _unbroadcast(-g, n.ctx["sb"])))


def neg(a):
    return _record("neg", -data_of(a), (a,), {})


register_vjp("neg", lambda n, g: (-g,))


def mul(a, b):
    da, db = data_of(a), data_of(b)
    return _record("mul", da * db, (a, b), {"da": da, "db": db})


register_vjp(
    "mul",
    lambda n, g: (
        _unbroadcast(g * n.ctx["db"], n.ctx["da"].shape),
        _unbroadcast(g * n.ctx["da"], n.ctx["db"].shape),
    ),
)


def div(a, b):
    da, db = data_of(a), data_of(b)
    return _record("div", da / db, (a, b), {"da": da, "db": db})


register_vjp(
    "div",
    lambda n, g: (
        _unbroadcast(g / n.ctx["db"], n.ctx["da"].shape),
        _unbroadcast(-g * n.ctx["da"] / (n.ctx["db"] ** 2), n.ctx["db"].shape),
    ),
)


def matmul(a, b):
    da, db = data_of(a), data_of(b)
    if da.ndim < 2 or db.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")
    return _record("matmul", da @ db, (a, b), {"da": da, "db": db})


def _matmul_vjp(n, g):
    da, db = n.ctx["da"], n.ctx["db"]
    ga = g @ np.swapaxes(db, -1, -2)
    gb = np.swapaxes(da, -1, -2) @ g
    return _unbroadcast(ga, da.shape), _unbroadcast(gb, db.shape)


register_vjp("matmul", _matmul_vjp)


def reshape(a, shape):
    da = data_of(a)
    return _record("reshape", da.reshape(shape), (a,), {"orig": da.shape})


register_vjp("reshape", lambda n, g: (g.reshape(n.ctx["orig"]),))


def moveaxis(a, src, dst):
    da = data_of(a)
    return _record("moveaxis", np.moveaxis(da, src, dst), (a,), {"src": src, "dst": dst})


register_vjp("moveaxis", lambda n, g: (np.moveaxis(g, n.ctx["dst"], n.ctx["src"]),))


def concat(parts, axis):
    datas = [data_of(p) for p in parts]
    sizes = [d.shape[axis] for d in datas]
    out = np.concatenate(datas, axis=axis)
    return _record("concat", out, tuple(parts), {"sizes": sizes, "axis": axis})


def _concat_vjp(n, g):
    splits = np.cumsum(n.ctx["sizes"])[:-1]
    return tuple(np.split(g, splits, axis=n.ctx["axis"]))


register_vjp("concat", _concat_vjp)


def take_slice(a, axis, start, stop):
    da = data_of(a)
    idx = [slice(None)] * da.ndim
    idx[axis] = slice(start, stop)
    return _record(
        "take_slice", da[tuple(idx)], (a,), {"shape": da.shape, "axis": axis, "start": start, "stop": stop}
    )


def _take_slice_vjp(n, g):
    out = np.zeros(n.ctx["shape"], dtype=g.dtype)
    idx = [slice(None)] * len(n.ctx["shape"])
    idx[n.ctx["axis"]] = slice(n.ctx["start"], n.ctx["stop"])
    out[tuple(idx)] = g
    return (out,)


register_vjp("take_slice", _take_slice_vjp)


def split(a, sizes, axis):
    da = data_of(a)
    if sum(sizes) != da.shape[axis]:
        raise ValueError(f"split sizes {sizes} do not sum to axis length {da.shape[axis]}")
    parts = []
    start = 0
    for size in sizes:
        parts.append(take_slice(a, axis, start, start + size))
        start += size
    return parts


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


def reduce_mean(a, axis, keepdims=False):
    da = data_of(a)
    return _record(
        "reduce_mean", da.mean(axis=axis, keepdims=keepdims),
        (a,), {"shape": da.shape, "axis": axis, "keepdims": keepdims, "n": da.shape[axis]},
    )


register_vjp(
    "reduce_mean",
    lambda n, g: (
        _expand_reduced(g, n.ctx["shape"], n.ctx["axis"], n.ctx["keepdims"]).copy() / n.ctx["n"],
    ),
)


def relu(a):
    da = data_of(a)
    return _record("relu", np.maximum(da, 0.0), (a,), {"mask": da > 0.0})


register_vjp("relu", lambda n, g: (g * n.ctx["mask"],))


def sqrt(a):
    out = np.sqrt(data_of(a))
    return _record("sqrt", out, (a,), {"out": out})


register_vjp("sqrt", lambda n, g: (g * 0.5 / n.ctx["out"],))


def masked_softmax(logits, mask):
    """Softmax over the last axis; `mask` marks attendable entries (True = keep).

    Rows with no attendable entry, or an empty last axis, produce all-zero
    weights rather than NaN.  `mask` is a constant (never differentiated);
    pass None for a full softmax.
    """
    x = data_of(logits)
    if mask is None:
        shifted = x - x.max(axis=-1, keepdims=True, initial=-np.inf)
        e = np.exp(shifted)
        out = e / e.sum(axis=-1, keepdims=True)
    else:
        m = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
        neg = np.where(m, x, -np.inf)
        mx = neg.max(axis=-1, keepdims=True, initial=-np.inf)
        safe_mx = np.where(np.isfinite(mx), mx, 0.0)
        e = np.exp(neg - safe_mx)
        denom = e.sum(axis=-1, keepdims=True)
        out = e / np.where(denom == 0.0, 1.0, denom)
    return _record("masked_softmax", out, (logits,), {"out": out})


def _masked_softmax_vjp(n, g):
    y = n.ctx["out"]
    return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)


register_vjp("masked_softmax", _masked_softmax_vjp)


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
    da, db, table = n.ctx["da"], n.ctx["db"], n.ctx["table"]
    tg = np.tensordot(g, table, axes=([-1], [2]))  # [..., i, j]
    ga = (tg * db[..., None, :]).sum(axis=-1)
    gb = (tg * da[..., :, None]).sum(axis=-2)
    return _unbroadcast(ga, da.shape), _unbroadcast(gb, db.shape)


register_vjp("bilinear8", _bilinear8_vjp)


def mv_linear(x, weight, basis):
    """Channel-mixing multivector map.

    x: [..., C_in, 8]; weight: [C_out, C_in, P]; basis: constant [P, 8, 8]
    stack of componentwise linear actions.  out[..., o, b] =
    sum_{i,p,a} weight[o,i,p] basis[p,a,b] x[..., i, a].
    """
    dx, dw = data_of(x), data_of(weight)
    c_out, c_in, p = dw.shape
    if dx.shape[-2] != c_in or dx.shape[-1] != basis.shape[1]:
        raise ValueError(f"mv_linear shape mismatch: x {dx.shape}, weight {dw.shape}")
    mixed = np.tensordot(dw, basis, axes=([2], [0]))  # [o, i, a, b]
    mat = mixed.transpose(1, 2, 0, 3).reshape(c_in * 8, c_out * 8)
    flat = dx.reshape(dx.shape[:-2] + (c_in * 8,))
    out = (flat @ mat).reshape(dx.shape[:-2] + (c_out, 8))
    return _record("mv_linear", out, (x, weight), {"dx": dx, "mat": mat, "basis": basis, "wshape": dw.shape})


def _mv_linear_vjp(n, g):
    dx, mat, basis = n.ctx["dx"], n.ctx["mat"], n.ctx["basis"]
    c_out, c_in, p = n.ctx["wshape"]
    gflat = g.reshape(g.shape[:-2] + (c_out * 8,))
    gx = (gflat @ mat.T).reshape(dx.shape)
    xf = dx.reshape(-1, c_in * 8)
    gf = gflat.reshape(-1, c_out * 8)
    gmat = xf.T @ gf  # [C_in*8, C_out*8]
    gmixed = gmat.reshape(c_in, 8, c_out, 8).transpose(2, 0, 1, 3)  # [o, i, a, b]
    gw = np.tensordot(gmixed, basis, axes=([2, 3], [1, 2]))
    return gx, gw


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
    out = np.zeros(n.ctx["shape"], dtype=g.dtype)
    np.add.at(out, n.ctx["idx"], g)
    return (out,)


register_vjp("embedding", _embedding_vjp)


# ---------------------------------------------------------------------------
# parameters and optimization
# ---------------------------------------------------------------------------

class ParamStore:
    """Named parameter arrays; names unique, insertion order preserved."""

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}

    def add(self, name: str, array: np.ndarray) -> np.ndarray:
        if name in self._arrays:
            raise ValueError(f"duplicate parameter name '{name}'")
        self._arrays[name] = np.asarray(array)
        return self._arrays[name]

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __setitem__(self, name: str, array: np.ndarray) -> None:
        self._arrays[name] = np.asarray(array)

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def names(self) -> list[str]:
        return list(self._arrays)

    def items(self):
        return self._arrays.items()

    def astype(self, dtype) -> "ParamStore":
        out = ParamStore()
        for name, arr in self._arrays.items():
            out.add(name, arr.astype(dtype))
        return out

    def copy(self) -> "ParamStore":
        out = ParamStore()
        for name, arr in self._arrays.items():
            out.add(name, arr.copy())
        return out

    def as_vars(self) -> dict[str, Var]:
        return {name: Var(arr) for name, arr in self._arrays.items()}


class AdamState:
    """First/second-moment buffers plus the step counter."""

    def __init__(self, params: ParamStore):
        self.m = {name: np.zeros_like(arr, dtype=np.float64) for name, arr in params.items()}
        self.v = {name: np.zeros_like(arr, dtype=np.float64) for name, arr in params.items()}
        self.step = 0


def adam_step(params: ParamStore, grads: dict, state: AdamState, lr: float,
              betas=(0.9, 0.999), eps: float = 1e-8):
    """One adaptive-moment update; mutates params and state in place."""
    b1, b2 = betas
    state.step += 1
    t = state.step
    for name, _ in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != params[name].shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {params[name].shape} for '{name}'")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        update = lr * m_hat / (np.sqrt(v_hat) + eps)
        params[name] = (params[name].astype(np.float64) - update).astype(params[name].dtype)
    return params, state


def cosine_lr(step: int, total_steps: int, base_lr: float, min_lr: float = 0.0) -> float:
    """Cosine-annealed learning rate; reaches min_lr at the final step."""
    if total_steps <= 1:
        return min_lr
    frac = min(max(step / (total_steps - 1), 0.0), 1.0)
    return min_lr + (base_lr - min_lr) * 0.5 * (1.0 + math.cos(math.pi * frac))


# ---------------------------------------------------------------------------
# finite-difference verification
# ---------------------------------------------------------------------------

def grad_check(fn, arrays, step: float = 1e-6, max_coords: int = 200, seed: int = 0,
               min_grad: float = 0.0) -> float:
    """Compare analytic gradients of a scalar-valued fn against central differences.

    `fn` takes a list of tracked Vars (one per input array) and returns a
    scalar Var.  All coordinates are checked unless an input exceeds
    `max_coords`, in which case a seeded subsample of that many coordinates is
    drawn.  Returns the max relative error with denominator
    max(|analytic|, |numeric|, 1e-8).

    Central differences at step h resolve a gradient only down to roughly
    (rounding noise of fn) / h; for deep compositions that floor sits near
    1e-10.  Passing `min_grad` restricts sampling to coordinates whose
    analytic gradient clears that floor; inputs with no such coordinate are
    skipped (they carry no FD-resolvable signal at this step).
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    tracked = [Var(a) for a in arrays]
    with Tape() as tape:
        loss = fn(tracked)
    if not isinstance(loss, Var) or loss.data.shape != ():
        raise ValueError("grad_check target must return a scalar Var")
    grads = backward(tape, loss)
    analytic = [grads[t] for t in tracked]

    rng = np.random.default_rng(seed)
    worst = 0.0
    for slot, base in enumerate(arrays):
        flat_size = base.size
        if min_grad > 0.0:
            mags = np.abs(analytic[slot]).ravel()
            eligible = np.flatnonzero(mags >= min_grad)
            if eligible.size == 0:
                continue
            if eligible.size > max_coords:
                coords = rng.choice(eligible, size=max_coords, replace=False)
            else:
                coords = eligible
        elif flat_size > max_coords:
            coords = rng.choice(flat_size, size=max_coords, replace=False)
        else:
            coords = np.arange(flat_size)
        for coord in coords:
            idx = np.unravel_index(int(coord), base.shape) if base.shape else ()
            perturbed = [a.copy() for a in arrays]
            perturbed[slot][idx] += step
            with Tape():
                f_plus = float(data_of(fn([Var(a) for a in perturbed])))
            perturbed[slot][idx] -= 2.0 * step
            with Tape():
                f_minus = float(data_of(fn([Var(a) for a in perturbed])))
            numeric = (f_plus - f_minus) / (2.0 * step)
            a_val = float(analytic[slot][idx])
            err = abs(a_val - numeric) / max(abs(a_val), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
