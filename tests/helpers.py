"""Shared random generators and independent oracles used across the test suite.

The oracles here deliberately avoid the library's algebra paths: rigid
transforms are checked against plain 2x2 rotation matrices, distances against
coordinate formulas.  The algebra oracle is one einsum per product over the
structure tables, which test_pga checks entry by entry against transcribed
references; multivectors are arrays [8], motors arrays [4] over MOTOR_SLOTS.
"""

import dataclasses
import functools
import math

import numpy as np

from eqtraffic import autodiff as ad
from eqtraffic import model as md
from eqtraffic import scene as sc
from eqtraffic.pga import GEOM_TABLE, GRADES, INNER_INDICES, MOTOR_SLOTS, WEDGE_TABLE, Pose2

# TokenBatch fields with a step axis (axis 1 of a one-scene batch), and the map fields
ROW_FIELDS = ("scalars_raw", "raw_poses", "prev_flat", "valid", "targets", "target_valid")
MAP_FIELDS = ("map_scalars_raw", "map_poses", "map_valid")


def gp(a, b):
    return np.einsum("i,j,ijk->k", a, b, GEOM_TABLE)


def wedge(a, b):
    return np.einsum("i,j,ijk->k", a, b, WEDGE_TABLE)


def dual(x):
    return np.asarray(x)[::-1]


def join(a, b):
    return dual(wedge(dual(a), dual(b)))


def grade(x, k):
    return np.where(np.equal(GRADES, k), x, 0.0)


def inner(a, b):
    return float(np.dot(np.asarray(a)[list(INNER_INDICES)], np.asarray(b)[list(INNER_INDICES)]))


def _even(u):  # the motor u [4] as a multivector [8]
    full = np.zeros(8)
    full[list(MOTOR_SLOTS)] = u
    return full


def motor_product(u, v):
    return gp(_even(u), _even(v))[list(MOTOR_SLOTS)]


def motor_from_pose(pose):
    """translator(x, y) * rotor(theta): the motor that sends the origin frame to `pose`."""
    half = pose.theta / 2.0
    return motor_product([1.0, -pose.x / 2.0, pose.y / 2.0, 0.0], [math.cos(half), 0.0, 0.0, -math.sin(half)])


def reverse(u):
    """The inverse of a unit motor."""
    return np.asarray(u) * [1.0, -1.0, -1.0, -1.0]


def sandwich(u, x):
    """u x u^{-1}: the motor u [4] applied to the multivector x [8]."""
    return gp(gp(_even(u), x), _even(reverse(u)))


def encode_point(x, y):
    return np.array([0.0, 0.0, 0.0, 0.0, y, x, 1.0, 0.0])


def decode_point(m):
    return m[5] / m[6], m[4] / m[6]


def encode_line(a, b, c, normalize=True):  # the line a*x + b*y + c = 0
    return np.array([0.0, c, a, b, 0.0, 0.0, 0.0, 0.0]) / (math.hypot(a, b) if normalize else 1.0)


def rand_mv(rng, scale=1.0):
    return rng.normal(0.0, scale, size=8)


def rand_pose(rng, trans=50.0):
    return Pose2(
        rng.uniform(-trans, trans),
        rng.uniform(-trans, trans),
        rng.uniform(-math.pi, math.pi),
    )


def rand_motor(rng, trans=50.0):
    return motor_from_pose(rand_pose(rng, trans=trans))


def rot_matrix(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def matrix_apply_pose(pose, x, y):
    """Independent rigid-transform oracle: R(theta) @ p + t."""
    p = rot_matrix(pose.theta) @ np.array([x, y]) + np.array([pose.x, pose.y])
    return float(p[0]), float(p[1])


def pose_compose(a, b):
    """The SE(2) group product of two Pose2 objects in scalar `math`: b expressed in a's frame,
    mapped to a's parent frame.  The reference `compose_poses` reproduces bit for bit."""
    c, s = math.cos(a.theta), math.sin(a.theta)
    return Pose2(a.x + c * b.x - s * b.y, a.y + s * b.x + c * b.y, a.theta + b.theta)


def pose_inverse(a):
    """The inverse of a Pose2 in scalar `math`, with pose_compose(a, pose_inverse(a)) the identity."""
    c, s = math.cos(a.theta), math.sin(a.theta)
    return Pose2(-(c * a.x + s * a.y), -(-s * a.x + c * a.y), -a.theta)


def compose_pose_oracle(g, p):
    """SE(2) composition via the matrix oracle."""
    x, y = matrix_apply_pose(g, p.x, p.y)
    return Pose2(x, y, g.theta + p.theta)


def line_residual(line, x, y):
    """a*x + b*y + c for the line encoding [.., c(e0), a(e1), b(e2), ..]."""
    return line[2] * x + line[3] * y + line[1]


def max_rel_err(actual, expected, floor=1e-12):
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(actual), np.abs(expected)), floor)
    return float(np.max(np.abs(actual - expected) / denom))


def gappy_scene(seed, horizon=22, n_agents=4):
    """Synthetic scene whose agents start late, pause, or stop early."""
    rng = np.random.default_rng(seed)
    gen = sc.GeneratorConfig(n_agents=n_agents, horizon=horizon, n_lanes=2)
    scene = sc.generate_synthetic_scene(gen, seed=seed)
    agents = [scene.agents[0]]
    for agent in scene.agents[1:]:
        start, gap, stop = sorted(rng.choice(horizon, size=3, replace=False))
        keep = tuple(s for s in agent.states
                     if start <= s.t < stop and not gap <= s.t < gap + 2)
        agents.append(sc.Agent(id=agent.id, agent_class=agent.agent_class,
                               length=agent.length, width=agent.width, states=keep))
    return sc.Scene(agents=tuple(agents), map_nodes=scene.map_nodes,
                    ego_id=scene.ego_id, horizon=scene.horizon, dt=scene.dt)


def batch_rows(batch, start, stop=None):
    """The batch's rows start <= t < stop, every other field shared."""
    return dataclasses.replace(batch, **{name: getattr(batch, name)[:, start:stop] for name in ROW_FIELDS})


def stack_samples(batches):
    """Batches of one scene's samples stacked on a leading sample axis over the first batch's map,
    unstacked, as a rollout step lays them out."""
    return dataclasses.replace(md.pack_scenes(batches), **{f: getattr(batches[0], f) for f in MAP_FIELDS})


def attend(mv_q, mv_k, mv_v, sq, sk, sv, heads: int, mask=None, distance_awareness: bool = True):
    """`eq_attention` of the queries over the rows of the keys and values: one key_rows node, then
    one mv_attention node."""
    from eqtraffic.layers import eq_attention, eq_key_rows

    rows = eq_key_rows(mv_k, mv_v, sk, sv, heads, distance_awareness)
    return eq_attention(mv_q, sq, rows, heads, mask, distance_awareness)


def distance_features(x, mix, eps: float):
    """The distance features `ad.key_rows` and `ad.mv_attention` compute inside their nodes,
    [..., 8] -> [..., 4], as a tape node of their own, sharing the attention's formula and VJP."""
    out, saved = ad._distance_features(ad.data_of(x), mix, eps)
    return ad._record("distance_features", out, (x,), {"saved": saved})


ad.register_vjp("distance_features", lambda n, g: (ad._distance_features_grad(n.ctx["saved"], g),))


def bilinear8_vjp(a, b, table, g):
    """Cotangents of `ad.bilinear8(a, b, table)` by the dense formula: `tensordot` of the output
    cotangent with the table, one reduction per operand, summed over the broadcast axes."""
    tg = np.tensordot(g, table, axes=([-1], [2]))  # [..., i, j]
    ga = (tg * b[..., None, :]).sum(axis=-1)
    gb = (tg * a[..., :, None]).sum(axis=-2)
    return ad._unbroadcast(ga, a.shape), ad._unbroadcast(gb, b.shape)


def matmul_vjp(a, b, g):
    """Cotangents of `ad.matmul(a, b)` for a 2-D `b` by the batched formula: one product per
    leading index, and the [..., k, n] stack of weight cotangents summed over the leading axes."""
    gb = np.swapaxes(a, -1, -2) @ g
    return g @ b.T, gb.reshape((-1,) + b.shape).sum(axis=0)


def biased_matmul_composite(a, b, bias, g):
    """`ad.add(ad.matmul(a, b), bias)` for a 2-D `b` and a 1-D `bias`, in numpy: the output, and the
    cotangents of a, b and bias that the matmul and add VJPs give for the output cotangent `g`."""
    gf = g.reshape(-1, b.shape[1])
    return (a @ b + bias, (gf @ b.T).reshape(a.shape), a.reshape(-1, b.shape[0]).T @ gf,
            g.sum(axis=tuple(range(g.ndim - 1))))


def centered_rms_norm_composite(x, w, eps: float, g, g_before):
    """`ad.rms_norm(ad.sub(x, ad.reduce_mean(x, -1, keepdims=True)), w, -1, eps)` in numpy: the
    output, and x's cotangent as `backward` accumulates it onto `g_before` (what later consumers of
    x gave): the rms_norm cotangent through `sub` first, then through the mean, negated by `sub`,
    summed, and spread by `reduce_mean`."""
    w = np.asarray(w, dtype=x.dtype)
    c = x - x.mean(axis=-1, keepdims=True)
    r = np.sqrt((w * c * c).sum(axis=-1, keepdims=True) + eps)
    gc = (g - w * c * ((g * c).sum(axis=-1, keepdims=True) / (r * r))) / r
    gx = g_before.copy()
    gx += gc
    gx += np.broadcast_to((-gc).sum(axis=-1, keepdims=True), x.shape).copy() / x.shape[-1]
    return c / r, gx


def split_composite(x, sizes, axis: int, gs):
    """`x` cut by one slice per part, and its cotangent as the composite of one slice node per part
    accumulates it: each used part's cotangent zero-padded to x's shape, summed from the last part
    to the first (None marks a part the loss never used)."""
    cuts = [slice(stop - size, stop) for size, stop in zip(sizes, np.cumsum(sizes))]
    lead = (slice(None),) * (axis % x.ndim)
    gx = None
    for cut, g in reversed(list(zip(cuts, gs))):
        if g is not None:
            padded = np.zeros(x.shape, dtype=g.dtype)
            padded[lead + (cut,)] = g
            gx = padded if gx is None else gx + padded
    return [x[lead + (cut,)] for cut in cuts], gx


def mv_linear_gx(weight, basis, g):
    """The input cotangent of `ad.mv_linear(x, weight, basis)` by the batched formula:
    gx[..., i, a] = sum over o, p, b of weight[o, i, p] basis[p, a, b] g[..., o, b]."""
    return np.einsum("oip,pab,...ob->...ia", weight, basis, g)


def embedding_vjp(shape, idx, g):
    """The table cotangent of `ad.embedding(table, idx)` for a table of `shape`, by `np.add.at`."""
    out = np.zeros(shape, dtype=g.dtype)
    np.add.at(out, idx, g)
    return out


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
    tracked = [ad.Var(a) for a in arrays]
    with ad.Tape() as tape:
        loss = fn(tracked)
    if not isinstance(loss, ad.Var) or loss.data.shape != ():
        raise ValueError("grad_check target must return a scalar Var")
    ad.backward(tape, loss)
    analytic = [t.grad for t in tracked]

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
            with ad.Tape():
                f_plus = float(ad.data_of(fn([ad.Var(a) for a in perturbed])))
            perturbed[slot][idx] -= 2.0 * step
            with ad.Tape():
                f_minus = float(ad.data_of(fn([ad.Var(a) for a in perturbed])))
            numeric = (f_plus - f_minus) / (2.0 * step)
            a_val = float(analytic[slot][idx])
            err = abs(a_val - numeric) / max(abs(a_val), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst


def primitive_grad_cases(rng):
    """(name, scalar fn, input arrays) for every registered autodiff primitive.

    Each scalarization is centered around its unperturbed value so the
    finite-difference evaluations stay near zero; this keeps the rounding
    noise of the final reduction out of the difference quotient.
    """
    from eqtraffic.layers import DISTANCE_EPS, KEY_MIX, LAYER_NORM_EPS, LINEAR_BASIS, QUERY_MIX
    from eqtraffic.pga import GEOM_TABLE, INNER_INDICES, JOIN_TABLE, WEDGE_TABLE

    def scalarize(x):
        d = ad.data_of(x)
        w = np.linspace(0.5, 1.5, d.size).reshape(d.shape)
        return ad.reduce_sum(ad.reshape(ad.mul(x, w), (-1,)), axis=0)

    a23 = rng.normal(size=(2, 3))
    b3 = rng.normal(size=(3,))
    m34 = rng.normal(size=(3, 4))
    mv = rng.normal(size=(2, 2, 8))
    pos = rng.uniform(0.5, 2.0, size=(2, 3))
    idx = np.array([[0, 2], [3, 1]])
    table = rng.normal(size=(5, 3))
    mask = np.array([[True, False, True], [True, True, True]])
    weight = rng.normal(size=(2, 2, 10))
    mv3 = rng.normal(size=(2, 3, 8))
    inner_weights = np.isin(np.arange(8), INNER_INDICES) / 3.0
    # row 0: e12 weights 3-8 sqrt(eps) either side of 0, where c / (c^2 + eps)
    # still bends away from 1/c; e01/e20 on the same scale keep the features,
    # and so the finite-difference rounding noise, small
    points = rng.normal(size=(2, 4, 8))
    points[0, :, 4:6] *= 3.0 * DISTANCE_EPS**0.5
    points[0, :, 6] = rng.choice([-1.0, 1.0], size=4) * rng.uniform(3.0, 8.0, size=4) * DISTANCE_EPS**0.5

    # attention: 2 heads of 1 multivector and 1 scalar channel; e12 weights kept
    # 0.5-1.5 from zero so the distance features stay smooth on the FD step.
    # `apart` moves key j by apart * j along x: at 15 every row's logits span
    # over 200, so its far keys' weights fall below eps^2
    def attn_arrays(lead_q, lead_k, lq, lk, apart=0.0):
        def points_mv(lead, length, apart=0.0):
            x = rng.normal(0.0, 0.5, size=lead + (length, 2, 8))
            x[..., 6] = rng.choice([-1.0, 1.0], size=x.shape[:-1]) * rng.uniform(0.5, 1.5, size=x.shape[:-1])
            x[..., 5] += apart * np.arange(length)[:, None] * x[..., 6]
            return x
        return [points_mv(lead_q, lq), points_mv(lead_k, lk, apart), points_mv(lead_k, lk),
                rng.normal(size=lead_q + (lq, 2)), rng.normal(size=lead_k + (lk, 2)),
                rng.normal(size=lead_k + (lk, 2))]

    def attention(mixes, mask):
        denom = float(np.sqrt(9.0 if mixes[0] is not None else 5.0))

        def fn(v):
            mv_q, mv_k, mv_v, sq, sk, sv = v
            rows = ad.key_rows(mv_k, mv_v, sk, sv, 2, mixes[1], DISTANCE_EPS)
            return ad.add(*[scalarize(out) for out in ad.mv_attention(
                mv_q, sq, *rows, 2, mixes[0], DISTANCE_EPS, denom, mask)])
        return fn

    def key_arrays(lead, lk):
        _mv_q, mv_k, mv_v, _sq, sk, sv = attn_arrays((), lead, 1, lk)
        return [mv_k, mv_v, sk, sv]

    def key_rows(mix):
        return lambda v: ad.add(*[scalarize(out) for out in ad.key_rows(*v, 2, mix, DISTANCE_EPS)])

    distance = (QUERY_MIX, KEY_MIX)
    no_key_row = rng.random(size=(2, 3, 3)) < 0.7
    no_key_row[1, 0] = False

    raw = [
        ("mv_attention/causal_lq_lt_lk", attention(distance, np.tri(2, 3, 1, dtype=bool)),
         attn_arrays((), (), 2, 3)),
        ("mv_attention/row_without_keys", attention(distance, no_key_row), attn_arrays((2,), (2,), 3, 3)),
        ("mv_attention/keys_fewer_dims", attention(distance, rng.random(size=(2, 3, 4)) < 0.8),
         attn_arrays((2,), (), 3, 4)),
        ("mv_attention/no_distance", attention((None, None), None), attn_arrays((2,), (2,), 2, 3)),
        ("mv_attention/peaked", attention(distance, None), attn_arrays((2,), (2,), 3, 4, apart=15.0)),
        ("key_rows/distance", key_rows(KEY_MIX), key_arrays((2,), 3)),
        ("key_rows/no_distance", key_rows(None), key_arrays((), 2)),
        ("add", lambda v: scalarize(ad.add(v[0], v[1])), [a23, b3]),
        ("mul", lambda v: scalarize(ad.mul(v[0], v[1])), [a23, b3]),
        ("div", lambda v: scalarize(ad.div(v[0], v[1])), [pos, pos + 1.0]),
        ("matmul", lambda v: scalarize(ad.matmul(v[0], v[1])), [a23, m34]),
        ("matmul/bias", lambda v: scalarize(ad.matmul(v[0], v[1], v[2])), [mv3[..., :3], m34, b3[[0, 1, 2, 0]]]),
        ("reshape", lambda v: scalarize(ad.reshape(v[0], (3, 2))), [a23]),
        ("moveaxis", lambda v: scalarize(ad.moveaxis(v[0], 0, 1)), [a23]),
        ("concat", lambda v: scalarize(ad.concat([v[0], v[1]], axis=0)), [a23, a23 + 1]),
        ("split", lambda v: functools.reduce(ad.add, map(scalarize, ad.split(v[0], [3, 4, 1], axis=-1))), [mv3]),
        ("split/unused_part", lambda v: scalarize(ad.split(v[0], [2, 1], axis=1)[1]), [a23]),
        ("take_last", lambda v: scalarize(ad.take_last(v[0], [0, 2])), [a23]),
        ("reduce_sum", lambda v: scalarize(ad.reduce_sum(v[0], axis=0)), [a23]),
        ("relu", lambda v: scalarize(ad.relu(v[0])), [a23]),
        ("masked_softmax", lambda v: scalarize(ad.masked_softmax(v[0], mask)), [a23]),
        ("log_softmax", lambda v: scalarize(ad.log_softmax(v[0])), [a23]),
        ("gather_last", lambda v: scalarize(ad.gather_last(v[0], np.array([0, 2]))), [a23]),
        ("embedding", lambda v: scalarize(ad.embedding(v[0], idx)), [table]),
        ("bilinear8/geom", lambda v: scalarize(ad.bilinear8(v[0], v[1], GEOM_TABLE)), [mv, mv + 0.3]),
        ("bilinear8/wedge", lambda v: scalarize(ad.bilinear8(v[0], v[1], WEDGE_TABLE)), [mv, mv + 0.3]),
        ("bilinear8/join", lambda v: scalarize(ad.bilinear8(v[0], v[1], JOIN_TABLE)), [mv, mv + 0.3]),
        ("mv_linear", lambda v: scalarize(ad.mv_linear(v[0], v[1], LINEAR_BASIS)), [mv, weight]),
        ("mv_linear/bias", lambda v: scalarize(ad.mv_linear(v[0], v[1], LINEAR_BASIS, v[2])),
         [mv, weight, np.linspace(-1.0, 1.0, 2)]),
        ("rms_norm/channels",
         lambda v: scalarize(ad.rms_norm(v[0], inner_weights, (-2, -1), LAYER_NORM_EPS)), [mv3]),
        ("rms_norm/last", lambda v: scalarize(ad.rms_norm(v[0], 1.0 / 3.0, -1, LAYER_NORM_EPS)), [a23]),
        ("rms_norm/centered",
         lambda v: scalarize(ad.rms_norm(v[0], 1.0 / 3.0, -1, LAYER_NORM_EPS, center=True)), [a23]),
        ("distance_features/query",
         lambda v: scalarize(distance_features(v[0], QUERY_MIX, DISTANCE_EPS)), [points]),
        ("distance_features/key",
         lambda v: scalarize(distance_features(v[0], KEY_MIX, DISTANCE_EPS)), [points]),
    ]

    # multilinear ops have mathematically exact central differences; their
    # residual FD error is pure rounding, so sample FD-resolvable coordinates.
    # Attention's rounding noise is ~1e-9 at this step, which resolves only
    # gradients above ~1e-4; its exact match with the composite path is
    # checked in test_layers; the same holds for its key rows' distance features
    floors = {"bilinear8/geom": 1e-3, "bilinear8/wedge": 1e-3,
              "bilinear8/join": 1e-3, "mv_linear": 1e-3, "mv_linear/bias": 1e-3, "matmul": 1e-3,
              "matmul/bias": 1e-3}
    floors.update({name: 1e-3 for name, _fn, _arrays in raw if name.startswith(("mv_attention/", "key_rows/"))})
    cases = []
    for name, fn, arrays in raw:
        with ad.Tape():
            base_val = float(ad.data_of(fn([ad.Var(a) for a in arrays])))
        cases.append(
            (name, (lambda v, f=fn, c=base_val: ad.add(f(v), -c)), arrays,
             floors.get(name, 0.0))
        )
    return cases
