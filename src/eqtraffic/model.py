"""Autoregressive agent model: encoders, factorized equivariant attention blocks,
invariant decoder, training loop, sampling, scalar baselines, and FLOP accounting.

The network consumes a TokenBatch (agent tokens [A, T], static map tokens [M])
and emits next-action logits per agent and timestep.  Each block runs
agent-to-map cross attention and agent-to-agent self attention per timestep,
causal self attention over time per agent, an equivariant MLP, and an
invariant adapter that folds geometric features into the scalars.
"""

import hashlib
import io
import json
import math
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, ParamStore, adam_step, cosine_lr
from .layers import (
    AttentionConfig,
    AttentionParams,
    EqLinearParams,
    EqMlpBlockParams,
    MlpParams,
    _combine_mask,
    affine,
    eq_attention,
    eq_layer_norm,
    eq_linear,
    eq_mlp_block,
    invariant_adapter,
    mlp2,
    scalar_layer_norm,
)
from .batch import pose_frame_motors
from .scene import (
    AGENT_CLASSES,
    AGENT_FEATURE_WIDTH,
    MAP_FEATURE_WIDTH,
    ActionVocab,
    Scene,
    encode_agent_scalars,
    encode_map_scalars,
    encode_pose_array,
    tokenize_batch,
    vocab_to_json,
)

VARIANTS = ("geometric", "rpe", "vanilla")

# FLOP model constants: a geometric product costs 128 mul + 120 add per
# channel pair; distance-awareness features cost ~16 flops per channel.
GP_FLOPS = 248.0
DA_FLOPS_PER_CHANNEL = 16.0


@dataclass(frozen=True)
class ModelConfig:
    mv_channels: int = 4
    scalar_channels: int = 32
    heads: int = 2
    blocks: int = 2
    vocab_sizes: dict = field(default_factory=lambda: {c: 64 for c in AGENT_CLASSES})
    map_attention: object = "all"  # "all" or int k for nearest-k map tokens
    dtype: str = "f32"
    seed: int = 0
    distance_awareness: bool = True
    include_adapter: bool = True
    input_hidden: int = 32
    adapter_hidden: int = 32
    decoder_hidden: int = 64
    rpe_hidden: int = 16

    def __post_init__(self):
        if self.mv_channels % self.heads or self.scalar_channels % self.heads:
            raise ValueError("channel counts must be divisible by the head count")
        if self.blocks < 0:
            raise ValueError("block count must be >= 0")
        if self.dtype not in ("f32", "f64"):
            raise ValueError(f"dtype must be f32 or f64, got {self.dtype}")
        if self.map_attention != "all" and (
            not isinstance(self.map_attention, int) or self.map_attention < 1
        ):
            raise ValueError("map_attention must be 'all' or a positive int")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "f32" else np.float64

    @property
    def max_vocab(self) -> int:
        return max(self.vocab_sizes.values())

    def attention_config(self, causal: bool = False) -> AttentionConfig:
        return AttentionConfig(
            heads=self.heads,
            mv_per_head=self.mv_channels // self.heads,
            scalar_per_head=self.scalar_channels // self.heads,
            distance_awareness=self.distance_awareness,
            causal=causal,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelConfig":
        return cls(**doc)


@dataclass
class TokenBatch:
    """Model input for one scene; all arrays float64 until the forward cast."""

    mv: np.ndarray            # [A, T, 1, 8]
    scalars_raw: np.ndarray   # [A, T, AGENT_FEATURE_WIDTH]
    raw_poses: np.ndarray     # [A, T, 3] global (x, y, theta): frames, knn, baselines
    prev_flat: np.ndarray     # [A, T] int indices into the flat action-embedding table
    class_idx: np.ndarray     # [A] int
    group: np.ndarray         # [A] int; agents attend only to agents of their own group
    map_mv: np.ndarray        # [M, 1, 8]
    map_scalars_raw: np.ndarray  # [M, MAP_FEATURE_WIDTH]
    map_poses: np.ndarray     # [M, 3]
    frames: np.ndarray        # [A, T, 4] motor coefficients (global -> agent frame)
    valid: np.ndarray         # [A, T] bool
    targets: np.ndarray       # [A, T] int, -1 where undefined
    target_valid: np.ndarray  # [A, T] bool

    @property
    def num_agents(self) -> int:
        return self.mv.shape[0]

    @property
    def num_steps(self) -> int:
        return self.mv.shape[1]

    @property
    def num_map(self) -> int:
        return self.map_mv.shape[0]


_MAP_FIELDS = ("map_mv", "map_scalars_raw", "map_poses")


def stack_samples(batches) -> TokenBatch:
    """Batches built from one scene, stacked along the agent axis as groups 0, 1, ...

    The stack keeps the first batch's map; every batch must carry the same map.
    """
    first = batches[0]
    for b in batches[1:]:
        if not all(np.array_equal(getattr(b, n), getattr(first, n)) for n in _MAP_FIELDS):
            raise ValueError("stacked batches must share one map")
    stacked = {
        f.name: np.concatenate([getattr(b, f.name) for b in batches])
        for f in fields(TokenBatch) if f.name not in _MAP_FIELDS
    }
    stacked["group"] = np.repeat(np.arange(len(batches)), [b.num_agents for b in batches])
    return TokenBatch(**stacked, **{n: getattr(first, n) for n in _MAP_FIELDS})


def flat_token_index(class_idx: int, token: int, max_vocab: int) -> int:
    """Index into the flat previous-action table; token == max_vocab is the start token."""
    return class_idx * (max_vocab + 1) + token


def build_token_batch(scene: Scene, vocab: ActionVocab, cfg: ModelConfig,
                      t_end: int | None = None, with_targets: bool = True,
                      t_start: int = 0) -> TokenBatch:
    """Encode rows t_start <= t < t_end of a scene, using states with t < t_end.

    The previous-action token of row t_start comes from the state at
    t_start - 1, so the rows equal the same rows of a batch built from 0.
    """
    n_steps = scene.horizon if t_end is None else t_end
    if not 0 <= t_start <= n_steps:
        raise ValueError(f"t_start {t_start} outside [0, {n_steps}]")
    agents = scene.agents
    n_agents = len(agents)
    n_rows = n_steps - t_start
    vmax = cfg.max_vocab

    poses = np.zeros((n_agents, n_rows, 3))
    scalars = np.zeros((n_agents, n_rows, AGENT_FEATURE_WIDTH))
    valid = np.zeros((n_agents, n_rows), dtype=bool)
    class_idx = np.zeros(n_agents, dtype=np.int64)
    prev_flat = np.zeros((n_agents, n_rows), dtype=np.int64)
    targets = np.full((n_agents, n_rows), -1, dtype=np.int64)
    target_valid = np.zeros((n_agents, n_rows), dtype=bool)

    for a, agent in enumerate(agents):
        cls_i = AGENT_CLASSES.index(agent.agent_class)
        class_idx[a] = cls_i
        states = {s.t: s for s in agent.states if t_start - 1 <= s.t < n_steps}
        deltas = {}
        for t, s in states.items():
            nxt = states.get(t + 1)
            if nxt is not None:
                d = s.pose.delta_to(nxt.pose)
                deltas[t] = [d.x, d.y, d.theta]
        if deltas:
            steps_sorted = sorted(deltas)
            ids = tokenize_batch(np.array([deltas[t] for t in steps_sorted]), vocab, agent.agent_class)
            token_of = dict(zip(steps_sorted, ids))
        else:
            token_of = {}
        for r, t in enumerate(range(t_start, n_steps)):
            s = states.get(t)
            if s is None:
                prev_flat[a, r] = flat_token_index(cls_i, vmax, vmax)
                continue
            valid[a, r] = True
            poses[a, r] = [s.pose.x, s.pose.y, s.pose.theta]
            scalars[a, r] = encode_agent_scalars(agent, t)
            prev_tok = token_of.get(t - 1)
            prev_flat[a, r] = flat_token_index(cls_i, vmax if prev_tok is None else int(prev_tok), vmax)
            if with_targets and t in token_of:
                targets[a, r] = int(token_of[t])
                target_valid[a, r] = True

    map_poses = np.array(
        [[n.pose.x, n.pose.y, n.pose.theta] for n in scene.map_nodes]
    ).reshape(-1, 3)
    map_scalars = np.array([encode_map_scalars(n) for n in scene.map_nodes]).reshape(
        -1, MAP_FEATURE_WIDTH
    )

    return TokenBatch(
        mv=encode_pose_array(poses)[:, :, None, :],
        scalars_raw=scalars,
        raw_poses=poses,
        prev_flat=prev_flat,
        class_idx=class_idx,
        group=np.zeros(n_agents, dtype=np.int64),
        map_mv=encode_pose_array(map_poses)[:, None, :],
        map_scalars_raw=map_scalars,
        map_poses=map_poses,
        frames=pose_frame_motors(poses),
        valid=valid,
        targets=targets,
        target_valid=target_valid,
    )


# ---------------------------------------------------------------------------
# parameter initialization
# ---------------------------------------------------------------------------

def _eq_weight(rng, c_out, c_in, dtype):
    w = np.zeros((c_out, c_in, 10))
    w[..., :4] = rng.normal(0.0, math.sqrt(1.0 / c_in), size=(c_out, c_in, 4))
    w[..., 4:] = rng.normal(0.0, math.sqrt(0.1 / c_in), size=(c_out, c_in, 6))
    return w.astype(dtype)


def _dense(rng, d_in, d_out, dtype, scale=None):
    std = scale if scale is not None else 1.0 / math.sqrt(d_in)
    return rng.normal(0.0, std, size=(d_in, d_out)).astype(dtype)


def _add_eq_linear(params, rng, name, c_out, c_in, dtype):
    params.add(f"{name}/weight", _eq_weight(rng, c_out, c_in, dtype))
    params.add(f"{name}/bias", np.zeros(c_out, dtype=dtype))


def _add_mlp(params, rng, name, d_in, hidden, d_out, dtype, out_scale=None):
    params.add(f"{name}/w1", _dense(rng, d_in, hidden, dtype))
    params.add(f"{name}/b1", np.zeros(hidden, dtype=dtype))
    params.add(f"{name}/w2", _dense(rng, hidden, d_out, dtype, scale=out_scale))
    params.add(f"{name}/b2", np.zeros(d_out, dtype=dtype))


def init_params(cfg: ModelConfig, rng: np.random.Generator | None = None) -> ParamStore:
    """Fresh parameters for the geometric model; deterministic in cfg.seed."""
    rng = rng or np.random.default_rng(cfg.seed)
    dt = cfg.np_dtype
    c, s = cfg.mv_channels, cfg.scalar_channels
    params = ParamStore()

    _add_eq_linear(params, rng, "embed/agent_mv", c, 1, dt)
    _add_eq_linear(params, rng, "embed/map_mv", c, 1, dt)
    _add_mlp(params, rng, "embed/agent_in", AGENT_FEATURE_WIDTH, cfg.input_hidden, s, dt)
    _add_mlp(params, rng, "embed/map_in", MAP_FEATURE_WIDTH, cfg.input_hidden, s, dt)
    params.add(
        "embed/prev_action",
        rng.normal(0.0, 0.02, size=(len(AGENT_CLASSES) * (cfg.max_vocab + 1), s)).astype(dt),
    )

    for i in range(cfg.blocks):
        for attn in ("map_attn", "agent_attn", "time_attn"):
            base = f"block{i}/{attn}"
            # key projections carry no bias: a constant key offset shifts every
            # logit in a row equally, which softmax cancels exactly
            for proj, biased in (("mv_q", True), ("mv_k", False), ("mv_v", True)):
                params.add(f"{base}/{proj}/weight", _eq_weight(rng, c, c, dt))
                if biased:
                    params.add(f"{base}/{proj}/bias", np.zeros(c, dtype=dt))
            for proj, biased in (("s_q", True), ("s_k", False), ("s_v", True)):
                params.add(f"{base}/{proj}/w", _dense(rng, s, s, dt))
                if biased:
                    params.add(f"{base}/{proj}/b", np.zeros(s, dtype=dt))
        _add_eq_linear(params, rng, f"block{i}/mlp/expand", 4 * c, c, dt)
        _add_eq_linear(params, rng, f"block{i}/mlp/mid", 2 * c, 2 * c, dt)
        _add_eq_linear(params, rng, f"block{i}/mlp/out", c, 2 * c, dt)
        _add_mlp(params, rng, f"block{i}/mlp/scalar", s, 2 * s, s, dt)
        if cfg.include_adapter:
            # zero output layer: the adapter's residual branch starts silent;
            # its raw inputs are meters-scale multivector components that would
            # otherwise drown the scalar stream at init
            _add_mlp(params, rng, f"block{i}/adapter", 8 * c, cfg.adapter_hidden, s, dt,
                     out_scale=0.0)

    params.add("decoder/w1", _dense(rng, s, cfg.decoder_hidden, dt))
    params.add("decoder/b1", np.zeros(cfg.decoder_hidden, dtype=dt))
    params.add(
        "decoder/heads",
        rng.normal(0.0, 0.02, size=(len(AGENT_CLASSES), cfg.decoder_hidden, cfg.max_vocab)).astype(dt),
    )
    params.add("decoder/bias", np.zeros((len(AGENT_CLASSES), cfg.max_vocab), dtype=dt))
    return params


def _eq_params(p, name) -> EqLinearParams:
    return EqLinearParams(p[f"{name}/weight"], p[f"{name}/bias"])


def _mlp_params(p, name) -> MlpParams:
    return MlpParams(p[f"{name}/w1"], p[f"{name}/b1"], p[f"{name}/w2"], p[f"{name}/b2"])


def _attn_params(p, name) -> AttentionParams:
    return AttentionParams(
        mv_q=_eq_params(p, f"{name}/mv_q"),
        mv_k=EqLinearParams(p[f"{name}/mv_k/weight"], None),
        mv_v=_eq_params(p, f"{name}/mv_v"),
        s_q=(p[f"{name}/s_q/w"], p[f"{name}/s_q/b"]),
        s_k=(p[f"{name}/s_k/w"], None),
        s_v=(p[f"{name}/s_v/w"], p[f"{name}/s_v/b"]),
    )


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def _attention_sublayer(mv_q, s_q, mv_kv, s_kv, prm: AttentionParams,
                        attn_cfg: AttentionConfig, mask=None, self_attn=False):
    """Pre-norm projections, equivariant attention, residual connections."""
    mv_qn = eq_layer_norm(mv_q)
    s_qn = scalar_layer_norm(s_q)
    if self_attn:
        mv_kn, s_kn = mv_qn, s_qn
    else:
        mv_kn = eq_layer_norm(mv_kv)
        s_kn = scalar_layer_norm(s_kv)
    out_mv, out_s = eq_attention(
        eq_linear(mv_qn, prm.mv_q),
        eq_linear(mv_kn, prm.mv_k),
        eq_linear(mv_kn, prm.mv_v),
        affine(s_qn, *prm.s_q),
        affine(s_kn, *prm.s_k),
        affine(s_kn, *prm.s_v),
        attn_cfg,
        mask=mask,
    )
    return ad.add(out_mv, mv_q), ad.add(out_s, s_q)


def _swap_at(x):
    """[A, T, ...] <-> [T, A, ...] for the per-timestep attention arrangements."""
    return ad.moveaxis(x, 1, 0)


def knn_map_mask(batch: TokenBatch, k: int) -> np.ndarray:
    """[A, T, M] boolean mask keeping the k nearest map nodes per agent state."""
    diff = batch.raw_poses[:, :, None, :2] - batch.map_poses[None, None, :, :2]
    d2 = (diff**2).sum(-1)
    k = min(k, batch.num_map)
    if k == 0:
        return np.zeros(d2.shape, dtype=bool)
    nearest = np.argpartition(d2, k - 1, axis=-1)[..., :k]
    mask = np.zeros(d2.shape, dtype=bool)
    np.put_along_axis(mask, nearest, True, axis=-1)
    return mask


def _decode_logits(h, p, class_idx):
    """Per-class decoder heads and biases, gathered by each agent's class."""
    heads = ad.embedding(p["decoder/heads"], class_idx)          # [A, H, V]
    bias = ad.embedding(p["decoder/bias"], class_idx[:, None])   # [A, 1, V]
    return ad.add(ad.matmul(h, heads), bias)


def _agent_mask(batch: TokenBatch) -> np.ndarray:
    """[T, Aq, Ak]: both tokens valid and in the same group."""
    same_group = batch.group[:, None] == batch.group[None, :]
    return batch.valid.T[:, None, :] & batch.valid.T[:, :, None] & same_group


def _cached_time_attention(mv, s, valid, cache: dict, block: int, prm: AttentionParams,
                           causal_cfg: AttentionConfig):
    """Causal time attention from the batch's rows over the cached prefix and themselves.

    The cache entry is replaced by the prefix extended with the rows' inputs.
    """
    entry = (ad.data_of(mv), ad.data_of(s), valid)
    if block in cache:
        entry = tuple(np.concatenate(pair, axis=1) for pair in zip(cache[block], entry))
    cache[block] = entry
    mv_all, s_all, valid_all = entry
    mask = valid[:, :, None] & valid_all[:, None, :]
    return _attention_sublayer(mv, s, mv_all, s_all, prm, causal_cfg, mask=mask)


def forward(batch: TokenBatch, p, cfg: ModelConfig, cache: dict | None = None):
    """Next-action logits [A, T, max_vocab].

    `cache` (a dict, empty before the first call) makes decoding incremental:
    each call's batch holds the rows that follow those already cached, and
    only these rows are computed.  Every layer but causal time attention acts
    per timestep or per token, so the cache holds just the residual stream
    entering each block's time attention, as plain arrays: no gradient flows
    into the prefix.  The logits equal the same rows of one forward over the
    whole prefix.
    """
    dt = cfg.np_dtype
    a_count, t_count, m_count = batch.num_agents, batch.num_steps, batch.num_map

    mv = eq_linear(batch.mv.astype(dt), _eq_params(p, "embed/agent_mv"))
    s = mlp2(batch.scalars_raw.astype(dt), _mlp_params(p, "embed/agent_in"))
    s = ad.add(s, ad.embedding(p["embed/prev_action"], batch.prev_flat))

    map_mv = eq_linear(batch.map_mv.astype(dt), _eq_params(p, "embed/map_mv"))
    map_s = mlp2(batch.map_scalars_raw.astype(dt), _mlp_params(p, "embed/map_in"))

    attn_cfg = cfg.attention_config()
    causal_cfg = cfg.attention_config(causal=True)

    if cfg.map_attention == "all":
        map_mask = np.broadcast_to(batch.valid.T[:, :, None], (t_count, a_count, m_count))
    else:
        knn = knn_map_mask(batch, int(cfg.map_attention))  # [A, T, M]
        map_mask = np.moveaxis(knn, 1, 0) & batch.valid.T[:, :, None]
    agent_mask = _agent_mask(batch)
    time_mask = (batch.valid[:, None, :] & batch.valid[:, :, None])       # [A, Tq, Tk]

    for i in range(cfg.blocks):
        # agent-to-map cross attention, batched over timesteps
        mv_t, s_t = _swap_at(mv), _swap_at(s)
        mv_t, s_t = _attention_sublayer(
            mv_t, s_t, map_mv, map_s, _attn_params(p, f"block{i}/map_attn"),
            attn_cfg, mask=map_mask,
        )
        # agent-to-agent self attention, batched over timesteps
        mv_t, s_t = _attention_sublayer(
            mv_t, s_t, None, None, _attn_params(p, f"block{i}/agent_attn"),
            attn_cfg, mask=agent_mask, self_attn=True,
        )
        mv, s = _swap_at(mv_t), _swap_at(s_t)
        # causal self attention over time, batched over agents
        time_prm = _attn_params(p, f"block{i}/time_attn")
        if cache is None:
            mv, s = _attention_sublayer(
                mv, s, None, None, time_prm, causal_cfg, mask=time_mask, self_attn=True,
            )
        else:
            mv, s = _cached_time_attention(mv, s, batch.valid, cache, i, time_prm, causal_cfg)
        mv, s = eq_mlp_block(
            mv, s,
            EqMlpBlockParams(
                expand=_eq_params(p, f"block{i}/mlp/expand"),
                mid=_eq_params(p, f"block{i}/mlp/mid"),
                out=_eq_params(p, f"block{i}/mlp/out"),
                scalar=_mlp_params(p, f"block{i}/mlp/scalar"),
            ),
        )
        if cfg.include_adapter:
            s = invariant_adapter(mv, s, batch.frames, _mlp_params(p, f"block{i}/adapter"))

    h = ad.relu(affine(scalar_layer_norm(s), p["decoder/w1"], p["decoder/b1"]))
    logits = _decode_logits(h, p, batch.class_idx)
    return ad.add(logits, _vocab_mask(batch.class_idx, cfg))


def _vocab_mask(class_idx: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """[A, 1, V] additive mask pinning out-of-vocabulary slots for small-vocab classes."""
    sizes = np.array([cfg.vocab_sizes[c] for c in AGENT_CLASSES])
    inside = np.arange(cfg.max_vocab) < sizes[class_idx][:, None]
    return np.where(inside, 0.0, -1e30).astype(cfg.np_dtype)[:, None, :]


def loss(logits, targets: np.ndarray, valid: np.ndarray):
    """Mean cross entropy over valid (agent, step) positions."""
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ValueError("loss needs at least one valid target position")
    log_probs = ad.log_softmax(logits)
    picked = ad.gather_last(log_probs, np.maximum(targets, 0))
    weights = valid.astype(ad.data_of(picked).dtype)
    total = ad.reduce_sum(ad.reshape(ad.mul(picked, weights), (-1,)), axis=0)
    return ad.div(ad.neg(total), float(n_valid))


def sample_action(logits_row: np.ndarray, mode: str, rng: np.random.Generator | None = None,
                  temperature: float = 1.0) -> int:
    """Greedy argmax (lowest index wins ties) or categorical at a temperature."""
    row = np.asarray(logits_row, dtype=np.float64)
    if not np.all(np.isfinite(np.maximum(row, -1e30))):
        raise ValueError("logits must be finite")
    if mode == "greedy":
        return int(np.argmax(row))
    if mode == "categorical":
        if rng is None:
            raise ValueError("categorical sampling needs an rng")
        scaled = row / max(temperature, 1e-12)
        scaled = scaled - scaled.max()
        probs = np.exp(scaled)
        probs /= probs.sum()
        return int(rng.choice(len(row), p=probs))
    raise ValueError(f"unknown sampling mode '{mode}'")


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def train(scenes, vocab: ActionVocab, cfg: ModelConfig, steps: int, lr: float = 1e-3,
          seed: int = 0, params: ParamStore | None = None, scenes_per_step: int = 2):
    """Adam with cosine annealing; deterministic per seed on a single thread.

    Each optimizer step accumulates gradients over `scenes_per_step` scenes
    (averaged), which tames the per-scene gradient noise of tiny batches.
    Returns (params, curve) with curve rows (step, lr, loss).
    """
    if not scenes:
        raise ValueError("train needs a nonempty dataset")
    if scenes_per_step < 1:
        raise ValueError("scenes_per_step must be >= 1")
    if params is None:
        params = init_params(cfg)
    batches = [build_token_batch(s, vocab, cfg) for s in scenes]
    state = AdamState(params)
    rng = np.random.default_rng(seed)
    order: list[int] = []
    curve = []
    for step in range(steps):
        step_lr = cosine_lr(step, steps, lr)
        acc: dict | None = None
        loss_total = 0.0
        for _ in range(scenes_per_step):
            if not order:
                order = list(rng.permutation(len(batches)))
            batch = batches[order.pop()]
            pvars = {name: ad.Var(arr) for name, arr in params.items()}
            with ad.Tape() as tape:
                logits = forward(batch, pvars, cfg)
                loss_var = loss(logits, batch.targets, batch.target_valid)
            loss_val = float(ad.data_of(loss_var))
            if not math.isfinite(loss_val):
                bad = next(i for i, nd in enumerate(tape.nodes) if not np.isfinite(nd.output.data).all())
                raise RuntimeError(f"non-finite loss {loss_val} at step {step}: first non-finite "
                                   f"output at tape node {bad}, op '{tape.nodes[bad].op}'")
            loss_total += loss_val
            grads_view = ad.backward(tape, loss_var)
            if acc is None:
                acc = {name: grads_view[var].astype(np.float64) for name, var in pvars.items()}
            else:
                for name, var in pvars.items():
                    acc[name] += grads_view[var]
        grads = {name: g / scenes_per_step for name, g in acc.items()}
        adam_step(params, grads, state, step_lr)
        curve.append((step, step_lr, loss_total / scenes_per_step))
    return params, curve


# ---------------------------------------------------------------------------
# scalar baselines: vanilla transformer and pairwise-RPE attention
# ---------------------------------------------------------------------------

def pairwise_pose_features(poses_q: np.ndarray, poses_k: np.ndarray) -> np.ndarray:
    """Relative pose j as seen from i: [..., Lq, Lk, 4] = (dx, dy, cos dth, sin dth)."""
    q = np.asarray(poses_q, dtype=np.float64)
    k = np.asarray(poses_k, dtype=np.float64)
    dxg = k[..., None, :, 0] - q[..., :, None, 0]
    dyg = k[..., None, :, 1] - q[..., :, None, 1]
    dth = k[..., None, :, 2] - q[..., :, None, 2]
    c = np.cos(q[..., :, None, 2])
    s = np.sin(q[..., :, None, 2])
    return np.stack(
        [c * dxg + s * dyg, -s * dxg + c * dyg, np.cos(dth), np.sin(dth)], axis=-1
    )


def scalar_attention(q, k, v, mask=None, causal=False):
    """Plain scaled dot-product attention over the last two axes."""
    d = ad.data_of(q).shape[-1]
    logits = ad.div(ad.matmul(q, ad.moveaxis(k, -1, -2)), math.sqrt(d))
    shape = ad.data_of(logits).shape
    weights = ad.masked_softmax(logits, _combine_mask(mask, causal, shape[-2], shape[-1]))
    return ad.matmul(weights, v)


def rpe_attention(q, k, v, rel_feats: np.ndarray, rpe_mlp: MlpParams,
                  mask=None, causal=False, stats: dict | None = None):
    """Attention with per-pair key/value offsets from a relative-pose MLP.

    rel_feats [..., Lq, Lk, 4] featurizes pose_j in the frame of i.  The MLP
    output splits into a key offset and a value offset, added before the dot
    product and the weighted sum respectively.  Cost is quadratic in tokens.
    """
    d = ad.data_of(q).shape[-1]
    pair = mlp2(rel_feats, rpe_mlp)  # [..., Lq, Lk, 2d]
    k_off, v_off = ad.split(pair, [d, d], axis=-1)
    if stats is not None:
        stats["pair_evals"] = stats.get("pair_evals", 0) + int(
            np.prod(rel_feats.shape[:-1])
        )
    base = ad.matmul(q, ad.moveaxis(k, -1, -2))
    qd = ad.data_of(q)
    extra = ad.reduce_sum(ad.mul(ad.reshape(q, qd.shape[:-1] + (1, d)), k_off), axis=-1)
    logits = ad.div(ad.add(base, extra), math.sqrt(d))
    shape = ad.data_of(logits).shape
    weights = ad.masked_softmax(logits, _combine_mask(mask, causal, shape[-2], shape[-1]))
    out = ad.matmul(weights, v)
    wd = ad.data_of(weights)
    offset = ad.reduce_sum(ad.mul(ad.reshape(weights, wd.shape + (1,)), v_off), axis=-2)
    return ad.add(out, offset)


def init_baseline_params(cfg: ModelConfig, variant: str,
                         rng: np.random.Generator | None = None) -> ParamStore:
    if variant not in ("rpe", "vanilla"):
        raise ValueError(f"baseline variant must be rpe or vanilla, got '{variant}'")
    rng = rng or np.random.default_rng(cfg.seed)
    dt = cfg.np_dtype
    s = cfg.scalar_channels
    in_width = AGENT_FEATURE_WIDTH + (3 if variant == "vanilla" else 0)
    params = ParamStore()
    _add_mlp(params, rng, "embed/agent_in", in_width, cfg.input_hidden, s, dt)
    _add_mlp(params, rng, "embed/map_in", MAP_FEATURE_WIDTH + (3 if variant == "vanilla" else 0),
             cfg.input_hidden, s, dt)
    params.add(
        "embed/prev_action",
        rng.normal(0.0, 0.02, size=(len(AGENT_CLASSES) * (cfg.max_vocab + 1), s)).astype(dt),
    )
    for i in range(cfg.blocks):
        for attn in ("map_attn", "agent_attn", "time_attn"):
            base = f"block{i}/{attn}"
            for proj, biased in (("s_q", True), ("s_k", False), ("s_v", True)):
                params.add(f"{base}/{proj}/w", _dense(rng, s, s, dt))
                if biased:
                    params.add(f"{base}/{proj}/b", np.zeros(s, dtype=dt))
            if variant == "rpe":
                _add_mlp(params, rng, f"{base}/rpe", 4, cfg.rpe_hidden, 2 * s, dt, out_scale=0.1)
        _add_mlp(params, rng, f"block{i}/mlp", s, 2 * s, s, dt)
    params.add("decoder/w1", _dense(rng, s, cfg.decoder_hidden, dt))
    params.add("decoder/b1", np.zeros(cfg.decoder_hidden, dtype=dt))
    params.add(
        "decoder/heads",
        rng.normal(0.0, 0.02, size=(len(AGENT_CLASSES), cfg.decoder_hidden, cfg.max_vocab)).astype(dt),
    )
    params.add("decoder/bias", np.zeros((len(AGENT_CLASSES), cfg.max_vocab), dtype=dt))
    return params


def _baseline_attention_sublayer(s_q, s_kv, p, name, variant, rel_feats,
                                 mask=None, causal=False, stats=None):
    s_qn = scalar_layer_norm(s_q)
    s_kn = s_qn if s_kv is None else scalar_layer_norm(s_kv)
    q = affine(s_qn, p[f"{name}/s_q/w"], p[f"{name}/s_q/b"])
    k = affine(s_kn, p[f"{name}/s_k/w"])
    v = affine(s_kn, p[f"{name}/s_v/w"], p[f"{name}/s_v/b"])
    if variant == "rpe":
        out = rpe_attention(q, k, v, rel_feats, _mlp_params(p, f"{name}/rpe"),
                            mask=mask, causal=causal, stats=stats)
    else:
        out = scalar_attention(q, k, v, mask=mask, causal=causal)
    return ad.add(out, s_q)


def baseline_forward(batch: TokenBatch, p, cfg: ModelConfig, variant: str,
                     stats: dict | None = None):
    """Scalar-only stack mirroring the factorized block structure.

    `vanilla` feeds raw global poses into the input MLPs (the non-equivariant
    reference); `rpe` stays pose-free in the inputs and injects pairwise
    relative-pose offsets inside every attention.
    """
    if variant not in ("rpe", "vanilla"):
        raise ValueError(f"unknown baseline variant '{variant}'")
    dt = cfg.np_dtype
    a_count, t_count, m_count = batch.num_agents, batch.num_steps, batch.num_map

    if variant == "vanilla":
        agents_in = np.concatenate([batch.scalars_raw, batch.raw_poses], axis=-1)
        map_in = np.concatenate([batch.map_scalars_raw, batch.map_poses], axis=-1)
    else:
        agents_in = batch.scalars_raw
        map_in = batch.map_scalars_raw
    s = mlp2(agents_in.astype(dt), _mlp_params(p, "embed/agent_in"))
    s = ad.add(s, ad.embedding(p["embed/prev_action"], batch.prev_flat))
    map_s = mlp2(map_in.astype(dt), _mlp_params(p, "embed/map_in"))

    if variant == "rpe":
        rel_map = np.moveaxis(pairwise_pose_features(batch.raw_poses, batch.map_poses), 1, 0)
        rel_agent = pairwise_pose_features(
            np.moveaxis(batch.raw_poses, 1, 0), np.moveaxis(batch.raw_poses, 1, 0)
        )
        rel_time = pairwise_pose_features(batch.raw_poses, batch.raw_poses)
    else:
        rel_map = rel_agent = rel_time = None

    map_mask = np.broadcast_to(batch.valid.T[:, :, None], (t_count, a_count, m_count))
    agent_mask = _agent_mask(batch)
    time_mask = batch.valid[:, None, :] & batch.valid[:, :, None]

    for i in range(cfg.blocks):
        s_t = _swap_at(s)
        s_t = _baseline_attention_sublayer(
            s_t, map_s, p, f"block{i}/map_attn", variant, rel_map, mask=map_mask, stats=stats
        )
        s_t = _baseline_attention_sublayer(
            s_t, None, p, f"block{i}/agent_attn", variant, rel_agent, mask=agent_mask, stats=stats
        )
        s = _swap_at(s_t)
        s = _baseline_attention_sublayer(
            s, None, p, f"block{i}/time_attn", variant, rel_time,
            mask=time_mask, causal=True, stats=stats,
        )
        s = ad.add(mlp2(scalar_layer_norm(s), _mlp_params(p, f"block{i}/mlp")), s)

    h = ad.relu(affine(scalar_layer_norm(s), p["decoder/w1"], p["decoder/b1"]))
    logits = _decode_logits(h, p, batch.class_idx)
    return ad.add(logits, _vocab_mask(batch.class_idx, cfg))


# ---------------------------------------------------------------------------
# analytic FLOP accounting
# ---------------------------------------------------------------------------

def flop_count(cfg: ModelConfig, agents: int, map_tokens: int, steps: int,
               variant: str) -> dict:
    """Closed-form forward-pass FLOPs with a per-term breakdown.

    Matmuls count 2*m*k*n; geometric products GP_FLOPS per channel pair.
    Norms and residual adds are excluded.  Positional terms isolate what each
    variant spends on positional information: per-token feature construction
    for the geometric model, per-pair MLPs for rpe, nothing for vanilla.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if agents < 1 or map_tokens < 1 or steps < 1:
        raise ValueError("sizes must be positive")
    c, s, n = cfg.mv_channels, cfg.scalar_channels, cfg.blocks
    at = float(agents * steps)  # agent tokens
    m = float(map_tokens)
    pairs_map = float(agents * map_tokens * steps)
    pairs_agent = float(agents * agents * steps)
    pairs_time = float(steps * steps * agents)
    pairs_total = pairs_map + pairs_agent + pairs_time

    terms = {key: 0.0 for key in (
        "embed", "proj_qkv", "attn_scores", "attn_values", "mlp", "adapter", "decoder",
        "pos_agent_tokens", "pos_map_tokens",
        "pos_pairs_agent_agent", "pos_pairs_agent_map", "pos_pairs_time",
    )}

    dense = lambda tokens, d_in, d_out: 2.0 * tokens * d_in * d_out
    geo = variant == "geometric"

    in_extra = 3 if variant == "vanilla" else 0
    terms["embed"] += dense(at, AGENT_FEATURE_WIDTH + in_extra, cfg.input_hidden)
    terms["embed"] += dense(at, cfg.input_hidden, s)
    terms["embed"] += dense(m, MAP_FEATURE_WIDTH + in_extra, cfg.input_hidden)
    terms["embed"] += dense(m, cfg.input_hidden, s)
    if geo:
        terms["embed"] += (at + m) * 128.0 * 1 * c  # multivector embedding

    d_attn = (8 * c + s) if geo else s
    for _ in range(n):
        # q on agent tokens for all three attentions; k, v on their key sets
        terms["proj_qkv"] += 3 * dense(at, s, s) + 2 * dense(m, s, s) + 4 * dense(at, s, s)
        if geo:
            terms["proj_qkv"] += 3 * (128.0 * c * c) * at + 2 * (128.0 * c * c) * m
            terms["proj_qkv"] += 4 * (128.0 * c * c) * at
            # positional construction: component extraction + distance features
            terms["pos_agent_tokens"] += 3 * 2 * DA_FLOPS_PER_CHANNEL * c * at
            terms["pos_map_tokens"] += DA_FLOPS_PER_CHANNEL * c * m
        terms["attn_scores"] += 2.0 * pairs_total * d_attn
        terms["attn_values"] += 2.0 * pairs_total * d_attn
        if variant == "rpe":
            per_pair = 2.0 * 4 * cfg.rpe_hidden + 2.0 * cfg.rpe_hidden * 2 * s + 4.0 * s
            terms["pos_pairs_agent_map"] += per_pair * pairs_map
            terms["pos_pairs_agent_agent"] += per_pair * pairs_agent
            terms["pos_pairs_time"] += per_pair * pairs_time
        # feedforward
        if geo:
            terms["mlp"] += at * 128.0 * (c * 4 * c + 2 * c * 2 * c + 2 * c * c)
            terms["mlp"] += at * GP_FLOPS * 2 * c
            terms["adapter"] += at * (GP_FLOPS * 2 * c + 2.0 * 8 * c * cfg.adapter_hidden
                                      + 2.0 * cfg.adapter_hidden * s)
        terms["mlp"] += dense(at, s, 2 * s) + dense(at, 2 * s, s)

    terms["decoder"] += dense(at, s, cfg.decoder_hidden)
    terms["decoder"] += dense(at, cfg.decoder_hidden, cfg.max_vocab)

    total = float(sum(terms.values()))
    positional = sum(terms[k] for k in terms if k.startswith("pos_"))
    return {
        "variant": variant,
        "agents": agents,
        "map_tokens": map_tokens,
        "steps": steps,
        "terms": terms,
        "positional": float(positional),
        "total": total,
    }


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def vocab_hash(vocab: ActionVocab) -> str:
    return hashlib.sha256(vocab_to_json(vocab).encode("utf-8")).hexdigest()


def save_checkpoint(path, params: ParamStore, cfg: ModelConfig, vocab: ActionVocab,
                    meta: dict | None = None) -> None:
    """JSON manifest line + raw little-endian values in manifest order."""
    entries = []
    for name, arr in params.items():
        kind = "<f4" if arr.dtype == np.float32 else "<f8"
        entries.append({"name": name, "shape": list(arr.shape), "dtype": kind})
    manifest = {
        "format": "eqtraffic-checkpoint-v1",
        "config": cfg.to_dict(),
        "vocab_hash": vocab_hash(vocab),
        "params": entries,
        "meta": meta or {},
    }
    buf = io.BytesIO()
    buf.write(json.dumps(manifest).encode("utf-8"))
    buf.write(b"\n")
    for name, arr in params.items():
        kind = "<f4" if arr.dtype == np.float32 else "<f8"
        buf.write(np.ascontiguousarray(arr, dtype=kind).tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_checkpoint(path):
    """Returns (params, config, manifest)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    newline = blob.find(b"\n")
    if newline < 0:
        raise ValueError(f"checkpoint {path} is truncated inside its manifest line")
    manifest = json.loads(blob[:newline].decode("utf-8"))
    if manifest.get("format") != "eqtraffic-checkpoint-v1":
        raise ValueError(f"unrecognized checkpoint format in {path}")
    params = ParamStore()
    offset = newline + 1
    for entry in manifest["params"]:
        dtype = np.dtype(entry["dtype"])
        count = int(np.prod(entry["shape"])) if entry["shape"] else 1
        nbytes = count * dtype.itemsize
        if nbytes > len(blob) - offset:
            raise ValueError(
                f"checkpoint {path} is truncated: parameter '{entry['name']}' needs "
                f"{nbytes} bytes, {len(blob) - offset} available"
            )
        arr = np.frombuffer(blob[offset:offset + nbytes], dtype=dtype).reshape(entry["shape"])
        params.add(entry["name"], arr.copy())
        offset += nbytes
    if offset != len(blob):
        raise ValueError(f"checkpoint has {len(blob) - offset} trailing bytes")
    cfg = ModelConfig.from_dict(manifest["config"])
    return params, cfg, manifest
