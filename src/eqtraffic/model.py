"""Autoregressive agent model: encoders, factorized equivariant attention blocks,
invariant decoder, training loop, sampling, scalar baselines, and FLOP accounting.

The network consumes a TokenBatch (agent tokens [A, T], static map tokens [M])
and emits next-action logits per agent and timestep.  Each block runs
agent-to-map cross attention and agent-to-agent self attention per timestep,
causal self attention over time per agent, an equivariant MLP, and an
invariant adapter that folds geometric features into the scalars.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, asdict
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, ParamStore, adam_step, cosine_lr
from .layers import (
    eq_attention,
    eq_key_rows,
    eq_layer_norm,
    eq_linear,
    eq_mlp_block,
    invariant_adapter,
    mlp2,
    scalar_layer_norm,
)
from .batch import pose_frame_motors, sandwich_matrix
from .pga import pose_deltas
from .scene import (
    AGENT_CLASSES,
    AGENT_FEATURE_WIDTH,
    MAP_FEATURE_WIDTH,
    ActionVocab,
    AgentStates,
    Scene,
    agent_states,
    encode_pose_array,
    nearest_action,
    vocab_to_json,
)

VARIANTS = ("geometric", "rpe", "vanilla")

# FLOP model constants: a `bilinear8` channel pair counts GP_FLOPS = 248, the dense 8x8x8
# contraction (128 mul + 120 add), whatever its table's non-zeros (GEOM_TABLE 48, JOIN_TABLE 27);
# distance-awareness features cost ~16 flops per channel.
GP_FLOPS = 248.0
DA_FLOPS_PER_CHANNEL = 16.0


_WIDTHS = ("mv_channels", "scalar_channels", "heads", "input_hidden", "adapter_hidden", "decoder_hidden",
           "rpe_hidden")


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
        for name in _WIDTHS + ("blocks", "seed"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in _WIDTHS:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (isinstance(self.vocab_sizes, dict) and set(self.vocab_sizes) == set(AGENT_CLASSES)
                and all(type(n) is int and n >= 1 for n in self.vocab_sizes.values())):
            raise ValueError(f"vocab_sizes must map each of {', '.join(AGENT_CLASSES)} to a positive integer")
        if self.mv_channels % self.heads or self.scalar_channels % self.heads:
            raise ValueError("channel counts must be divisible by the head count")
        if self.blocks < 0:
            raise ValueError("block count must be >= 0")
        too_big = [name for name in _WIDTHS + ("blocks",) if getattr(self, name) > 10**6]
        too_big += [f"vocab_sizes.{c}" for c, n in self.vocab_sizes.items() if n > 10**6]
        if too_big:  # rather than an unbounded allocation in init_params
            raise ValueError(f"{too_big[0]} must be at most 1e6")
        if self.dtype not in ("f32", "f64"):
            raise ValueError(f"dtype must be f32 or f64, got {self.dtype}")
        if self.map_attention != "all" and (type(self.map_attention) is not int or self.map_attention < 1):
            raise ValueError("map_attention must be 'all' or a positive int")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "f32" else np.float64

    @property
    def max_vocab(self) -> int:
        return max(self.vocab_sizes.values())


@dataclass
class TokenBatch:
    """Model input for one scene, or several stacked on leading axes; arrays float64 until the forward cast.

    Agent fields are [..., A, T, ...] and map fields [..., M, ...]; the map's
    leading axes broadcast against the agents' (rollout samples share one
    unstacked map), so attention only ever pairs tokens of one scene.
    Poses are relative to the scene's anchor (`scene_anchor`): a translation
    only, so the model's invariance absorbs it, and the float32 cast then
    sees scene-sized coordinates however far the scene lies from the origin.
    The scalar baselines see these anchor-relative poses too, and the
    end-to-end audit's translations are absorbed by the anchor; the layer
    audit still moves its inputs by full roto-translations.  The batch holds
    poses only: `forward` encodes them as multivectors (`encode_pose_array`)
    and as frame motors (`pose_frame_motors`).
    """

    scalars_raw: np.ndarray   # [..., A, T, AGENT_FEATURE_WIDTH]
    raw_poses: np.ndarray     # [..., A, T, 3] anchor-relative (x, y, theta), zero where invalid
    prev_flat: np.ndarray     # [..., A, T] int indices into the flat action-embedding table
    class_idx: np.ndarray     # [..., A] int
    map_scalars_raw: np.ndarray  # [..., M, MAP_FEATURE_WIDTH]
    map_poses: np.ndarray     # [..., M, 3] anchor-relative
    map_valid: np.ndarray     # [..., M] bool, False on padding
    valid: np.ndarray         # [..., A, T] bool
    targets: np.ndarray       # [..., A, T] int, -1 where undefined
    target_valid: np.ndarray  # [..., A, T] bool

    @property
    def num_agents(self) -> int:
        return self.valid.shape[-2]

    @property
    def num_steps(self) -> int:
        return self.valid.shape[-1]

    @property
    def num_map(self) -> int:
        return self.map_valid.shape[-1]


# `pack_scenes` padding: no target; a padded pose is zero, whose frame motor is the identity
_PAD = {"targets": -1}


def pack_scenes(batches) -> TokenBatch:
    """One-scene batches stacked as [G, ...], padded to the largest agent and map counts.

    Padded agents and map tokens are invalid, so no scene sees another's
    tokens or the padding.  The batches need one step count: build them with
    a common `t_end`, which pads a scene with a shorter horizon with invalid
    rows that carry no target.
    """
    if len({b.num_steps for b in batches}) != 1:
        raise ValueError("packed batches need one step count; build them with a common t_end")

    def padded_stack(parts, fill):
        out = np.full((len(parts), max(map(len, parts)), *parts[0].shape[1:]), fill, parts[0].dtype)
        for g, x in enumerate(parts):
            out[g, :len(x)] = x
        return out

    return TokenBatch(**{f.name: padded_stack([getattr(b, f.name) for b in batches], _PAD.get(f.name, 0))
                         for f in fields(TokenBatch)})


def flat_token_index(class_idx, token, max_vocab: int):
    """Index into the flat previous-action table; token == max_vocab is the start token."""
    return class_idx * (max_vocab + 1) + token


def scene_anchor(scene: Scene) -> tuple:
    """The (x, y) every pose of the scene is shifted by before encoding.

    The first map node's position, or the ego's earliest position when the
    map is empty: it depends only on the scene, so every batch built from it,
    and every rollout sample of it, shares the anchor.
    """
    if len(scene.map_poses):
        return tuple(scene.map_poses[0, :2].tolist())
    if scene.ego().states:
        pose = scene.ego().states[0].pose
        return pose.x, pose.y
    return 0.0, 0.0


class VocabTable(NamedTuple):
    deltas: np.ndarray  # [classes, max_vocab, 3], zero past each class's size
    sizes: np.ndarray   # [classes]
    w_theta: float


def vocab_table(vocab: ActionVocab, cfg: ModelConfig) -> VocabTable:
    """The vocab as one padded table; each class's size must be the config's, or tokens would
    index other classes' rows of the action embedding."""
    table = np.zeros((len(AGENT_CLASSES), cfg.max_vocab, 3))
    sizes = []
    for k, cls in enumerate(AGENT_CLASSES):
        size, expected = (vocab.size(cls) if cls in vocab.deltas else 0), cfg.vocab_sizes.get(cls)
        if size != expected:
            raise ValueError(f"vocab has {size} '{cls}' actions but the model config expects {expected}")
        table[k, :size] = vocab.deltas[cls]
        sizes.append(size)
    return VocabTable(table, np.array(sizes), vocab.w_theta)


def map_fields(scene: Scene, anchor: tuple) -> dict:
    """The TokenBatch map fields of a scene, poses relative to `anchor`."""
    return {"map_scalars_raw": scene.map_features, "map_poses": scene.map_poses - np.array([*anchor, 0.0]),
            "map_valid": np.ones(len(scene.map_poses), dtype=bool)}


def encode_states(states: AgentStates, anchor: tuple, table: VocabTable, maps: dict,
                  with_targets: bool = True, skip: int = 0) -> TokenBatch:
    """Token rows of the state arrays from step `skip` on (earlier steps only give row `skip`
    its previous action), poses relative to `anchor`, map fields `maps`.

    A row's previous action is the token of the increment from the state
    before it, and its target that of the increment to the next state.  The
    states' leading axes, if any, become the batch's.
    """
    vmax = table.deltas.shape[1]
    cls = states.class_idx
    pair = states.valid[..., :-1] & states.valid[..., 1:]
    tokens = nearest_action(table.deltas[cls][..., None, :, :],
                            pose_deltas(states.poses[..., :-1, :], states.poses[..., 1:, :]),
                            table.w_theta, table.sizes[cls][..., None])
    prev = np.full(states.valid.shape, vmax)
    prev[..., 1:] = np.where(pair, tokens, vmax)
    targets = np.full(states.valid.shape, -1)
    if with_targets:
        targets[..., :-1] = np.where(pair, tokens, -1)

    valid = states.valid[..., skip:]
    poses = np.where(valid[..., None], states.poses[..., skip:, :] - np.array([*anchor, 0.0]), 0.0)
    scalars = np.zeros(valid.shape + (AGENT_FEATURE_WIDTH,))
    scalars[..., 0] = states.speeds[..., skip:]
    scalars[..., 1] = states.length[..., None]
    scalars[..., 2] = states.width[..., None]
    scalars[..., 3:] = np.eye(len(AGENT_CLASSES))[cls][..., None, :]
    return TokenBatch(
        scalars_raw=np.where(valid[..., None], scalars, 0.0),
        raw_poses=poses,
        prev_flat=flat_token_index(cls[..., None], prev[..., skip:], vmax),
        class_idx=cls,
        valid=valid,
        targets=targets[..., skip:],
        target_valid=targets[..., skip:] >= 0,
        **maps,
    )


def build_token_batch(scene: Scene, vocab: ActionVocab, cfg: ModelConfig,
                      t_end: int | None = None, with_targets: bool = True) -> TokenBatch:
    """Encode rows t < t_end of a scene (default: its horizon) from its states with t < t_end.

    Poses are taken relative to `scene_anchor(scene)`.
    """
    anchor = scene_anchor(scene)
    n_steps = scene.horizon if t_end is None else t_end
    return encode_states(agent_states(scene, n_steps), anchor, vocab_table(vocab, cfg),
                         map_fields(scene, anchor), with_targets=with_targets)


# ---------------------------------------------------------------------------
# parameter initialization
# ---------------------------------------------------------------------------

def param_layout(cfg: ModelConfig, variant: str = "geometric") -> list:
    """(name, shape, init) of every parameter of `variant`, in draw, buffer and checkpoint order.

    `init` is a normal std, None for zeros, or "eq" for an equivariant weight [C_out, C_in, 10]:
    std sqrt(1/C_in) on its 4 grade slots, then sqrt(0.1/C_in) on its 6 others.  The baselines
    share the geometric model's scalar embeddings, q/k/v projections and decoder.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got '{variant}'")
    c, s, geo = cfg.mv_channels, cfg.scalar_channels, variant == "geometric"
    extra = 3 if variant == "vanilla" else 0  # raw global poses in the vanilla inputs
    layout = []

    def eq_linear(name, c_out, c_in):
        layout.extend([(f"{name}/weight", (c_out, c_in, 10), "eq"), (f"{name}/bias", (c_out,), None)])

    def mlp(name, d_in, hidden, d_out, out_std=None):
        layout.extend([(f"{name}/w1", (d_in, hidden), 1.0 / math.sqrt(d_in)), (f"{name}/b1", (hidden,), None),
                       (f"{name}/w2", (hidden, d_out), 1.0 / math.sqrt(hidden) if out_std is None else out_std),
                       (f"{name}/b2", (d_out,), None)])

    if geo:
        eq_linear("embed/agent_mv", c, 1)
        eq_linear("embed/map_mv", c, 1)
    mlp("embed/agent_in", AGENT_FEATURE_WIDTH + extra, cfg.input_hidden, s)
    mlp("embed/map_in", MAP_FEATURE_WIDTH + extra, cfg.input_hidden, s)
    layout.append(("embed/prev_action", (len(AGENT_CLASSES) * (cfg.max_vocab + 1), s), 0.02))
    for i in range(cfg.blocks):
        for attn in ("map_attn", "agent_attn", "time_attn"):
            base = f"block{i}/{attn}"
            # key projections carry no bias: a constant key offset shifts every
            # logit in a row equally, which softmax cancels exactly
            for proj in ("mv_q", "mv_k", "mv_v") if geo else ():
                layout.append((f"{base}/{proj}/weight", (c, c, 10), "eq"))
                if proj != "mv_k":
                    layout.append((f"{base}/{proj}/bias", (c,), None))
            for proj in ("s_q", "s_k", "s_v"):
                layout.append((f"{base}/{proj}/w", (s, s), 1.0 / math.sqrt(s)))
                if proj != "s_k":
                    layout.append((f"{base}/{proj}/b", (s,), None))
            if variant == "rpe":
                mlp(f"{base}/rpe", 4, cfg.rpe_hidden, 2 * s, out_std=0.1)
        if geo:
            eq_linear(f"block{i}/mlp/expand", 4 * c, c)
            eq_linear(f"block{i}/mlp/mid", 2 * c, 2 * c)
            eq_linear(f"block{i}/mlp/out", c, 2 * c)
        mlp(f"block{i}/mlp/scalar" if geo else f"block{i}/mlp", s, 2 * s, s)
        if geo and cfg.include_adapter:
            # zero output layer: the adapter's residual branch starts silent;
            # its raw inputs are meters-scale multivector components that would
            # otherwise drown the scalar stream at init
            mlp(f"block{i}/adapter", 8 * c, cfg.adapter_hidden, s, out_std=0.0)
    heads = (len(AGENT_CLASSES), cfg.decoder_hidden, cfg.max_vocab)
    return layout + [("decoder/w1", (s, cfg.decoder_hidden), 1.0 / math.sqrt(s)),
                     ("decoder/b1", (cfg.decoder_hidden,), None), ("decoder/heads", heads, 0.02),
                     ("decoder/bias", (len(AGENT_CLASSES), cfg.max_vocab), None)]


def init_params(cfg: ModelConfig, variant: str = "geometric") -> ParamStore:
    """Fresh parameters of `variant`, drawn into one buffer in `param_layout` order; deterministic
    in cfg.seed.  A zero-std entry still draws, so each draw's place in the stream is fixed."""
    layout = param_layout(cfg, variant)
    params = ParamStore([(name, shape) for name, shape, _ in layout],
                        np.zeros(sum(math.prod(shape) for _, shape, _ in layout), dtype=cfg.np_dtype))
    rng = np.random.default_rng(cfg.seed)
    for name, shape, init in layout:
        w = params[name]
        if init == "eq":
            w[..., :4] = rng.normal(0.0, math.sqrt(1.0 / shape[1]), size=shape[:2] + (4,))
            w[..., 4:] = rng.normal(0.0, math.sqrt(0.1 / shape[1]), size=shape[:2] + (6,))
        elif init is not None:
            w[...] = rng.normal(0.0, init, size=shape)
    return params


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def _norms(mv, s):
    return eq_layer_norm(mv), scalar_layer_norm(s)


def _project(s, p, name: str):
    """The scalar projection `name`: s @ w, plus b where the store has one (keys have none)."""
    return ad.matmul(s, p[f"{name}/w"], p.get(f"{name}/b"))


def _key_rows(normed, p, name: str, cfg: ModelConfig) -> tuple:
    """Attention `name`'s key and value rows (kf, vf) of pre-normalized tokens."""
    mv_n, s_n = normed
    return eq_key_rows(eq_linear(mv_n, p, f"{name}/mv_k"), eq_linear(mv_n, p, f"{name}/mv_v"),
                       _project(s_n, p, f"{name}/s_k"), _project(s_n, p, f"{name}/s_v"), cfg.heads,
                       cfg.distance_awareness)


def _attend(mv, s, normed, rows, p, name: str, cfg: ModelConfig, mask):
    """Attention `name` of the pre-normalized queries over the key and value `rows`, with residual
    connections."""
    mv_n, s_n = normed
    out_mv, out_s = eq_attention(eq_linear(mv_n, p, f"{name}/mv_q"), _project(s_n, p, f"{name}/s_q"), rows,
                                 cfg.heads, mask, cfg.distance_awareness)
    return ad.add(out_mv, mv), ad.add(out_s, s)


def _swap_at(x, lead: int):
    """[..., A, T, ...] <-> [..., T, A, ...] behind `lead` leading axes, for per-timestep attention."""
    return ad.moveaxis(x, lead + 1, lead)


def _step_masks(batch: TokenBatch, cfg: ModelConfig) -> tuple:
    """[..., T, A, M] map and [..., T, A, A] agent masks: a valid row sees the valid agents, and the
    valid map tokens or, under `cfg.map_attention` = k, their k nearest (`knn_map_mask`)."""
    rows = np.swapaxes(batch.valid, -1, -2)[..., None]
    if cfg.map_attention == "all":
        map_mask = rows & batch.map_valid[..., None, None, :]
    else:
        map_mask = np.swapaxes(knn_map_mask(batch, cfg.map_attention), -3, -2)
    return map_mask, rows & np.swapaxes(rows, -1, -2)


def _time_mask(batch: TokenBatch, key_valid: np.ndarray) -> np.ndarray:
    """[..., A, Tq, Tk]: a valid row sees its agent's valid keys up to its own step.

    The Tq rows are the last Tq of the Tk key steps (a cached prefix comes
    first), so row i sees keys up to step Tk - Tq + i.
    """
    tq, tk = batch.valid.shape[-1], key_valid.shape[-1]
    return batch.valid[..., None] & key_valid[..., None, :] & np.tri(tq, tk, tk - tq, dtype=bool)


def knn_map_mask(batch: TokenBatch, k: int) -> np.ndarray:
    """[..., A, T, M] boolean mask keeping, per valid agent state, the k nearest valid map nodes."""
    seen = batch.valid[..., None] & batch.map_valid[..., None, None, :]
    diff = batch.raw_poses[..., None, :2] - batch.map_poses[..., None, None, :, :2]
    d2 = np.where(seen, (diff**2).sum(-1), np.inf)
    k = min(k, batch.num_map)
    if k == 0:
        return np.zeros(d2.shape, dtype=bool)
    nearest = np.argpartition(d2, k - 1, axis=-1)[..., :k]
    mask = np.zeros(d2.shape, dtype=bool)
    np.put_along_axis(mask, nearest, True, axis=-1)
    return mask & seen


def _decode(s, p, class_idx: np.ndarray, cfg: ModelConfig):
    """Logits [..., A, T, max_vocab] of the scalar stream: one hidden layer, then each agent's class
    head and bias, and an additive -1e30 on the slots past its class's vocab."""
    h = ad.relu(ad.matmul(scalar_layer_norm(s), p["decoder/w1"], p["decoder/b1"]))
    heads = ad.embedding(p["decoder/heads"], class_idx)            # [..., A, H, V]
    bias = ad.embedding(p["decoder/bias"], class_idx[..., None])   # [..., A, 1, V]
    sizes = np.array([cfg.vocab_sizes[c] for c in AGENT_CLASSES])
    outside = np.where(np.arange(cfg.max_vocab) < sizes[class_idx][..., None], 0.0, -1e30)
    return ad.add(ad.add(ad.matmul(h, heads), bias), outside.astype(cfg.np_dtype)[..., None, :])


def _map_rows(batch: TokenBatch, p, cfg: ModelConfig, cache: dict | None) -> list:
    """Each block's map-attention key and value rows [..., 1, H, M, n], the 1 broadcasting over the
    queries' steps; a cache keeps those of its first call's map."""
    if cache is not None and "map" in cache:
        return cache["map"]
    dt = cfg.np_dtype
    map_mv = eq_linear(encode_pose_array(batch.map_poses)[..., None, :, None, :].astype(dt), p, "embed/map_mv")
    map_s = mlp2(batch.map_scalars_raw[..., None, :, :].astype(dt), p, "embed/map_in")
    normed = _norms(map_mv, map_s)
    rows = [_key_rows(normed, p, f"block{i}/map_attn", cfg) for i in range(cfg.blocks)]
    if cache is not None:
        cache["map"] = [tuple(ad.data_of(x) for x in entry) for entry in rows]
    return rows


def _extend(cache: dict | None, key, entry: tuple, axis: int) -> tuple:
    """`entry`'s arrays appended along `axis` to those cached at `key`, and cached."""
    if cache is None:
        return entry
    entry = tuple(ad.data_of(x) for x in entry)
    if key in cache:
        entry = tuple(np.concatenate(pair, axis=axis) for pair in zip(cache[key], entry))
    cache[key] = entry
    return entry


def forward(batch: TokenBatch, p, cfg: ModelConfig, cache: dict | None = None):
    """Next-action logits [..., A, T, max_vocab].

    `cache` (a dict, empty before the first call) makes decoding incremental:
    each call's batch holds the rows that follow those already cached, and
    only these rows are computed.  Every layer but causal time attention acts
    per timestep or per token, and a key's attention rows depend on that key
    alone, so the cache holds plain arrays (no gradient flows into them):
    under ("time", i) block i's time-attention key and value rows (kf, vf)
    [..., A, H, T, n] of every row so far, extended along T by each call, and
    under "valid" the rows' validity [..., A, T]; under "map" each block's
    map-attention rows, built once from the first call's map (later calls
    must carry the same map, whose arrays then only shape the masks).  The
    logits equal the same rows of one forward over the whole prefix.
    """
    dt, lead = cfg.np_dtype, batch.valid.ndim - 2

    mv = eq_linear(encode_pose_array(batch.raw_poses)[..., None, :].astype(dt), p, "embed/agent_mv")
    s = mlp2(batch.scalars_raw.astype(dt), p, "embed/agent_in")
    s = ad.add(s, ad.embedding(p["embed/prev_action"], batch.prev_flat))
    map_rows = _map_rows(batch, p, cfg, cache)

    map_mask, agent_mask = _step_masks(batch, cfg)
    sandwich = sandwich_matrix(pose_frame_motors(batch.raw_poses), dt) if cfg.include_adapter else None
    time_mask = _time_mask(batch, *_extend(cache, "valid", (batch.valid,), -1))

    for i in range(cfg.blocks):
        # agent-to-map cross attention, batched over timesteps
        mv_t, s_t = _swap_at(mv, lead), _swap_at(s, lead)
        mv_t, s_t = _attend(mv_t, s_t, _norms(mv_t, s_t), map_rows[i], p, f"block{i}/map_attn", cfg, map_mask)
        # agent-to-agent self attention, batched over timesteps
        name, normed = f"block{i}/agent_attn", _norms(mv_t, s_t)
        mv_t, s_t = _attend(mv_t, s_t, normed, _key_rows(normed, p, name, cfg), p, name, cfg, agent_mask)
        mv, s = _swap_at(mv_t, lead), _swap_at(s_t, lead)
        # causal self attention over time (and the cached prefix), batched over agents
        name, normed = f"block{i}/time_attn", _norms(mv, s)
        rows = _extend(cache, ("time", i), _key_rows(normed, p, name, cfg), -2)
        mv, s = _attend(mv, s, normed, rows, p, name, cfg, time_mask)
        mv, s = eq_mlp_block(mv, s, p, f"block{i}/mlp")
        if cfg.include_adapter:
            s = invariant_adapter(mv, s, sandwich, p, f"block{i}/adapter")
    return _decode(s, p, batch.class_idx, cfg)


def loss(logits, targets: np.ndarray, valid: np.ndarray):
    """Cross entropy averaged over each scene's valid (agent, step) positions, then over the scenes."""
    counts = valid.sum(axis=(-2, -1), keepdims=True)
    if not np.all(counts > 0):
        raise ValueError("loss needs at least one valid target position in every scene")
    log_probs = ad.log_softmax(logits)
    picked = ad.gather_last(log_probs, np.maximum(targets, 0))
    # the sign folds into the weights (numpy has no negation of the boolean `valid`)
    weights = (valid / -(counts * counts.size)).astype(ad.data_of(picked).dtype)
    return ad.reduce_sum(ad.reshape(ad.mul(picked, weights), (-1,)), axis=0)


def sample_action(logits: np.ndarray, mode: str, rng: np.random.Generator | None = None,
                  temperature: float = 1.0):
    """One action per row of logits [N, V] (an int for one row [V]): greedy argmax (lowest
    index wins ties) or categorical at a temperature, a positive finite number.

    Categorical draws take one uniform per row from `rng`, in row order, and
    invert the row's cumulative distribution as `rng.choice(V, p=probs)`
    does, so N rows draw exactly what N per-row `rng.choice` calls draw.
    """
    rows = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(np.maximum(rows, -1e30))):
        raise ValueError("logits must be finite")
    if mode == "greedy":
        out = np.argmax(rows, axis=-1)
    elif mode == "categorical":
        if rng is None:
            raise ValueError("categorical sampling needs an rng")
        if not 0.0 < temperature < math.inf:
            raise ValueError(f"temperature must be a positive finite number, got {temperature}")
        with np.errstate(over="ignore"):  # shifted first: near 1e-308 a gap overflows to -inf, weight 0
            probs = np.exp((rows - rows.max(axis=-1, keepdims=True)) / temperature)
        probs /= probs.sum(axis=-1, keepdims=True)
        cdf = np.cumsum(probs, axis=-1)
        cdf /= cdf[..., -1:]
        out = (cdf <= rng.random(rows.shape[:-1])[..., None]).sum(axis=-1)
    else:
        raise ValueError(f"unknown sampling mode '{mode}'")
    return int(out) if rows.ndim == 1 else out


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

class NonFiniteLossError(RuntimeError):
    """Training met a non-finite loss: the run diverged or its parameters hold a non-finite value."""


def train(scenes, vocab: ActionVocab, cfg: ModelConfig, steps: int, lr: float = 1e-3,
          seed: int = 0, params: ParamStore | None = None, scenes_per_step: int = 2):
    """Adam with cosine annealing; deterministic per seed on a single thread.

    Each optimizer step packs `scenes_per_step` scenes into one batch
    (`pack_scenes`) and runs one forward and one backward over it; the loss
    averages the scenes' mean losses, which tames the per-scene gradient
    noise of tiny batches.  Only scenes with a target position (an agent
    with states at two consecutive steps) are drawn.  Returns (params,
    curve) with curve rows (step, lr, loss); a `params` store passed in is
    updated in place.
    """
    valid = [agent_states(s, s.horizon).valid for s in scenes]
    kept = [k for k, v in enumerate(valid) if (v[:, :-1] & v[:, 1:]).any()]
    if not kept:
        raise ValueError("train needs a scene with a target position: an agent with states at two "
                         "consecutive steps")
    if scenes_per_step < 1:
        raise ValueError("scenes_per_step must be >= 1")
    if params is None:
        params = init_params(cfg)
    t_end = max(scenes[k].horizon for k in kept)
    batches = [build_token_batch(scenes[k], vocab, cfg, t_end=t_end) for k in kept]
    grad = np.empty_like(params.flat)
    state, pvars = AdamState(params), params.as_vars(grad)
    rng = np.random.default_rng(seed)
    order: list[int] = []
    curve = []
    for step in range(steps):
        step_lr = cosine_lr(step, steps, lr)
        picked = []
        for _ in range(scenes_per_step):
            if not order:
                order = list(rng.permutation(len(batches)))
            picked.append(int(order.pop()))
        batch = pack_scenes([batches[k] for k in picked])
        with ad.Tape() as tape:
            loss_var = loss(forward(batch, pvars, cfg), batch.targets, batch.target_valid)
        loss_val = float(ad.data_of(loss_var))
        if not math.isfinite(loss_val):
            bad = next(i for i, nd in enumerate(tape.nodes)
                       if not all(np.isfinite(out.data).all() for out in nd.outputs))
            names = [kept[k] for k in picked]
            raise NonFiniteLossError(f"non-finite loss {loss_val} at step {step} on scenes {names}: first "
                                     f"non-finite output at tape node {bad}, op '{tape.nodes[bad].op}'")
        grad[...] = 0.0
        ad.backward(tape, loss_var)
        adam_step(params, grad, state, step_lr)
        curve.append((step, step_lr, loss_val))
    return params, curve


# ---------------------------------------------------------------------------
# scalar baselines: vanilla transformer and pairwise-RPE attention
# ---------------------------------------------------------------------------

def pairwise_pose_features(poses_q: np.ndarray, poses_k: np.ndarray) -> np.ndarray:
    """Relative pose j as seen from i: [..., Lq, Lk, 4] = (dx, dy, cos dth, sin dth)."""
    q, k = np.asarray(poses_q, dtype=np.float64), np.asarray(poses_k, dtype=np.float64)
    d = pose_deltas(q[..., :, None, :], k[..., None, :, :])
    return np.concatenate([d[..., :2], np.cos(d[..., 2:]), np.sin(d[..., 2:])], axis=-1)


def scalar_attention(q, k, v, mask=None, offsets=None):
    """Scaled dot-product attention over the last two axes.

    `offsets`, the rpe baseline's per-pair key and value offsets (each
    [..., Lq, Lk, d]), add q . k_off to each logit before the scaling and the
    weighted sum of the value offsets to each output.  Their cost is
    quadratic in tokens.
    """
    d = ad.data_of(q).shape[-1]
    logits = ad.matmul(q, ad.moveaxis(k, -1, -2))
    if offsets is not None:
        k_off, v_off = offsets
        qd = ad.data_of(q)
        logits = ad.add(logits, ad.reduce_sum(ad.mul(ad.reshape(q, qd.shape[:-1] + (1, d)), k_off), axis=-1))
    weights = ad.masked_softmax(ad.div(logits, math.sqrt(d)), mask)
    out = ad.matmul(weights, v)
    if offsets is not None:
        wd = ad.data_of(weights)
        out = ad.add(out, ad.reduce_sum(ad.mul(ad.reshape(weights, wd.shape + (1,)), v_off), axis=-2))
    return out


def _baseline_attention_sublayer(s_q, s_kn, p, name, rel_feats, mask):
    """Pre-norm scalar attention `name` with a residual: self attention when `s_kn`, pre-normalized
    keys, is None; `rel_feats` [..., Lq, Lk, 4] (rpe only) feed the pair MLP `name`/rpe, whose output
    splits into the key and value offsets."""
    s_qn = scalar_layer_norm(s_q)
    s_kn = s_qn if s_kn is None else s_kn
    q = _project(s_qn, p, f"{name}/s_q")
    k, v = _project(s_kn, p, f"{name}/s_k"), _project(s_kn, p, f"{name}/s_v")
    offsets = None
    if rel_feats is not None:
        d = ad.data_of(q).shape[-1]
        offsets = ad.split(mlp2(rel_feats, p, f"{name}/rpe"), [d, d], axis=-1)
    return ad.add(scalar_attention(q, k, v, mask, offsets), s_q)


def baseline_forward(batch: TokenBatch, p, cfg: ModelConfig, variant: str):
    """Scalar-only stack mirroring the factorized block structure.

    `vanilla` feeds raw global poses into the input MLPs (the non-equivariant
    reference); `rpe` stays pose-free in the inputs and injects pairwise
    relative-pose offsets inside every attention.
    """
    if variant not in ("rpe", "vanilla"):
        raise ValueError(f"unknown baseline variant '{variant}'")
    dt, lead = cfg.np_dtype, batch.valid.ndim - 2

    if variant == "vanilla":
        agents_in = np.concatenate([batch.scalars_raw, batch.raw_poses], axis=-1)
        map_in = np.concatenate([batch.map_scalars_raw, batch.map_poses], axis=-1)
    else:
        agents_in = batch.scalars_raw
        map_in = batch.map_scalars_raw
    s = mlp2(agents_in.astype(dt), p, "embed/agent_in")
    s = ad.add(s, ad.embedding(p["embed/prev_action"], batch.prev_flat))
    map_n = scalar_layer_norm(mlp2(map_in[..., None, :, :].astype(dt), p, "embed/map_in"))  # [..., 1, M, S]

    if variant == "rpe":
        poses_t = np.swapaxes(batch.raw_poses, -3, -2)
        rel_map, rel_agent, rel_time = (pairwise_pose_features(q, k).astype(dt) for q, k in (
            (poses_t, batch.map_poses[..., None, :, :]), (poses_t, poses_t), (batch.raw_poses, batch.raw_poses)))
    else:
        rel_map = rel_agent = rel_time = None

    map_mask, agent_mask = _step_masks(batch, cfg)
    time_mask = _time_mask(batch, batch.valid)

    for i in range(cfg.blocks):
        s_t = _swap_at(s, lead)
        s_t = _baseline_attention_sublayer(s_t, map_n, p, f"block{i}/map_attn", rel_map, map_mask)
        s_t = _baseline_attention_sublayer(s_t, None, p, f"block{i}/agent_attn", rel_agent, agent_mask)
        s = _swap_at(s_t, lead)
        s = _baseline_attention_sublayer(s, None, p, f"block{i}/time_attn", rel_time, time_mask)
        s = ad.add(mlp2(scalar_layer_norm(s), p, f"block{i}/mlp"), s)
    return _decode(s, p, batch.class_idx, cfg)


# ---------------------------------------------------------------------------
# analytic FLOP accounting
# ---------------------------------------------------------------------------

def flop_count(cfg: ModelConfig, agents: int, map_tokens: int, steps: int,
               variant: str) -> dict:
    """Closed-form forward-pass FLOPs with a per-term breakdown.

    Every weight of `param_layout` costs 2 * fan-in * fan-out per token it acts
    on: an equivariant weight [C_out, C_in, 10] is one [8 C_in, 8 C_out] matrix
    and a decoder head its [H, V] matrix; biases and the action-table lookup
    cost nothing.  Map-attention keys and values and the map embedding act on
    map tokens, rpe weights on their attention's pairs, every other weight on
    agent tokens.  Geometric products count GP_FLOPS per channel pair; norms
    and residual adds are excluded.  Positional terms isolate what each variant
    spends on positional information: per-token feature construction for the
    geometric model, per-pair MLPs for rpe, nothing for vanilla.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if agents < 1 or map_tokens < 0 or steps < 1:
        raise ValueError("agent and step counts must be positive, the map token count non-negative")
    c, s, geo = cfg.mv_channels, cfg.scalar_channels, variant == "geometric"
    at, m = float(agents * steps), float(map_tokens)  # agent and map tokens
    pairs = {"map_attn": float(agents * map_tokens * steps), "agent_attn": float(agents * agents * steps),
             "time_attn": float(steps * steps * agents)}
    pair_terms = {"map_attn": "pos_pairs_agent_map", "agent_attn": "pos_pairs_agent_agent",
                  "time_attn": "pos_pairs_time"}
    terms = {key: 0.0 for key in (
        "embed", "proj_qkv", "attn_scores", "attn_values", "mlp", "adapter", "decoder",
        "pos_agent_tokens", "pos_map_tokens",
        "pos_pairs_agent_agent", "pos_pairs_agent_map", "pos_pairs_time",
    )}

    for name, shape, init in param_layout(cfg, variant):
        if init is None or name == "embed/prev_action":
            continue  # biases and the action-table lookup
        fan_in, fan_out = (8 * shape[1], 8 * shape[0]) if init == "eq" else shape[-2:]
        scope, part, *rest = name.split("/")
        if rest[:1] == ["rpe"]:
            key, tokens = pair_terms[part], pairs[part]
        else:
            key = scope if scope in ("embed", "decoder") else "proj_qkv" if part in pairs else part
            on_map = name.startswith("embed/map") or (part == "map_attn" and rest[0].endswith(("_k", "_v")))
            tokens = m if on_map else at
        terms[key] += 2.0 * tokens * fan_in * fan_out

    # logit rows: 4 inner components (+ 4 distance features) per channel, then scalars
    d_scores = ((8 if cfg.distance_awareness else 4) * c + s) if geo else s
    d_values = (8 * c + s) if geo else s
    for _ in range(cfg.blocks):
        terms["attn_scores"] += 2.0 * sum(pairs.values()) * d_scores
        terms["attn_values"] += 2.0 * sum(pairs.values()) * d_values
        if geo and cfg.distance_awareness:
            # positional construction: component extraction + distance features
            terms["pos_agent_tokens"] += 3 * 2 * DA_FLOPS_PER_CHANNEL * c * at
            terms["pos_map_tokens"] += DA_FLOPS_PER_CHANNEL * c * m
        if variant == "rpe":  # the key and value offsets: a product and a sum per pair and channel
            for attn, count in pairs.items():
                terms[pair_terms[attn]] += 4.0 * s * count
        if geo:
            terms["mlp"] += at * GP_FLOPS * 2 * c
        if geo and cfg.include_adapter:  # the frame change is one [C, 8] @ [8, 8] sandwich product
            terms["adapter"] += at * 128.0 * c

    positional = sum(terms[k] for k in terms if k.startswith("pos_"))
    return {"terms": terms, "positional": float(positional), "total": float(sum(terms.values()))}


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def vocab_hash(vocab: ActionVocab) -> str:
    return hashlib.sha256(vocab_to_json(vocab).encode("utf-8")).hexdigest()


def checkpoint_bytes(params: ParamStore, cfg: ModelConfig, vocab: ActionVocab, meta: dict | None = None) -> bytes:
    """JSON manifest line + raw little-endian values in manifest order: the store's buffer."""
    kind = "<f4" if params.flat.dtype == np.float32 else "<f8"
    manifest = {
        "format": "eqtraffic-checkpoint-v1",
        "config": asdict(cfg),
        "vocab_hash": vocab_hash(vocab),
        "params": [{"name": name, "shape": list(arr.shape), "dtype": kind} for name, arr in params.items()],
        "meta": meta or {},
    }
    return b"\n".join((json.dumps(manifest).encode("utf-8"), memoryview(params.flat.astype(kind, copy=False))))


def save_checkpoint(path, params: ParamStore, cfg: ModelConfig, vocab: ActionVocab,
                    meta: dict | None = None) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(params, cfg, vocab, meta))


def load_checkpoint(path):
    """Returns (params, config, manifest).

    The manifest must list exactly the parameters `param_layout(config)` lists,
    with their shapes and dtype, and every value must be finite; anything else
    is a ValueError that names its manifest path, such as `$.params[3].dtype`.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        newline = blob.find(b"\n")
        if newline < 0:
            raise ValueError("$: truncated inside its manifest line")
        try:  # a non-UTF-8 manifest line is a UnicodeDecodeError, a ValueError
            manifest = json.loads(blob[:newline].decode("utf-8"))
        except ValueError as exc:
            raise ValueError(f"$: invalid JSON ({exc})") from None
        if not isinstance(manifest, dict) or manifest.get("format") != "eqtraffic-checkpoint-v1":
            raise ValueError("$.format: unrecognized checkpoint format")
        params, cfg = _checkpoint_params(manifest, memoryview(blob)[newline + 1:])
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from None
    return params, cfg, manifest


def _checkpoint_params(manifest: dict, payload: bytes) -> tuple:
    config, entries = manifest.get("config"), manifest.get("params")
    if not isinstance(config, dict):
        raise ValueError("$.config must be an object")
    unknown = sorted(set(config) - {f.name for f in fields(ModelConfig)})
    if unknown:
        raise ValueError(f"$.config.{unknown[0]} is not a ModelConfig field")
    try:  # a field of the wrong type fails in the config's checks or in param_layout
        cfg = ModelConfig(**config)
        kind = "<f4" if cfg.dtype == "f32" else "<f8"
        expected = {name: {"shape": list(shape), "dtype": kind} for name, shape, _ in param_layout(cfg)}
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"$.config: {exc}") from None
    if not isinstance(manifest.get("vocab_hash"), str):
        raise ValueError("$.vocab_hash must be a string")
    if not isinstance(entries, list):
        raise ValueError("$.params must be a list")
    shapes, offset = [], 0
    for i, entry in enumerate(entries):
        at = f"$.params[{i}]"
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise ValueError(f"{at} must be an object with a string name")
        name, shape, dtype = entry["name"], entry.get("shape"), entry.get("dtype")
        if dtype not in ("<f4", "<f8"):
            raise ValueError(f"{at}.dtype is {dtype!r}; a checkpoint holds '<f4' or '<f8'")
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise ValueError(f"{at}.shape must be a list of non-negative integers, got {shape!r}")
        if name not in expected:
            raise ValueError(f"{at}.name {name!r} is not a parameter of the configured model, or repeats")
        for key, want in expected.pop(name).items():
            if entry[key] != want:
                raise ValueError(f"{at}.{key} of {name!r} is {entry[key]}; the configured model's is {want}")
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        if nbytes > len(payload) - offset:
            raise ValueError(f"truncated: parameter {name!r} needs {nbytes} bytes, "
                             f"{len(payload) - offset} available")
        shapes.append((name, shape))
        offset += nbytes
    if expected:
        raise ValueError(f"$.params lacks {len(expected)} of the configured model's parameters, "
                         f"first {next(iter(expected))!r}")
    if offset != len(payload):
        raise ValueError(f"{len(payload) - offset} trailing bytes")
    params = ParamStore(shapes, np.frombuffer(payload, dtype=kind).copy())
    for i, (name, arr) in enumerate(params.items()):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"$.params[{i}]: parameter {name!r} holds a non-finite value")
    return params, cfg
