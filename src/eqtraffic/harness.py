"""Closed-loop rollouts, equivariance audits, displacement metrics, scaling benchmarks."""

import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import model as md
from .batch import pose_frame_motors, sandwich_array, sandwich_matrix
from .layers import (
    eq_attention,
    eq_attention_logits,
    eq_key_rows,
    eq_layer_norm,
    eq_linear,
    eq_mlp_block,
    gated_relu,
    geometric_bilinear,
    invariant_adapter,
    noneq_linear,
)
from .pga import Pose2, compose_poses, pose_deltas, wrap_angles
from .scene import (
    ActionVocab,
    AgentState,
    AgentStates,
    GeneratorConfig,
    Scene,
    agent_states,
    dynamics_step,
    generate_synthetic_scene,
    transform_scene,
)

REFERENCE_TRANSFORM = Pose2(100.0, 0.0, math.pi / 2)  # rotate 90 deg, translate 100 m


@dataclass
class Rollout:
    """One closed-loop unroll, indexed by absolute step t in [0, context + horizon).

    Poses and speeds are zero where `valid` is False: before an agent's first
    observed state, in gaps of its observed history, and from the context on
    for an agent that left before it ended.
    """

    agent_ids: tuple
    poses: np.ndarray       # [A, T_total, 3]
    speeds: np.ndarray      # [A, T_total]
    valid: np.ndarray       # [A, T_total] bool: observed (t < context) or predicted
    tokens: np.ndarray      # [A, horizon], -1 where the agent is not predicted
    context_steps: int

    @property
    def predicted_positions(self) -> np.ndarray:
        return self.poses[:, self.context_steps:, :2]


def truncate_scene(scene: Scene, steps: int) -> Scene:
    """Keep only states with t < steps."""
    agents = tuple(
        replace(a, states=tuple(s for s in a.states if s.t < steps)) for a in scene.agents
    )
    return replace(scene, agents=agents)


def _check_context(scene: Scene, context: int) -> None:
    if not 1 <= context <= scene.horizon:
        raise ValueError(f"context {context} outside [1, {scene.horizon}], the scene's horizon")


def rollout(params, cfg: md.ModelConfig, scene: Scene, vocab: ActionVocab, horizon: int,
            mode: str = "greedy", n_rollouts: int = 1, seed: int = 0,
            context: int | None = None, temperature: float = 1.0) -> list:
    """Unroll the scene: forward, sample one action per agent, advance dynamics.

    All agents step simultaneously from each forward pass.  `context` is the
    number of observed steps used as history (default: all available).  One
    forward over the context fills the cache of attention key and value rows
    (see `forward`): each block's map rows are built there, once per rollout,
    and its time rows are stacked once per sample.  Each step encodes every
    sample's newest row from state arrays [samples, agents, steps] over the
    one unstacked map, runs one forward for all of them, and appends only
    their new time rows.  Sample r draws from its own generator,
    seeded `seed + r`.  An agent with no state at t0 - 1 (it left before the
    context ends, or has no state before it) is not predicted: its tokens
    read -1, it stays invalid from t0 on, and it draws no random number.
    """
    if horizon <= 0 or n_rollouts <= 0:
        raise ValueError("horizon and n_rollouts must be positive")
    if mode == "sampled":
        mode = "categorical"
    if mode not in ("greedy", "categorical"):
        raise ValueError(f"unknown rollout mode '{mode}'")
    t0 = scene.horizon if context is None else context
    _check_context(scene, t0)
    history = agent_states(scene, t0)
    table = md.vocab_table(vocab, cfg)
    anchor = md.scene_anchor(scene)

    def last_logits(batch, cache):
        return np.asarray(ad.data_of(md.forward(batch, params, cfg, cache=cache)))[..., -1, :]

    def stacked(x):
        return np.stack([x] * n_rollouts)

    maps = md.map_fields(scene, anchor)
    cache = {}
    logits = stacked(last_logits(md.encode_states(history, anchor, table, maps, with_targets=False), cache))
    # every sample continues the one context, and all share its map and the map's key and value rows
    cache = {key: entry if key == "map" else tuple(stacked(x) for x in entry) for key, entry in cache.items()}

    future = ((0, 0), (0, horizon))
    states = AgentStates(stacked(np.pad(history.poses, future + ((0, 0),))),
                         stacked(np.pad(history.speeds, future)), stacked(np.pad(history.valid, future)),
                         stacked(history.class_idx), stacked(history.length), stacked(history.width))
    live = history.valid[:, t0 - 1]
    rngs = [None if mode == "greedy" else np.random.default_rng(seed + r) for r in range(n_rollouts)]
    tokens = np.full((n_rollouts, len(scene.agents), horizon), -1, dtype=np.int64)
    for step in range(horizon):
        t = t0 + step
        if step > 0:
            rows = md.encode_states(states.steps(t - 2, t), anchor, table, maps, with_targets=False, skip=1)
            logits = last_logits(rows, cache)
        tokens[:, live, step] = [md.sample_action(sample, mode, rng, temperature)
                                 for sample, rng in zip(logits[:, live], rngs)]
        deltas = table.deltas[states.class_idx[:, live], tokens[:, live, step]]
        poses, speeds = dynamics_step(states.poses[:, live, t - 1], deltas, scene.dt)
        states.poses[:, live, t], states.speeds[:, live, t], states.valid[:, live, t] = poses, speeds, True

    return [Rollout(tuple(a.id for a in scene.agents), states.poses[r], states.speeds[r], states.valid[r],
                    tokens[r], context_steps=t0)
            for r in range(n_rollouts)]


def rollout_to_scene(ro: Rollout, template: Scene) -> Scene:
    """The rollout's observed and predicted states on the template scene's agents."""
    agents = []
    for ai, agent in enumerate(template.agents):
        states = tuple(
            AgentState(int(t), Pose2(*ro.poses[ai, t]), float(ro.speeds[ai, t]))
            for t in np.flatnonzero(ro.valid[ai])
        )
        agents.append(replace(agent, states=states))
    horizon = max(template.horizon, ro.poses.shape[1])
    return replace(template, agents=tuple(agents), horizon=horizon)


def constant_velocity_positions(scene: Scene, context: int, horizon: int) -> np.ndarray:
    """Straight-line baseline: hold the last observed speed and heading."""
    _check_context(scene, context)
    states = agent_states(scene, context)
    seen = states.valid.any(axis=1)
    if not seen.all():
        raise ValueError(f"agent {scene.agents[int(np.argmin(seen))].id} has no state before t={context}")
    last = (np.arange(len(scene.agents)), context - 1 - np.argmax(states.valid[:, ::-1], axis=1))
    pose, step = states.poses[last], np.zeros((len(scene.agents), 3))
    step[:, 0] = states.speeds[last] * scene.dt
    preds = np.zeros((len(scene.agents), horizon, 2))
    for h in range(horizon):
        pose, _speed = dynamics_step(pose, step, scene.dt)
        preds[:, h] = pose[:, :2]
    return preds


def ground_truth_positions(scene: Scene, context: int, horizon: int) -> np.ndarray:
    _check_context(scene, context)
    states = agent_states(scene, context + horizon).steps(context, context + horizon)
    if not states.valid.all():
        a, h = np.argwhere(~states.valid)[0]
        raise ValueError(f"agent {scene.agents[a].id} missing ground truth at t={context + h}")
    return states.poses[..., :2]


def min_ade(predictions, ground_truth: np.ndarray) -> float:
    """Mean over agents of the best (over rollouts) time-averaged displacement."""
    gt = np.asarray(ground_truth, dtype=np.float64)
    preds = [np.asarray(p, dtype=np.float64) for p in predictions]
    if not preds:
        raise ValueError("min_ade needs at least one rollout")
    for p in preds:
        if p.shape != gt.shape:
            raise ValueError(f"prediction shape {p.shape} != ground truth {gt.shape}")
    per_rollout = np.stack(
        [np.linalg.norm(p - gt, axis=-1).mean(axis=-1) for p in preds]
    )  # [R, A]
    return float(per_rollout.min(axis=0).mean())


# ---------------------------------------------------------------------------
# equivariance audit
# ---------------------------------------------------------------------------

@dataclass
class AuditEntry:
    name: str
    max_deviation: float
    trials: int
    dtype: str
    tolerance: float
    passed: bool


@dataclass
class AuditReport:
    entries: list = field(default_factory=list)

    def add(self, name, deviation, trials, dtype, tolerance):
        self.entries.append(
            AuditEntry(name, float(deviation), int(trials), dtype, float(tolerance),
                       bool(deviation <= tolerance))
        )

    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_json(self) -> str:
        return json.dumps(
            {"passed": self.passed(), "entries": [e.__dict__ for e in self.entries]},
            indent=1,
        )

    def to_csv(self) -> str:
        lines = ["name,max_deviation,trials,dtype,tolerance,passed"]
        for e in self.entries:
            lines.append(
                f"{e.name},{e.max_deviation:.6e},{e.trials},{e.dtype},{e.tolerance:.1e},{int(e.passed)}"
            )
        return "\n".join(lines) + "\n"


def _dev(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


def layer_audit(n_transforms: int = 200, seed: int = 0, tolerance: float = 1e-10) -> AuditReport:
    """Primitive-by-primitive equivariance audit with random weights and inputs.

    Includes a deliberately broken linear map as a negative control; the audit
    passes only if every real layer stays under tolerance and the control
    exceeds it by at least three orders of magnitude.
    """
    rng = np.random.default_rng(seed)
    report = AuditReport()
    c, cs = 3, 6

    draws = {  # in draw order: a dict literal evaluates its values in order
        "x": rng.normal(size=(5, c, 8)), "s": rng.normal(size=(5, cs)),
        "linear/weight": rng.normal(size=(c, c, 10)), "linear/bias": rng.normal(size=c),
        "mlp/expand/weight": rng.normal(0, 0.4, (4 * c, c, 10)), "mlp/expand/bias": rng.normal(0, 0.4, 4 * c),
        "mlp/mid/weight": rng.normal(0, 0.4, (2 * c, 2 * c, 10)), "mlp/mid/bias": rng.normal(0, 0.4, 2 * c),
        "mlp/out/weight": rng.normal(0, 0.4, (c, 2 * c, 10)), "mlp/out/bias": rng.normal(0, 0.4, c),
        "mlp/scalar/w1": rng.normal(0, 0.4, (cs, 2 * cs)), "mlp/scalar/b1": rng.normal(0, 0.4, 2 * cs),
        "mlp/scalar/w2": rng.normal(0, 0.4, (2 * cs, cs)), "mlp/scalar/b2": rng.normal(0, 0.4, cs),
        "poses": rng.uniform([-20, -20, -math.pi], [20, 20, math.pi], size=(5, 3)),
        "adapter/w1": rng.normal(0, 0.3, (8 * c, 8)), "adapter/b1": rng.normal(0, 0.3, 8),
        "adapter/w2": rng.normal(0, 0.3, (8, cs)), "adapter/b2": rng.normal(0, 0.3, cs),
        "noneq_slot": rng.normal(size=(c, c, 1)),
    }
    x, s, poses = draws["x"], draws["s"], draws["poses"]
    noneq_weight = np.concatenate([draws["linear/weight"], draws["noneq_slot"]], axis=-1)

    # name -> (layer of the multivectors and the adapter's sandwich, kind of each output):
    # "mv" outputs move with the motor, "s" outputs are invariant
    table = {
        "eq_linear": (lambda v, _: eq_linear(v, draws, "linear"), "mv"),
        "geometric_bilinear": (lambda v, _: geometric_bilinear(v, v, v, v), "mv"),
        "gated_relu": (lambda v, _: gated_relu(v), "mv"),
        "eq_layer_norm": (lambda v, _: eq_layer_norm(v), "mv"),
        "eq_attention_logits": (lambda v, _: eq_attention_logits(v, v, s, s, heads=1), "s"),
        "eq_attention_values": (lambda v, _: eq_attention(v, s, eq_key_rows(v, v, s, s, heads=1), heads=1),
                                "mv s"),
        "eq_mlp_block": (lambda v, _: eq_mlp_block(v, s, draws, "mlp"), "mv s"),
        "invariant_adapter": (lambda v, w: invariant_adapter(v, s, w, draws, "adapter"), "s"),
        "negative_control": (lambda v, _: noneq_linear(v, noneq_weight), "mv"),
    }

    def outputs(layer, v, w):
        out = layer(v, w)
        return [np.asarray(o) for o in (out if isinstance(out, tuple) else (out,))]

    sandwich = sandwich_matrix(pose_frame_motors(poses))
    base = {name: outputs(layer, x, sandwich) for name, (layer, _) in table.items()}
    devs = dict.fromkeys(table, 0.0)
    for _ in range(n_transforms):
        g = np.array([rng.uniform(-200, 200), rng.uniform(-200, 200), rng.uniform(-math.pi, math.pi)])
        g[2] = wrap_angles(g[2])
        # the reverse of the frame motor sends the origin frame to g
        u = pose_frame_motors(g) * np.array([1.0, -1.0, -1.0, -1.0])
        xt = sandwich_array(u, x)
        sandwich_t = sandwich_matrix(pose_frame_motors(compose_poses(g, poses)))
        for name, (layer, kinds) in table.items():
            moved = outputs(layer, xt, sandwich_t)
            for kind, out, ref in zip(kinds.split(), moved, base[name]):
                devs[name] = max(devs[name], _dev(out, sandwich_array(u, ref) if kind == "mv" else ref))

    for name, dev in devs.items():
        report.add(name, dev, n_transforms, "f64", tolerance)
    # the negative control must FAIL equivariance by a wide margin
    report.entries[-1].passed = devs["negative_control"] >= tolerance * 1e3
    return report


def equivariance_audit(params, cfg: md.ModelConfig, vocab: ActionVocab, scenes,
                       n_transforms: int = 20, seed: int = 0, tolerance: float = 1e-8,
                       rollout_horizon: int = 0, include_layers: bool = True,
                       negative_control: bool = False) -> AuditReport:
    """End-to-end logit deviation under random motors plus the reference
    90-degree/100 m transform; optionally greedy-rollout token agreement and
    the per-layer audit.

    With `negative_control` the audited forward is the scalar baseline with
    raw global poses in its inputs, which must fail.
    """
    rng = np.random.default_rng(seed)
    report = AuditReport()
    if include_layers and not negative_control:
        # the layer audit runs in float64 whatever the model's dtype
        report.entries.extend(layer_audit(n_transforms=max(n_transforms, 200), seed=seed).entries)

    def forward_fn(batch):
        if negative_control:
            return np.asarray(ad.data_of(md.baseline_forward(batch, params, cfg, "vanilla")))
        return np.asarray(ad.data_of(md.forward(batch, params, cfg)))

    transforms = [REFERENCE_TRANSFORM] + [
        Pose2(rng.uniform(-200, 200), rng.uniform(-200, 200), rng.uniform(-math.pi, math.pi))
        for _ in range(n_transforms)
    ]
    worst = 0.0
    for scene in scenes:
        batch = md.build_token_batch(scene, vocab, cfg)
        base = forward_fn(batch)
        for g in transforms:
            moved = md.build_token_batch(transform_scene(scene, g), vocab, cfg)
            worst = max(worst, float(np.max(np.abs(forward_fn(moved) - base))))
    name = "end_to_end_logits" + ("_negative_control" if negative_control else "")
    report.add(name, worst, len(transforms) * len(scenes), cfg.dtype, tolerance)

    if rollout_horizon > 0 and not negative_control:
        agree, pose_dev, total = 0, 0.0, 0
        for scene in scenes:
            base_ro = rollout(params, cfg, scene, vocab, rollout_horizon, mode="greedy")[0]
            g = transforms[1 % len(transforms)]
            moved_ro = rollout(params, cfg, transform_scene(scene, g), vocab,
                               rollout_horizon, mode="greedy")[0]
            total += 1
            if np.array_equal(base_ro.tokens, moved_ro.tokens):
                agree += 1
                # the moved rollout's predicted positions, moved back
                ctx = base_ro.context_steps
                moved_back = pose_deltas(np.array([g.x, g.y, g.theta]), moved_ro.poses[:, ctx:])
                gap = np.hypot(*np.moveaxis(moved_back[..., :2] - base_ro.poses[:, ctx:, :2], -1, 0))
                pose_dev = max(pose_dev, float(gap[base_ro.valid[:, ctx:]].max(initial=0.0)))
        report.add("greedy_rollout_agreement", 1.0 - agree / max(total, 1), total,
                   cfg.dtype, 0.01)
        report.add("greedy_rollout_pose_dev_m", pose_dev, total, cfg.dtype, 1e-6)
    return report


# ---------------------------------------------------------------------------
# scaling benchmark
# ---------------------------------------------------------------------------

def _bench_batch(agents: int, map_tokens: int, steps: int, cfg: md.ModelConfig,
                 seed: int = 0) -> md.TokenBatch:
    """Token batch of the requested size: a synthetic scene with one lane of `map_tokens` nodes."""
    gen = GeneratorConfig(n_agents=agents, n_lanes=1, horizon=max(steps, 2), seg_len=5.0,
                          lane_length=5.0 * map_tokens)
    rng = np.random.default_rng(seed)
    vocab = ActionVocab({c: rng.uniform(-1.0, 1.0, (n, 3)) for c, n in cfg.vocab_sizes.items()},
                        k_r=0.1, w_theta=1.0, seed=seed)
    return md.build_token_batch(generate_synthetic_scene(gen, seed), vocab, cfg, t_end=steps)


def bench_scaling(cfg: md.ModelConfig, agent_counts, map_tokens: int = 32, steps: int = 10,
                  seed: int = 0) -> list:
    """FLOP counts and timed forward passes per variant and agent count."""
    rows = []
    param_sets = {variant: md.init_params(cfg, variant) for variant in md.VARIANTS}
    for count in agent_counts:
        if count <= 0:
            raise ValueError("agent counts must be positive")
        batch = _bench_batch(count, map_tokens, steps, cfg, seed=seed)
        for variant, params in param_sets.items():
            flops = md.flop_count(cfg, count, map_tokens, steps, variant)
            start = time.perf_counter()
            if variant == "geometric":
                md.forward(batch, params, cfg)
            else:
                md.baseline_forward(batch, params, cfg, variant)
            wall = time.perf_counter() - start
            rows.append(
                {
                    "agents": count,
                    "map_tokens": map_tokens,
                    "steps": steps,
                    "variant": variant,
                    "flops_total": flops["total"],
                    "flops_positional": flops["positional"],
                    "wall_time_s": wall,
                }
            )
    return rows


def bench_rows_to_csv(rows) -> str:
    header = "agents,map_tokens,steps,variant,flops_total,flops_positional,wall_time_s"
    lines = [header]
    for r in rows:
        lines.append(
            f"{r['agents']},{r['map_tokens']},{r['steps']},{r['variant']},"
            f"{r['flops_total']:.6e},{r['flops_positional']:.6e},{r['wall_time_s']:.6f}"
        )
    return "\n".join(lines) + "\n"
