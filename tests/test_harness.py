"""Rollouts, audits, minADE, and the scaling bench."""

import math

import numpy as np
import pytest

from eqtraffic import autodiff as ad
from eqtraffic import harness as hn
from eqtraffic import model as md
from eqtraffic import pga, scene as sc
from helpers import gappy_scene, pose_compose, with_agents


def setup(seed=0, horizon=12, n_agents=3, dtype="f64"):
    rng = np.random.default_rng(seed)
    trans = {
        cls: np.column_stack(
            [rng.uniform(0.0, 0.9, 80), rng.uniform(-0.05, 0.05, 80), rng.uniform(-0.12, 0.12, 80)]
        )
        for cls in sc.AGENT_CLASSES
    }
    vocab = sc.build_kdisk_vocab(trans, k_r=0.05, seed=0, cap=16)
    gen = sc.GeneratorConfig(n_agents=n_agents, horizon=horizon, n_lanes=2)
    scene = sc.generate_synthetic_scene(gen, seed=seed)
    cfg = md.ModelConfig(vocab_sizes={c: vocab.size(c) for c in sc.AGENT_CLASSES}, dtype=dtype)
    params = md.init_params(cfg)
    return scene, vocab, cfg, params


def test_greedy_rollout_deterministic():
    scene, vocab, cfg, params = setup(seed=0, horizon=8)
    ro1 = hn.rollout(params, cfg, scene, vocab, horizon=5, mode="greedy", context=6)[0]
    ro2 = hn.rollout(params, cfg, scene, vocab, horizon=5, mode="greedy", context=6)[0]
    assert np.array_equal(ro1.tokens, ro2.tokens)
    assert np.array_equal(ro1.poses, ro2.poses)


def test_rollout_poses_consistent_with_dynamics():
    scene, vocab, cfg, params = setup(seed=1, horizon=8)
    ro = hn.rollout(params, cfg, scene, vocab, horizon=4, mode="greedy", context=5)[0]
    assert ro.poses.shape[1] == 5 + 4
    for ai, agent in enumerate(scene.agents):
        pose = pga.Pose2(*ro.poses[ai, 4])
        for h in range(4):
            dx, dy, dth = vocab.deltas[agent.agent_class][ro.tokens[ai, h]]
            pose = pose_compose(pose, pga.Pose2(dx, dy, dth))
            assert math.isclose(pose.x, ro.poses[ai, 5 + h, 0], abs_tol=1e-12)
            assert math.isclose(pose.y, ro.poses[ai, 5 + h, 1], abs_tol=1e-12)
            assert math.isclose(math.hypot(dx, dy) / scene.dt, ro.speeds[ai, 5 + h], abs_tol=1e-12)


def test_sampled_rollouts_distinct():
    scene, vocab, cfg, params = setup(seed=2, horizon=8)
    ros = hn.rollout(params, cfg, scene, vocab, horizon=6, mode="sampled",
                     n_rollouts=4, seed=7, context=5, temperature=5.0)
    keys = {r.tokens.tobytes() for r in ros}
    assert len(keys) >= 2
    # same seed reproduces the same set
    again = hn.rollout(params, cfg, scene, vocab, horizon=6, mode="sampled",
                       n_rollouts=4, seed=7, context=5, temperature=5.0)
    assert all(np.array_equal(a.tokens, b.tokens) for a, b in zip(ros, again))


def test_zero_motion_vocab_keeps_agents_stationary():
    scene, vocab, cfg, params = setup(seed=3, horizon=8)
    frozen = sc.ActionVocab(
        deltas={cls: np.zeros((1, 3)) for cls in sc.AGENT_CLASSES},
        k_r=vocab.k_r, w_theta=vocab.w_theta, seed=0,
    )
    cfg0 = md.ModelConfig(vocab_sizes={c: 1 for c in sc.AGENT_CLASSES}, dtype="f64")
    params0 = md.init_params(cfg0)
    ro = hn.rollout(params0, cfg0, scene, frozen, horizon=5, mode="greedy", context=5)[0]
    for ai in range(len(scene.agents)):
        start = ro.poses[ai, 4]
        for t in range(5, 10):
            assert np.allclose(ro.poses[ai, t], start, atol=1e-12)


def replay_with_full_forwards(ro, params, cfg, scene, vocab, seed=None, temperature=1.0):
    """Tokens a decoder without a cache draws along the rolled-out scene.

    Step h sees a fresh full forward on the rolled scene cut at context + h.
    Greedy without a seed; with one, the seed a sampled rollout drew from
    (`seed + r` for sample r) replays its draws in order.  An agent with no
    state at context + h - 1 draws nothing and reads -1.
    """
    rolled = hn.rollout_to_scene(ro, hn.truncate_scene(scene, ro.context_steps))
    mode, rng = ("greedy", None) if seed is None else ("categorical", np.random.default_rng(seed))
    tokens = np.full_like(ro.tokens, -1)
    for h in range(ro.tokens.shape[1]):
        t_end = ro.context_steps + h
        batch = md.build_token_batch(rolled, vocab, cfg, t_end=t_end, with_targets=False)
        logits = np.asarray(md.forward(batch, params, cfg))[:, -1]
        for ai in np.flatnonzero(ro.valid[:, t_end - 1]):
            tokens[ai, h] = md.sample_action(logits[ai], mode, rng, temperature)
    return tokens


@pytest.mark.parametrize("map_attention", ["all", 3])
def test_rollout_tokens_match_full_forward_decoding(map_attention):
    _, vocab, cfg0, _ = setup(seed=11)
    cfg = md.ModelConfig(vocab_sizes=cfg0.vocab_sizes, dtype="f64", map_attention=map_attention)
    params = md.init_params(cfg)
    gen = sc.GeneratorConfig(n_agents=4, horizon=24, n_lanes=2)
    for seed, context in ((4, 1), (5, 9), (6, 20)):
        scene = sc.generate_synthetic_scene(gen, seed=seed)
        greedy = hn.rollout(params, cfg, scene, vocab, horizon=4, mode="greedy",
                            context=context)[0]
        assert np.array_equal(greedy.tokens,
                              replay_with_full_forwards(greedy, params, cfg, scene, vocab))
        for r, ro in enumerate(hn.rollout(params, cfg, scene, vocab, horizon=4, mode="sampled",
                                          n_rollouts=2, seed=seed, context=context, temperature=3.0)):
            assert np.array_equal(
                ro.tokens, replay_with_full_forwards(ro, params, cfg, scene, vocab, seed + r, 3.0)
            )


@pytest.mark.parametrize("map_attention", ["all", 3])
@pytest.mark.parametrize("include_adapter", [True, False])
def test_batched_samples_match_standalone_rollouts(map_attention, include_adapter):
    scene, vocab, cfg0, _ = setup(seed=13, horizon=16, n_agents=4)
    cfg = md.ModelConfig(vocab_sizes=cfg0.vocab_sizes, dtype="f64", map_attention=map_attention,
                         include_adapter=include_adapter)
    params = md.init_params(cfg)
    batched = hn.rollout(params, cfg, scene, vocab, horizon=6, mode="sampled", n_rollouts=3,
                         seed=40, context=7, temperature=3.0)
    assert len({ro.tokens.tobytes() for ro in batched}) >= 2
    for r, ro in enumerate(batched):
        alone = hn.rollout(params, cfg, scene, vocab, horizon=6, mode="sampled", n_rollouts=1,
                           seed=40 + r, context=7, temperature=3.0)[0]
        assert np.array_equal(ro.tokens, alone.tokens)
        assert np.max(np.abs(ro.poses - alone.poses)) <= 1e-12
        assert np.max(np.abs(ro.speeds - alone.speeds)) <= 1e-12


def test_a_rollout_builds_the_map_rows_once_per_block(monkeypatch):
    """A key's attention rows depend on that key alone: the context's forward builds each block's
    map rows, and the 15 cached steps after it reuse them (a forward without the row cache would
    build them again on every step)."""
    scene, vocab, cfg, params = setup(seed=14, horizon=26, n_agents=4)
    n_map = md.build_token_batch(scene, vocab, cfg).num_map
    built, real = [], ad._attention_rows

    def counted(mv, s, heads, mix, eps):
        built.append(mv.shape[-3])  # the token axis of the keys or queries
        return real(mv, s, heads, mix, eps)

    monkeypatch.setattr(ad, "_attention_rows", counted)
    hn.rollout(params, cfg, scene, vocab, horizon=16, mode="sampled", n_rollouts=2, seed=3, context=10)
    assert n_map not in (len(scene.agents), 1, 10) and built.count(n_map) == cfg.blocks
    assert len(built) == 16 * 3 * 2 * cfg.blocks - 15 * cfg.blocks  # queries and keys, map keys once


def test_rollout_rejects_a_vocab_the_config_does_not_fit():
    """Under a 4-slot config an 8-entry vocab's vehicle tokens 4..7 would read other classes'
    action embeddings; the rollout refuses it before any forward."""
    scene, _, _, _ = setup(seed=15, horizon=8)
    rng = np.random.default_rng(15)
    vocab8 = sc.ActionVocab(deltas={c: rng.uniform(-0.5, 0.5, (8, 3)) for c in sc.AGENT_CLASSES},
                            k_r=0.05, w_theta=1.0, seed=0)
    cfg4 = md.ModelConfig(vocab_sizes={c: 4 for c in sc.AGENT_CLASSES}, dtype="f64")
    with pytest.raises(ValueError, match="vocab has 8 'vehicle' actions but the model config expects 4"):
        hn.rollout(md.init_params(cfg4), cfg4, scene, vocab8, horizon=3, mode="sampled", context=5)


def test_greedy_samples_are_identical():
    scene, vocab, cfg, params = setup(seed=14, horizon=10)
    first, second = hn.rollout(params, cfg, scene, vocab, horizon=5, mode="greedy",
                               n_rollouts=2, context=5)
    assert np.array_equal(first.tokens, second.tokens)
    assert np.array_equal(first.poses, second.poses)


def test_rollout_of_agents_with_uneven_histories():
    scene, vocab, cfg, params = setup(seed=15, horizon=14, n_agents=4)
    context, horizon = 6, 5
    agents = list(scene.agents)
    keep = {1: lambda t: t >= 3,             # starts late
            2: lambda t: t not in (2, 3),    # pauses
            3: lambda t: t < 4}              # stops early
    for ai, rule in keep.items():
        a = agents[ai]
        agents[ai] = sc.Agent(id=a.id, agent_class=a.agent_class, length=a.length,
                              width=a.width, states=tuple(s for s in a.states if rule(s.t)))
    scene = with_agents(scene, agents)
    ro = hn.rollout(params, cfg, scene, vocab, horizon=horizon, mode="greedy",
                    context=context)[0]
    expect = np.zeros((len(agents), context + horizon), dtype=bool)
    expect[:3, context:] = True  # the agent that stopped early is not predicted
    for ai, agent in enumerate(agents):
        for s in agent.states:
            if s.t < context:
                expect[ai, s.t] = True
                assert np.array_equal(ro.poses[ai, s.t], [s.pose.x, s.pose.y, s.pose.theta])
    assert np.array_equal(ro.valid, expect)
    assert not ro.poses[~ro.valid].any() and not ro.speeds[~ro.valid].any()
    assert (ro.tokens[3] == -1).all() and (ro.tokens[:3] >= 0).all()
    assert np.array_equal(ro.tokens, replay_with_full_forwards(ro, params, cfg, scene, vocab))
    rolled = hn.rollout_to_scene(ro, hn.truncate_scene(scene, context))
    assert [[s.t for s in a.states] for a in rolled.agents] == [
        np.flatnonzero(row).tolist() for row in expect
    ]
    # the agent that left draws no random number
    sampled = hn.rollout(params, cfg, scene, vocab, horizon=horizon, mode="sampled", seed=3,
                         context=context, temperature=3.0)[0]
    assert np.array_equal(sampled.valid, expect)
    assert np.array_equal(
        sampled.tokens, replay_with_full_forwards(sampled, params, cfg, scene, vocab, 3, 3.0)
    )
    # the greedy pose check compares only the steps the rollouts predict
    report = hn.equivariance_audit(params, cfg, vocab, [scene], n_transforms=1,
                                   rollout_horizon=3, include_layers=False)
    assert report.passed(), report.to_json()


def test_rollout_argument_validation():
    scene, vocab, cfg, params = setup(seed=4)
    with pytest.raises(ValueError):
        hn.rollout(params, cfg, scene, vocab, horizon=0)
    with pytest.raises(ValueError):
        hn.rollout(params, cfg, scene, vocab, horizon=2, n_rollouts=0)
    with pytest.raises(ValueError):
        hn.rollout(params, cfg, scene, vocab, horizon=2, mode="beam")


def test_min_ade_examples():
    gt = np.zeros((2, 4, 2))
    exact = [gt.copy()]
    assert hn.min_ade(exact, gt) == 0.0

    offset = gt + np.array([1.0, 0.0])
    assert hn.min_ade([offset], gt) == pytest.approx(1.0)

    worse = gt + np.array([2.0, 0.0])
    better = gt + np.array([0.5, 0.0])
    assert hn.min_ade([worse, better], gt) == pytest.approx(0.5)

    with pytest.raises(ValueError):
        hn.min_ade([], gt)
    with pytest.raises(ValueError):
        hn.min_ade([np.zeros((2, 3, 2))], gt)


def test_min_ade_rigid_invariance():
    rng = np.random.default_rng(5)
    gt = rng.normal(size=(3, 6, 2))
    preds = [rng.normal(size=(3, 6, 2)) for _ in range(3)]
    base = hn.min_ade(preds, gt)
    theta = 1.1
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    shift = np.array([40.0, -7.0])
    moved = hn.min_ade([p @ rot.T + shift for p in preds], gt @ rot.T + shift)
    assert math.isclose(base, moved, rel_tol=1e-12)


def test_constant_velocity_baseline_straight():
    scene, vocab, cfg, params = setup(seed=6, horizon=10)
    preds = hn.constant_velocity_positions(scene, context=5, horizon=4)
    assert preds.shape == (len(scene.agents), 4, 2)
    for ai, agent in enumerate(scene.agents):
        last = [s for s in agent.states if s.t < 5][-1]
        d = last.speed * scene.dt
        expect = np.array([last.pose.x + d * math.cos(last.pose.theta),
                           last.pose.y + d * math.sin(last.pose.theta)])
        assert np.allclose(preds[ai, 0], expect, atol=1e-9)


def test_baseline_positions_match_pose_objects():
    """The array baselines equal, bit for bit, a loop over each agent's Pose2 states: the last
    state before the context stepped at its speed, and the recorded states after it."""
    scenes = [sc.generate_synthetic_scene(sc.GeneratorConfig(n_agents=n, horizon=14), seed=n)
              for n in (1, 4, 9)]
    for scene, context in [(s, 6) for s in scenes] + [(gappy_scene(s, n_agents=6), 22) for s in (1, 2, 3)]:
        expect = np.zeros((len(scene.agents), 8, 2))
        for ai, agent in enumerate(scene.agents):
            last = [s for s in agent.states if s.t < context][-1]
            pose, step = last.pose, pga.Pose2(last.speed * scene.dt, 0.0, 0.0)
            for h in range(8):
                pose = pose_compose(pose, step)
                expect[ai, h] = pose.x, pose.y
        assert np.array_equal(hn.constant_velocity_positions(scene, context, 8), expect)
    for scene in scenes:
        truth = [[(s.pose.x, s.pose.y) for s in agent.states[6:]] for agent in scene.agents]
        assert np.array_equal(hn.ground_truth_positions(scene, 6, 8), truth)
    with pytest.raises(ValueError, match="missing ground truth at t=14"):
        hn.ground_truth_positions(scenes[0], 6, 9)


@pytest.mark.parametrize("context", [-3, 0, 9, 20])
def test_context_outside_the_scene_is_rejected(context):
    scene, vocab, cfg, params = setup(seed=16, horizon=8)
    calls = (lambda: hn.rollout(params, cfg, scene, vocab, horizon=3, context=context),
             lambda: hn.constant_velocity_positions(scene, context, 3),
             lambda: hn.ground_truth_positions(scene, context, 3))
    for call in calls:
        with pytest.raises(ValueError, match=rf"context {context} outside \[1, 8\]"):
            call()
    assert hn.ground_truth_positions(scene, 5, 3).shape == (3, 3, 2)
    assert hn.rollout(params, cfg, scene, vocab, horizon=2, context=8)[0].valid[:, 8:].all()


def test_layer_audit_passes_and_negative_control_fails():
    report = hn.layer_audit(n_transforms=50, seed=0)
    by_name = {e.name: e for e in report.entries}
    for name in ("eq_linear", "geometric_bilinear", "gated_relu", "eq_layer_norm",
                 "eq_attention_logits", "eq_attention_values", "eq_mlp_block",
                 "invariant_adapter"):
        assert by_name[name].passed, f"{name} deviated {by_name[name].max_deviation}"
        assert by_name[name].max_deviation <= 1e-10
    neg = by_name["negative_control"]
    assert neg.passed  # passing means: it violated equivariance as required
    assert neg.max_deviation >= 1e-7  # >= 3 orders above tolerance


def test_identity_transform_zero_deviation():
    scene, vocab, cfg, params = setup(seed=7, horizon=8)
    batch = md.build_token_batch(scene, vocab, cfg)
    base = np.asarray(md.forward(batch, params, cfg))
    moved = md.build_token_batch(sc.transform_scene(scene, (0, 0, 0)), vocab, cfg)
    out = np.asarray(md.forward(moved, params, cfg))
    assert float(np.max(np.abs(out - base))) == 0.0


def test_end_to_end_audit_passes():
    scene, vocab, cfg, params = setup(seed=8, horizon=8)
    report = hn.equivariance_audit(params, cfg, vocab, [scene], n_transforms=5,
                                   include_layers=False, rollout_horizon=4)
    by_name = {e.name: e for e in report.entries}
    assert by_name["end_to_end_logits"].passed
    assert by_name["end_to_end_logits"].max_deviation <= 1e-8
    assert by_name["greedy_rollout_agreement"].passed
    assert by_name["greedy_rollout_pose_dev_m"].max_deviation <= 1e-6
    assert report.passed()
    # serializations carry every entry
    assert report.to_csv().count("\n") == len(report.entries) + 1
    assert "end_to_end_logits" in report.to_json()


def test_negative_control_audit_fails_loudly():
    scene, vocab, cfg, _ = setup(seed=9, horizon=8)
    bparams = md.init_params(cfg, "vanilla")
    report = hn.equivariance_audit(bparams, cfg, vocab, [scene], n_transforms=5,
                                   include_layers=False, negative_control=True)
    entry = report.entries[-1]
    assert entry.name == "end_to_end_logits_negative_control"
    # the non-equivariant reference must blow past tolerance by >= 3 orders
    assert entry.max_deviation >= 1e-8 * 1e3
    assert not entry.passed and not report.passed()


def test_bench_scaling_rows():
    cfg = md.ModelConfig(dtype="f32")
    rows = hn.bench_scaling(cfg, [2, 4], map_tokens=6, steps=4)
    assert len(rows) == 2 * len(md.VARIANTS)
    by = {(r["agents"], r["variant"]): r for r in rows}
    assert by[(4, "rpe")]["flops_total"] > by[(2, "rpe")]["flops_total"]
    assert by[(2, "vanilla")]["flops_positional"] == 0.0
    for r in rows:
        assert math.isfinite(r["wall_time_s"]) and r["wall_time_s"] > 0
    csv_text = hn.bench_rows_to_csv(rows)
    assert csv_text.startswith("agents,") and str(rows[0]["agents"]) in csv_text
    with pytest.raises(ValueError):
        hn.bench_scaling(cfg, [0])


def test_rollout_serializes_to_scene_json():
    scene, vocab, cfg, params = setup(seed=10, horizon=8)
    ro = hn.rollout(params, cfg, scene, vocab, horizon=3, mode="greedy", context=5)[0]
    merged = hn.rollout_to_scene(ro, hn.truncate_scene(scene, 5))
    text = sc.scene_to_json(merged)
    back = sc.scene_from_json(text)
    assert back.agents[0].states[-1].t == 7
