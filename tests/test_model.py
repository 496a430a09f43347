"""Model-level contracts: invariance, causality, training, baselines, FLOPs, checkpoints."""

import math

import numpy as np
import pytest

from eqtraffic import autodiff as ad
from eqtraffic import harness as hn
from eqtraffic import model as md
from eqtraffic import pga, scene as sc


def make_vocab(rng, cap=16, k_r=0.05):
    trans = {
        cls: np.column_stack(
            [rng.uniform(0.0, 0.9, 80), rng.uniform(-0.05, 0.05, 80), rng.uniform(-0.12, 0.12, 80)]
        )
        for cls in sc.AGENT_CLASSES
    }
    return sc.build_kdisk_vocab(trans, k_r=k_r, seed=0, cap=cap)


def desk_setup(seed=0, dtype="f64", horizon=10, n_agents=3, **cfg_overrides):
    rng = np.random.default_rng(seed)
    vocab = make_vocab(rng)
    gen = sc.GeneratorConfig(n_agents=n_agents, horizon=horizon, n_lanes=2)
    scene = sc.generate_synthetic_scene(gen, seed=seed)
    cfg = md.ModelConfig(
        vocab_sizes={c: vocab.size(c) for c in sc.AGENT_CLASSES},
        dtype=dtype,
        **cfg_overrides,
    )
    params = md.init_params(cfg)
    batch = md.build_token_batch(scene, vocab, cfg)
    return scene, vocab, cfg, params, batch


def test_config_validation():
    with pytest.raises(ValueError):
        md.ModelConfig(mv_channels=3, heads=2)
    with pytest.raises(ValueError):
        md.ModelConfig(dtype="f16")
    with pytest.raises(ValueError):
        md.ModelConfig(map_attention=0)


def test_token_batch_shapes_and_alignment():
    scene, vocab, cfg, params, batch = desk_setup(seed=1)
    a, t = batch.num_agents, batch.num_steps
    assert batch.mv.shape == (a, t, 1, 8)
    assert batch.scalars_raw.shape == (a, t, sc.AGENT_FEATURE_WIDTH)
    assert batch.valid.all()
    # prev token at t=0 is the start token; afterwards it is the previous target
    vmax = cfg.max_vocab
    for ai in range(a):
        cls = int(batch.class_idx[ai])
        assert batch.prev_flat[ai, 0] == md.flat_token_index(cls, vmax, vmax)
        for ti in range(1, t):
            assert batch.prev_flat[ai, ti] == md.flat_token_index(
                cls, int(batch.targets[ai, ti - 1]), vmax
            )
    # targets valid everywhere except the last step
    assert batch.target_valid[:, :-1].all() and not batch.target_valid[:, -1].any()
    # frames map each token's own position to the origin
    for ai in range(a):
        for ti in range(t):
            u = pga.Motor(batch.frames[ai, ti])
            x, y = pga.decode_point(u.apply(pga.encode_point(*batch.raw_poses[ai, ti, :2])))
            assert abs(x) <= 1e-9 and abs(y) <= 1e-9


def test_forward_smoke_desk_config():
    _, _, cfg, params, batch = desk_setup(seed=2, dtype="f32")
    logits = np.asarray(md.forward(batch, params, cfg))
    assert logits.shape == (batch.num_agents, batch.num_steps, cfg.max_vocab)
    assert np.all(np.isfinite(np.maximum(logits, -1e30)))


def test_end_to_end_invariance_f64():
    scene, vocab, cfg, params, batch = desk_setup(seed=3)
    base = np.asarray(md.forward(batch, params, cfg))
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(25):
        g = pga.Pose2(rng.uniform(-200, 200), rng.uniform(-200, 200), rng.uniform(-math.pi, math.pi))
        moved = md.build_token_batch(sc.transform_scene(scene, g), vocab, cfg)
        worst = max(worst, float(np.max(np.abs(np.asarray(md.forward(moved, params, cfg)) - base))))
    assert worst <= 1e-8


def test_invariance_under_reference_transform():
    scene, vocab, cfg, params, batch = desk_setup(seed=4)
    base = np.asarray(md.forward(batch, params, cfg))
    g = pga.Pose2(100.0, 0.0, math.pi / 2)
    moved = md.build_token_batch(sc.transform_scene(scene, g), vocab, cfg)
    dev = float(np.max(np.abs(np.asarray(md.forward(moved, params, cfg)) - base)))
    assert dev <= 1e-8


def test_zero_blocks_keep_tokens_independent():
    scene, vocab, cfg0, _, _ = desk_setup(seed=5)
    cfg = md.ModelConfig(
        blocks=0, vocab_sizes=cfg0.vocab_sizes, dtype="f64"
    )
    params = md.init_params(cfg)
    batch = md.build_token_batch(scene, vocab, cfg)
    base = np.asarray(md.forward(batch, params, cfg))

    # perturb every field of agent 1; agent 0 logits must be bitwise unchanged
    agents = list(scene.agents)
    moved = sc.transform_scene(scene, pga.Pose2(3.0, -2.0, 0.5))
    agents[1] = moved.agents[1]
    scene2 = sc.Scene(agents=tuple(agents), map_nodes=scene.map_nodes,
                      ego_id=scene.ego_id, horizon=scene.horizon, dt=scene.dt)
    out = np.asarray(md.forward(md.build_token_batch(scene2, vocab, cfg), params, cfg))
    assert np.array_equal(out[0], base[0])


def test_causality_exact():
    scene, vocab, cfg, params, batch = desk_setup(seed=6)
    base = np.asarray(md.forward(batch, params, cfg))
    t_cut = 4
    rng = np.random.default_rng(1)
    agents = []
    for agent in scene.agents:
        states = []
        for s in agent.states:
            if s.t > t_cut:
                jittered = pga.Pose2(
                    s.pose.x + rng.uniform(0.5, 1.5),
                    s.pose.y + rng.uniform(0.5, 1.5),
                    s.pose.theta + rng.uniform(0.1, 0.3),
                )
                states.append(sc.AgentState(s.t, jittered, s.speed + 0.3))
            else:
                states.append(s)
        agents.append(
            sc.Agent(id=agent.id, agent_class=agent.agent_class, length=agent.length,
                     width=agent.width, states=tuple(states))
        )
    scene2 = sc.Scene(agents=tuple(agents), map_nodes=scene.map_nodes,
                      ego_id=scene.ego_id, horizon=scene.horizon, dt=scene.dt)
    out = np.asarray(md.forward(md.build_token_batch(scene2, vocab, cfg), params, cfg))
    # logits strictly before the cut cannot change (prev-token at t uses t-1 -> t)
    assert np.array_equal(out[:, :t_cut], base[:, :t_cut])
    assert not np.array_equal(out[:, t_cut + 1:], base[:, t_cut + 1:])


def test_agent_permutation_equivariance():
    scene, vocab, cfg, params, batch = desk_setup(seed=7)
    base = np.asarray(md.forward(batch, params, cfg))
    perm = [2, 0, 1]
    agents = tuple(scene.agents[i] for i in perm)
    scene2 = sc.Scene(agents=agents, map_nodes=scene.map_nodes,
                      ego_id=scene.ego_id, horizon=scene.horizon, dt=scene.dt)
    out = np.asarray(md.forward(md.build_token_batch(scene2, vocab, cfg), params, cfg))
    scale = max(1.0, float(np.max(np.abs(base))))
    assert float(np.max(np.abs(out - base[perm]))) <= 1e-12 * scale


def test_knn_map_attention_runs_and_masks():
    scene, vocab, cfg0, _, _ = desk_setup(seed=8)
    cfg = md.ModelConfig(vocab_sizes=cfg0.vocab_sizes, dtype="f64", map_attention=4)
    params = md.init_params(cfg)
    batch = md.build_token_batch(scene, vocab, cfg)
    mask = md.knn_map_mask(batch, 4)
    assert mask.shape == (batch.num_agents, batch.num_steps, batch.num_map)
    assert np.all(mask.sum(-1) == 4)
    logits = np.asarray(md.forward(batch, params, cfg))
    assert np.all(np.isfinite(np.maximum(logits, -1e30)))


def test_distance_awareness_off_still_invariant():
    scene, vocab, cfg0, _, _ = desk_setup(seed=15)
    cfg = md.ModelConfig(vocab_sizes=cfg0.vocab_sizes, dtype="f64", distance_awareness=False)
    params = md.init_params(cfg)
    batch = md.build_token_batch(scene, vocab, cfg)
    base = np.asarray(md.forward(batch, params, cfg))
    g = pga.Pose2(-80.0, 45.0, 2.0)
    moved = md.build_token_batch(sc.transform_scene(scene, g), vocab, cfg)
    out = np.asarray(md.forward(moved, params, cfg))
    assert float(np.max(np.abs(out - base))) <= 1e-8
    # and the two modes genuinely differ
    cfg_da = md.ModelConfig(vocab_sizes=cfg0.vocab_sizes, dtype="f64", distance_awareness=True)
    out_da = np.asarray(md.forward(md.build_token_batch(scene, vocab, cfg_da),
                                   md.init_params(cfg_da), cfg_da))
    assert not np.allclose(out_da, base)


def test_partial_validity_masks_out_missing_steps():
    scene, vocab, cfg, params, _ = desk_setup(seed=16, horizon=8)
    # agent 1 only appears from t=3 onward
    agents = list(scene.agents)
    late = agents[1]
    agents[1] = sc.Agent(id=late.id, agent_class=late.agent_class, length=late.length,
                         width=late.width, states=tuple(s for s in late.states if s.t >= 3))
    scene2 = sc.Scene(agents=tuple(agents), map_nodes=scene.map_nodes,
                      ego_id=scene.ego_id, horizon=scene.horizon, dt=scene.dt)
    batch = md.build_token_batch(scene2, vocab, cfg)
    assert not batch.valid[1, :3].any() and batch.valid[1, 3:].all()
    logits = np.asarray(md.forward(batch, params, cfg))
    assert np.all(np.isfinite(np.maximum(logits, -1e30)))
    # the placeholder rows of the missing agent never influence other agents:
    # logits at t < 3 must equal the scene with agent 1 removed entirely
    solo = sc.Scene(agents=(agents[0],) + tuple(agents[2:]), map_nodes=scene.map_nodes,
                    ego_id=scene.ego_id, horizon=scene.horizon, dt=scene.dt)
    solo_logits = np.asarray(md.forward(md.build_token_batch(solo, vocab, cfg), params, cfg))
    keep = [0] + list(range(2, len(agents)))
    assert np.allclose(logits[keep, :3], solo_logits[:, :3], atol=1e-12)
    # loss ignores invalid targets
    with ad.Tape():
        val = float(ad.data_of(md.loss(ad.Var(logits.astype(np.float64)),
                                       batch.targets, batch.target_valid)))
    assert math.isfinite(val)


def test_minimal_scene_runs():
    rng = np.random.default_rng(17)
    vocab = make_vocab(rng, cap=4)
    agent = sc.Agent(id=0, agent_class="vehicle", length=4.0, width=2.0,
                     states=tuple(sc.AgentState(t, pga.Pose2(t * 0.5, 0.0, 0.0), 5.0)
                                  for t in range(3)))
    node = sc.MapNode(pose=pga.Pose2(1.0, 0.0, 0.0), length=5.0, width=3.5, curvature=0.0,
                      speed_limit=10.0, boundary_left="none", boundary_right="solid")
    scene = sc.Scene(agents=(agent,), map_nodes=(node,), ego_id=0, horizon=3, dt=0.1)
    cfg = md.ModelConfig(vocab_sizes={c: vocab.size(c) for c in sc.AGENT_CLASSES}, dtype="f64")
    logits = np.asarray(md.forward(md.build_token_batch(scene, vocab, cfg),
                                   md.init_params(cfg), cfg))
    assert logits.shape[0] == 1 and np.all(np.isfinite(np.maximum(logits, -1e30)))


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


def test_token_batch_rows_match_full_batch():
    rng = np.random.default_rng(21)
    vocab = make_vocab(rng)
    cfg = md.ModelConfig(vocab_sizes={c: vocab.size(c) for c in sc.AGENT_CLASSES})
    scene = gappy_scene(21)
    full = md.build_token_batch(scene, vocab, cfg)
    for t_start, t_end in ((0, 22), (5, 6), (7, 12), (21, 22), (9, 9)):
        part = md.build_token_batch(scene, vocab, cfg, t_end=t_end, t_start=t_start)
        cut = md.build_token_batch(scene, vocab, cfg, t_end=t_end)
        for name in ("mv", "scalars_raw", "raw_poses", "prev_flat", "frames", "valid",
                     "targets", "target_valid"):
            assert np.array_equal(getattr(part, name), getattr(cut, name)[:, t_start:]), name
        assert np.array_equal(part.prev_flat, full.prev_flat[:, t_start:t_end])
    with pytest.raises(ValueError):
        md.build_token_batch(scene, vocab, cfg, t_end=5, t_start=6)


@pytest.mark.parametrize("map_attention", ["all", 3])
@pytest.mark.parametrize("include_adapter", [True, False])
def test_cached_forward_matches_full_forward(map_attention, include_adapter):
    rng = np.random.default_rng(22)
    vocab = make_vocab(rng)
    cfg = md.ModelConfig(vocab_sizes={c: vocab.size(c) for c in sc.AGENT_CLASSES}, dtype="f64",
                         map_attention=map_attention, include_adapter=include_adapter)
    params = md.init_params(cfg)
    for seed, context in ((1, 1), (2, 7), (3, 20)):
        scene = gappy_scene(seed)
        cache = {}
        t_end = context
        rows = md.build_token_batch(scene, vocab, cfg, t_end=t_end, with_targets=False)
        while True:
            cached = np.asarray(md.forward(rows, params, cfg, cache=cache))
            full = np.asarray(md.forward(
                md.build_token_batch(scene, vocab, cfg, t_end=t_end, with_targets=False),
                params, cfg))
            assert cached.shape == (rows.num_agents, rows.num_steps, cfg.max_vocab)
            assert np.max(np.abs(cached - full[:, -rows.num_steps:])) <= 1e-12
            assert all(entry[0].shape[1] == t_end for entry in cache.values())
            if t_end == scene.horizon:
                break
            # one new row per call, then several
            t_start, t_end = t_end, min(scene.horizon, t_end + 1 + (t_end > context + 2))
            rows = md.build_token_batch(scene, vocab, cfg, t_end=t_end, t_start=t_start,
                                        with_targets=False)
    assert len(cache) == cfg.blocks


def resampled_agents(scene, seed):
    """The scene with every agent state nudged: another sample on the same map."""
    rng = np.random.default_rng(seed)
    agents = tuple(
        sc.Agent(id=a.id, agent_class=a.agent_class, length=a.length, width=a.width,
                 states=tuple(sc.AgentState(s.t, pga.Pose2(s.pose.x + rng.normal(0, 0.3),
                                                           s.pose.y + rng.normal(0, 0.3),
                                                           s.pose.theta + rng.normal(0, 0.05)),
                                            s.speed)
                              for s in a.states))
        for a in scene.agents
    )
    return sc.Scene(agents=agents, map_nodes=scene.map_nodes, ego_id=scene.ego_id,
                    horizon=scene.horizon, dt=scene.dt)


@pytest.mark.parametrize("map_attention", ["all", 3])
def test_stacked_samples_match_separate_forwards(map_attention):
    rng = np.random.default_rng(24)
    vocab = make_vocab(rng)
    cfg = md.ModelConfig(vocab_sizes={c: vocab.size(c) for c in sc.AGENT_CLASSES}, dtype="f64",
                         map_attention=map_attention)
    params = md.init_params(cfg)
    base = gappy_scene(24)
    samples = [resampled_agents(base, seed) for seed in range(3)]
    n_agents, context = len(base.agents), 8

    def rows(scene, t_start, t_end):
        return md.build_token_batch(scene, vocab, cfg, t_end=t_end, t_start=t_start,
                                    with_targets=False)

    # full forwards, geometric and scalar baselines: groups never see each other
    stacked = md.stack_samples([rows(sc_, 0, context) for sc_ in samples])
    assert stacked.group.tolist() == [r for r in range(3) for _ in range(n_agents)]
    together = np.asarray(md.forward(stacked, params, cfg))
    for variant in ("vanilla", "rpe"):
        bparams = md.init_baseline_params(cfg, variant)
        b_together = np.asarray(md.baseline_forward(stacked, bparams, cfg, variant))
        for r, sc_ in enumerate(samples):
            alone = np.asarray(md.baseline_forward(rows(sc_, 0, context), bparams, cfg, variant))
            assert np.max(np.abs(b_together[r * n_agents:(r + 1) * n_agents] - alone)) <= 1e-12

    # cached forwards: one stacked cache against one cache per sample
    caches = [{} for _ in samples]
    separate = [np.asarray(md.forward(rows(sc_, 0, context), params, cfg, cache=c))
                for sc_, c in zip(samples, caches)]
    shared = {}
    np.asarray(md.forward(stacked, params, cfg, cache=shared))
    assert np.max(np.abs(together - np.concatenate(separate))) <= 1e-12
    for t in range(context, base.horizon):
        batch = md.stack_samples([rows(sc_, t, t + 1) for sc_ in samples])
        together = np.asarray(md.forward(batch, params, cfg, cache=shared))
        for r, (sc_, c) in enumerate(zip(samples, caches)):
            alone = np.asarray(md.forward(rows(sc_, t, t + 1), params, cfg, cache=c))
            assert np.max(np.abs(together[r * n_agents:(r + 1) * n_agents] - alone)) <= 1e-12

    other_map = sc.Scene(agents=base.agents, map_nodes=base.map_nodes[1:], ego_id=base.ego_id,
                         horizon=base.horizon, dt=base.dt)
    with pytest.raises(ValueError, match="map"):
        md.stack_samples([rows(base, 0, 3), rows(other_map, 0, 3)])


def test_decoder_gathers_class_heads_and_masks_vocab():
    sizes = {"vehicle": 7, "pedestrian": 3, "cyclist": 5}
    cfg = md.ModelConfig(vocab_sizes=sizes, dtype="f64", decoder_hidden=6)
    params = md.init_params(cfg)
    rng = np.random.default_rng(25)
    params["decoder/bias"][...] = rng.normal(size=params["decoder/bias"].shape)
    class_idx = np.array([0, 1, 2, 1, 0, 2])
    h = rng.normal(size=(len(class_idx), 4, cfg.decoder_hidden))
    logits = np.asarray(ad.add(md._decode_logits(h, params, class_idx),
                               md._vocab_mask(class_idx, cfg)))
    assert logits.shape == (len(class_idx), 4, cfg.max_vocab)
    for a, c in enumerate(class_idx):
        size = sizes[sc.AGENT_CLASSES[c]]
        expect = h[a] @ params["decoder/heads"][c] + params["decoder/bias"][c]
        assert np.max(np.abs(logits[a, :, :size] - expect[:, :size])) <= 1e-12
        assert np.all(logits[a, :, size:] <= -1e29)

    def fn(tracked):
        out = md._decode_logits(tracked[0], {"decoder/heads": tracked[1],
                                             "decoder/bias": tracked[2]}, class_idx)
        return ad.reduce_sum(ad.reshape(ad.mul(out, out), (-1,)), axis=0)

    arrays = [h, params["decoder/heads"], params["decoder/bias"]]
    assert ad.grad_check(fn, arrays, step=1e-6, max_coords=40, seed=0, min_grad=1e-3) <= 1e-5


@pytest.mark.parametrize("map_attention", ["all", 3])
def test_empty_map_runs(map_attention):
    scene, vocab, cfg0, params, _ = desk_setup(seed=23, map_attention=map_attention)
    empty = sc.Scene(agents=scene.agents, map_nodes=(), ego_id=scene.ego_id,
                     horizon=scene.horizon, dt=scene.dt)
    batch = md.build_token_batch(empty, vocab, cfg0)
    assert batch.num_map == 0
    logits = np.asarray(md.forward(batch, params, cfg0))
    assert logits.shape == (batch.num_agents, batch.num_steps, cfg0.max_vocab)
    assert np.all(np.isfinite(np.maximum(logits, -1e30)))
    ro = hn.rollout(params, cfg0, empty, vocab, horizon=3, mode="greedy", context=5)[0]
    assert ro.tokens.shape == (len(scene.agents), 3) and np.all(np.isfinite(ro.poses))


def test_loss_uniform_and_one_hot():
    targets = np.array([[0, 3], [5, 1]])
    valid = np.ones((2, 2), dtype=bool)
    uniform = np.zeros((2, 2, 64))
    with ad.Tape():
        val = float(ad.data_of(md.loss(ad.Var(uniform), targets, valid)))
    assert math.isclose(val, math.log(64.0), rel_tol=1e-12)

    hot = np.full((2, 2, 64), -1e4)
    for (a, t), tok in np.ndenumerate(targets):
        hot[a, t, tok] = 1e4
    with ad.Tape():
        val = float(ad.data_of(md.loss(ad.Var(hot), targets, valid)))
    assert val <= 1e-8

    half = valid.copy()
    half[0] = False
    with ad.Tape():
        v_half = float(ad.data_of(md.loss(ad.Var(uniform), targets, half)))
    assert math.isclose(v_half, math.log(64.0), rel_tol=1e-12)

    with pytest.raises(ValueError):
        md.loss(uniform, targets, np.zeros((2, 2), dtype=bool))


def test_sampling_rules():
    assert md.sample_action(np.array([0.0, 10.0, 0.0]), "greedy") == 1
    assert md.sample_action(np.array([2.0, 2.0, 2.0]), "greedy") == 0
    rng = np.random.default_rng(0)
    logits = np.array([0.0, 2.0, 1.0])
    draws = [md.sample_action(logits, "categorical", rng, temperature=1e-4) for _ in range(10_000)]
    assert np.mean(np.asarray(draws) == 1) >= 0.999
    with pytest.raises(ValueError):
        md.sample_action(logits, "nucleus")


def test_train_determinism_and_descent():
    rng = np.random.default_rng(9)
    vocab = make_vocab(rng, cap=16, k_r=0.02)
    gen = sc.GeneratorConfig(n_agents=3, horizon=10)
    scenes = [sc.generate_synthetic_scene(gen, seed=s) for s in range(6)]
    cfg = md.ModelConfig(vocab_sizes={c: vocab.size(c) for c in sc.AGENT_CLASSES}, dtype="f32")
    _, curve1 = md.train(scenes, vocab, cfg, steps=40, lr=1e-3, seed=5)
    _, curve2 = md.train(scenes, vocab, cfg, steps=40, lr=1e-3, seed=5)
    assert curve1 == curve2
    first = np.mean([row[2] for row in curve1[:5]])
    last = np.mean([row[2] for row in curve1[-5:]])
    assert last < first
    with pytest.raises(ValueError):
        md.train([], vocab, cfg, steps=1)


@pytest.mark.parametrize("name, op", [("block1/mlp/expand/weight", "mv_linear"), ("decoder/w1", "matmul")])
def test_non_finite_loss_names_the_first_non_finite_op(name, op):
    scene, vocab, cfg, params, batch = desk_setup(dtype="f32")
    params[name][(0,) * params[name].ndim] = np.nan
    pvars = params.as_vars()
    with ad.Tape() as tape:
        md.loss(md.forward(batch, pvars, cfg), batch.targets, batch.target_valid)
    consumer = next(i for i, node in enumerate(tape.nodes) if any(x is pvars[name] for x in node.inputs))
    assert tape.nodes[consumer].op == op
    with pytest.raises(RuntimeError, match=f"tape node {consumer}, op '{op}'"):
        md.train([scene], vocab, cfg, steps=1, params=params, scenes_per_step=1)


def test_default_forward_tape_size_is_pinned():
    """A fused rms_norm serves the three norms and a fused distance_features the attention features."""
    scene, vocab, cfg, params, batch = desk_setup(dtype="f32")
    with ad.Tape() as tape:
        md.loss(md.forward(batch, params.as_vars(), cfg), batch.targets, batch.target_valid)
    ops = [node.op for node in tape.nodes]
    assert (len(ops), ops.count("rms_norm"), ops.count("distance_features")) == (474, 23, 12)


def test_rpe_zero_mlp_reduces_to_vanilla_attention():
    rng = np.random.default_rng(10)
    d = 6
    q = rng.normal(size=(4, d))
    k = rng.normal(size=(5, d))
    v = rng.normal(size=(5, d))
    rel = rng.normal(size=(4, 5, 4))
    zero_mlp = md.MlpParams(np.zeros((4, 8)), np.zeros(8), np.zeros((8, 2 * d)), np.zeros(2 * d))
    out_rpe = np.asarray(md.rpe_attention(q, k, v, rel, zero_mlp))
    out_vanilla = np.asarray(md.scalar_attention(q, k, v))
    assert np.allclose(out_rpe, out_vanilla, atol=1e-14)


def test_rpe_pair_counter():
    rng = np.random.default_rng(11)
    d = 4
    q = rng.normal(size=(3, d))
    k = rng.normal(size=(7, d))
    v = rng.normal(size=(7, d))
    rel = rng.normal(size=(3, 7, 4))
    mlp = md.MlpParams(rng.normal(size=(4, 6)), np.zeros(6), rng.normal(size=(6, 2 * d)), np.zeros(2 * d))
    stats = {}
    md.rpe_attention(q, k, v, rel, mlp, stats=stats)
    assert stats["pair_evals"] == 3 * 7


def test_rpe_baseline_invariant_vanilla_not():
    scene, vocab, cfg, _, batch = desk_setup(seed=12)
    g = pga.Pose2(100.0, 0.0, math.pi / 2)
    moved = md.build_token_batch(sc.transform_scene(scene, g), vocab, cfg)

    rpe_params = md.init_baseline_params(cfg, "rpe")
    base = np.asarray(md.baseline_forward(batch, rpe_params, cfg, "rpe"))
    out = np.asarray(md.baseline_forward(moved, rpe_params, cfg, "rpe"))
    assert float(np.max(np.abs(out - base))) <= 1e-10

    van_params = md.init_baseline_params(cfg, "vanilla")
    base_v = np.asarray(md.baseline_forward(batch, van_params, cfg, "vanilla"))
    out_v = np.asarray(md.baseline_forward(moved, van_params, cfg, "vanilla"))
    assert float(np.max(np.abs(out_v - base_v))) > 1e-3


def test_pairwise_pose_features_oracle():
    rng = np.random.default_rng(13)
    for _ in range(50):
        qp = rng.uniform(-10, 10, 3)
        kp = rng.uniform(-10, 10, 3)
        feats = md.pairwise_pose_features(qp[None], kp[None])[0, 0]
        c, s = math.cos(qp[2]), math.sin(qp[2])
        dx, dy = kp[0] - qp[0], kp[1] - qp[1]
        assert math.isclose(feats[0], c * dx + s * dy, abs_tol=1e-12)
        assert math.isclose(feats[1], -s * dx + c * dy, abs_tol=1e-12)
        assert math.isclose(feats[2], math.cos(kp[2] - qp[2]), abs_tol=1e-12)
        assert math.isclose(feats[3], math.sin(kp[2] - qp[2]), abs_tol=1e-12)


def test_flop_count_ratios():
    cfg = md.ModelConfig()
    rpe16 = md.flop_count(cfg, 16, 24, 20, "rpe")
    rpe32 = md.flop_count(cfg, 32, 24, 20, "rpe")
    assert rpe32["terms"]["pos_pairs_agent_agent"] / rpe16["terms"]["pos_pairs_agent_agent"] == 4.0

    geo16 = md.flop_count(cfg, 16, 24, 20, "geometric")
    geo32 = md.flop_count(cfg, 32, 24, 20, "geometric")
    assert geo32["terms"]["pos_agent_tokens"] / geo16["terms"]["pos_agent_tokens"] == 2.0

    van = md.flop_count(cfg, 16, 24, 20, "vanilla")
    assert van["positional"] == 0.0
    assert all(van["terms"][k] == 0.0 for k in van["terms"] if k.startswith("pos_"))

    ratios = [
        md.flop_count(cfg, a, 24, 20, "rpe")["total"] / md.flop_count(cfg, a, 24, 20, "vanilla")["total"]
        for a in (8, 16, 32, 64)
    ]
    assert all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))

    with pytest.raises(ValueError):
        md.flop_count(cfg, 0, 1, 1, "rpe")
    with pytest.raises(ValueError):
        md.flop_count(cfg, 1, 1, 1, "blah")


def test_checkpoint_roundtrip(tmp_path):
    scene, vocab, cfg, params, batch = desk_setup(seed=14, dtype="f32")
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(path, params, cfg, vocab, meta={"seed": 14})
    loaded, cfg2, manifest = md.load_checkpoint(path)
    assert cfg2 == cfg
    assert manifest["vocab_hash"] == md.vocab_hash(vocab)
    assert manifest["meta"]["seed"] == 14
    for name, arr in params.items():
        assert np.array_equal(loaded[name], arr)
        assert loaded[name].dtype == arr.dtype
    # logits identical through the save/load cycle
    out1 = np.asarray(md.forward(batch, params, cfg))
    out2 = np.asarray(md.forward(batch, loaded, cfg))
    assert np.array_equal(out1, out2)


def test_truncated_checkpoint_fails_clearly(tmp_path):
    _, vocab, cfg, params, _ = desk_setup(seed=14, dtype="f32")
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(path, params, cfg, vocab)
    blob = path.read_bytes()
    header = blob.index(b"\n") + 1
    first = params.names()[0]
    nbytes = params[first].nbytes

    path.write_bytes(blob[:header + nbytes // 2])
    with pytest.raises(ValueError, match=f"'{first}' needs {nbytes} bytes, {nbytes // 2} available"):
        md.load_checkpoint(path)
    path.write_bytes(blob[:header // 2])
    with pytest.raises(ValueError, match="truncated inside its manifest line"):
        md.load_checkpoint(path)


def tiny_grad_setup():
    rng = np.random.default_rng(7)
    vocab = make_vocab(rng, cap=8)
    gen = sc.GeneratorConfig(n_agents=2, horizon=3, n_lanes=2, lane_length=4.0,
                             seg_len=2.0, center_spread=2.0)
    scene = sc.generate_synthetic_scene(gen, seed=3)
    scene = sc.Scene(agents=scene.agents, map_nodes=scene.map_nodes[:4],
                     ego_id=0, horizon=3, dt=0.1)
    cfg = md.ModelConfig(mv_channels=2, scalar_channels=8, heads=2, blocks=1,
                         vocab_sizes={c: vocab.size(c) for c in sc.AGENT_CLASSES},
                         dtype="f64", input_hidden=6, adapter_hidden=6, decoder_hidden=8)
    batch = md.build_token_batch(scene, vocab, cfg)
    names = md.init_params(cfg).names()
    prng = np.random.default_rng(42)
    shapes = {n: md.init_params(cfg)[n].shape for n in names}
    params = {n: prng.normal(0.0, 0.25, shapes[n]) for n in names}
    return batch, cfg, names, params


def test_full_model_grad_check():
    batch, cfg, names, params = tiny_grad_setup()
    arrays = [params[n] for n in names]

    def fn(tracked):
        p = dict(zip(names, tracked))
        return md.loss(md.forward(batch, p, cfg), batch.targets, batch.target_valid)

    err = ad.grad_check(fn, arrays, step=1e-6, max_coords=8, seed=0, min_grad=1e-4)
    assert err <= 1e-5


def test_invariant_loss_gradients_transform_contravariantly():
    # the loss is invariant, so differentiating through the input transform
    # must reproduce the untransformed gradient: d/dx loss(u[x]) = d/dx loss(x)
    batch, cfg, names, params = tiny_grad_setup()
    from eqtraffic.batch import sandwich_array
    from helpers import rand_motor

    mv_in = batch.mv.copy()
    pdict = {n: params[n] for n in names}

    def grad_of_transformed(motor_coeffs):
        x = ad.Var(mv_in)
        with ad.Tape() as tape:
            if motor_coeffs is None:
                moved, frames, map_mv = x, batch.frames, batch.map_mv
            else:
                moved = sandwich_array(motor_coeffs, x)
                gp = pga.Motor(motor_coeffs).pose()
                frames = np.zeros_like(batch.frames)
                for a in range(batch.num_agents):
                    for t in range(batch.num_steps):
                        p = pga.Pose2(*batch.raw_poses[a, t])
                        frames[a, t] = pga.motor_from_pose(gp.compose(p)).inverse().coeffs
                map_mv = np.asarray(sandwich_array(motor_coeffs, batch.map_mv))
            patched = md.TokenBatch(**{**batch.__dict__, "map_mv": map_mv, "frames": frames})
            lv = _forward_loss_with_tracked_mv(moved, patched, pdict, cfg)
        return ad.backward(tape, lv)[x]

    base = grad_of_transformed(None)
    rng = np.random.default_rng(3)
    for _ in range(3):
        u = rand_motor(rng)
        moved = grad_of_transformed(np.asarray(u.coeffs))
        scale = max(1.0, float(np.max(np.abs(base))))
        assert float(np.max(np.abs(moved - base))) <= 1e-8 * scale


def _forward_loss_with_tracked_mv(mv_tracked, batch, p, cfg):
    """forward() with the agent multivector input taken from a tracked Var."""
    dt = cfg.np_dtype
    mv = md.eq_linear(mv_tracked, md._eq_params(p, "embed/agent_mv"))
    s = md.mlp2(batch.scalars_raw.astype(dt), md._mlp_params(p, "embed/agent_in"))
    s = ad.add(s, ad.embedding(p["embed/prev_action"], batch.prev_flat))
    map_mv = md.eq_linear(batch.map_mv.astype(dt), md._eq_params(p, "embed/map_mv"))
    map_s = md.mlp2(batch.map_scalars_raw.astype(dt), md._mlp_params(p, "embed/map_in"))
    attn_cfg = cfg.attention_config()
    causal_cfg = cfg.attention_config(causal=True)
    t_count, a_count, m_count = batch.num_steps, batch.num_agents, batch.num_map
    map_mask = np.broadcast_to(batch.valid.T[:, :, None], (t_count, a_count, m_count))
    agent_mask = md._agent_mask(batch)
    time_mask = batch.valid[:, None, :] & batch.valid[:, :, None]
    for i in range(cfg.blocks):
        mv_t, s_t = md._swap_at(mv), md._swap_at(s)
        mv_t, s_t = md._attention_sublayer(mv_t, s_t, map_mv, map_s,
                                           md._attn_params(p, f"block{i}/map_attn"),
                                           attn_cfg, mask=map_mask)
        mv_t, s_t = md._attention_sublayer(mv_t, s_t, None, None,
                                           md._attn_params(p, f"block{i}/agent_attn"),
                                           attn_cfg, mask=agent_mask, self_attn=True)
        mv, s = md._swap_at(mv_t), md._swap_at(s_t)
        mv, s = md._attention_sublayer(mv, s, None, None,
                                       md._attn_params(p, f"block{i}/time_attn"),
                                       causal_cfg, mask=time_mask, self_attn=True)
        mv, s = md.eq_mlp_block(mv, s, md.EqMlpBlockParams(
            expand=md._eq_params(p, f"block{i}/mlp/expand"),
            mid=md._eq_params(p, f"block{i}/mlp/mid"),
            out=md._eq_params(p, f"block{i}/mlp/out"),
            scalar=md._mlp_params(p, f"block{i}/mlp/scalar"),
        ))
        if cfg.include_adapter:
            s = md.invariant_adapter(mv, s, batch.frames, md._mlp_params(p, f"block{i}/adapter"))
    h = ad.relu(md.affine(md.scalar_layer_norm(s), p["decoder/w1"], p["decoder/b1"]))
    logits = md._decode_logits(h, p, batch.class_idx)
    logits = ad.add(logits, md._vocab_mask(batch.class_idx, cfg))
    return md.loss(logits, batch.targets, batch.target_valid)


def test_small_gradients_match_richardson():
    # coordinates below the FD floor at step 1e-6 are still verified, using a
    # Richardson-extrapolated central difference at a larger step
    batch, cfg, names, params = tiny_grad_setup()
    pvars = {n: ad.Var(params[n].copy()) for n in names}
    with ad.Tape() as tape:
        lv = md.loss(md.forward(batch, pvars, cfg), batch.targets, batch.target_valid)
    grads = ad.backward(tape, lv)

    def loss_at(pdict):
        with ad.Tape():
            return float(ad.data_of(md.loss(
                md.forward(batch, {k: ad.Var(v) for k, v in pdict.items()}, cfg),
                batch.targets, batch.target_valid)))

    checked = 0
    for n in names:
        if "attn" not in n:
            continue
        ga = grads[pvars[n]]
        flat = np.abs(ga).ravel()
        order = np.argsort(flat)
        for c in order:
            if 1e-9 < flat[c] < 1e-6:
                idx = np.unravel_index(int(c), ga.shape)
                ana = float(ga[idx])
                nums = []
                for h in (1e-3, 2e-3):
                    pp = {k: params[k].copy() for k in names}
                    pp[n][idx] += h
                    fp = loss_at(pp)
                    pp[n][idx] -= 2 * h
                    fm = loss_at(pp)
                    nums.append((fp - fm) / (2 * h))
                rich = (4.0 * nums[0] - nums[1]) / 3.0
                assert abs(ana - rich) / max(abs(ana), abs(rich), 1e-12) <= 1e-3
                checked += 1
                break
    assert checked >= 3
