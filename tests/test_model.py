"""Model-level contracts: invariance, causality, training, baselines, FLOPs, checkpoints."""

import dataclasses
import hashlib
import json
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eqtraffic import autodiff as ad
from eqtraffic import harness as hn
from eqtraffic import model as md
from eqtraffic import pga, scene as sc
from eqtraffic.batch import pose_frame_motors, sandwich_matrix
from helpers import (
    ROW_FIELDS,
    batch_rows,
    decode_point,
    encode_point,
    gappy_scene,
    grad_check,
    motor_from_pose,
    pose_compose,
    pose_inverse,
    reverse,
    sandwich,
    stack_samples,
)


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
    for name in ("mv_channels", "scalar_channels", "heads", "input_hidden", "adapter_hidden",
                 "decoder_hidden", "rpe_hidden"):
        for width in (0, -1):
            with pytest.raises(ValueError, match=f"{name} must be >= 1"):
                md.ModelConfig(**{name: width})
    two = {c: 2 for c in sc.AGENT_CLASSES}
    for sizes in (5, {**two, "vehicle": "x"}, {**two, "vehicle": 0}, {**two, "vehicle": True},
                  {"vehicle": 2, "pedestrian": 2}, {**two, "bus": 2}):
        with pytest.raises(ValueError, match="vocab_sizes must map each of vehicle, pedestrian, cyclist"):
            md.ModelConfig(vocab_sizes=sizes)


def test_token_batch_shapes_and_alignment():
    scene, vocab, cfg, params, batch = desk_setup(seed=1)
    a, t = batch.num_agents, batch.num_steps
    assert batch.raw_poses.shape == (a, t, 3)
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
    # the frame motors the forward derives map each token's own position to the origin
    frames = pose_frame_motors(batch.raw_poses)
    for ai in range(a):
        for ti in range(t):
            x, y = decode_point(sandwich(frames[ai, ti], encode_point(*batch.raw_poses[ai, ti, :2])))
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


def test_time_mask_of_the_last_rows_matches_a_row_loop():
    """Rows cut from the end of a gappy batch see exactly their valid keys at or before their step."""
    _, vocab, cfg, _, _ = desk_setup(seed=6)
    batch = md.build_token_batch(gappy_scene(3), vocab, cfg)
    key_valid = batch.valid
    tk = key_valid.shape[1]
    assert not key_valid.all()
    for tq in (1, 3, tk):
        rows = batch_rows(batch, tk - tq)
        expect = np.zeros((len(key_valid), tq, tk), dtype=bool)
        for a in range(len(key_valid)):
            for i in range(tq):
                t = tk - tq + i
                for k in range(tk):
                    expect[a, i, k] = key_valid[a, t] and key_valid[a, k] and k <= t
        assert np.array_equal(md._time_mask(rows, key_valid), expect)


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


@pytest.mark.parametrize("variant", md.VARIANTS)
def test_nearest_k_map_attention_masks_every_variant(variant):
    """Under `map_attention` = 1, a map node that is no valid row's nearest reaches no logit."""
    scene, vocab, cfg, _, batch = desk_setup(seed=8, map_attention=1)
    params = md.init_params(cfg, variant)
    unseen = ~md.knn_map_mask(batch, 1).any(axis=(0, 1))
    assert unseen.any()
    changed = dataclasses.replace(batch, map_scalars_raw=batch.map_scalars_raw.copy())
    changed.map_scalars_raw[unseen] += np.random.default_rng(8).normal(size=changed.map_scalars_raw[unseen].shape)
    assert np.array_equal(np.asarray(variant_logits(changed, params, cfg, variant)),
                          np.asarray(variant_logits(batch, params, cfg, variant)))


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


def test_token_batch_rows_match_full_batch():
    """A batch cut at t_end, and the rows a rollout step encodes from state arrays, are rows
    of the full batch; only the cut's last row lacks the target its next state would give."""
    rng = np.random.default_rng(21)
    vocab = make_vocab(rng)
    cfg = md.ModelConfig(vocab_sizes={c: vocab.size(c) for c in sc.AGENT_CLASSES})
    scene = gappy_scene(21)
    full = md.build_token_batch(scene, vocab, cfg)
    anchor = md.scene_anchor(scene)
    states = sc.agent_states(scene, scene.horizon)
    table, maps = md.vocab_table(vocab, cfg), md.map_fields(scene, anchor)
    for t_start, t_end in ((0, 22), (5, 6), (7, 12), (21, 22), (9, 9)):
        cut = md.build_token_batch(scene, vocab, cfg, t_end=t_end)
        first = max(t_start - 1, 0)
        rows = md.encode_states(states.steps(first, t_end), anchor, table, maps, skip=t_start - first)
        for name in ROW_FIELDS:
            expect = getattr(full, name)[:, t_start:t_end]
            if name in ("targets", "target_valid"):
                expect = expect.copy()
                expect[:, t_end - t_start - 1:] = -1 if name == "targets" else False
            assert np.array_equal(getattr(batch_rows(cut, t_start), name), expect), name
            assert np.array_equal(getattr(rows, name), expect), name


@pytest.mark.parametrize("map_attention", ["all", 3])
@pytest.mark.parametrize("include_adapter", [True, False])
def test_cached_forward_matches_full_forward(map_attention, include_adapter):
    rng = np.random.default_rng(22)
    vocab = make_vocab(rng)
    cfg = md.ModelConfig(vocab_sizes={c: vocab.size(c) for c in sc.AGENT_CLASSES}, dtype="f64",
                         map_attention=map_attention, include_adapter=include_adapter)
    params = md.init_params(cfg)
    c, cs = cfg.mv_channels // cfg.heads, cfg.scalar_channels // cfg.heads
    width = 8 * c + cs  # of a distance-aware key row, and of a value row
    for seed, context in ((1, 1), (2, 7), (3, 20)):
        scene = gappy_scene(seed)
        cache = {}
        t_start, t_end = 0, context
        while True:
            full_batch = md.build_token_batch(scene, vocab, cfg, t_end=t_end, with_targets=False)
            rows = batch_rows(full_batch, t_start)
            cached = np.asarray(md.forward(rows, params, cfg, cache=cache))
            full = np.asarray(md.forward(full_batch, params, cfg))
            assert cached.shape == (rows.num_agents, rows.num_steps, cfg.max_vocab)
            assert np.max(np.abs(cached - full[:, -rows.num_steps:])) <= 1e-12
            # the time rows grow by every row; the map's key and value rows stay the first call's
            assert cache["valid"][0].shape == (rows.num_agents, t_end)
            for i in range(cfg.blocks):
                kf, vf = cache["time", i]
                assert kf.shape == (rows.num_agents, cfg.heads, t_end, width)
                assert vf.shape == (rows.num_agents, cfg.heads, t_end, width)
            if t_start == 0:
                map_rows = cache["map"]
            assert cache["map"] is map_rows and len(map_rows) == cfg.blocks
            assert all(kf.shape == vf.shape == (1, cfg.heads, rows.num_map, width) for kf, vf in map_rows)
            if t_end == scene.horizon:
                break
            # one new row per call, then several
            t_start, t_end = t_end, min(scene.horizon, t_end + 1 + (t_end > context + 2))
    assert set(cache) == {"map", "valid"} | {("time", i) for i in range(cfg.blocks)}


def reference_token_batch(scene, vocab, cfg, t_end=None, with_targets=True):
    """The per-agent encoder `build_token_batch` replaced: Pose2 deltas and a nearest-entry
    search per agent, features per state."""
    ax, ay = md.scene_anchor(scene)
    n_steps = scene.horizon if t_end is None else t_end
    n_agents, vmax = len(scene.agents), cfg.max_vocab
    poses = np.zeros((n_agents, n_steps, 3))
    scalars = np.zeros((n_agents, n_steps, sc.AGENT_FEATURE_WIDTH))
    valid = np.zeros((n_agents, n_steps), dtype=bool)
    class_idx = np.zeros(n_agents, dtype=np.int64)
    prev_flat = np.zeros((n_agents, n_steps), dtype=np.int64)
    targets = np.full((n_agents, n_steps), -1, dtype=np.int64)
    for a, agent in enumerate(scene.agents):
        cls_i = sc.AGENT_CLASSES.index(agent.agent_class)
        class_idx[a] = cls_i
        states = {s.t: s for s in agent.states if s.t < n_steps}
        token_of = {}
        for t, s in states.items():
            if t + 1 in states:
                d = pose_compose(pose_inverse(s.pose), states[t + 1].pose)
                dists = sc.action_distance(vocab.deltas[agent.agent_class], np.array([d.x, d.y, d.theta]),
                                           vocab.w_theta)
                token_of[t] = int(np.argmin(dists))
        for t in range(n_steps):
            s = states.get(t)
            if s is None:
                prev_flat[a, t] = md.flat_token_index(cls_i, vmax, vmax)
                continue
            valid[a, t] = True
            poses[a, t] = [s.pose.x - ax, s.pose.y - ay, s.pose.theta]
            scalars[a, t, :3] = s.speed, agent.length, agent.width
            scalars[a, t, 3 + cls_i] = 1.0
            prev_flat[a, t] = md.flat_token_index(cls_i, token_of.get(t - 1, vmax), vmax)
            if with_targets and t in token_of:
                targets[a, t] = token_of[t]
    map_poses = np.array([[n.pose.x - ax, n.pose.y - ay, n.pose.theta]
                          for n in scene.map_nodes]).reshape(-1, 3)
    return md.TokenBatch(
        scalars_raw=scalars, raw_poses=poses, prev_flat=prev_flat, class_idx=class_idx,
        map_scalars_raw=np.array([sc.encode_map_scalars(n) for n in scene.map_nodes]).reshape(
            -1, sc.MAP_FEATURE_WIDTH),
        map_poses=map_poses, map_valid=np.ones(len(map_poses), dtype=bool),
        valid=valid, targets=targets, target_valid=targets >= 0,
    )


def _oracle_vocabs():
    kdisk = make_vocab(np.random.default_rng(40), cap=12)
    # test_scene's tie vocab, and a vocab whose every entry appears twice: ties everywhere
    tie = sc.ActionVocab(deltas={"vehicle": np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
                                 "pedestrian": np.array([[0.0, 0.0, 0.0]]),
                                 "cyclist": np.array([[0.0, 0.0, 0.0]])},
                         k_r=0.5, w_theta=1.0, seed=0)
    doubled = sc.ActionVocab(deltas={c: np.concatenate([d, d]) for c, d in kdisk.deltas.items()},
                             k_r=kdisk.k_r, w_theta=kdisk.w_theta, seed=0)
    return {"kdisk": kdisk, "tie": tie, "doubled": doubled}


ORACLE_VOCABS = _oracle_vocabs()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), keep=st.lists(st.booleans(), min_size=40, max_size=40),
       t_end=st.integers(0, 10), empty_map=st.booleans(), with_targets=st.booleans(),
       vocab_name=st.sampled_from(sorted(ORACLE_VOCABS)))
def test_token_batch_matches_the_per_agent_encoder(seed, keep, t_end, empty_map, with_targets,
                                                   vocab_name):
    """Gappy histories (agents with no state at t - 1, or none at all), empty maps and tied
    vocab entries: the array encoder gives the per-agent loop's batch, bit for bit."""
    vocab = ORACLE_VOCABS[vocab_name]
    cfg = md.ModelConfig(vocab_sizes={c: vocab.size(c) for c in sc.AGENT_CLASSES})
    scene = sc.generate_synthetic_scene(sc.GeneratorConfig(n_agents=4, horizon=10, n_lanes=2), seed)
    kept = np.array(keep).reshape(4, 10)
    agents = tuple(sc.Agent(id=a.id, agent_class=a.agent_class, length=a.length, width=a.width,
                            states=tuple(s for s in a.states if kept[i, s.t]))
                   for i, a in enumerate(scene.agents))
    scene = sc.Scene(agents=agents, map_nodes=() if empty_map else scene.map_nodes,
                     ego_id=scene.ego_id, horizon=scene.horizon, dt=scene.dt)
    got = md.build_token_batch(scene, vocab, cfg, t_end=t_end, with_targets=with_targets)
    expect = reference_token_batch(scene, vocab, cfg, t_end=t_end, with_targets=with_targets)
    for f in dataclasses.fields(md.TokenBatch):
        a, b = getattr(got, f.name), getattr(expect, f.name)
        assert a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b), f.name


def test_vocab_sizes_must_match_the_config_in_training():
    """An 8-entry vocab under a 4-slot config would alias vehicle tokens into pedestrian rows."""
    scene, _, _, _, _ = desk_setup(seed=41)
    rng = np.random.default_rng(41)
    vocab8 = sc.ActionVocab(deltas={c: rng.uniform(-0.5, 0.5, (8, 3)) for c in sc.AGENT_CLASSES},
                            k_r=0.05, w_theta=1.0, seed=0)
    cfg4 = md.ModelConfig(vocab_sizes={c: 4 for c in sc.AGENT_CLASSES}, dtype="f64")
    with pytest.raises(ValueError, match="vocab has 8 'vehicle' actions but the model config expects 4"):
        md.train([scene], vocab8, cfg4, steps=1)


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
        return batch_rows(md.build_token_batch(scene, vocab, cfg, t_end=t_end, with_targets=False),
                          t_start)

    # full forwards, geometric and scalar baselines: samples on a leading axis over one unstacked map
    stacked = stack_samples([rows(sc_, 0, context) for sc_ in samples])
    assert stacked.valid.shape == (3, n_agents, context) and stacked.class_idx.shape == (3, n_agents)
    assert stacked.map_valid.shape == (len(base.map_nodes),) and stacked.map_poses.shape[0] == len(base.map_nodes)
    together = np.asarray(md.forward(stacked, params, cfg))
    assert together.shape == (3, n_agents, context, cfg.max_vocab)
    for variant in ("vanilla", "rpe"):
        bparams = md.init_params(cfg, variant)
        b_together = np.asarray(md.baseline_forward(stacked, bparams, cfg, variant))
        for r, sc_ in enumerate(samples):
            alone = np.asarray(md.baseline_forward(rows(sc_, 0, context), bparams, cfg, variant))
            assert np.max(np.abs(b_together[r] - alone)) <= 1e-12

    # cached forwards: one stacked cache against one cache per sample
    caches = [{} for _ in samples]
    separate = [np.asarray(md.forward(rows(sc_, 0, context), params, cfg, cache=c))
                for sc_, c in zip(samples, caches)]
    shared = {}
    np.asarray(md.forward(stacked, params, cfg, cache=shared))
    assert np.max(np.abs(together - np.stack(separate))) <= 1e-12
    for t in range(context, base.horizon):
        batch = stack_samples([rows(sc_, t, t + 1) for sc_ in samples])
        together = np.asarray(md.forward(batch, params, cfg, cache=shared))
        for r, (sc_, c) in enumerate(zip(samples, caches)):
            alone = np.asarray(md.forward(rows(sc_, t, t + 1), params, cfg, cache=c))
            assert np.max(np.abs(together[r] - alone)) <= 1e-12


def test_decoder_gathers_class_heads_and_masks_vocab():
    sizes = {"vehicle": 7, "pedestrian": 3, "cyclist": 5}
    cfg = md.ModelConfig(vocab_sizes=sizes, dtype="f64", decoder_hidden=6)
    params = md.init_params(cfg)
    rng = np.random.default_rng(25)
    params["decoder/bias"][...] = rng.normal(size=params["decoder/bias"].shape)
    class_idx = np.array([0, 1, 2, 1, 0, 2])
    s = rng.normal(size=(len(class_idx), 4, cfg.scalar_channels))
    h = np.maximum(np.asarray(md.scalar_layer_norm(s)) @ params["decoder/w1"] + params["decoder/b1"], 0.0)
    logits = np.asarray(md._decode(s, params, class_idx, cfg))
    assert logits.shape == (len(class_idx), 4, cfg.max_vocab)
    for a, c in enumerate(class_idx):
        size = sizes[sc.AGENT_CLASSES[c]]
        expect = h[a] @ params["decoder/heads"][c] + params["decoder/bias"][c]
        assert np.max(np.abs(logits[a, :, :size] - expect[:, :size])) <= 1e-12
        assert np.all(logits[a, :, size:] <= -1e29)

    inside = (logits > -1e29).astype(float)  # the pinned slots are constants

    def fn(tracked):
        out = ad.mul(md._decode(tracked[0], {**params, "decoder/heads": tracked[1], "decoder/bias": tracked[2]},
                                class_idx, cfg), inside)
        return ad.reduce_sum(ad.reshape(ad.mul(out, out), (-1,)), axis=0)

    # at step 1e-6 the loss's rounding noise (~1e-8) is 1e-5 of a 1e-3 bias gradient
    arrays = [s, params["decoder/heads"], params["decoder/bias"]]
    assert grad_check(fn, arrays, step=1e-5, max_coords=40, seed=0, min_grad=1e-3) <= 1e-5


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


@pytest.mark.parametrize("temperature", [0.0, -1.0, np.inf, np.nan])
def test_categorical_sampling_rejects_a_temperature_that_is_not_positive_and_finite(temperature):
    with pytest.raises(ValueError, match="temperature must be a positive finite number"):
        md.sample_action(np.array([0.0, 2.0, 1.0]), "categorical", np.random.default_rng(0), temperature)


def test_sampling_rows_greedy_ties_masks_and_finiteness():
    rows = np.array([[1.0, 3.0, 3.0], [2.0, 2.0, 2.0], [-1e30, 0.5, -1e30], [-np.inf, -1.0, 0.0]])
    assert md.sample_action(rows, "greedy").tolist() == [1, 0, 1, 2]
    masked = np.array([[-1e30, 0.0, -1e30, 5.0]] * 50)
    drawn = md.sample_action(masked, "categorical", np.random.default_rng(0), temperature=3.0)
    assert set(drawn.tolist()) <= {1, 3}
    for bad in (np.nan, np.inf):
        rows_bad = rows.copy()
        rows_bad[2, 0] = bad
        for mode in ("greedy", "categorical"):
            with pytest.raises(ValueError, match="finite"):
                md.sample_action(rows_bad, mode, np.random.default_rng(0))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 9), width=st.integers(1, 40),
       temperature=st.sampled_from([1e-4, 0.3, 1.0, 3.0]), masked=st.floats(0.0, 0.9))
def test_sampling_rows_draw_the_per_row_choice_stream(seed, n_rows, width, temperature, masked):
    """N rows in one call draw what N per-row `rng.choice` calls draw, and leave the generator
    where they leave it."""
    rng = np.random.default_rng(seed)
    logits = rng.normal(0.0, 4.0, size=(n_rows, width))
    logits[rng.random(size=logits.shape) < masked] = -1e30
    logits[np.arange(n_rows), rng.integers(0, width, n_rows)] = rng.normal(size=n_rows)
    per_row = np.random.default_rng(seed + 1)
    expect = []
    for row in logits:
        probs = np.exp((row - row.max()) / temperature)
        expect.append(int(per_row.choice(width, p=probs / probs.sum())))
    batched = np.random.default_rng(seed + 1)
    assert md.sample_action(logits, "categorical", batched, temperature).tolist() == expect
    assert batched.random() == per_row.random()


def test_categorical_sampling_shifts_before_it_divides():
    """At temperature 1e-310 the quotient `rows / temperature` overflows; shifted by its max first,
    a row's weight stays on its maxima.  At temperature 1 the shift changes no bit: the draws are
    per-row `rng.choice` on the weights of the unshifted quotient."""
    rows = np.array([[1.0, 2.0, 0.5], [3.0, -1e30, 2.5], [0.0, 4.0, 4.0]] * 20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        drawn = md.sample_action(rows, "categorical", np.random.default_rng(0), temperature=1e-310)
    assert drawn[0::3].tolist() == [1] * 20 and drawn[1::3].tolist() == [0] * 20
    assert set(drawn[2::3].tolist()) == {1, 2}
    logits = np.random.default_rng(5).normal(0.0, 4.0, size=(40, 12))
    logits[::3, ::2] = -1e30
    per_row = np.random.default_rng(6)
    expect = []
    for row in logits:
        scaled = row / 1.0
        probs = np.exp(scaled - scaled.max())
        expect.append(int(per_row.choice(12, p=probs / probs.sum())))
    assert md.sample_action(logits, "categorical", np.random.default_rng(6), 1.0).tolist() == expect


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


# known answers: sha256 of the curve (float64 rows of step, lr, loss) then the trained `params.flat`
# bytes of 4 packed 2-scene steps on default scenes 0-3, with single-threaded BLAS (tests/conftest.py)
KNOWN_TRAIN = {
    ("f32", True): "cdf11ca9b661c7dd1218392acea5c072a17df58802602d243186e798ff6b2dbb",
    ("f32", False): "dcd029703f976f71d6fb6c552852077f2ffbe8cb91ea919c7c2b596f7e5c8194",
    ("f64", True): "512e19e0839587518823c03569c4d35426b3a8e5ac591bbed05d237fc27f2c7f",
    ("f64", False): "ff0f37b6a7f27e4c7933d8b5c47cba04c7079347546d484fe516fd68e9e97c89",
}


@pytest.mark.parametrize("dtype, adapter", sorted(KNOWN_TRAIN), ids=str)
def test_train_matches_known_digests(dtype, adapter):
    corpus = [sc.generate_synthetic_scene(sc.GeneratorConfig(), seed=s) for s in range(4)]
    vocab = sc.build_kdisk_vocab(sc.collect_transitions(corpus), k_r=0.003, seed=0, cap=64)
    cfg = md.ModelConfig(vocab_sizes={c: vocab.size(c) for c in sc.AGENT_CLASSES}, dtype=dtype,
                         include_adapter=adapter)
    params, curve = md.train(corpus, vocab, cfg, steps=4, seed=7)
    digest = hashlib.sha256(np.asarray(curve, dtype=np.float64).tobytes() + params.flat.tobytes())
    assert digest.hexdigest() == KNOWN_TRAIN[dtype, adapter]


def test_train_draws_only_scenes_with_a_target_position():
    """A scene whose agents have no states at two consecutive steps is left out of training, and
    of the step count the others are encoded to: the curve is that of the other scenes alone.
    Errors name the scenes by their index in the list passed in; with no target anywhere, train
    raises."""
    rng = np.random.default_rng(9)
    vocab = make_vocab(rng, cap=16, k_r=0.02)
    good = [sc.generate_synthetic_scene(sc.GeneratorConfig(n_agents=3, horizon=10), seed=s) for s in range(3)]
    base = sc.generate_synthetic_scene(sc.GeneratorConfig(n_agents=2, horizon=14), seed=7)
    bad = dataclasses.replace(base, agents=tuple(dataclasses.replace(a, states=a.states[::2])
                                                 for a in base.agents))
    cfg = md.ModelConfig(vocab_sizes={c: vocab.size(c) for c in sc.AGENT_CLASSES}, dtype="f64")
    params, curve = md.train(good, vocab, cfg, steps=3, seed=2)
    params_mixed, curve_mixed = md.train(good[:1] + [bad] + good[1:], vocab, cfg, steps=3, seed=2)
    assert curve_mixed == curve and np.array_equal(params_mixed.flat, params.flat)
    broken = md.init_params(cfg)
    broken["decoder/w1"][0, 0] = np.nan
    with pytest.raises(RuntimeError, match=r"on scenes \[1\]:"):
        md.train([bad, good[0]], vocab, cfg, steps=1, params=broken, scenes_per_step=1)
    for scenes in ([bad], []):
        with pytest.raises(ValueError, match="train needs a scene with a target position"):
            md.train(scenes, vocab, cfg, steps=1)


@pytest.mark.parametrize("name, op", [("block1/mlp/expand/weight", "mv_linear"), ("decoder/w1", "matmul")])
def test_non_finite_loss_names_the_first_non_finite_op(name, op):
    scene, vocab, cfg, params, batch = desk_setup(dtype="f32")
    params[name][(0,) * params[name].ndim] = np.nan
    pvars = params.as_vars()
    with ad.Tape() as tape:
        md.loss(md.forward(batch, pvars, cfg), batch.targets, batch.target_valid)
    consumer = next(i for i, node in enumerate(tape.nodes) if any(x is pvars[name] for x in node.inputs))
    assert tape.nodes[consumer].op == op
    with pytest.raises(RuntimeError, match=rf"on scenes \[0\]: .*tape node {consumer}, op '{op}'"):
        md.train([scene], vocab, cfg, steps=1, params=params, scenes_per_step=1)
    # a packed step names the corpus indices of every scene in it, in packing order
    others = [sc.generate_synthetic_scene(sc.GeneratorConfig(n_agents=3, horizon=h, n_lanes=2), seed=h)
              for h in (8, 12)]
    with pytest.raises(RuntimeError, match=f"tape node {consumer}, op '{op}'") as err:
        md.train([scene] + others, vocab, cfg, steps=1, params=params, scenes_per_step=2, seed=3)
    order = np.random.default_rng(3).permutation(3)
    assert f"on scenes [{order[-1]}, {order[-2]}]:" in str(err.value)


def test_default_forward_tape_size_is_pinned():
    """A fused rms_norm serves the three norms (the scalar layer norm centres inside it), and each
    attention call is one key_rows node and one mv_attention node; a bias rides in its mv_linear or
    matmul node, the MLP
    block's four-way split is one node, the map is normalized once for every block's map
    attention, and the loss folds its per-scene means and its sign into constant weights, so it
    ends without a div or a negation.  Scenes packed on a leading axis record the same nodes."""
    scene, vocab, cfg, params, batch = desk_setup(dtype="f32")
    other = sc.generate_synthetic_scene(sc.GeneratorConfig(n_agents=2, horizon=10), seed=1)
    for tokens in (batch, md.pack_scenes([batch, md.build_token_batch(other, vocab, cfg)])):
        with ad.Tape() as tape:
            md.loss(md.forward(tokens, params.as_vars(), cfg), tokens.targets, tokens.target_valid)
        ops = [node.op for node in tape.nodes]
        counts = (len(ops), ops.count("rms_norm"), ops.count("distance_features"), ops.count("key_rows"),
                  ops.count("mv_attention"), ops.count("split"), ops.count("add"))
        assert counts == (153, 21, 0, 6, 6, 2, 21)


def variant_logits(batch, p, cfg, variant):
    """The logits of `variant`: `forward` for the geometric model, `baseline_forward` otherwise."""
    return md.forward(batch, p, cfg) if variant == "geometric" else md.baseline_forward(batch, p, cfg, variant)


@pytest.mark.parametrize("variant, nodes", [("rpe", 168), ("vanilla", 96)])
def test_default_baseline_tape_sizes_are_pinned(variant, nodes):
    """The baselines normalize the map once for every block's map attention, and their decoder is
    the geometric model's."""
    scene, vocab, cfg, _, batch = desk_setup(dtype="f32")
    with ad.Tape() as tape:
        md.loss(md.baseline_forward(batch, md.init_params(cfg, variant).as_vars(), cfg, variant),
                batch.targets, batch.target_valid)
    assert len(tape.nodes) == nodes


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_forward_loss_and_backward_stay_in_the_config_dtype(dtype):
    """No constant, Python scalar or input of any variant promotes a float32 model to float64, and
    float64 stays float64."""
    scene, vocab, cfg, _, batch = desk_setup(dtype=dtype, map_attention=3)
    for variant in md.VARIANTS:
        pvars = md.init_params(cfg, variant).as_vars()
        with ad.Tape() as tape:
            loss = md.loss(variant_logits(batch, pvars, cfg, variant), batch.targets, batch.target_valid)
        ad.backward(tape, loss)
        promoted = [(i, node.op) for i, node in enumerate(tape.nodes)
                    for out in node.outputs if out.data.dtype != cfg.np_dtype]
        assert not promoted, variant
        assert all(var.grad.dtype == cfg.np_dtype for var in pvars.values()), variant


F32_DRIFT_SETUP = desk_setup(seed=31, dtype="f32")


@settings(max_examples=12, deadline=None)
@given(distance=st.floats(0.0, 1e5), heading=st.floats(-math.pi, math.pi),
       theta=st.floats(-math.pi, math.pi))
def test_f32_logits_do_not_drift_with_distance_from_origin(distance, heading, theta):
    """The anchor keeps f32 inputs scene-sized: moving the scene up to 100 km
    changes the logits by at most 1e-4 of their scale."""
    scene, vocab, cfg, params, batch = F32_DRIFT_SETUP
    g = pga.Pose2(distance * math.cos(heading), distance * math.sin(heading), theta)
    base = np.asarray(md.forward(batch, params, cfg), dtype=np.float64)
    moved = np.asarray(md.forward(md.build_token_batch(sc.transform_scene(scene, g), vocab, cfg),
                                  params, cfg), dtype=np.float64)
    inside = base > -1e29
    assert np.max(np.abs(moved - base)[inside]) <= 1e-4 * np.max(np.abs(base[inside]))


def test_poses_are_anchor_relative():
    scene, vocab, cfg, params, batch = desk_setup(seed=32)
    assert np.array_equal(batch.map_poses[0, :2], [0.0, 0.0])
    node = scene.map_nodes[0].pose
    ax, ay = md.scene_anchor(scene)
    assert (ax, ay) == (node.x, node.y)
    cut = md.build_token_batch(scene, vocab, cfg, t_end=7)
    assert np.array_equal(cut.raw_poses[:, 5:], batch.raw_poses[:, 5:7])
    empty = sc.Scene(agents=scene.agents, map_nodes=(), ego_id=scene.ego_id,
                     horizon=scene.horizon, dt=scene.dt)
    first = scene.ego().states[0].pose
    assert md.scene_anchor(empty) == (first.x, first.y)
    ego_row = [a.id for a in scene.agents].index(scene.ego_id)
    assert np.array_equal(md.build_token_batch(empty, vocab, cfg).raw_poses[ego_row, 0, :2], [0.0, 0.0])


def _loss_and_grads(batch, params, cfg):
    pvars = params.as_vars()
    with ad.Tape() as tape:
        loss = md.loss(md.forward(batch, pvars, cfg), batch.targets, batch.target_valid)
    ad.backward(tape, loss)
    return float(ad.data_of(loss)), {name: var.grad for name, var in pvars.items()}


@pytest.mark.parametrize("map_attention", ["all", 3])
@pytest.mark.parametrize("n_scenes", [1, 3])
def test_packed_step_equals_the_per_scene_path(map_attention, n_scenes):
    """One forward over packed scenes: loss and gradients are the mean of the per-scene ones."""
    rng = np.random.default_rng(33)
    vocab = make_vocab(rng)
    cfg = md.ModelConfig(vocab_sizes={c: vocab.size(c) for c in sc.AGENT_CLASSES}, dtype="f64",
                         map_attention=map_attention)
    params = md.init_params(cfg)
    params["decoder/heads"][...] = rng.normal(0.0, 0.3, params["decoder/heads"].shape)
    scenes = [gappy_scene(33, horizon=12),
              sc.generate_synthetic_scene(sc.GeneratorConfig(n_agents=2, horizon=7, n_lanes=2), seed=34)]
    base = sc.generate_synthetic_scene(sc.GeneratorConfig(n_agents=3, horizon=9, n_lanes=2), seed=35)
    scenes.append(sc.Scene(agents=base.agents, map_nodes=(), ego_id=base.ego_id,
                           horizon=base.horizon, dt=base.dt))
    batches = [md.build_token_batch(s, vocab, cfg) for s in scenes[:n_scenes]]

    # a shorter scene is padded by encoding it up to the longest horizon
    t_end = max(s.horizon for s in scenes[:n_scenes])
    packed = md.pack_scenes([md.build_token_batch(s, vocab, cfg, t_end=t_end) for s in scenes[:n_scenes]])
    assert packed.num_steps == t_end
    # scenes on a leading axis, padded to the largest agent and map counts: masks are per scene
    n_agents, n_map = max(b.num_agents for b in batches), max(b.num_map for b in batches)
    assert packed.valid.shape == (n_scenes, n_agents, t_end)
    assert packed.map_valid.tolist() == [[m < b.num_map for m in range(n_map)] for b in batches]
    map_mask, agent_mask = md._step_masks(packed, cfg)
    assert map_mask.shape == (n_scenes, t_end, n_agents, n_map)
    assert agent_mask.shape == (n_scenes, t_end, n_agents, n_agents)
    loss, grads = _loss_and_grads(packed, params, cfg)
    alone = [_loss_and_grads(b, params, cfg) for b in batches]
    assert abs(loss - np.mean([lv for lv, _ in alone])) <= 1e-12
    for name, g in grads.items():
        expect = np.mean([gr[name] for _, gr in alone], axis=0)
        assert np.max(np.abs(g - expect)) <= 1e-12 * max(1.0, float(np.max(np.abs(expect)))), name

    # every scene's valid rows keep their own logits
    logits = np.asarray(md.forward(packed, params, cfg))
    for g, b in enumerate(batches):
        own = logits[g, :b.num_agents, :b.num_steps]
        solo = np.asarray(md.forward(b, params, cfg))
        assert np.max(np.abs(own - solo)[b.valid]) <= 1e-12
    if n_scenes > 1:
        with pytest.raises(ValueError, match="one step count"):
            md.pack_scenes(batches)


def test_backward_keeps_only_leaf_cotangents(monkeypatch):
    """Op outputs carry no grad, and no op output's cotangent outlives its VJP: each cotangent
    handed to a VJP is gone by the time the next node's VJP runs."""
    scene, vocab, cfg, params, batch = desk_setup(dtype="f32")
    handed, outlived = [], []

    def watched(vjp):
        def run(node, g):
            outlived.extend(ref for ref in handed if ref() is not None)
            handed[:] = [weakref.ref(gi) for gi in (g if type(g) is tuple else (g,)) if gi is not None]
            return vjp(node, g)
        return run

    for op, vjp in list(ad._VJPS.items()):
        monkeypatch.setitem(ad._VJPS, op, watched(vjp))
    pvars = params.as_vars()
    with ad.Tape() as tape:
        loss = md.loss(md.forward(batch, pvars, cfg), batch.targets, batch.target_valid)
    ad.backward(tape, loss)
    assert handed and outlived == [] and all(ref() is None for ref in handed)
    assert all(out.grad is None for node in tape.nodes for out in node.outputs)
    assert any(var.grad.any() for var in pvars.values())


def test_a_packed_f32_step_returns_no_subnormal_cotangent(monkeypatch):
    """Distance logits leave softmax rows nearly one-hot, and float arithmetic on subnormal values
    is several times slower: no VJP of a default packed f32 step may return one."""
    corpus = [sc.generate_synthetic_scene(sc.GeneratorConfig(), seed=s) for s in range(8)]
    vocab = sc.build_kdisk_vocab(sc.collect_transitions(corpus), k_r=0.003, seed=0, cap=64)
    cfg = md.ModelConfig(vocab_sizes={c: vocab.size(c) for c in sc.AGENT_CLASSES})
    params = md.init_params(cfg)
    batch = md.pack_scenes([md.build_token_batch(s, vocab, cfg) for s in corpus[:2]])
    subnormal = []

    def watched(op, vjp):
        def run(node, g):
            grads = vjp(node, g)
            for mag in (np.abs(gi) for gi in grads if gi is not None):
                if np.any((mag > 0.0) & (mag < np.finfo(mag.dtype).tiny)):
                    subnormal.append(op)
            return grads
        return run

    for op, vjp in list(ad._VJPS.items()):
        monkeypatch.setitem(ad._VJPS, op, watched(op, vjp))
    pvars = params.as_vars()
    with ad.Tape() as tape:
        loss = md.loss(md.forward(batch, pvars, cfg), batch.targets, batch.target_valid)
    assert ad.data_of(loss).dtype == np.float32
    ad.backward(tape, loss)
    assert subnormal == []


def test_no_attention_forward_saves_a_subnormal_weight():
    """The softmax cuts weights below eps² to exact zeros before `exp`, so no mv_attention node of
    a default packed f32 training forward, or of an f64 forward over a crowded scene (32 agents,
    96 map tokens), saves a weight in (0, tiny) for `w @ vf` or the VJP to compute with."""
    corpus = [sc.generate_synthetic_scene(sc.GeneratorConfig(), seed=s) for s in range(8)]
    vocab = sc.build_kdisk_vocab(sc.collect_transitions(corpus), k_r=0.003, seed=0, cap=64)
    sizes = {c: vocab.size(c) for c in sc.AGENT_CLASSES}
    f32, f64 = md.ModelConfig(vocab_sizes=sizes), md.ModelConfig(vocab_sizes=sizes, dtype="f64")
    crowd = sc.generate_synthetic_scene(sc.GeneratorConfig(n_agents=32, n_lanes=6), seed=1)
    cases = ((f32, md.pack_scenes([md.build_token_batch(s, vocab, f32) for s in corpus[:2]])),
             (f64, md.build_token_batch(crowd, vocab, f64)))
    for cfg, batch in cases:
        with ad.Tape() as tape:
            md.loss(md.forward(batch, md.init_params(cfg).as_vars(), cfg), batch.targets, batch.target_valid)
        weights = [node.ctx["w"] for node in tape.nodes if node.op == "mv_attention"]
        assert len(weights) == 3 * cfg.blocks and {w.dtype for w in weights} == {np.dtype(cfg.np_dtype)}
        tiny = np.finfo(cfg.np_dtype).tiny
        assert [int(((w > 0.0) & (w < tiny)).sum()) for w in weights] == [0] * len(weights), cfg.dtype


@pytest.mark.parametrize("distance_awareness", [True, False])
def test_attention_flops_from_the_tape_match_flop_count(distance_awareness):
    """Each mv_attention node costs 2*|w|*(row width) for its logits and 2*|w|*(value width) for its values."""
    scene, vocab, cfg, params, batch = desk_setup(distance_awareness=distance_awareness)
    with ad.Tape() as tape:
        md.forward(batch, params.as_vars(), cfg)
    taped = sum(2 * node.ctx["w"].size * (node.ctx["qf"].shape[-1] + node.ctx["vf"].shape[-1])
                for node in tape.nodes if node.op == "mv_attention")
    terms = md.flop_count(cfg, batch.num_agents, batch.num_map, batch.num_steps, "geometric")["terms"]
    assert taped == terms["attn_scores"] + terms["attn_values"]
    no_adapter = dataclasses.replace(cfg, include_adapter=False)
    assert md.flop_count(no_adapter, batch.num_agents, batch.num_map, batch.num_steps, "geometric")["terms"][
        "adapter"] == 0.0


def taped_weight_terms(tape, pvars) -> dict:
    """`flop_count`'s weight terms counted on a recorded forward, by the products' parameter names.

    A matmul costs 2*|out|*k, an mv_linear 2*|out|*8*C_in; the decoder's heads
    reach their matmul through the per-class embedding.  The MLP adds GP_FLOPS
    per channel pair of each `bilinear8`, and the adapter its frame change, one
    [C, 8] @ [8, 8] product by each token's constant sandwich matrix.
    """
    name_of = {id(var): name for name, var in pvars.items()}
    produced_by = {id(out): node for node in tape.nodes for out in node.outputs}

    def weight_name(node) -> str:
        weight = node.inputs[1]
        source = produced_by.get(id(weight))
        if source is not None and source.op == "embedding":
            weight = source.inputs[0]
        return name_of.get(id(weight), "")

    def product_flops(*parts) -> int:
        return sum(2 * ad.data_of(node.output).size
                   * (node.ctx["da"].shape[-1] if node.op == "matmul" else 8 * node.ctx["wshape"][1])
                   for node in tape.nodes
                   if node.op in ("matmul", "mv_linear") and any(part in weight_name(node) for part in parts))

    sandwiches = [node for node in tape.nodes if node.op == "matmul" and not isinstance(node.inputs[1], ad.Var)]
    assert all(node.ctx["db"].shape[-2:] == (8, 8) for node in sandwiches)
    pairs = sum(ad.data_of(node.output).size // 8 for node in tape.nodes if node.op == "bilinear8")
    return {"embed": product_flops("embed/"), "proj_qkv": product_flops("_attn/s_", "_attn/mv_"),
            "mlp": product_flops("/mlp/") + md.GP_FLOPS * pairs,
            "adapter": product_flops("/adapter/") + sum(2 * ad.data_of(node.output).size * 8 for node in sandwiches),
            "decoder": product_flops("decoder/")}


@pytest.mark.parametrize("with_map", [True, False])
@pytest.mark.parametrize("variant", md.VARIANTS)
def test_weight_flops_from_the_tape_match_flop_count(variant, with_map):
    scene, vocab, cfg, _, _ = desk_setup()
    if not with_map:
        scene = dataclasses.replace(scene, map_nodes=())
    batch = md.build_token_batch(scene, vocab, cfg)
    pvars = md.init_params(cfg, variant).as_vars()
    with ad.Tape() as tape:
        if variant == "geometric":
            md.forward(batch, pvars, cfg)
        else:
            md.baseline_forward(batch, pvars, cfg, variant)
    terms = md.flop_count(cfg, batch.num_agents, batch.num_map, batch.num_steps, variant)["terms"]
    taped = taped_weight_terms(tape, pvars)
    assert taped == {key: terms[key] for key in taped}
    assert (taped["adapter"] > 0) == (variant == "geometric")


def test_rpe_pair_flops_from_the_tape_match_flop_count():
    """The rpe baseline's per-pair cost, counted on recorded ops: its relative-pose MLP
    matmuls (2*rows*k*n) plus the key and value offset products (one flop per element of
    each mul's output and of each reduce_sum's input)."""
    scene, vocab, cfg, _, batch = desk_setup()
    p = md.init_params(cfg, "rpe").as_vars()
    rpe_weights = {id(v) for n, v in p.items() if "/rpe/w" in n}
    with ad.Tape() as tape:
        md.baseline_forward(batch, p, cfg, "rpe")
    produced_by = {id(out): node for node in tape.nodes for out in node.outputs}
    mlp = sum(2 * ad.data_of(node.output).size * node.ctx["da"].shape[-1] for node in tape.nodes
              if node.op == "matmul" and id(node.inputs[1]) in rpe_weights)
    # the offsets are split off the MLP output, so each offset product reads an output of a split
    offset_muls = [node for node in tape.nodes if node.op == "mul"
                   and any(getattr(produced_by.get(id(x)), "op", None) == "split" for x in node.inputs)]
    offset_sums = [node for node in tape.nodes if node.op == "reduce_sum"
                   and produced_by.get(id(node.inputs[0])) in offset_muls]
    offsets = sum(ad.data_of(node.output).size for node in offset_muls) + sum(
        math.prod(node.ctx["shape"]) for node in offset_sums)
    assert len(offset_muls) == len(offset_sums) == 2 * 3 * cfg.blocks
    terms = md.flop_count(cfg, batch.num_agents, batch.num_map, batch.num_steps, "rpe")["terms"]
    pairs = terms["pos_pairs_agent_map"] + terms["pos_pairs_agent_agent"] + terms["pos_pairs_time"]
    assert mlp + offsets == pairs


def test_rpe_zero_mlp_reduces_to_vanilla_attention():
    rng = np.random.default_rng(10)
    d = 6
    q = rng.normal(size=(4, d))
    k = rng.normal(size=(5, d))
    v = rng.normal(size=(5, d))
    zero = np.zeros((4, 5, d))
    out_rpe = np.asarray(md.scalar_attention(q, k, v, offsets=(zero, zero)))
    out_vanilla = np.asarray(md.scalar_attention(q, k, v))
    assert np.allclose(out_rpe, out_vanilla, atol=1e-14)


def test_rpe_baseline_invariant_vanilla_not():
    scene, vocab, cfg, _, batch = desk_setup(seed=12)
    g = pga.Pose2(100.0, 0.0, math.pi / 2)
    moved = md.build_token_batch(sc.transform_scene(scene, g), vocab, cfg)

    rpe_params = md.init_params(cfg, "rpe")
    base = np.asarray(md.baseline_forward(batch, rpe_params, cfg, "rpe"))
    out = np.asarray(md.baseline_forward(moved, rpe_params, cfg, "rpe"))
    assert float(np.max(np.abs(out - base))) <= 1e-10

    van_params = md.init_params(cfg, "vanilla")
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
        md.flop_count(cfg, 1, 1, 0, "rpe")
    with pytest.raises(ValueError):
        md.flop_count(cfg, 1, -1, 1, "rpe")
    assert md.flop_count(cfg, 1, 0, 1, "rpe")["terms"]["pos_pairs_agent_map"] == 0.0
    with pytest.raises(ValueError):
        md.flop_count(cfg, 1, 1, 1, "blah")


# sha256 of json.dumps({terms, positional, total}, sort_keys=True) per (variant, blocks,
# include_adapter, distance_awareness, (A, M, T)), recorded from the hand-written per-weight
# formulas that the count over `param_layout` replaced
FLOP_COUNT_DIGESTS = {
    ("geometric", 0, True, True, (3, 32, 10)): "3f64366ad2b63af923ff566d132c1a0ecf3aa262d33ab0a3c6632db644ed12d6",
    ("geometric", 0, True, True, (16, 24, 20)): "16e3c467687797c759ffd8280b2531fb92085c2a62bf0d76b255fe4192c3190a",
    ("geometric", 0, True, False, (3, 32, 10)): "3f64366ad2b63af923ff566d132c1a0ecf3aa262d33ab0a3c6632db644ed12d6",
    ("geometric", 0, True, False, (16, 24, 20)): "16e3c467687797c759ffd8280b2531fb92085c2a62bf0d76b255fe4192c3190a",
    ("geometric", 0, False, True, (3, 32, 10)): "3f64366ad2b63af923ff566d132c1a0ecf3aa262d33ab0a3c6632db644ed12d6",
    ("geometric", 0, False, True, (16, 24, 20)): "16e3c467687797c759ffd8280b2531fb92085c2a62bf0d76b255fe4192c3190a",
    ("geometric", 0, False, False, (3, 32, 10)): "3f64366ad2b63af923ff566d132c1a0ecf3aa262d33ab0a3c6632db644ed12d6",
    ("geometric", 0, False, False, (16, 24, 20)): "16e3c467687797c759ffd8280b2531fb92085c2a62bf0d76b255fe4192c3190a",
    ("geometric", 2, True, True, (3, 32, 10)): "f3c6014627e1bcec9a8a2ba970542c95f0c570e8be38c04d6f360ee5f988e80e",
    ("geometric", 2, True, True, (16, 24, 20)): "5f68fe2e26de779ceae2ac93eddbf59be9e59ab6181f122734a4848092989bc9",
    ("geometric", 2, True, False, (3, 32, 10)): "b43e4a4732dc53ae547bd9bac46c80299def88e4cbc9605237a5a1b7d7ce0e33",
    ("geometric", 2, True, False, (16, 24, 20)): "489a7366620e0a09eb7a1bf223c1c870d1cad7ba532737cb1cf3d9f491cf23cf",
    ("geometric", 2, False, True, (3, 32, 10)): "5de40bad74a99c8a5441a3fd8554a64390aac7d03e1542f17db5c23ec0e99f7a",
    ("geometric", 2, False, True, (16, 24, 20)): "d19764fedeef2ee24212825d4de0ce7f5ff06b07b8968b7752145923c12a56d5",
    ("geometric", 2, False, False, (3, 32, 10)): "e7d51de91533bc9737515a02bec1dbddd2bbb22d490c1e2aa85ebbc7d6ee25cc",
    ("geometric", 2, False, False, (16, 24, 20)): "f0f6f5bda8126da5ec49bd17792d2672441fbdd4913712d41564bd4bfe0b423a",
    ("rpe", 0, True, True, (3, 32, 10)): "7093237402890d72c0357fc684c0e16039e687cd478104f9ffa4a16faa23755d",
    ("rpe", 0, True, True, (16, 24, 20)): "c66a8c2fcf645d96afdceb2194be3d3538bbe08a2d6e1e84dfad2cbbbf5892d8",
    ("rpe", 0, True, False, (3, 32, 10)): "7093237402890d72c0357fc684c0e16039e687cd478104f9ffa4a16faa23755d",
    ("rpe", 0, True, False, (16, 24, 20)): "c66a8c2fcf645d96afdceb2194be3d3538bbe08a2d6e1e84dfad2cbbbf5892d8",
    ("rpe", 0, False, True, (3, 32, 10)): "7093237402890d72c0357fc684c0e16039e687cd478104f9ffa4a16faa23755d",
    ("rpe", 0, False, True, (16, 24, 20)): "c66a8c2fcf645d96afdceb2194be3d3538bbe08a2d6e1e84dfad2cbbbf5892d8",
    ("rpe", 0, False, False, (3, 32, 10)): "7093237402890d72c0357fc684c0e16039e687cd478104f9ffa4a16faa23755d",
    ("rpe", 0, False, False, (16, 24, 20)): "c66a8c2fcf645d96afdceb2194be3d3538bbe08a2d6e1e84dfad2cbbbf5892d8",
    ("rpe", 2, True, True, (3, 32, 10)): "850c9b89e36471791095fe764e8ac3eb975d31015955130beb241bd9fb9cf775",
    ("rpe", 2, True, True, (16, 24, 20)): "359260bafea60e255ddcf7b20c8d29d957c55a4dd4dba4c73e2b9ab3e489cbc6",
    ("rpe", 2, True, False, (3, 32, 10)): "850c9b89e36471791095fe764e8ac3eb975d31015955130beb241bd9fb9cf775",
    ("rpe", 2, True, False, (16, 24, 20)): "359260bafea60e255ddcf7b20c8d29d957c55a4dd4dba4c73e2b9ab3e489cbc6",
    ("rpe", 2, False, True, (3, 32, 10)): "850c9b89e36471791095fe764e8ac3eb975d31015955130beb241bd9fb9cf775",
    ("rpe", 2, False, True, (16, 24, 20)): "359260bafea60e255ddcf7b20c8d29d957c55a4dd4dba4c73e2b9ab3e489cbc6",
    ("rpe", 2, False, False, (3, 32, 10)): "850c9b89e36471791095fe764e8ac3eb975d31015955130beb241bd9fb9cf775",
    ("rpe", 2, False, False, (16, 24, 20)): "359260bafea60e255ddcf7b20c8d29d957c55a4dd4dba4c73e2b9ab3e489cbc6",
    ("vanilla", 0, True, True, (3, 32, 10)): "049e98cced6643e21a11c9d6da98730b5e5f4a47ea009f631ffb34c9a844c16d",
    ("vanilla", 0, True, True, (16, 24, 20)): "a63443f2e31f91e6e9b71fa876eade0741e7e1fd7fec88a774d7be1111503d71",
    ("vanilla", 0, True, False, (3, 32, 10)): "049e98cced6643e21a11c9d6da98730b5e5f4a47ea009f631ffb34c9a844c16d",
    ("vanilla", 0, True, False, (16, 24, 20)): "a63443f2e31f91e6e9b71fa876eade0741e7e1fd7fec88a774d7be1111503d71",
    ("vanilla", 0, False, True, (3, 32, 10)): "049e98cced6643e21a11c9d6da98730b5e5f4a47ea009f631ffb34c9a844c16d",
    ("vanilla", 0, False, True, (16, 24, 20)): "a63443f2e31f91e6e9b71fa876eade0741e7e1fd7fec88a774d7be1111503d71",
    ("vanilla", 0, False, False, (3, 32, 10)): "049e98cced6643e21a11c9d6da98730b5e5f4a47ea009f631ffb34c9a844c16d",
    ("vanilla", 0, False, False, (16, 24, 20)): "a63443f2e31f91e6e9b71fa876eade0741e7e1fd7fec88a774d7be1111503d71",
    ("vanilla", 2, True, True, (3, 32, 10)): "c3515254384788e5cd65c4688108f7273a78603132a47aa249f80ffe0bd48c33",
    ("vanilla", 2, True, True, (16, 24, 20)): "4f7d91a3319eca39a27b167d9f069e6d97676ff3ecb8cfec6b25f923c4916eb0",
    ("vanilla", 2, True, False, (3, 32, 10)): "c3515254384788e5cd65c4688108f7273a78603132a47aa249f80ffe0bd48c33",
    ("vanilla", 2, True, False, (16, 24, 20)): "4f7d91a3319eca39a27b167d9f069e6d97676ff3ecb8cfec6b25f923c4916eb0",
    ("vanilla", 2, False, True, (3, 32, 10)): "c3515254384788e5cd65c4688108f7273a78603132a47aa249f80ffe0bd48c33",
    ("vanilla", 2, False, True, (16, 24, 20)): "4f7d91a3319eca39a27b167d9f069e6d97676ff3ecb8cfec6b25f923c4916eb0",
    ("vanilla", 2, False, False, (3, 32, 10)): "c3515254384788e5cd65c4688108f7273a78603132a47aa249f80ffe0bd48c33",
    ("vanilla", 2, False, False, (16, 24, 20)): "4f7d91a3319eca39a27b167d9f069e6d97676ff3ecb8cfec6b25f923c4916eb0",
}


@pytest.mark.parametrize("case", FLOP_COUNT_DIGESTS,
                         ids=lambda c: "{}-blocks{}-adapter{:d}-da{:d}-{}x{}x{}".format(*c[:4], *c[4]))
def test_flop_count_known_answers(case):
    variant, blocks, adapter, da, shape = case
    cfg = md.ModelConfig(blocks=blocks, include_adapter=adapter, distance_awareness=da)
    count = md.flop_count(cfg, *shape, variant)
    doc = json.dumps({key: count[key] for key in ("terms", "positional", "total")}, sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == FLOP_COUNT_DIGESTS[case]


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


def _per_array_checkpoint(params, cfg, vocab, meta) -> bytes:
    """A checkpoint by the formula used before parameters shared one buffer: one `tobytes` per array."""
    items = [(name, arr, "<f4" if arr.dtype == np.float32 else "<f8") for name, arr in params.items()]
    manifest = {
        "format": "eqtraffic-checkpoint-v1",
        "config": dataclasses.asdict(cfg),
        "vocab_hash": md.vocab_hash(vocab),
        "params": [{"name": name, "shape": list(arr.shape), "dtype": kind} for name, arr, kind in items],
        "meta": meta,
    }
    values = b"".join(np.ascontiguousarray(arr, dtype=kind).tobytes() for _, arr, kind in items)
    return json.dumps(manifest).encode("utf-8") + b"\n" + values


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_a_per_array_checkpoint_loads_into_one_buffer_and_resaves_to_the_same_bytes(tmp_path, dtype):
    scene, vocab, cfg, params, batch = desk_setup(seed=15, dtype=dtype)
    params.flat[...] = np.random.default_rng(15).normal(0.0, 0.1, params.flat.size)
    path = tmp_path / "model.ckpt"
    # the manifest's order is the buffer's: a store in another order loads in that order
    reordered = ad.ParamStore([(name, arr.shape) for name, arr in reversed(params.items())],
                              np.concatenate([arr.ravel() for arr in reversed(params.values())]))
    for store in (params, reordered):
        old = _per_array_checkpoint(store, cfg, vocab, {"seed": 15})
        assert md.checkpoint_bytes(store, cfg, vocab, meta={"seed": 15}) == old
        path.write_bytes(old)
        loaded, cfg2, manifest = md.load_checkpoint(path)
        assert list(loaded) == list(store) and cfg2 == cfg
        assert loaded.flat.dtype == cfg.np_dtype and loaded.flat.flags.writeable
        assert all(arr.base is loaded.flat for arr in loaded.values())
        assert md.checkpoint_bytes(loaded, cfg2, vocab, meta=manifest["meta"]) == old
        assert np.array_equal(md.forward(batch, loaded, cfg), md.forward(batch, params, cfg))


def test_truncated_checkpoint_fails_clearly(tmp_path):
    _, vocab, cfg, params, _ = desk_setup(seed=14, dtype="f32")
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(path, params, cfg, vocab)
    blob = path.read_bytes()
    header = blob.index(b"\n") + 1
    first = list(params)[0]
    nbytes = params[first].nbytes

    path.write_bytes(blob[:header + nbytes // 2])
    with pytest.raises(ValueError, match=f"'{first}' needs {nbytes} bytes, {nbytes // 2} available"):
        md.load_checkpoint(path)
    path.write_bytes(blob[:header // 2])
    with pytest.raises(ValueError, match="truncated inside its manifest line"):
        md.load_checkpoint(path)


def test_load_checkpoint_makes_no_random_draw(tmp_path, monkeypatch):
    """The loader checks names and shapes against `param_layout`, which draws nothing."""
    _, vocab, cfg, params, _ = desk_setup(seed=14, dtype="f32")
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(path, params, cfg, vocab)

    def no_draw(*args, **kwargs):
        raise AssertionError("load_checkpoint made a random generator")
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    loaded, _, _ = md.load_checkpoint(path)
    assert list(loaded) == list(params) and np.array_equal(loaded.flat, params.flat)


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
    names = list(md.init_params(cfg))
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

    err = grad_check(fn, arrays, step=1e-6, max_coords=8, seed=0, min_grad=1e-4)
    assert err <= 1e-5


def test_invariant_loss_gradients_transform_contravariantly():
    # the loss is invariant, so differentiating through the input transform
    # must reproduce the untransformed gradient: d/dx loss(u[x]) = d/dx loss(x)
    batch, cfg, names, params = tiny_grad_setup()
    from eqtraffic.batch import sandwich_array
    from helpers import rand_pose

    mv_in = sc.encode_pose_array(batch.raw_poses)[..., None, :]
    pdict = {n: params[n] for n in names}

    def grad_of_transformed(g):
        x = ad.Var(mv_in)
        with ad.Tape() as tape:
            if g is None:
                moved, frames, patched = x, pose_frame_motors(batch.raw_poses), batch
            else:
                moved = sandwich_array(motor_from_pose(g), x)
                frames = np.zeros(batch.raw_poses.shape[:-1] + (4,))
                for a in range(batch.num_agents):
                    for t in range(batch.num_steps):
                        p = pga.Pose2(*batch.raw_poses[a, t])
                        frames[a, t] = reverse(motor_from_pose(pose_compose(g, p)))
                map_poses = [pose_compose(g, pga.Pose2(*row)) for row in batch.map_poses]
                patched = dataclasses.replace(batch, map_poses=np.array(
                    [(q.x, q.y, q.theta) for q in map_poses]).reshape(-1, 3))
            lv = _forward_loss_with_tracked_mv(moved, frames, patched, pdict, cfg)
        ad.backward(tape, lv)
        return x.grad

    base = grad_of_transformed(None)
    rng = np.random.default_rng(3)
    for _ in range(3):
        moved = grad_of_transformed(rand_pose(rng))
        scale = max(1.0, float(np.max(np.abs(base))))
        assert float(np.max(np.abs(moved - base))) <= 1e-8 * scale


def _self_attention(mv, s, p, name, cfg, mask):
    normed = md._norms(mv, s)
    return md._attend(mv, s, normed, md._key_rows(normed, p, name, cfg), p, name, cfg, mask)


def _forward_loss_with_tracked_mv(mv_tracked, frames, batch, p, cfg):
    """forward() with the agent multivector input taken from a tracked Var, and the adapter's
    frame motors from `frames`."""
    dt = cfg.np_dtype
    mv = md.eq_linear(mv_tracked, p, "embed/agent_mv")
    s = md.mlp2(batch.scalars_raw.astype(dt), p, "embed/agent_in")
    s = ad.add(s, ad.embedding(p["embed/prev_action"], batch.prev_flat))
    map_rows = md._map_rows(batch, p, cfg, None)
    map_mask, agent_mask = md._step_masks(batch, cfg)
    sandwich = sandwich_matrix(frames)
    time_mask = md._time_mask(batch, batch.valid)
    for i in range(cfg.blocks):
        mv_t, s_t = md._swap_at(mv, 0), md._swap_at(s, 0)
        mv_t, s_t = md._attend(mv_t, s_t, md._norms(mv_t, s_t), map_rows[i], p, f"block{i}/map_attn", cfg,
                               map_mask)
        mv_t, s_t = _self_attention(mv_t, s_t, p, f"block{i}/agent_attn", cfg, agent_mask)
        mv, s = md._swap_at(mv_t, 0), md._swap_at(s_t, 0)
        mv, s = _self_attention(mv, s, p, f"block{i}/time_attn", cfg, time_mask)
        mv, s = md.eq_mlp_block(mv, s, p, f"block{i}/mlp")
        if cfg.include_adapter:
            s = md.invariant_adapter(mv, s, sandwich, p, f"block{i}/adapter")
    return md.loss(md._decode(s, p, batch.class_idx, cfg), batch.targets, batch.target_valid)


def test_small_gradients_match_richardson():
    # coordinates below the FD floor at step 1e-6 are still verified, using a
    # Richardson-extrapolated central difference at a larger step
    batch, cfg, names, params = tiny_grad_setup()
    pvars = {n: ad.Var(params[n].copy()) for n in names}
    with ad.Tape() as tape:
        lv = md.loss(md.forward(batch, pvars, cfg), batch.targets, batch.target_valid)
    ad.backward(tape, lv)

    def loss_at(pdict):
        with ad.Tape():
            return float(ad.data_of(md.loss(
                md.forward(batch, {k: ad.Var(v) for k, v in pdict.items()}, cfg),
                batch.targets, batch.target_valid)))

    checked = 0
    for n in names:
        if "attn" not in n:
            continue
        ga = pvars[n].grad
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
