"""Scene model: encodings, k-disk vocabulary, dynamics, generator, serialization."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from eqtraffic import model as md
from eqtraffic import pga, scene as sc
from helpers import (
    compose_pose_oracle,
    decode_point,
    gappy_scene,
    line_residual,
    motor_from_pose,
    pose_compose,
    pose_inverse,
    rand_pose,
    sandwich,
)


def small_scene(seed=0, **overrides):
    cfg = sc.GeneratorConfig(**overrides) if overrides else sc.GeneratorConfig()
    return sc.generate_synthetic_scene(cfg, seed)


def token_batch(scene):
    """`build_token_batch` with one zero action per class: the scene's features and poses."""
    vocab = sc.ActionVocab({c: np.zeros((1, 3)) for c in sc.AGENT_CLASSES}, k_r=0.1, w_theta=1.0, seed=0)
    return md.build_token_batch(scene, vocab, md.ModelConfig(vocab_sizes={c: 1 for c in sc.AGENT_CLASSES}))


def agent_deltas(scene):
    """Local increments between consecutive steps [A, T - 1, 3] of a scene without gaps."""
    states = sc.agent_states(scene, scene.horizon)
    return pga.pose_deltas(states.poses[:, :-1], states.poses[:, 1:])


# ---------------------------------------------------------------------------
# token pose encoding
# ---------------------------------------------------------------------------

def encode_pose(p: pga.Pose2) -> np.ndarray:
    return sc.encode_pose_array([p.x, p.y, p.theta])


def test_encode_token_pose_origin():
    mv = encode_pose(pga.Pose2(0.0, 0.0, 0.0))
    want = np.zeros(8)
    want[3] = 1.0  # e2, the x-axis line
    want[6] = 1.0  # e12, the origin point
    assert np.allclose(mv, want)


def test_encoded_line_passes_through_pose_point():
    rng = np.random.default_rng(1)
    for _ in range(100):
        p = rand_pose(rng)
        mv = encode_pose(p)
        assert abs(line_residual(mv, p.x, p.y)) <= 1e-12 * max(1.0, abs(p.x) + abs(p.y))
        # bivector part decodes back to the position
        x, y = decode_point(mv)
        assert math.isclose(x, p.x, abs_tol=1e-12) and math.isclose(y, p.y, abs_tol=1e-12)
        # the line direction matches the heading
        a, b = mv[2], mv[3]
        assert math.isclose(a * math.cos(p.theta) + b * math.sin(p.theta), 0.0, abs_tol=1e-12)


def test_encode_commutes_with_motors():
    rng = np.random.default_rng(2)
    for _ in range(200):
        g, p = rand_pose(rng), rand_pose(rng)
        encoded_then_moved = sandwich(motor_from_pose(g), encode_pose(p))
        moved_then_encoded = encode_pose(compose_pose_oracle(g, p))
        scale = max(1.0, np.max(np.abs(moved_then_encoded)))
        assert np.max(np.abs(encoded_then_moved - moved_then_encoded)) <= 1e-12 * scale


def test_encode_pose_array_matches_scalar_path():
    rng = np.random.default_rng(3)
    poses = [rand_pose(rng) for _ in range(10)]
    arr = np.array([[p.x, p.y, p.theta] for p in poses])
    batch = sc.encode_pose_array(arr)
    for i, p in enumerate(poses):
        assert np.array_equal(batch[i], encode_pose(p))


# ---------------------------------------------------------------------------
# scalar features
# ---------------------------------------------------------------------------

def test_agent_scalar_features():
    agent = sc.Agent(
        id=1, agent_class="vehicle", length=1.0, width=1.0,
        states=(sc.AgentState(0, pga.Pose2(5.0, 5.0, 1.0), 0.0),),
    )
    scene = sc.Scene(agents=(agent,), map_nodes=(), ego_id=1, horizon=4, dt=0.1)
    scalars = token_batch(scene).scalars_raw[0]
    assert np.array_equal(scalars[0], [0, 1, 1, 1, 0, 0])
    assert not scalars[3].any()  # no state at t=3: the row carries no features


def test_map_scalar_features_pose_independent():
    base = dict(length=5.0, width=3.5, curvature=0.01, speed_limit=8.33,
                boundary_left="dashed", boundary_right="solid")
    n1 = sc.MapNode(pose=pga.Pose2(0, 0, 0), **base)
    n2 = sc.MapNode(pose=pga.Pose2(100, -3, 2.0), **base)
    assert np.array_equal(sc.encode_map_scalars(n1), sc.encode_map_scalars(n2))
    assert sc.encode_map_scalars(n1).shape == (sc.MAP_FEATURE_WIDTH,)


def test_feature_width_constant_across_classes():
    widths = set()
    for cls in sc.AGENT_CLASSES:
        agent = sc.Agent(
            id=0, agent_class=cls, length=1.0, width=0.5,
            states=(sc.AgentState(0, pga.Pose2(0, 0, 0), 2.0),),
        )
        scene = sc.Scene(agents=(agent,), map_nodes=(), ego_id=0, horizon=1, dt=0.1)
        widths.add(token_batch(scene).scalars_raw.shape[-1])
    assert widths == {sc.AGENT_FEATURE_WIDTH}


# ---------------------------------------------------------------------------
# k-disk vocabulary
# ---------------------------------------------------------------------------

def uniform_transitions(rng, n, scale=1.0):
    return {
        cls: np.column_stack(
            [rng.uniform(-scale, scale, n), rng.uniform(-scale, scale, n), rng.uniform(-0.3, 0.3, n)]
        )
        for cls in sc.AGENT_CLASSES
    }


def test_kdisk_identical_corpus_collapses_to_one():
    same = {cls: np.tile([0.5, 0.0, 0.1], (50, 1)) for cls in sc.AGENT_CLASSES}
    vocab = sc.build_kdisk_vocab(same, k_r=0.2, seed=0)
    assert all(vocab.size(c) == 1 for c in sc.AGENT_CLASSES)


def test_kdisk_two_distant_clusters():
    rng = np.random.default_rng(4)
    cluster_a = np.column_stack([rng.uniform(0, 0.3, 40), rng.uniform(0, 0.3, 40), np.zeros(40)])
    cluster_b = cluster_a + np.array([10.0, 0.0, 0.0])
    corpus = {cls: np.concatenate([cluster_a, cluster_b]) for cls in sc.AGENT_CLASSES}
    vocab = sc.build_kdisk_vocab(corpus, k_r=1.0, seed=1)
    assert all(vocab.size(c) == 2 for c in sc.AGENT_CLASSES)


def test_kdisk_packing_and_covering():
    rng = np.random.default_rng(5)
    corpus = uniform_transitions(rng, 500)
    k_r = 0.25
    vocab = sc.build_kdisk_vocab(corpus, k_r=k_r, seed=2)
    for cls in sc.AGENT_CLASSES:
        entries = vocab.deltas[cls]
        # packing: pairwise distances strictly exceed k_r
        for i in range(entries.shape[0]):
            d = sc.action_distance(entries, entries[i], vocab.w_theta)
            d[i] = np.inf
            assert np.min(d) > k_r
        # covering: every corpus transition within k_r of some entry
        for row in corpus[cls]:
            assert np.min(sc.action_distance(entries, row, vocab.w_theta)) <= k_r


def test_kdisk_cap_and_empty_corpus():
    rng = np.random.default_rng(6)
    corpus = uniform_transitions(rng, 300)
    vocab = sc.build_kdisk_vocab(corpus, k_r=0.01, seed=3, cap=16)
    assert all(vocab.size(c) == 16 for c in sc.AGENT_CLASSES)
    with pytest.raises(ValueError):
        sc.build_kdisk_vocab({cls: np.zeros((0, 3)) for cls in sc.AGENT_CLASSES}, k_r=0.1, seed=0)


def test_tokenize_roundtrip_and_ties():
    rng = np.random.default_rng(7)
    corpus = uniform_transitions(rng, 200)
    vocab = sc.build_kdisk_vocab(corpus, k_r=0.3, seed=4)
    for cls in sc.AGENT_CLASSES:
        entries = vocab.deltas[cls]
        assert np.array_equal(sc.nearest_action(entries, entries, vocab.w_theta), np.arange(vocab.size(cls)))
    # equidistant candidates resolve to the lowest index
    tie = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    assert sc.nearest_action(tie, [[0.0, 0.5, 0.0]], 1.0)[0] == 0
    # in a zero-padded table, entries past a row's size never win
    padded = np.stack([tie, tie])
    assert sc.nearest_action(padded, [[-1.0, 0.0, 0.0]] * 2, 1.0, sizes=[2, 1]).tolist() == [1, 0]


def test_quantization_error_bounded_by_k_r():
    rng = np.random.default_rng(8)
    corpus = uniform_transitions(rng, 400)
    k_r = 0.2
    vocab = sc.build_kdisk_vocab(corpus, k_r=k_r, seed=5)
    for cls in sc.AGENT_CLASSES:
        ids = sc.nearest_action(vocab.deltas[cls], corpus[cls], vocab.w_theta)
        reconstructed = vocab.deltas[cls][ids]
        errs = sc.action_distance(reconstructed, corpus[cls], vocab.w_theta)
        assert np.max(errs) <= k_r


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def test_dynamics_identity_frame():
    pose, speed = sc.dynamics_step([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], dt=0.1)
    assert tuple(pose) == (1.0, 0.0, 0.0)
    assert speed == pytest.approx(10.0)


def test_dynamics_rotated_frame():
    pose, _ = sc.dynamics_step([0.0, 0.0, math.pi / 2], [1.0, 0.0, 0.0], dt=0.1)
    assert pose[0] == pytest.approx(0.0, abs=1e-12)
    assert pose[1] == pytest.approx(1.0, abs=1e-12)
    assert pose[2] == pytest.approx(math.pi / 2)


def test_dynamics_equivariance():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        g, a = rand_pose(rng), rand_pose(rng)
        mu = (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
        moved = compose_pose_oracle(g, a)
        moved_then_stepped, _ = sc.dynamics_step([moved.x, moved.y, moved.theta], mu, dt=0.1)
        stepped, _ = sc.dynamics_step([a.x, a.y, a.theta], mu, dt=0.1)
        stepped_then_moved = compose_pose_oracle(g, pga.Pose2(*stepped))
        assert abs(moved_then_stepped[0] - stepped_then_moved.x) <= 1e-12 * max(1, abs(stepped_then_moved.x))
        assert abs(moved_then_stepped[1] - stepped_then_moved.y) <= 1e-12 * max(1, abs(stepped_then_moved.y))
        dth = math.atan2(
            math.sin(moved_then_stepped[2] - stepped_then_moved.theta),
            math.cos(moved_then_stepped[2] - stepped_then_moved.theta),
        )
        assert abs(dth) <= 1e-12


def test_dynamics_rejects_bad_dt():
    with pytest.raises(ValueError):
        sc.dynamics_step([0.0, 0.0, 0.0], [1, 0, 0], dt=0.0)


def test_dynamics_matches_pose_compose():
    """The array step's poses equal the scalar group law bit for bit, with increment angles to be wrapped;
    its speeds come from numpy's hypot, which at times rounds the last bit unlike math.hypot."""
    rng = np.random.default_rng(10)
    poses = np.array([[p.x, p.y, p.theta] for p in (rand_pose(rng, trans=1e4) for _ in range(600))])
    deltas = rng.uniform([-2.0, -2.0, -7.0], [2.0, 2.0, 7.0], size=(600, 3))
    stepped, speeds = sc.dynamics_step(poses.reshape(20, 30, 3), deltas.reshape(20, 30, 3), dt=0.1)
    for pose, delta, got, speed in zip(poses, deltas, stepped.reshape(-1, 3), speeds.ravel()):
        want = pose_compose(pga.Pose2(*pose), pga.Pose2(*delta))
        assert tuple(got) == (want.x, want.y, want.theta)
        assert math.isclose(speed, math.hypot(delta[0], delta[1]) / 0.1, rel_tol=1e-15)


# ---------------------------------------------------------------------------
# recentering
# ---------------------------------------------------------------------------

def test_recenter_scene():
    """Token batches hold poses relative to the scene's anchor, its first map node."""
    scene = small_scene(seed=10)
    batch = token_batch(scene)
    anchor = md.scene_anchor(scene)
    assert anchor == (scene.map_nodes[0].pose.x, scene.map_nodes[0].pose.y)
    assert np.array_equal(batch.map_poses[0, :2], [0.0, 0.0])
    restored = batch.raw_poses + [*anchor, 0.0]
    assert np.allclose(restored, sc.agent_states(scene, scene.horizon).poses, rtol=0.0, atol=1e-9)


def test_recenter_already_centered_is_identity():
    scene = small_scene(seed=11)
    ax, ay = md.scene_anchor(scene)
    centered = sc.transform_scene(scene, pga.Pose2(-ax, -ay, 0.0))
    assert md.scene_anchor(centered) == (0.0, 0.0)
    assert np.max(np.abs(token_batch(centered).raw_poses - token_batch(scene).raw_poses)) <= 1e-12


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def test_generator_deterministic():
    s1 = sc.scene_to_json(small_scene(seed=12))
    s2 = sc.scene_to_json(small_scene(seed=12))
    assert s1 == s2
    s3 = sc.scene_to_json(small_scene(seed=13))
    assert s1 != s3


def test_generator_deltas_within_bounds():
    scene = small_scene(seed=14)
    for deltas in agent_deltas(scene):
        assert deltas.shape[0] == scene.horizon - 1
        # forward motion bounded by max speed * dt plus jitter slack
        assert np.all(np.abs(deltas[:, 0]) <= 11.0 * scene.dt * 1.5 + 0.1)
        assert np.all(np.abs(deltas[:, 1]) <= 1.0)
        assert np.all(np.abs(deltas[:, 2]) <= 0.3)


def test_generator_zero_noise_on_centerline():
    cfg = sc.GeneratorConfig(speed_noise=0.0, lateral_spread=0.0, heading_noise=0.0,
                             n_agents=2, n_lanes=1, straight_fraction=0.0)
    scene = sc.generate_synthetic_scene(cfg, seed=15)
    node = scene.map_nodes[0]
    curvature = node.curvature
    for deltas in agent_deltas(scene):
        # constant speed, constant curvature: all deltas identical
        assert np.max(np.std(deltas, axis=0)) <= 1e-9
        # heading change over arc length recovers the lane curvature exactly;
        # arc length comes from inverting the chord of a circular step
        dth = deltas[0, 2]
        chord = math.hypot(deltas[0, 0], deltas[0, 1])
        arc = 2.0 / curvature * math.asin(curvature * chord / 2.0)
        assert math.isclose(dth / arc, curvature, rel_tol=1e-9)


# known answers: sha256 of the scene_to_json texts of seeds 0-3, and of those scenes moved by each
# of KNOWN_TRANSFORMS, which the generator and transform_scene reproduce bit for bit
KNOWN_SCENES = {
    "default": ("5a43f3942e280b477f14f1f61af4b21eebaa713cc67547362239f09f10c8a3f8",
                "9f1fae4bf629a62efbca5709ace1540565672627acf52aa5bf44bd7cda72896c"),
    "crowd": ("b85a1a69cd7b262faaf99aa39001daf1524f6a75a53cf12221383e339c4834fd",
                "90280ca2ca91665661dfa83aec7c5cb83def67141b0f738f3ed814e23aa332ae"),
    "straight": ("9b692da99f18f2bc4f9bca2f85786e51643211c82ee1fce56b9baf7badad8a1e",
                "73488d1ab30f0daec969f414ac7bb0dab58ddb74a3f81f374f7bdedf8551ba6a"),
    "curved": ("b4ab41bfd6cba6c638b5ca6ccf41400d2e95fec779c8ee6eed00f79ef7072952",
                "68235e9523ea9d07c90b3c6418a04b62cd428144e81eb81eb1feeb73f51bc9ba"),
    "noiseless": ("0b5ced6cf6d3fe8b912de8cb52c725b35d4317e0181d704e1db900df57faa0ec",
                "80853db7d1b03b5c1fb4de6c7c5af64ef66eaf21da8093797ddf4d8672443ac1"),
    "horizon2": ("3306b6139de1c80a89a25e148fd70290cceaed590c88e1feb00a6f2bc10fc9f7",
                "f772f75c5758fd105eb6c01105853e2729a443a4fdb97994456eb1ab8fe3b95f"),
}
KNOWN_CONFIGS = {
    "default": {},
    "crowd": {"n_agents": 32, "n_lanes": 6},
    "straight": {"straight_fraction": 1.0},
    "curved": {"straight_fraction": 0.0},
    "noiseless": {"speed_noise": 0.0, "lateral_spread": 0.0, "heading_noise": 0.0},
    "horizon2": {"horizon": 2},
}
KNOWN_TRANSFORMS = (pga.Pose2(100.0, 0.0, math.pi / 2), pga.Pose2(-37.5, 212.25, 2.9),
                    pga.Pose2(1e5, -3e4, -math.pi))


@pytest.mark.parametrize("name", sorted(KNOWN_CONFIGS))
def test_generated_and_transformed_scenes_match_known_digests(name):
    scenes = [sc.generate_synthetic_scene(sc.GeneratorConfig(**KNOWN_CONFIGS[name]), seed) for seed in range(4)]
    moved = [sc.transform_scene(s, g) for s in scenes for g in KNOWN_TRANSFORMS]
    digests = tuple(hashlib.sha256("".join(map(sc.scene_to_json, group)).encode()).hexdigest()
                    for group in (scenes, moved))
    assert digests == KNOWN_SCENES[name]


def test_generator_validates_config():
    with pytest.raises(ValueError):
        sc.generate_synthetic_scene(sc.GeneratorConfig(n_agents=0), seed=0)


def test_recorded_speed_matches_displacement():
    scene = small_scene(seed=16)
    for agent in scene.agents:
        for s0, s1 in zip(agent.states, agent.states[1:]):
            d = math.hypot(s1.pose.x - s0.pose.x, s1.pose.y - s0.pose.y)
            assert math.isclose(s1.speed, d / scene.dt, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_scene_json_roundtrip_exact():
    scene = small_scene(seed=17)
    text = sc.scene_to_json(scene)
    back = sc.scene_from_json(text)
    assert sc.scene_to_json(back) == text
    for a, b in zip(scene.agents, back.agents):
        assert a.id == b.id and a.agent_class == b.agent_class
        for s1, s2 in zip(a.states, b.states):
            assert s1.pose == s2.pose and s1.speed == s2.speed and s1.t == s2.t


def test_scene_json_rejects_unknown_field():
    doc = json.loads(sc.scene_to_json(small_scene(seed=18)))
    doc["agents"][0]["color"] = "red"
    with pytest.raises(sc.SceneParseError, match=r"color"):
        sc.scene_from_json(json.dumps(doc))


def test_scene_json_missing_map_is_error():
    doc = json.loads(sc.scene_to_json(small_scene(seed=19)))
    del doc["map"]
    with pytest.raises(sc.SceneParseError, match=r"map"):
        sc.scene_from_json(json.dumps(doc))


def test_scene_json_bad_enum():
    doc = json.loads(sc.scene_to_json(small_scene(seed=20)))
    doc["agents"][0]["class"] = "boat"
    with pytest.raises(sc.SceneParseError, match=r"agents\[0\]"):
        sc.scene_from_json(json.dumps(doc))


def _set_state(doc, key, value, index=1):
    doc["agents"][0]["states"][index][key] = value


BAD_SCENE_VALUES = {
    "fractional_t": (lambda d: _set_state(d, "t", 1.7),
                     r"\$\.agents\[0\]\.states\[1\]\.t: expected an integer"),
    "nan_speed": (lambda d: _set_state(d, "speed", float("nan")),
                  r"\$\.agents\[0\]\.states\[1\]\.speed"),
    "t_at_horizon": (lambda d: _set_state(d, "t", d["horizon"], index=-1),
                     r"\$\.agents\[0\]\.states\[\d+\]\.t: .* outside"),
    "negative_t": (lambda d: _set_state(d, "t", -1, index=0),
                   r"\$\.agents\[0\]\.states\[0\]\.t: .* outside"),
    "nan_dt": (lambda d: d.update(dt=float("nan")), r"\$\.dt"),
    "negative_horizon": (lambda d: d.update(horizon=-3), r"\$\.horizon"),
    "infinite_length": (lambda d: d["agents"][1].update(length=float("inf")),
                        r"\$\.agents\[1\]\.length"),
    "duplicate_id": (lambda d: d["agents"][1].update(id=d["agents"][0]["id"]),
                     r"\$\.agents\[1\]\.id: duplicate"),
    "non_object_agent": (lambda d: d["agents"].__setitem__(1, 7),
                         r"\$\.agents\[1\]: expected an object"),
    "infinite_map_x": (lambda d: d["map"][0].update(x=float("inf")), r"\$\.map\[0\]\.x"),
    "huge_dt": (lambda d: d.update(dt=10**400), r"\$\.dt: expected a finite number"),
    "huge_x": (lambda d: _set_state(d, "x", -1e308),
               r"\$\.agents\[0\]\.states\[1\]\.x: expected a finite number of magnitude at most 1e\+09"),
    "huge_agent_id": (lambda d: d["agents"][1].update(id=10**400),
                      r"\$\.agents\[1\]\.id: \d+ outside the 64-bit integer range"),
}


@pytest.mark.parametrize("case", sorted(BAD_SCENE_VALUES))
def test_scene_json_rejects_bad_values_with_path(case):
    mutate, where = BAD_SCENE_VALUES[case]
    doc = json.loads(sc.scene_to_json(small_scene(seed=22)))
    mutate(doc)
    with pytest.raises(sc.SceneParseError, match=where):
        sc.scene_from_json(json.dumps(doc))


def test_vocab_json_roundtrip():
    rng = np.random.default_rng(21)
    corpus = uniform_transitions(rng, 100)
    vocab = sc.build_kdisk_vocab(corpus, k_r=0.3, seed=6, cap=8)
    back = sc.vocab_from_json(sc.vocab_to_json(vocab))
    assert back.k_r == vocab.k_r and back.seed == vocab.seed
    for cls in sc.AGENT_CLASSES:
        assert np.array_equal(back.deltas[cls], vocab.deltas[cls])


BAD_VOCAB_VALUES = {
    "fractional_source_count": (lambda d: d["classes"]["vehicle"].update(source_count=2.7),
                                r"\$\.classes\.vehicle\.source_count: expected an integer"),
    "negative_source_count": (lambda d: d["classes"]["vehicle"].update(source_count=-1),
                              r"\$\.classes\.vehicle\.source_count: .* outside"),
    "fractional_seed": (lambda d: d.update(seed=1.9), r"\$\.seed: expected an integer"),
    "nan_k_r": (lambda d: d.update(k_r=float("nan")), r"\$\.k_r: expected a finite number"),
    "string_w_theta": (lambda d: d.update(w_theta="1"), r"\$\.w_theta: expected a finite number"),
    "infinite_delta": (lambda d: d["classes"]["vehicle"]["deltas"][0].__setitem__(1, float("inf")),
                       r"\$\.classes\.vehicle\.deltas\[0\]\.1: expected a finite number"),
    "short_delta": (lambda d: d["classes"]["vehicle"]["deltas"].__setitem__(0, [0.1, 0.0]),
                    r"\$\.classes\.vehicle\.deltas\[0\]: expected \[dx, dy, dtheta\]"),
    "non_array_deltas": (lambda d: d["classes"]["vehicle"].update(deltas=5),
                         r"\$\.classes\.vehicle\.deltas: expected an array"),
    "empty_deltas": (lambda d: d["classes"]["vehicle"].update(deltas=[]),
                     r"\$\.classes: vocab for 'vehicle' must be a nonempty"),
    "classes_array": (lambda d: d.update(classes=[1]), r"\$\.classes: expected an object"),
    "unknown_class": (lambda d: d["classes"].update(truck=d["classes"]["vehicle"]),
                      r"\$\.classes: unknown field 'truck'"),
    "huge_k_r": (lambda d: d.update(k_r=10**400), r"\$\.k_r: expected a finite number"),
    "huge_seed": (lambda d: d.update(seed=-10**400), r"\$\.seed: -\d+ outside the 64-bit integer range"),
}


@pytest.mark.parametrize("case", sorted(BAD_VOCAB_VALUES))
def test_vocab_json_rejects_bad_values_with_path(case):
    mutate, where = BAD_VOCAB_VALUES[case]
    vocab = sc.build_kdisk_vocab(uniform_transitions(np.random.default_rng(21), 100), k_r=0.3, seed=6, cap=8)
    doc = json.loads(sc.vocab_to_json(vocab))
    mutate(doc)
    with pytest.raises(sc.SceneParseError, match=where):
        sc.vocab_from_json(json.dumps(doc))


def test_transition_collection():
    scenes = [small_scene(seed=s) for s in (22, 23)]
    pools = sc.collect_transitions(scenes)
    total = sum(arr.shape[0] for arr in pools.values())
    expect = sum((s.horizon - 1) * len(s.agents) for s in scenes)
    assert total == expect


def test_tokenize_dynamics_roundtrip_bound():
    # unrolling ground-truth tokens through the dynamics reproduces the
    # ground-truth endpoint within T * k_r (tight vocab, no cap)
    scenes = [small_scene(seed=s) for s in range(24, 36)]
    corpus = sc.collect_transitions(scenes)
    k_r = 0.003
    vocab = sc.build_kdisk_vocab(corpus, k_r=k_r, seed=0, cap=None)
    for scene in scenes[:4]:
        poses = sc.agent_states(scene, scene.horizon).poses
        for agent, deltas, track in zip(scene.agents, agent_deltas(scene), poses):
            entries = vocab.deltas[agent.agent_class]
            tokens = sc.nearest_action(entries, deltas, vocab.w_theta)
            pose = track[0]
            for tok in tokens:
                pose, _speed = sc.dynamics_step(pose, entries[tok], scene.dt)
            err = math.hypot(*(pose[:2] - track[-1, :2]))
            assert err <= len(tokens) * k_r


def test_transitions_match_pose_pairs():
    """Pooled transitions equal, bit for bit, Pose2 increments over each agent's consecutive states,
    in scene, agent and time order."""
    scenes = [small_scene(seed=40 + n, n_agents=n) for n in (1, 4, 9)] + [gappy_scene(s, n_agents=6)
                                                                         for s in (43, 44)]
    expect = {cls: [] for cls in sc.AGENT_CLASSES}
    for scene in scenes:
        for agent in scene.agents:
            for a, b in zip(agent.states, agent.states[1:]):
                if b.t == a.t + 1:
                    d = pose_compose(pose_inverse(a.pose), b.pose)
                    expect[agent.agent_class].append((d.x, d.y, d.theta))
    pools = sc.collect_transitions(scenes)
    for cls in sc.AGENT_CLASSES:
        assert np.array_equal(pools[cls], np.array(expect[cls]).reshape(-1, 3))


def test_scene_rejects_states_outside_horizon():
    scene = small_scene(seed=45)
    agent = scene.agents[1]
    pose = agent.states[0].pose
    for states in (agent.states + (sc.AgentState(scene.horizon, pose, 1.0),),
                   (sc.AgentState(-1, pose, 1.0),) + agent.states):
        moved = dataclasses.replace(agent, states=states)
        with pytest.raises(ValueError, match=rf"agent {agent.id} has a state outside \[0, {scene.horizon}\)"):
            dataclasses.replace(scene, agents=(scene.agents[0], moved) + scene.agents[2:])
