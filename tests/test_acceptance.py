"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary.  Criterion 7 trains the desk-scale model twice (convergence +
determinism) and is the long pole at a few minutes.
"""

import math
import time

import numpy as np
import pytest

from eqtraffic import autodiff as ad
from eqtraffic import harness as hn
from eqtraffic import model as md
from eqtraffic import pga, scene as sc
from eqtraffic.layers import distance_features_key, distance_features_query
from helpers import matrix_apply_pose, rand_pose

RESULTS = []


def record(num, name, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {name} ({detail})"
    RESULTS.append(line)
    print("\n" + line)
    assert passed, line


# ---------------------------------------------------------------------------
# 1. algebra conformance
# ---------------------------------------------------------------------------

def test_criterion_1_algebra_conformance():
    start = time.time()
    from test_pga import GEOM_ROWS, WEDGE_ROWS, parse_table

    tables_ok = np.array_equal(pga.GEOM_TABLE, parse_table(GEOM_ROWS)) and np.array_equal(
        pga.WEDGE_TABLE, parse_table(WEDGE_ROWS)
    )

    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        a, b, c = (pga.Multivector(rng.normal(size=8)) for _ in range(3))
        left = pga.geometric_product(pga.geometric_product(a, b), c)
        right = pga.geometric_product(a, pga.geometric_product(b, c))
        scale = max(1.0, float(np.max(np.abs(right.coeffs))))
        worst = max(worst, float(np.max(np.abs(left.coeffs - right.coeffs))) / scale)
    elapsed = time.time() - start
    record(
        1, "algebra conformance",
        tables_ok and worst <= 1e-12 and elapsed < 5.0,
        f"64+64 table entries exact, associativity {worst:.2e} <= 1e-12, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. encodings
# ---------------------------------------------------------------------------

def test_criterion_2_encodings():
    start = time.time()
    rng = np.random.default_rng(1)

    point_dev = 0.0
    for _ in range(1000):
        pose = rand_pose(rng, trans=80.0)
        px, py = rng.normal(0.0, 30.0, size=2)
        got = pga.decode_point(pga.sandwich(pga.motor_from_pose(pose), pga.encode_point(px, py)))
        want = matrix_apply_pose(pose, px, py)
        scale = max(1.0, abs(want[0]), abs(want[1]))
        point_dev = max(point_dev, abs(got[0] - want[0]) / scale, abs(got[1] - want[1]) / scale)

    line_dev = 0.0
    for _ in range(1000):
        pose = rand_pose(rng, trans=80.0)
        a, b = rng.normal(size=2)
        if math.hypot(a, b) < 1e-3:
            continue
        c = rng.normal(0.0, 20.0)
        line = pga.encode_line(a, b, c)
        moved = pga.sandwich(pga.motor_from_pose(pose), line)
        la, lb, lc = line.coeffs[2], line.coeffs[3], line.coeffs[1]
        ct, st = math.cos(pose.theta), math.sin(pose.theta)
        wa, wb = ct * la - st * lb, st * la + ct * lb
        wc = lc - wa * pose.x - wb * pose.y
        scale = max(1.0, abs(wc))
        line_dev = max(
            line_dev,
            abs(moved.coeffs[2] - wa), abs(moved.coeffs[3] - wb),
            abs(moved.coeffs[1] - wc) / scale,
        )

    meet_resid = 0.0
    for _ in range(500):
        a1, b1, c1, a2, b2, c2 = rng.normal(size=6)
        if abs(a1 * b2 - a2 * b1) < 1e-2:
            continue
        l1 = pga.encode_line(a1, b1, c1)
        l2 = pga.encode_line(a2, b2, c2)
        x, y = pga.decode_point(pga.wedge_product(l1, l2))
        for line in (l1, l2):
            meet_resid = max(meet_resid, abs(line.coeffs[2] * x + line.coeffs[3] * y + line.coeffs[1]))

    join_resid = 0.0
    for _ in range(500):
        ax, ay, bx, by = rng.normal(0.0, 20.0, size=4)
        line = pga.join(pga.encode_point(ax, ay), pga.encode_point(bx, by))
        norm = math.hypot(line.coeffs[2], line.coeffs[3])
        if norm < 1e-9:
            continue
        for x, y in ((ax, ay), (bx, by)):
            join_resid = max(join_resid, abs(line.coeffs[2] * x + line.coeffs[3] * y + line.coeffs[1]) / norm)

    dist_dev = 0.0
    for _ in range(500):
        x0, y0 = rng.normal(0.0, 20.0, size=2)
        a, b = rng.normal(size=2)
        if math.hypot(a, b) < 1e-3:
            continue
        line = pga.encode_line(a, b, rng.normal())
        d = pga.join(pga.encode_point(x0, y0), line)[0]
        la, lb, lc = line.coeffs[2], line.coeffs[3], line.coeffs[1]
        want = la * x0 + lb * y0 + lc
        dist_dev = max(dist_dev, abs(d - want) / max(1.0, abs(want)))

    elapsed = time.time() - start
    ok = (point_dev <= 1e-12 and line_dev <= 1e-12 and meet_resid <= 1e-10
          and join_resid <= 1e-10 and dist_dev <= 1e-12 and elapsed < 10.0)
    record(
        2, "table encodings vs oracles",
        ok,
        f"point {point_dev:.1e}, line {line_dev:.1e}, meet {meet_resid:.1e}, "
        f"join {join_resid:.1e}, dist {dist_dev:.1e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. layer equivariance
# ---------------------------------------------------------------------------

def test_criterion_3_layer_equivariance():
    start = time.time()
    report = hn.layer_audit(n_transforms=200, seed=0, tolerance=1e-10)
    by_name = {e.name: e for e in report.entries}
    layers_ok = all(
        by_name[n].max_deviation <= 1e-10
        for n in by_name if n != "negative_control"
    )
    neg = by_name["negative_control"].max_deviation
    elapsed = time.time() - start
    worst = max(e.max_deviation for n, e in by_name.items() if n != "negative_control")
    record(
        3, "layer equivariance (200 transforms)",
        layers_ok and neg >= 1e-10 * 1e3 and elapsed < 120.0,
        f"worst layer {worst:.2e} <= 1e-10, negative control {neg:.2e} >= 1e-7, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. distance awareness
# ---------------------------------------------------------------------------

def test_criterion_4_distance_awareness():
    start = time.time()
    rng = np.random.default_rng(2)
    eps = 1e-6
    worst = 0.0
    for _ in range(1000):
        qx, qy, kx, ky = rng.uniform(-100, 100, size=4)
        q, k = pga.encode_point(qx, qy), pga.encode_point(kx, ky)
        dot = float(np.dot(distance_features_query(q.coeffs, eps=eps), distance_features_key(k.coeffs, eps=eps)))
        want = -((kx - qx) ** 2 + (ky - qy) ** 2) / (1.0 + eps) ** 2
        worst = max(worst, abs(dot - want) / max(1.0, abs(want)))

    # fused concatenated dot product vs the explicit three-term sum
    from eqtraffic.layers import AttentionConfig, eq_attention_logits

    heads, c, cs = 2, 2, 3
    cfg = AttentionConfig(heads=heads, mv_per_head=c, scalar_per_head=cs)
    mv_q = rng.normal(size=(4, heads * c, 8))
    mv_k = rng.normal(size=(5, heads * c, 8))
    sq = rng.normal(size=(4, heads * cs))
    sk = rng.normal(size=(5, heads * cs))
    logits = np.asarray(eq_attention_logits(mv_q, mv_k, sq, sk, cfg))
    denom = math.sqrt(4 * c + 4 * c + cs)
    fused_dev = 0.0
    for h in range(heads):
        for i in range(4):
            for j in range(5):
                total = 0.0
                for cc in range(c):
                    qc = pga.Multivector(mv_q[i, h * c + cc])
                    kc = pga.Multivector(mv_k[j, h * c + cc])
                    total += pga.invariant_inner_product(qc, kc)
                    total += float(np.dot(distance_features_query(qc.coeffs), distance_features_key(kc.coeffs)))
                total += float(np.dot(sq[i, h * cs:(h + 1) * cs], sk[j, h * cs:(h + 1) * cs]))
                fused_dev = max(fused_dev, abs(logits[h, i, j] - total / denom) / max(1.0, abs(total / denom)))
    elapsed = time.time() - start
    record(
        4, "distance-awareness identity",
        worst <= 1e-9 and fused_dev <= 1e-12,
        f"negative-squared-distance {worst:.2e} <= 1e-9, fused-vs-sum {fused_dev:.2e} <= 1e-12, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. end-to-end invariance and rollout agreement
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def random_model():
    rng = np.random.default_rng(0)
    trans = {
        cls: np.column_stack(
            [rng.uniform(0, 0.9, 80), rng.uniform(-0.05, 0.05, 80), rng.uniform(-0.12, 0.12, 80)]
        )
        for cls in sc.AGENT_CLASSES
    }
    vocab = sc.build_kdisk_vocab(trans, k_r=0.05, seed=0, cap=16)
    cfg = md.ModelConfig(vocab_sizes={c: vocab.size(c) for c in sc.AGENT_CLASSES},
                         dtype="f64", seed=0)
    return vocab, cfg, md.init_params(cfg)


@pytest.mark.slow
def test_criterion_5_end_to_end_invariance(random_model):
    start = time.time()
    vocab, cfg, params = random_model
    gen = sc.GeneratorConfig(n_agents=3, horizon=10, n_lanes=2)
    rng = np.random.default_rng(3)

    # logit deviation over random motors plus the reference transform
    logit_dev = 0.0
    for seed in range(4):
        scene = sc.generate_synthetic_scene(gen, seed=seed)
        base = np.asarray(md.forward(md.build_token_batch(scene, vocab, cfg), params, cfg))
        transforms = [hn.REFERENCE_TRANSFORM] + [
            pga.Pose2(rng.uniform(-200, 200), rng.uniform(-200, 200), rng.uniform(-math.pi, math.pi))
            for _ in range(20)
        ]
        for g in transforms:
            out = np.asarray(
                md.forward(md.build_token_batch(sc.transform_scene(scene, g), vocab, cfg), params, cfg)
            )
            logit_dev = max(logit_dev, float(np.max(np.abs(out - base))))

    # greedy rollout token agreement over 100 random scenes at horizon 40
    agree, pose_dev = 0, 0.0
    for i in range(100):
        scene = sc.generate_synthetic_scene(gen, seed=1000 + i)
        g = pga.Pose2(rng.uniform(-100, 100), rng.uniform(-100, 100), rng.uniform(-math.pi, math.pi))
        ro1 = hn.rollout(params, cfg, scene, vocab, 40, mode="greedy", context=10)[0]
        ro2 = hn.rollout(params, cfg, sc.transform_scene(scene, g), vocab, 40,
                         mode="greedy", context=10)[0]
        if np.array_equal(ro1.tokens, ro2.tokens):
            agree += 1
            ginv = g.inverse()
            for ai in range(ro1.poses.shape[0]):
                for t in range(10, ro1.poses.shape[1]):
                    back = ginv.compose(pga.Pose2(*ro2.poses[ai, t]))
                    pose_dev = max(pose_dev, math.hypot(back.x - ro1.poses[ai, t, 0],
                                                        back.y - ro1.poses[ai, t, 1]))
    elapsed = time.time() - start
    record(
        5, "end-to-end invariance + rollout agreement",
        logit_dev <= 1e-8 and agree >= 99 and pose_dev <= 1e-6 and elapsed < 300.0,
        f"logit dev {logit_dev:.2e} <= 1e-8, agreement {agree}/100, pose dev {pose_dev:.1e} m, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 6. gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_6_gradient_correctness():
    from helpers import primitive_grad_cases

    start = time.time()
    worst_primitive = ("", 0.0)
    for trial in range(3):
        rng = np.random.default_rng(100 + trial)
        for name, fn, arrays, floor in primitive_grad_cases(rng):
            err = ad.grad_check(fn, arrays, step=1e-6, seed=trial, min_grad=floor)
            if err > worst_primitive[1]:
                worst_primitive = (name, err)

    from test_model import tiny_grad_setup

    batch, cfg, names, params = tiny_grad_setup()
    arrays = [params[n] for n in names]

    def full(tracked):
        p = dict(zip(names, tracked))
        return md.loss(md.forward(batch, p, cfg), batch.targets, batch.target_valid)

    model_err = ad.grad_check(full, arrays, step=1e-6, max_coords=8, seed=0, min_grad=1e-4)
    elapsed = time.time() - start
    record(
        6, "gradient correctness",
        worst_primitive[1] <= 1e-5 and model_err <= 1e-5 and elapsed < 180.0,
        f"worst primitive {worst_primitive[0]} {worst_primitive[1]:.2e}, "
        f"full model {model_err:.2e} <= 1e-5, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. desk-scale training
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_7_desk_scale_training():
    start = time.time()
    gen = sc.GeneratorConfig()
    scenes = [sc.generate_synthetic_scene(gen, seed=s) for s in range(256)]
    vocab = sc.build_kdisk_vocab(sc.collect_transitions(scenes), k_r=0.003, seed=0, cap=64)
    sizes = {c: vocab.size(c) for c in sc.AGENT_CLASSES}
    assert sizes == {c: 64 for c in sc.AGENT_CLASSES}, f"vocab cap must bind: {sizes}"
    cfg = md.ModelConfig(vocab_sizes=sizes, dtype="f32", seed=0)

    params, curve = md.train(scenes, vocab, cfg, steps=2000, lr=1e-3, seed=0)
    initial = curve[0][2]
    final = float(np.mean([row[2] for row in curve[-50:]]))
    init_ok = abs(initial - math.log(64.0)) <= 0.2
    descent_ok = final <= 0.6 * initial

    _, curve2 = md.train(scenes, vocab, cfg, steps=2000, lr=1e-3, seed=0)
    deterministic = curve == curve2

    context, horizon = 10, 16
    model_ades, cv_ades = [], []
    for s in range(300, 306):
        held_out = sc.generate_synthetic_scene(gen, seed=s)
        gt = hn.ground_truth_positions(held_out, context, horizon)
        ros = hn.rollout(params, cfg, held_out, vocab, horizon, mode="sampled",
                         n_rollouts=8, seed=1000 + s, context=context)
        model_ades.append(hn.min_ade([r.predicted_positions for r in ros], gt))
        cv_ades.append(hn.min_ade([hn.constant_velocity_positions(held_out, context, horizon)], gt))
    model_ade, cv_ade = float(np.mean(model_ades)), float(np.mean(cv_ades))

    elapsed = time.time() - start
    record(
        7, "desk-scale training",
        init_ok and descent_ok and deterministic and model_ade < cv_ade and elapsed < 900.0,
        f"init {initial:.3f} (ln64 {math.log(64):.3f} +- 0.2), final {final:.3f} <= {0.6 * initial:.3f}, "
        f"deterministic={deterministic}, minADE {model_ade:.3f} < CV {cv_ade:.3f}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 8. scaling law
# ---------------------------------------------------------------------------

def test_criterion_8_scaling_law():
    start = time.time()
    cfg = md.ModelConfig(dtype="f32")
    rpe16 = md.flop_count(cfg, 16, 32, 10, "rpe")
    rpe32 = md.flop_count(cfg, 32, 32, 10, "rpe")
    quad_ratio = rpe32["terms"]["pos_pairs_agent_agent"] / rpe16["terms"]["pos_pairs_agent_agent"]

    geo16 = md.flop_count(cfg, 16, 32, 10, "geometric")
    geo32 = md.flop_count(cfg, 32, 32, 10, "geometric")
    lin_ratio = geo32["terms"]["pos_agent_tokens"] / geo16["terms"]["pos_agent_tokens"]

    rows = hn.bench_scaling(cfg, [8, 16, 32, 64], map_tokens=32, steps=10, time_forward=True)
    csv_text = hn.bench_rows_to_csv(rows)
    # parse the CSV back and confirm the rpe/vanilla ratio diverges monotonically
    table = {}
    for line in csv_text.strip().splitlines()[1:]:
        parts = line.split(",")
        table[(int(parts[0]), parts[3])] = float(parts[4])
    ratios = [table[(a, "rpe")] / table[(a, "vanilla")] for a in (8, 16, 32, 64)]
    monotone = all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))

    elapsed = time.time() - start
    record(
        8, "scaling-law mechanism",
        quad_ratio == 4.0 and lin_ratio == 2.0 and monotone,
        f"rpe quadratic ratio {quad_ratio}, geometric linear ratio {lin_ratio}, "
        f"rpe/vanilla ratios {['%.2f' % r for r in ratios]} monotone={monotone}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 9. k-disk properties
# ---------------------------------------------------------------------------

def test_criterion_9_kdisk_properties():
    start = time.time()
    gen = sc.GeneratorConfig(n_agents=5, horizon=21)
    scenes = [sc.generate_synthetic_scene(gen, seed=s) for s in range(96)]
    corpus = sc.collect_transitions(scenes)
    total = sum(arr.shape[0] for arr in corpus.values())
    assert total <= 10_000, f"corpus size {total} exceeds the 1e4 budget"

    k_r = 0.05
    vocab = sc.build_kdisk_vocab(corpus, k_r=k_r, seed=0, cap=None)
    packing_ok, covering_ok = True, True
    min_sep, max_cover = np.inf, 0.0
    for cls in sc.AGENT_CLASSES:
        entries = vocab.deltas[cls]
        for i in range(entries.shape[0]):
            d = sc.action_distance(entries, entries[i], vocab.w_theta)
            d[i] = np.inf
            min_sep = min(min_sep, float(np.min(d)))
        dists = sc.action_distance(entries[None, :, :], corpus[cls][:, None, :], vocab.w_theta)
        max_cover = max(max_cover, float(np.min(dists, axis=1).max()))
    packing_ok = min_sep > k_r
    covering_ok = max_cover <= k_r
    elapsed = time.time() - start
    sizes = {c: vocab.size(c) for c in sc.AGENT_CLASSES}
    record(
        9, "k-disk packing and covering",
        packing_ok and covering_ok and elapsed < 30.0,
        f"corpus {total}, sizes {sizes}, min separation {min_sep:.4f} > {k_r}, "
        f"max coverage {max_cover:.4f} <= {k_r}, {elapsed:.1f}s",
    )


def test_zzz_print_summary():
    print("\n" + "=" * 72)
    for line in RESULTS:
        print(line)
    print("=" * 72)
