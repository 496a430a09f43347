"""Self-test of the benchmark: exact counters repeat, and the metric names match BENCHMARK.json.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json

import bootstrap

bootstrap.pin()

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from eqtraffic import autodiff as ad  # noqa: E402
from eqtraffic import model, scene  # noqa: E402

SEED = 7
EXACT_UNITS = ("count", "flop")


def spec() -> dict:
    return json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())


def traced(name: str) -> tuple[dict, run.Gates]:
    gates = run.Gates()
    bootstrap.OUT.mkdir(exist_ok=True)
    metrics, _info = run.traced_run(workloads.WORKLOADS[name](SEED), 1e-3, gates,
                                    bootstrap.OUT / f"test_spans_{name}.npz")
    return metrics, gates


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_exact_counts_repeat_for_same_seed(name):
    first, gates_a = traced(name)
    second, gates_b = traced(name)
    assert gates_a.failed == gates_b.failed == 0, gates_a.messages + gates_b.messages
    exact = {k: v for k, (v, unit) in first.items() if unit in EXACT_UNITS}
    assert exact == {k: v for k, (v, unit) in second.items() if unit in EXACT_UNITS}
    assert exact["model.forward.calls_per_op"] > 0
    assert set(first) == {m["name"] for m in spec()["per_layer"]}
    for m in spec()["per_layer"]:
        assert first[m["name"]][1] == m["unit"], m["name"]


def test_train_tape_nodes_are_steps_times_scenes_times_one_forward():
    metrics, _gates = traced("train")
    wl = workloads.Train(SEED)
    wl.setup()
    tb = model.build_token_batch(wl.corpus[0], wl.vocab, wl.cfg)
    pvars = model.init_params(wl.cfg).as_vars()
    with ad.Tape() as tape:
        model.loss(model.forward(tb, pvars, wl.cfg), tb.targets, tb.target_valid)
    per_forward = len(tape.nodes)
    expected = workloads.TRAIN_STEPS * workloads.SCENES_PER_STEP * per_forward
    assert metrics["autodiff.tape_nodes_per_op"][0] == expected


def test_end_to_end_names_match_spec():
    gates = run.Gates()
    metrics, info = run.timed_run(workloads.AuditCrowd(SEED), 0.6, gates)
    assert gates.failed == 0, gates.messages
    assert info["timed_ops"] >= 2
    assert {k: unit for k, (_v, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in spec()["end_to_end"]
    }
    assert all(value > 0 for value, _unit in metrics.values())


def test_calibration_scale_is_identity_at_reference_speed():
    import calibrate

    ref = calibrate.REFERENCE_MS * 1e-3
    assert calibrate.scale(0.3, ref, ref) == pytest.approx(0.3)
    assert calibrate.scale(0.3, 2 * ref, 2 * ref) == pytest.approx(0.15)
    assert calibrate.measure() > 0


def test_generated_vocab_binds_the_cap():
    wl = workloads.Workload(SEED)
    wl.setup()
    assert wl.vocab_sizes == {c: workloads.VOCAB_CAP for c in scene.AGENT_CLASSES}
