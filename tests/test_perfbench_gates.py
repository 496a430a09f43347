"""The benchmark's correctness gates hold on the current sources: each of `perfbench`'s workloads
sets up, runs two ops and passes every per-op check and once-per-run gate (the rollout workload's
greedy-rollout oracle among them)."""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["train", "rollout", "audit_crowd"])
def test_every_workload_gate_passes(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    monkeypatch.setattr(workloads, "OUT", tmp_path / "out")
    wl = workloads.WORKLOADS[name](7)
    wl.setup()
    for i in (0, 1):
        assert wl.check(i, wl.op(i)) is None
    gates = wl.final_checks()
    assert all(message is None for _label, message in gates), gates
