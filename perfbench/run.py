"""eqtraffic benchmark: one closed-loop client timing train, rollout or audit_crowd ops.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Each op starts when the previous one ends.  With `--trace 0` the run prints
the end-to-end metrics, every time scaled to a reference host speed by a
calibration timed between ops (calibrate.py); with `--trace 1` it
alternates untraced and traced ops and prints the per-layer metrics from
the spans (see README.md).  The last line of standard output is one JSON
object; the exit code is 1 when a correctness gate failed and 2 when the
checkout has no sources to measure.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import bootstrap

SETUP_REPEATS = 7

# per-layer metrics of the traced run, as <module>.<function>.<stat>
TRACED_CALLS = (
    "pga.motor_from_pose", "batch.sandwich_array",
    "layers.eq_attention", "layers.eq_mlp_block", "layers.invariant_adapter",
    "layers.eq_linear", "layers.eq_layer_norm", "layers.scalar_layer_norm",
    "model.forward",
)
TRACED_SELF = TRACED_CALLS + (
    "autodiff.backward", "autodiff.adam_step", "autodiff.bilinear8", "autodiff.mv_linear",
    "autodiff.matmul", "autodiff.masked_softmax",
    "scene.transform_scene", "scene.tokenize_batch", "scene.detokenize", "scene.dynamics_step",
    "model.build_token_batch", "model.loss", "model.sample_action", "model.init_params",
    "model.train", "harness.rollout", "harness.equivariance_audit",
)
TRACED_SETUP = ("scene.generate_synthetic_scene", "scene.build_kdisk_vocab")


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repo."""
    git = bootstrap.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in bootstrap.THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


class Gates:
    """Counts attempted and failed ops; keeps the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, label, message) -> None:
        self.attempted += 1
        if message is not None:
            self.failed += 1
            self.messages.append(f"{label}: {message}")


def run_op(wl, i: int, gates: Gates) -> float:
    """One op, timed; its gate runs after the clock stops."""
    start = time.perf_counter()
    result = wl.op(i)
    elapsed = time.perf_counter() - start
    gates.record(f"op {i}", wl.check(i, result))
    return elapsed


def final_gates(wl, gates: Gates) -> None:
    for label, message in wl.final_checks():
        gates.record(label, message)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(wl, seconds: float, gates: Gates) -> tuple[dict, dict]:
    """Times set-ups and ops, each scaled to the reference host speed (see calibrate.py)."""
    import calibrate

    calibrate.measure()  # warm-up
    cal = calibrate.measure()
    cals = [cal]
    setup_s, raw_setup_s = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl.setup()
        elapsed = time.perf_counter() - start
        cal_after = calibrate.measure()
        setup_s.append(calibrate.scale(elapsed, cal, cal_after))
        raw_setup_s.append(elapsed)
        cal = cal_after
    run_op(wl, 0, gates)  # warm-up: caches and lazy imports
    cal = calibrate.measure()
    durations, raw, tokens = [], [], 0
    i = 1
    deadline = time.perf_counter() + seconds
    while not durations or time.perf_counter() < deadline:
        elapsed = run_op(wl, i, gates)
        cal_after = calibrate.measure()
        durations.append(calibrate.scale(elapsed, cal, cal_after))
        raw.append(elapsed)
        cals.append(cal_after)
        cal = cal_after
        tokens += wl.tokens(i)
        i += 1
    final_gates(wl, gates)
    metrics = {
        "op_ms_p50": (statistics.median(durations) * 1e3, "ms"),
        "op_ms_p90": (statistics.quantiles(durations, n=10, method="inclusive")[-1] * 1e3, "ms"),
        "tokens_per_s": (tokens / sum(durations), "1/s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    info = {"timed_ops": len(durations), "setup_runs": len(setup_s),
            "failed_share": gates.failed / gates.attempted,
            "wall_op_ms_p50": statistics.median(raw) * 1e3,
            "wall_setup_s": statistics.median(raw_setup_s),
            "calibration_ms_p50": statistics.median(cals) * 1e3,
            "calibration_reference_ms": calibrate.REFERENCE_MS}
    return metrics, info


def traced_run(wl, seconds: float, gates: Gates, spans_path) -> tuple[dict, dict]:
    import spans

    rec = spans.SpanRecorder()
    with rec.traced():
        wl.setup()
    run_op(wl, 0, gates)
    untraced = []
    i = 1
    n_ops = 0
    deadline = time.perf_counter() + seconds
    while not untraced or time.perf_counter() < deadline:
        untraced.append(run_op(wl, i, gates))
        with rec.traced(), rec.op(n_ops):
            result = wl.op(i + 1)
        gates.record(f"op {i + 1}", wl.check(i + 1, result))
        n_ops += 1
        i += 2
    final_gates(wl, gates)

    in_ops = rec.totals(in_ops=True)
    in_setup = rec.totals(in_ops=False)
    none = (0, 0.0, 0.0)
    metrics = {}
    for name in TRACED_CALLS:
        metrics[f"{name}.calls_per_op"] = (in_ops.get(name, none)[0] / n_ops, "count")
    for name in TRACED_SELF:
        metrics[f"{name}.self_ms_per_op"] = (in_ops.get(name, none)[1] * 1e3 / n_ops, "ms")
    for name in TRACED_SETUP:
        metrics[f"{name}.setup_ms"] = (in_setup.get(name, none)[2] * 1e3, "ms")
    primitives = spans.primitive_names()
    metrics["autodiff.tape_nodes_per_op"] = (sum(rec.tape_nodes.values()) / n_ops, "count")
    metrics["autodiff.primitive_calls_per_op"] = (
        sum(c for name, (c, _s, _i) in in_ops.items() if name in primitives) / n_ops, "count")
    flops = sum(v for op, v in rec.forward_flops().items() if op >= 0)
    metrics["model.forward.flops_per_op"] = (flops / n_ops, "flop")
    metrics["model.forward.gflops_per_s"] = (flops / in_ops["model.forward"][2] / 1e9, "GFLOP/s")
    traced = rec.op_seconds()
    metrics["trace.overhead_share"] = (statistics.median(traced) / statistics.median(untraced) - 1.0,
                                       "share")

    rec.write(spans_path)
    info = {"traced_ops": n_ops, "untraced_ops": len(untraced), "spans": len(rec.start),
            "spans_file": str(spans_path),
            "failed_share": gates.failed / gates.attempted}
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "rollout", "audit_crowd"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    bootstrap.pin()
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    gates = Gates()
    if args.trace:
        bootstrap.OUT.mkdir(exist_ok=True)
        path = bootstrap.OUT / f"spans_{args.workload}_seed{args.seed}.npz"
        metrics, info = traced_run(wl, args.seconds, gates, path)
    else:
        metrics, info = timed_run(wl, args.seconds, gates)

    for message in gates.messages:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(args), **info}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:45s} {value:>16.6g} {unit}")
    correct = gates.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": gates.attempted,
        "failed": gates.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
