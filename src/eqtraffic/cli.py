"""Command-line entry point: scene generation, vocab building, training, audits,
rollouts, and scaling benchmarks as reproducible runs.

Exit codes: 0 success, 1 usage, 2 validation, audit or training (non-finite loss) failure, 3 IO error.
Every output embeds the tool version, a config hash, and the seed; outputs are
written atomically (temp file + rename).
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from . import harness as hn
from . import model as md
from . import scene as sc

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_IO = 3

TOOL = f"eqtraffic {__version__}"
_SECTIONS = {"model": md.ModelConfig, "generator": sc.GeneratorConfig}  # run-config sections


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _config_hash(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _meta(seed, config_obj) -> dict:
    # the hash covers content-determining config only, never output paths
    hashed = {k: v for k, v in config_obj.items() if k != "out"}
    return {"tool": TOOL, "config_hash": _config_hash(hashed), "seed": seed}


def _atomic_write(path: Path, data) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    mode = "wb" if isinstance(data, (bytes, bytearray)) else "w"
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check_keys(doc, keys, where: str) -> None:
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ValueError(f"unknown key '{unknown[0]}' in {where}; known keys: {', '.join(sorted(keys))}")


_JSON_KINDS = {int: "an integer", float: "a number", bool: "true or false", str: "a string", dict: "an object"}
# the least value of each count option, by dest: a smaller one is a usage error, from a flag or a run-config key
_MINIMUMS = {"count": 0, "cap": 0, "steps": 1, "trials": 0, "rollout_horizon": 0, "horizon": 1, "n": 1,
             "map_tokens": 1}
# float options that must be finite (a run-config value is checked as it loads); only sampling reads
# --temperature, so `rollout` checks it by its own rule
_FINITE = ("k_r", "w_theta", "lr")
# the finite values a vocab file can hold, by dest: (test, the range it shows)
_RANGES = {"k_r": (lambda v: 0.0 < v <= sc._NUMBER_MAX, f"in (0, {sc._NUMBER_MAX:g}]"),
           "w_theta": (lambda v: abs(v) <= sc._NUMBER_MAX, f"in [-{sc._NUMBER_MAX:g}, {sc._NUMBER_MAX:g}]")}


def _check_value(value, kind, name: str, choices=None, minimum=None, within=None) -> None:
    """`value` is a JSON value of type `kind` (any for a kind outside `_JSON_KINDS`), one of
    `choices`, at least `minimum` and `within` a `_RANGES` entry; integers, also where a number
    is expected, fit in 64 bits, and numbers are finite."""
    if kind not in _JSON_KINDS:
        return
    shown = json.dumps(value)[:40]
    if type(value) is not kind and not (kind is float and type(value) is int):
        raise ValueError(f"{name} must be {_JSON_KINDS[kind]}, got {shown}")
    if type(value) is int and not -2**63 <= value < 2**63 or type(value) is float and not math.isfinite(value):
        raise ValueError(f"{name} is out of range: {shown}")
    if choices is not None and value not in choices:
        raise ValueError(f"{name} must be one of {', '.join(choices)}, got {shown}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {shown}")
    if within is not None and not within[0](value):
        raise ValueError(f"{name} must be {within[1]}, got {shown}")


def _load_run_config(path, keys: dict) -> dict:
    """The JSON object in `path` ({} for None). Every key must be one of `keys`, a flag's value must
    have the flag's type and choices, and each section must build its dataclass."""
    if path is None:
        return {}
    with open(path) as fh:
        doc = json.load(fh)
    _check_keys(doc, keys, "config file")
    for key, action in keys.items():
        if key in doc and action is not None:
            kind = bool if action.nargs == 0 else action.type or str
            _check_value(doc[key], kind, f"key '{key}'", action.choices, _MINIMUMS.get(action.dest),
                         _RANGES.get(action.dest))
    for section, cls in _SECTIONS.items():
        if section in doc:
            kinds = {f.name: f.type for f in dataclasses.fields(cls)}
            _check_keys(doc[section], kinds, f"section '{section}'")
            if section == "model" and "dtype" in doc[section]:
                raise ValueError("key 'model.dtype' is not allowed; set the top-level key 'dtype' or --dtype")
            try:
                for name, value in doc[section].items():
                    _check_value(value, kinds[name], name)
                cls(**doc[section])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"section '{section}': {exc}") from None
    return doc


def _config_keys(parser, command: str) -> dict:
    """Run-config keys of `command`: its flags' dests in hyphen spelling, to the flags' actions,
    and the sections, to None."""
    actions = parser.commands[command]._actions
    flags = {a.dest.replace("_", "-"): a for a in actions if a.dest not in ("help", "config")}
    return flags | dict.fromkeys(_SECTIONS)


def _model_config(args, run_cfg: dict, vocab: sc.ActionVocab | None) -> md.ModelConfig:
    """The `model` section with the dtype option; the vocab's sizes and the seed option fill the
    section's `vocab_sizes` and `seed` where it leaves them out."""
    fields = {"seed": args.seed, **run_cfg.get("model", {}), "dtype": args.dtype}
    if vocab is not None and "vocab_sizes" not in fields:
        fields["vocab_sizes"] = {c: vocab.size(c) for c in vocab.deltas}
    return md.ModelConfig(**fields)


def _parse_file(path, parse):
    """`parse` of the bytes of the scene or vocab file `path`; its errors name the file."""
    data = Path(path).read_bytes()
    try:
        return parse(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_scenes(scenes_dir) -> list:
    paths = sorted(Path(scenes_dir).glob("scene_*.json"))
    if not paths:
        raise ValueError(f"no scene_*.json files under {scenes_dir}")
    return [_parse_file(p, sc.scene_from_json) for p in paths]


def _with_meta(json_text: str, meta: dict) -> str:
    doc = json.loads(json_text)
    doc["meta"] = meta
    return json.dumps(doc, indent=1)


def _print_resolved(name: str, resolved: dict) -> None:
    print(f"[{TOOL}] {name}: " + json.dumps(resolved, sort_keys=True, default=str))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args, run_cfg) -> int:
    out, seed = Path(args.out), args.seed
    gen_cfg = sc.GeneratorConfig(**run_cfg.get("generator", {}))
    resolved = {"count": args.count, "seed": seed, "out": str(out),
                "generator": dataclasses.asdict(gen_cfg)}
    _print_resolved("gen", resolved)
    meta = _meta(seed, resolved)

    entries = []
    for i in range(args.count):
        text = sc.scene_to_json(sc.generate_synthetic_scene(gen_cfg, seed + i))
        name = f"scene_{i:05d}.json"
        _atomic_write(out / name, _with_meta(text, {**meta, "seed": seed + i}))
        entries.append({"file": name, "seed": seed + i})
    manifest = {"meta": meta, "count": args.count, "scenes": entries}
    _atomic_write(out / "manifest.json", json.dumps(manifest, indent=1))
    print(f"wrote {args.count} scenes + manifest to {out}")
    return EXIT_OK


def cmd_vocab(args, run_cfg) -> int:
    if args.scenes is None:
        raise _UsageError("vocab requires --scenes")
    out = Path(args.out)
    cap = args.cap or None  # 0 disables the cap
    resolved = {"scenes": args.scenes, "k_r": args.k_r, "cap": cap, "seed": args.seed,
                "w_theta": args.w_theta, "out": str(out)}
    _print_resolved("vocab", resolved)

    scenes = _load_scenes(args.scenes)
    transitions = sc.collect_transitions(scenes)
    vocab = sc.build_kdisk_vocab(transitions, k_r=args.k_r, seed=args.seed, cap=cap, w_theta=args.w_theta)
    _atomic_write(out, _with_meta(sc.vocab_to_json(vocab), _meta(args.seed, resolved)))
    sizes = {c: vocab.size(c) for c in vocab.deltas}
    print(f"wrote vocab {sizes} to {out}")
    return EXIT_OK


def cmd_train(args, run_cfg) -> int:
    if args.scenes is None or args.vocab is None:
        raise _UsageError("train requires --scenes and --vocab")
    out, seed = Path(args.out), args.seed

    vocab = _parse_file(args.vocab, sc.vocab_from_json)
    cfg = _model_config(args, run_cfg, vocab)
    resolved = {"scenes": args.scenes, "vocab": args.vocab, "steps": args.steps,
                "lr": args.lr, "seed": seed, "model": dataclasses.asdict(cfg), "out": str(out)}
    _print_resolved("train", resolved)
    meta = _meta(seed, resolved)

    scenes = _load_scenes(args.scenes)
    with np.errstate(all="ignore"):  # a run that diverges ends in one NonFiniteLossError line
        params, curve = md.train(scenes, vocab, cfg, steps=args.steps, lr=args.lr, seed=seed)

    lines = [f"# {TOOL} config_hash={meta['config_hash']} seed={seed}", "step,lr,loss"]
    lines += [f"{s},{l:.8e},{v:.8e}" for s, l, v in curve]
    _atomic_write(out / "loss.csv", "\n".join(lines) + "\n")
    ckpt = out / "checkpoint.ckpt"
    _atomic_write(ckpt, md.checkpoint_bytes(params, cfg, vocab, meta=meta))
    print(f"final loss {curve[-1][2]:.4f} after {args.steps} steps; wrote {ckpt}")
    return EXIT_OK


def _checkpoint_vocab(vocab_path, manifest: dict) -> sc.ActionVocab:
    """The vocab file, which must be the one the checkpoint was trained with."""
    vocab = _parse_file(vocab_path, sc.vocab_from_json)
    if md.vocab_hash(vocab) != manifest["vocab_hash"]:
        raise ValueError("vocab file does not match the checkpoint's vocab hash")
    return vocab


def cmd_check(args, run_cfg) -> int:
    if args.scenes is None:
        raise _UsageError("check requires --scenes")
    negative, seed = args.negative_control, args.seed
    fresh = "--negative-control" if negative else "--random-params" if args.random_params else None
    if args.checkpoint is None and fresh is None:
        raise _UsageError("check requires --checkpoint or --random-params")
    if args.checkpoint is not None and fresh is not None:
        raise _UsageError(f"check takes --checkpoint or {fresh}, not both")

    if args.checkpoint is not None:
        params, cfg, manifest = md.load_checkpoint(args.checkpoint)
        if args.dtype != cfg.dtype:
            cfg = dataclasses.replace(cfg, dtype=args.dtype)
            params = params.astype(cfg.np_dtype)
        if args.vocab is None:
            raise _UsageError("check with --checkpoint also requires --vocab")
        vocab = _checkpoint_vocab(args.vocab, manifest)
    else:
        if args.vocab is None:
            raise _UsageError("check requires --vocab (with --checkpoint or --random-params)")
        vocab = _parse_file(args.vocab, sc.vocab_from_json)
        cfg = _model_config(args, run_cfg, vocab)
        params = md.init_params(cfg, "vanilla" if negative else "geometric")

    tolerance = 1e-8 if cfg.dtype == "f64" else 1e-3
    resolved = {"scenes": args.scenes, "trials": args.trials, "seed": seed,
                "dtype": cfg.dtype, "negative_control": negative, "rollout_horizon": args.rollout_horizon,
                "tolerance": tolerance, "model": dataclasses.asdict(cfg)}
    _print_resolved("check", resolved)
    meta = _meta(seed, resolved)

    out = Path(args.out)
    scenes = _load_scenes(args.scenes)
    report = hn.equivariance_audit(
        params, cfg, vocab, scenes, n_transforms=args.trials, seed=seed,
        tolerance=tolerance, rollout_horizon=args.rollout_horizon,
        include_layers=not negative, negative_control=negative,
    )
    doc = json.loads(report.to_json())
    doc["meta"] = meta
    _atomic_write(out / "audit.json", json.dumps(doc, indent=1))
    header = f"# {TOOL} config_hash={meta['config_hash']} seed={seed}\n"
    _atomic_write(out / "audit.csv", header + report.to_csv())
    for entry in report.entries:
        state = "PASS" if entry.passed else "FAIL"
        print(f"  {state}  {entry.name}: max deviation {entry.max_deviation:.3e} "
              f"(tol {entry.tolerance:.1e}, {entry.trials} trials)")
    if not report.passed():
        print("audit FAILED", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"audit passed; wrote {out}/audit.json")
    return EXIT_OK


def cmd_rollout(args, run_cfg) -> int:
    if args.checkpoint is None or args.scene is None or args.vocab is None:
        raise _UsageError("rollout requires --checkpoint, --scene, and --vocab")
    if args.mode != "greedy" and not 0.0 < args.temperature < math.inf:  # only sampling reads it
        name = "key 'temperature'" if run_cfg.get("temperature") == args.temperature else "--temperature"
        raise _UsageError(f"{name} must be a positive finite number, got {args.temperature}")
    out, seed, horizon, mode = Path(args.out), args.seed, args.horizon, args.mode

    params, cfg, manifest = md.load_checkpoint(args.checkpoint)
    vocab = _checkpoint_vocab(args.vocab, manifest)
    scene = _parse_file(args.scene, sc.scene_from_json)
    resolved = {"checkpoint": args.checkpoint, "scene": args.scene, "horizon": horizon,
                "mode": mode, "n": args.n, "seed": seed, "context": args.context,
                "temperature": args.temperature}
    _print_resolved("rollout", resolved)
    meta = _meta(seed, resolved)

    rollouts = hn.rollout(params, cfg, scene, vocab, horizon, mode=mode, n_rollouts=args.n,
                          seed=seed, context=args.context, temperature=args.temperature)
    t0 = rollouts[0].context_steps
    template = hn.truncate_scene(scene, t0)
    for i, ro in enumerate(rollouts):
        merged = hn.rollout_to_scene(ro, template)
        _atomic_write(out / f"rollout_{i:03d}.json",
                      _with_meta(sc.scene_to_json(merged), {**meta, "rollout": i}))

    summary = {
        "meta": meta,
        "tokens": [ro.tokens.tolist() for ro in rollouts],
        "context_steps": t0,
        "mode": mode,
    }

    lines = [f"# {TOOL} config_hash={meta['config_hash']} seed={seed}",
             "metric,value"]
    # the ADEs cover the predicted agents with ground truth at every predicted step
    scored = rollouts[0].valid[:, t0] & sc.agent_states(scene, t0 + horizon).valid[:, t0:].all(axis=1)
    agents = tuple(a for a, kept in zip(scene.agents, scored) if kept)
    summary["ade_agent_ids"] = [a.id for a in agents]
    if agents:
        # the scene cut to those agents; the first stands in for the ego, which no ADE reads
        cut = dataclasses.replace(scene, agents=agents, ego_id=agents[0].id)
        gt = hn.ground_truth_positions(cut, t0, horizon)
        preds = [ro.predicted_positions[scored] for ro in rollouts]
        model_ade = hn.min_ade(preds, gt)
        cv_ade = hn.min_ade([hn.constant_velocity_positions(cut, t0, horizon)], gt)
        summary["min_ade"] = model_ade
        summary["constant_velocity_ade"] = cv_ade
        lines.append(f"min_ade,{model_ade:.6f}")
        lines.append(f"constant_velocity_ade,{cv_ade:.6f}")
        print(f"minADE {model_ade:.3f} m vs constant-velocity {cv_ade:.3f} m over {len(agents)} agents")
    else:
        print(f"no predicted agent has ground truth at every step t={t0}..{t0 + horizon - 1}; skipping minADE")
    _atomic_write(out / "minade.csv", "\n".join(lines) + "\n")
    _atomic_write(out / "summary.json", json.dumps(summary, indent=1))
    print(f"wrote {args.n} rollouts to {out}")
    return EXIT_OK


def cmd_bench(args, run_cfg) -> int:
    out, seed = Path(args.out), args.seed
    try:
        counts = [int(x) for x in args.agents.split(",") if x]
    except ValueError:
        counts = []
    if not counts or min(counts) < 1:
        raise _UsageError(f"--agents must be comma-separated positive integers, got {args.agents!r}")
    cfg = _model_config(args, run_cfg, None)
    resolved = {"agents": counts, "map_tokens": args.map_tokens, "steps": args.steps,
                "seed": seed, "model": dataclasses.asdict(cfg)}
    _print_resolved("bench", resolved)
    meta = _meta(seed, resolved)

    rows = hn.bench_scaling(cfg, counts, map_tokens=args.map_tokens, steps=args.steps, seed=seed)
    header = f"# {TOOL} config_hash={meta['config_hash']} seed={seed}\n"
    _atomic_write(out / "bench.csv", header + hn.bench_rows_to_csv(rows))
    _atomic_write(out / "bench.json", json.dumps({"meta": meta, "rows": rows}, indent=1))
    by = {(r["agents"], r["variant"]): r for r in rows}
    for a in counts:
        ratio = by[(a, "rpe")]["flops_total"] / by[(a, "vanilla")]["flops_total"]
        print(f"  A={a}: rpe/vanilla FLOP ratio {ratio:.3f}")
    print(f"wrote {out}/bench.csv")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    """Every option's default lives here; `main` lays a run-config file's values over them."""
    parser = _Parser(prog="eqtraffic", description=__doc__)
    parser.add_argument("--version", action="version", version=TOOL)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def command(name, run, help, out, dtype="f32"):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--dtype", choices=("f32", "f64"), default=dtype)
        p.add_argument("--config", help="JSON run-config file; flags override its values")
        p.add_argument("--out", default=out, help="output directory or file")
        return p

    p = command("gen", cmd_gen, "generate synthetic scenes", "scenes")
    p.add_argument("--count", type=int, default=16)

    p = command("vocab", cmd_vocab, "build the action vocabulary from scenes", "vocab.json")
    p.add_argument("--scenes")
    p.add_argument("--k-r", type=float, default=0.05, dest="k_r")
    p.add_argument("--cap", type=int, default=64, help="max vocab entries per class; 0 disables the cap")
    p.add_argument("--w-theta", type=float, default=1.0, dest="w_theta")

    p = command("train", cmd_train, "train the model", "run")
    p.add_argument("--scenes")
    p.add_argument("--vocab")
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--lr", type=float, default=1e-3)

    p = command("check", cmd_check, "equivariance audit", "audit", dtype="f64")
    p.add_argument("--scenes")
    p.add_argument("--vocab")
    p.add_argument("--checkpoint")
    p.add_argument("--random-params", action="store_true", dest="random_params")
    p.add_argument("--negative-control", action="store_true", dest="negative_control")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--rollout-horizon", type=int, default=0, dest="rollout_horizon")

    p = command("rollout", cmd_rollout, "closed-loop rollouts from a checkpoint", "rollouts")
    p.add_argument("--checkpoint")
    p.add_argument("--scene")
    p.add_argument("--vocab")
    p.add_argument("--horizon", type=int, default=20)
    p.add_argument("--mode", choices=("greedy", "sampled", "categorical"), default="greedy")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--context", type=int)
    p.add_argument("--temperature", type=float, default=1.0)

    p = command("bench", cmd_bench, "FLOP and wall-time scaling across agent counts", "bench")
    p.add_argument("--agents", default="8,16,32,64", help="comma-separated agent counts")
    p.add_argument("--map-tokens", type=int, default=32, dest="map_tokens")
    p.add_argument("--steps", type=int, default=10, help="temporal length of the benchmark batch")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)

    keys = _config_keys(parser, args.command)
    try:
        run_cfg = _load_run_config(args.config, keys)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # flag > config file > default: the file's values become the command's defaults (an integer
    # where a number is expected becomes a float, as the flag would parse it)
    flags = {keys[k]: v for k, v in run_cfg.items() if keys[k] is not None}
    parser.commands[args.command].set_defaults(**{a.dest: a.type(v) if a.type else v for a, v in flags.items()})
    args = parser.parse_args(argv)

    try:
        for dest, least in _MINIMUMS.items():
            if getattr(args, dest, least) < least:
                raise _UsageError(f"--{dest.replace('_', '-')} must be at least {least}, got {vars(args)[dest]}")
        for dest in _FINITE:
            if not math.isfinite(getattr(args, dest, 0.0)):
                raise _UsageError(f"--{dest.replace('_', '-')} must be a finite number, got {vars(args)[dest]}")
        for dest, (ok, shown) in _RANGES.items():
            if dest in vars(args) and not ok(vars(args)[dest]):
                raise _UsageError(f"--{dest.replace('_', '-')} must be {shown}, got {vars(args)[dest]}")
        return args.run(args, run_cfg)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (sc.SceneParseError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except md.NonFiniteLossError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
