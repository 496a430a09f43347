"""CLI pipeline: gen -> vocab -> train -> check -> rollout -> bench, exit codes, reruns."""

import contextlib
import dataclasses
import functools
import io
import json
import operator
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eqtraffic import autodiff as ad, cli, model as md, scene as sc
from eqtraffic.model import ModelConfig, load_checkpoint


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One shared pipeline run: scenes, vocab, and a short training run."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg_file = root / "run.json"
    cfg_file.write_text(json.dumps({
        "generator": {"n_agents": 3, "horizon": 10, "n_lanes": 2},
        "model": {"mv_channels": 2, "scalar_channels": 8, "heads": 1, "blocks": 1,
                  "input_hidden": 8, "adapter_hidden": 8, "decoder_hidden": 16},
    }))
    scenes = root / "scenes"
    assert cli.main(["gen", "--count", "6", "--seed", "3", "--out", str(scenes),
                     "--config", str(cfg_file)]) == 0
    vocab = root / "vocab.json"
    assert cli.main(["vocab", "--scenes", str(scenes), "--k-r", "0.02", "--cap", "16",
                     "--seed", "0", "--out", str(vocab)]) == 0
    run = root / "run"
    assert cli.main(["train", "--scenes", str(scenes), "--vocab", str(vocab),
                     "--steps", "30", "--seed", "1", "--out", str(run),
                     "--config", str(cfg_file), "--dtype", "f32"]) == 0
    return {"root": root, "scenes": scenes, "vocab": vocab, "run": run, "cfg": cfg_file}


def test_gen_outputs_and_determinism(workspace, tmp_path):
    scenes = workspace["scenes"]
    files = sorted(p.name for p in scenes.glob("scene_*.json"))
    assert len(files) == 6
    manifest = json.loads((scenes / "manifest.json").read_text())
    assert manifest["count"] == 6
    assert manifest["meta"]["tool"].startswith("eqtraffic")
    assert [e["seed"] for e in manifest["scenes"]] == [3, 4, 5, 6, 7, 8]
    # scene files parse under the strict schema (meta key allowed)
    parsed = sc.scene_from_json((scenes / files[0]).read_text())
    assert len(parsed.agents) == 3

    rerun = tmp_path / "again"
    assert cli.main(["gen", "--count", "6", "--seed", "3", "--out", str(rerun),
                     "--config", str(workspace["cfg"])]) == 0
    for name in files:
        assert (rerun / name).read_bytes() == (scenes / name).read_bytes()


def test_gen_count_zero_writes_manifest_only(tmp_path):
    out = tmp_path / "empty"
    assert cli.main(["gen", "--count", "0", "--seed", "0", "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()
    assert list(out.glob("scene_*.json")) == []


def test_vocab_file_properties(workspace):
    vocab = sc.vocab_from_json(Path(workspace["vocab"]).read_text())
    for cls in sc.AGENT_CLASSES:
        assert 1 <= vocab.size(cls) <= 16
    doc = json.loads(Path(workspace["vocab"]).read_text())
    assert doc["meta"]["seed"] == 0 and "config_hash" in doc["meta"]


def test_train_outputs(workspace):
    run = workspace["run"]
    ckpt, cfg, manifest = load_checkpoint(run / "checkpoint.ckpt")
    assert manifest["meta"]["seed"] == 1
    assert manifest["meta"]["tool"].startswith("eqtraffic")
    lines = (run / "loss.csv").read_text().strip().splitlines()
    assert lines[0].startswith("# eqtraffic")
    assert lines[1] == "step,lr,loss"
    assert len(lines) == 2 + 30
    losses = [float(l.split(",")[2]) for l in lines[2:]]
    assert all(np.isfinite(losses))


def test_check_random_params_passes(workspace, tmp_path):
    out = tmp_path / "audit"
    code = cli.main(["check", "--random-params", "--scenes", str(workspace["scenes"]),
                     "--vocab", str(workspace["vocab"]), "--trials", "3",
                     "--out", str(out), "--config", str(workspace["cfg"]),
                     "--dtype", "f64", "--seed", "0"])
    assert code == 0
    doc = json.loads((out / "audit.json").read_text())
    assert doc["passed"] is True
    names = {e["name"] for e in doc["entries"]}
    assert "end_to_end_logits" in names and "eq_linear" in names
    assert (out / "audit.csv").read_text().startswith("# eqtraffic")


def test_check_negative_control_exits_nonzero(workspace, tmp_path):
    out = tmp_path / "audit_neg"
    code = cli.main(["check", "--negative-control", "--scenes", str(workspace["scenes"]),
                     "--vocab", str(workspace["vocab"]), "--trials", "3",
                     "--out", str(out), "--config", str(workspace["cfg"]),
                     "--dtype", "f64", "--seed", "0"])
    assert code == cli.EXIT_VALIDATION
    doc = json.loads((out / "audit.json").read_text())
    assert doc["passed"] is False


def test_check_trained_checkpoint(workspace, tmp_path):
    out = tmp_path / "audit_ckpt"
    code = cli.main(["check", "--checkpoint", str(workspace["run"] / "checkpoint.ckpt"),
                     "--vocab", str(workspace["vocab"]),
                     "--scenes", str(workspace["scenes"]), "--trials", "2",
                     "--out", str(out), "--dtype", "f64"])
    assert code == 0


def test_rollout_outputs_and_determinism(workspace, tmp_path):
    scene_file = sorted(workspace["scenes"].glob("scene_*.json"))[0]
    out1, out2 = tmp_path / "ro1", tmp_path / "ro2"
    argv = ["rollout", "--checkpoint", str(workspace["run"] / "checkpoint.ckpt"),
            "--scene", str(scene_file), "--vocab", str(workspace["vocab"]),
            "--horizon", "4", "--mode", "greedy", "--n", "2", "--context", "5",
            "--seed", "0"]
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    assert (out1 / "rollout_000.json").read_bytes() == (out2 / "rollout_000.json").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    merged = sc.scene_from_json((out1 / "rollout_000.json").read_text())
    assert merged.agents[0].states[-1].t == 8  # context 5 + horizon 4 - 1
    csv_lines = (out1 / "minade.csv").read_text().strip().splitlines()
    assert csv_lines[1] == "metric,value"
    assert any(l.startswith("min_ade,") for l in csv_lines)
    assert any(l.startswith("constant_velocity_ade,") for l in csv_lines)


def test_rollout_rejects_vocab_of_another_checkpoint(workspace, tmp_path):
    other = tmp_path / "other_vocab.json"
    assert cli.main(["vocab", "--scenes", str(workspace["scenes"]), "--k-r", "0.05",
                     "--cap", "8", "--seed", "0", "--out", str(other)]) == 0
    scene_file = sorted(workspace["scenes"].glob("scene_*.json"))[0]
    code = cli.main(["rollout", "--checkpoint", str(workspace["run"] / "checkpoint.ckpt"),
                     "--scene", str(scene_file), "--vocab", str(other),
                     "--horizon", "2", "--context", "5", "--out", str(tmp_path / "ro")])
    assert code == cli.EXIT_VALIDATION
    assert not (tmp_path / "ro").exists()


def _drop_last(m, payload):
    entry = m["params"].pop()
    del payload[-4 * int(np.prod(entry["shape"])):]


def _poison_first_value(m, payload):
    payload[:4] = np.float32(np.nan).tobytes()


@pytest.mark.parametrize("mutate, where", [
    (lambda m, p: m.pop("params"), "$.params must be a list"),
    (lambda m, p: m.update(params={}), "$.params must be a list"),
    (lambda m, p: m["params"].__setitem__(3, [m["params"][3]["name"]]), "$.params[3] must be an object"),
    (lambda m, p: m["params"][3].update(dtype="<i8"), "$.params[3].dtype is '<i8'"),
    (lambda m, p: m["params"][3].update(dtype="<f8"), "$.params[3].dtype of 'embed/map_mv/bias' is <f8"),
    (lambda m, p: m["params"][3].update(shape=[-1]), "$.params[3].shape"),
    (lambda m, p: m["params"][3].update(shape=[2.5]), "$.params[3].shape"),
    (lambda m, p: m["params"][0].update(shape=[int(np.prod(m["params"][0]["shape"]))]),
     "$.params[0].shape"),
    (lambda m, p: m["params"][0].update(name="embed/agent_mv/weights"), "$.params[0].name"),
    (lambda m, p: m["params"].append({**m["params"][-1], "name": "extra"}), "'extra' is not a parameter"),
    (lambda m, p: m["config"].update(blocks=0), "'block0/"),
    (lambda m, p: m["config"].update(blocks=2),
     "$.params lacks 44 of the configured model's parameters, first 'block1/"),
    (lambda m, p: m["config"].update(bloks=2), "$.config.bloks"),
    (lambda m, p: m["config"].update(vocab_sizes=5), "$.config: "),
    (lambda m, p: m["config"].update(blocks=2**63), "$.config: blocks must be at most 1e6"),
    (lambda m, p: m["config"].update(mv_channels=10**400), "$.config: mv_channels must be at most 1e6"),
    (lambda m, p: m["config"].update(mv_channels="4"), "$.config: mv_channels must be an integer, got '4'"),
    (lambda m, p: m["config"].update(blocks=True), "$.config: blocks must be an integer, got True"),
    (_drop_last, "$.params lacks 1 of the configured model's parameters, first 'decoder/bias'"),
    (_poison_first_value, "$.params[0]: parameter 'embed/agent_mv/weight' holds a non-finite value"),
])
def test_malformed_checkpoint_exits_2(workspace, tmp_path, capsys, mutate, where):
    """A checkpoint is loaded only if it holds exactly the configured model's finite parameters."""
    blob = (workspace["run"] / "checkpoint.ckpt").read_bytes()
    newline = blob.index(b"\n")
    manifest, payload = json.loads(blob[:newline]), bytearray(blob[newline + 1:])
    mutate(manifest, payload)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(json.dumps(manifest).encode() + b"\n" + payload)
    scene_file = sorted(workspace["scenes"].glob("scene_*.json"))[0]
    code = cli.main(["rollout", "--checkpoint", str(bad), "--scene", str(scene_file),
                     "--vocab", str(workspace["vocab"]), "--horizon", "2", "--context", "5",
                     "--out", str(tmp_path / "ro")])
    assert code == cli.EXIT_VALIDATION
    assert where in capsys.readouterr().err
    assert not (tmp_path / "ro").exists()


@pytest.mark.parametrize("fresh", ["--random-params", "--negative-control"])
def test_check_takes_a_checkpoint_or_fresh_weights_not_both(workspace, tmp_path, capsys, fresh):
    code = cli.main(["check", "--checkpoint", str(workspace["run"] / "checkpoint.ckpt"), fresh,
                     "--vocab", str(workspace["vocab"]), "--scenes", str(workspace["scenes"]),
                     "--out", str(tmp_path / "audit")])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: check takes --checkpoint or {fresh}, not both\n"
    assert not (tmp_path / "audit").exists()


def test_check_hash_covers_the_rollout_horizon(workspace, tmp_path):
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    first = sorted(workspace["scenes"].glob("scene_*.json"))[0]
    (scenes / first.name).write_bytes(first.read_bytes())
    hashes = []
    for horizon in ("0", "2"):
        out = tmp_path / f"audit_{horizon}"
        assert cli.main(["check", "--random-params", "--scenes", str(scenes), "--vocab", str(workspace["vocab"]),
                         "--trials", "1", "--rollout-horizon", horizon, "--out", str(out),
                         "--config", str(workspace["cfg"])]) == 0
        hashes.append(json.loads((out / "audit.json").read_text())["meta"]["config_hash"])
    assert hashes[0] != hashes[1]


def test_bench_csv(workspace, tmp_path):
    out = tmp_path / "bench"
    code = cli.main(["bench", "--agents", "2,4", "--map-tokens", "6", "--steps", "4",
                     "--out", str(out), "--config", str(workspace["cfg"]), "--seed", "0"])
    assert code == 0
    lines = (out / "bench.csv").read_text().strip().splitlines()
    assert lines[0].startswith("# eqtraffic")
    assert lines[1].startswith("agents,")
    assert len(lines) == 2 + 2 * 3  # two agent counts x three variants


_FRESH_CHECK = ["check", "--scenes", "x", "--random-params"]
_ROLLOUT = ["rollout", "--checkpoint", "x", "--scene", "y", "--vocab", "z"]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("argv, option, value, least", [
    (["gen"], "count", -1, 0),
    (["vocab", "--scenes", "x"], "cap", -1, 0),
    (["train", "--scenes", "x", "--vocab", "y"], "steps", 0, 1),
    (["bench"], "steps", 0, 1),
    (_FRESH_CHECK, "trials", -1, 0),
    (_FRESH_CHECK, "rollout-horizon", -1, 0),
    (_ROLLOUT, "horizon", 0, 1),
    (_ROLLOUT, "n", 0, 1),
    (["bench"], "map-tokens", 0, 1),
])
def test_count_below_its_range_exits_1(tmp_path, capsys, source, argv, option, value, least):
    """A count option below its range is a one-line usage error that names it, as a flag or a run-config key."""
    if source == "flag":
        argv = argv + [f"--{option}", str(value)]
        message = f"usage error: --{option} must be at least {least}, got {value}"
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({option: value}))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
        message = f"config error: key '{option}' must be at least {least}, got {value}"
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


@pytest.mark.parametrize("source, value", [("flag", "0"), ("flag", "-1"), ("flag", "inf"), ("flag", "nan"),
                                           ("config", "0"), ("config", "-1")])
def test_rollout_temperature_not_positive_and_finite_exits_1(tmp_path, capsys, source, value):
    """A sampling temperature that is not a positive finite number is a one-line usage error that
    names it, as a flag or a run-config key; greedy rollouts never read it."""
    if source == "config":
        (tmp_path / "cfg.json").write_text(json.dumps({"temperature": int(value)}))
        argv, name = _ROLLOUT + ["--config", str(tmp_path / "cfg.json")], "key 'temperature'"
    else:
        argv, name = _ROLLOUT + ["--temperature", value], "--temperature"
    out = tmp_path / "out"
    for mode in ("sampled", "categorical"):
        assert cli.main(argv + ["--mode", mode, "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"usage error: {name} must be a positive finite number, got {float(value)}\n"
    # greedy goes on to load the checkpoint, which is missing here: an io error, not a usage error
    assert cli.main(argv + ["--mode", "greedy", "--out", str(out)]) == cli.EXIT_IO
    assert "temperature" not in capsys.readouterr().err
    assert not out.exists()


def test_usage_errors_exit_1(tmp_path, capsys):
    assert cli.main(["vocab"]) == cli.EXIT_USAGE           # missing --scenes
    assert cli.main(["train"]) == cli.EXIT_USAGE           # missing inputs
    assert cli.main(["check", "--scenes", "x"]) == cli.EXIT_USAGE  # no checkpoint/random
    capsys.readouterr()
    for agents in ("2,x", "0,8", "8,-1", "", ","):
        assert cli.main(["bench", "--agents", agents, "--out", str(tmp_path / "bench")]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"usage error: --agents must be comma-separated positive integers, got {agents!r}\n"
    assert not (tmp_path / "bench").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv, option", [
    (["vocab", "--scenes", "x"], "k-r"),
    (["vocab", "--scenes", "x"], "w-theta"),
    (["train", "--scenes", "x", "--vocab", "y"], "lr"),
])
def test_float_option_not_finite_exits_1(tmp_path, capsys, argv, option, value):
    """A float option that is not finite is a one-line usage error that names it, as a flag or a
    run-config key."""
    out = tmp_path / "out"
    assert cli.main(argv + [f"--{option}={value}", "--out", str(out)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: --{option} must be a finite number, got {float(value)}\n"
    (tmp_path / "cfg.json").write_text(json.dumps({option: float(value)}))  # NaN, Infinity, -Infinity
    assert cli.main(argv + ["--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == cli.EXIT_USAGE
    shown = json.dumps(float(value))
    assert capsys.readouterr().err == f"config error: key '{option}' is out of range: {shown}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_diverging_train_exits_2_with_one_line(workspace, tmp_path, capsys, monkeypatch):
    """A learning rate that drives the loss non-finite ends in exit 2 and one stderr line that
    names the first non-finite op, with no warning and no checkpoint; a real bug still raises."""
    out = tmp_path / "run"
    argv = ["train", "--scenes", str(workspace["scenes"]), "--vocab", str(workspace["vocab"]), "--steps", "3",
            "--lr", "1e30", "--out", str(out), "--config", str(workspace["cfg"])]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("training error: non-finite loss ") and err.count("\n") == 1
    assert "first non-finite output at tape node " in err
    assert not out.exists()

    def broken(*args, **kwargs):
        raise ad.MissingVJPError("no VJP registered for op 'example'")
    monkeypatch.setattr(md, "train", broken)
    with pytest.raises(ad.MissingVJPError):
        cli.main(argv)


def test_validation_errors_exit_2(tmp_path):
    bad_dir = tmp_path / "bad_scenes"
    bad_dir.mkdir()
    (bad_dir / "scene_00000.json").write_text("{\"not\": \"a scene\"}")
    code = cli.main(["vocab", "--scenes", str(bad_dir), "--out", str(tmp_path / "v.json")])
    assert code == cli.EXIT_VALIDATION


def test_non_object_agent_exits_2(tmp_path, capsys):
    scene_dir = tmp_path / "scenes"
    assert cli.main(["gen", "--count", "1", "--seed", "2", "--out", str(scene_dir)]) == 0
    path = next(scene_dir.glob("scene_*.json"))
    doc = json.loads(path.read_text())
    doc["agents"][0] = "car"
    path.write_text(json.dumps(doc))
    code = cli.main(["vocab", "--scenes", str(scene_dir), "--out", str(tmp_path / "v.json")])
    assert code == cli.EXIT_VALIDATION
    assert "$.agents[0]: expected an object" in capsys.readouterr().err


def test_io_errors_exit_3(tmp_path):
    code = cli.main(["rollout", "--checkpoint", str(tmp_path / "missing.ckpt"),
                     "--scene", "nope.json", "--vocab", "nope.json"])
    assert code == cli.EXIT_IO


def test_flags_override_config_file(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"count": 2, "seed": 9,
                                    "generator": {"n_agents": 2, "horizon": 6}}))
    out = tmp_path / "s"
    assert cli.main(["gen", "--config", str(cfg_file), "--count", "1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["count"] == 1            # flag wins
    assert manifest["scenes"][0]["seed"] == 9  # config-file seed used


@pytest.mark.parametrize("mutate, where", [
    (lambda d: d.update(classes=[1]), "$.classes: expected an object"),
    (lambda d: d["classes"]["vehicle"].update(source_count=2.7), "$.classes.vehicle.source_count"),
])
def test_bad_vocab_file_exits_2(workspace, tmp_path, capsys, mutate, where):
    doc = json.loads(Path(workspace["vocab"]).read_text())
    mutate(doc)
    bad = tmp_path / "bad_vocab.json"
    bad.write_text(json.dumps(doc))
    code = cli.main(["train", "--scenes", str(workspace["scenes"]), "--vocab", str(bad),
                     "--steps", "1", "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_VALIDATION
    assert where in capsys.readouterr().err


def test_dtype_option_reaches_the_model_config(workspace, tmp_path):
    """The dtype comes from --dtype (or the top-level key); `model.seed` is the init seed, which
    --seed fills only where the section leaves it out."""
    model = json.loads(workspace["cfg"].read_text())["model"]
    cfg_file = tmp_path / "cfg.json"
    for dtype, file_dtype, section, seed in (("f64", "f32", {**model, "seed": 7}, 7), ("f32", "f64", model, 3)):
        cfg_file.write_text(json.dumps({"dtype": file_dtype, "model": section}))
        out = tmp_path / f"run_{dtype}"
        assert cli.main(["train", "--scenes", str(workspace["scenes"]), "--vocab", str(workspace["vocab"]),
                         "--steps", "1", "--seed", "3", "--dtype", dtype, "--out", str(out),
                         "--config", str(cfg_file)]) == 0
        _, cfg, _ = load_checkpoint(out / "checkpoint.ckpt")
        assert (cfg.dtype, cfg.seed) == (dtype, seed)


def test_model_dtype_in_the_run_config_exits_1(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"dtype": "f32", "model": {"dtype": "f64"}}))
    assert cli.main(["train", "--scenes", "x", "--vocab", "y", "--config", str(cfg_file)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == \
        "config error: key 'model.dtype' is not allowed; set the top-level key 'dtype' or --dtype\n"


def test_unknown_run_config_key_exits_1(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    out = tmp_path / "s"
    for doc, key in (({"cuont": 3}, "cuont"), ({"count": 1, "threads": 4}, "threads"),
                     ({"count": 1, "steps": 5}, "steps"),  # steps is a train/bench flag, not gen's
                     ({"generator": {"n_agnets": 2}}, "n_agnets"), ({"model": {"head": 2}}, "head")):
        cfg_file.write_text(json.dumps(doc))
        assert cli.main(["gen", "--config", str(cfg_file), "--out", str(out)]) == cli.EXIT_USAGE
        assert f"unknown key '{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_run_config_values_of_the_wrong_type_exit_1(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    out = tmp_path / "s"
    for doc, message in (
        ({"generator": {"n_agents": "3"}}, "section 'generator': n_agents must be an integer, got \"3\""),
        ({"model": {"heads": "2"}}, "section 'model': heads must be an integer, got \"2\""),
        ({"model": {"heads": 3}}, "section 'model': channel counts must be divisible by the head count"),
        ({"model": {"input_hidden": 0}}, "section 'model': input_hidden must be >= 1, got 0"),
        ({"model": {"decoder_hidden": -1}}, "section 'model': decoder_hidden must be >= 1, got -1"),
        ({"model": {"vocab_sizes": {"vehicle": "x", "pedestrian": 2, "cyclist": 2}}},
         "section 'model': vocab_sizes must map each of vehicle, pedestrian, cyclist to a positive integer"),
        ({"model": {"vocab_sizes": {"vehicle": 0, "pedestrian": 2, "cyclist": 2}}},
         "section 'model': vocab_sizes must map each of vehicle, pedestrian, cyclist to a positive integer"),
        ({"generator": {"dt": 1e308}}, "section 'generator': dt must be finite and at most 1e+06 in magnitude"),
        ({"generator": {"horizon": 10**400}}, "section 'generator': horizon is out of range: 1000"),
        ({"count": "3"}, "key 'count' must be an integer, got \"3\""),
        ({"dtype": "f16"}, "key 'dtype' must be one of f32, f64, got \"f16\""),
    ):
        cfg_file.write_text(json.dumps(doc))
        assert cli.main(["gen", "--config", str(cfg_file), "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and err.count("\n") == 1, err
    assert not out.exists()


_VALID_MODEL = dataclasses.asdict(ModelConfig(mv_channels=2, scalar_channels=4, heads=1, blocks=1))
_VALID_RUN_CONFIG = {
    "count": 2, "seed": 3, "out": "scenes", "dtype": "f64",
    "generator": dataclasses.asdict(sc.GeneratorConfig(n_agents=2, n_lanes=1, horizon=4)),
    "model": {name: value for name, value in _VALID_MODEL.items() if name != "dtype"},  # dtype is a top-level key
}
_MUTATIONS = {
    "retyped": st.one_of(st.text(max_size=4), st.booleans(), st.none(), st.lists(st.integers(-3, 3), max_size=2),
                         st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2)),
    "huge": st.sampled_from([10**400, -10**400, 2**63, 1e308, -1e308]),
    "nan": st.just(float("nan")),
}


def _mutated_text(draw, valid: dict, paths: list) -> str:
    """`valid` as JSON text with the values at up to three of `paths` dropped, retyped (a value of
    another JSON type), huge or NaN, and the text possibly truncated."""
    doc = json.loads(json.dumps(valid))
    for path in draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3, unique=True)):
        try:
            parent = functools.reduce(operator.getitem, path[:-1], doc)
            old = parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation replaced or removed it
        if not isinstance(parent, (dict, list)):
            continue
        kind = draw(st.sampled_from(["dropped", *_MUTATIONS]))
        if kind == "dropped":
            del parent[path[-1]]
        elif kind == "retyped":
            parent[path[-1]] = draw(_MUTATIONS[kind].filter(lambda v: type(v) is not type(old)))
        else:
            parent[path[-1]] = draw(_MUTATIONS[kind])
    text = json.dumps(doc)
    return text[:draw(st.integers(0, len(text) - 1))] if draw(st.booleans()) else text


@st.composite
def run_config_texts(draw):
    """A valid `gen` run-config file, mutated in its top-level keys and both sections' fields."""
    paths = [(key,) for key in _VALID_RUN_CONFIG]
    paths += [(sec, name) for sec in ("generator", "model") for name in _VALID_RUN_CONFIG[sec]]
    return _mutated_text(draw, _VALID_RUN_CONFIG, paths)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(run_config_texts())
def test_mutated_run_config_exits_0_or_1_with_one_line(text):
    """`gen --config` on a mutated file ends in exit 0 with its scenes, or exit 1 with a one-line message."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_file = Path(tmp) / "run.json"
        cfg_file.write_text(text)
        err, here = io.StringIO(), os.getcwd()
        os.chdir(tmp)  # a dropped "out" writes to ./scenes
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(["gen", "--config", str(cfg_file)])
        finally:
            os.chdir(here)
        if code == cli.EXIT_OK:
            doc = json.loads(text)
            manifest = json.loads((Path(tmp) / doc.get("out", "scenes") / "manifest.json").read_text())
            assert len(manifest["scenes"]) == doc.get("count", 16)
        else:
            assert code == cli.EXIT_USAGE and err.getvalue().count("\n") == 1, (code, err.getvalue())


def _run_quietly(argv: list) -> int:
    """The exit code of `cli.main(argv)` run in process without output; one other than 0 must be
    1, 2 or 3, with a one-line message."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        assert code in (cli.EXIT_USAGE, cli.EXIT_VALIDATION, cli.EXIT_IO), code
        assert err.getvalue().count("\n") == 1, (code, err.getvalue())
    return code


def _valid_scene_doc() -> dict:
    """A small generated scene with two agents of each class, as parsed JSON: dropping one agent or
    one state still leaves every class with transitions."""
    gen = sc.GeneratorConfig(n_agents=6, n_lanes=1, horizon=6, lane_length=15.0)
    scene = sc.generate_synthetic_scene(gen, seed=5)
    agents = tuple(dataclasses.replace(a, agent_class=sc.AGENT_CLASSES[i % 3]) for i, a in enumerate(scene.agents))
    return json.loads(sc.scene_to_json(dataclasses.replace(scene, agents=agents)))


_VALID_SCENE = _valid_scene_doc()


def _paths(node, path=()):
    """Paths of every value inside `node`, containers and their members."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def scene_texts(draw):
    """The valid scene file, mutated anywhere: in its fields, list members and containers."""
    return _mutated_text(draw, _VALID_SCENE, list(_paths(_VALID_SCENE)))


def test_the_valid_scene_makes_a_vocab(tmp_path):
    (tmp_path / "scenes").mkdir()
    (tmp_path / "scenes" / "scene_00000.json").write_text(json.dumps(_VALID_SCENE))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["vocab", "--scenes", str(tmp_path / "scenes"), "--out", str(tmp_path / "v.json")])
    assert code == cli.EXIT_OK


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(scene_texts())
def test_mutated_scene_exits_0_or_fails_with_one_line(text):
    """`vocab` on a mutated scene file ends in exit 0 with a finite vocab, or exit 1, 2 or 3 with a
    one-line message; never in a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        scenes, out = Path(tmp) / "scenes", Path(tmp) / "vocab.json"
        scenes.mkdir()
        (scenes / "scene_00000.json").write_text(text)
        if _run_quietly(["vocab", "--scenes", str(scenes), "--out", str(out)]) == cli.EXIT_OK:
            vocab = sc.vocab_from_json(out.read_text())  # rejects a non-finite number
            assert all(np.isfinite(d).all() for d in vocab.deltas.values())


# the range of each number in a scene file: any magnitude up to the parser's bound, or a
# positive one for a size or a time step; speeds and speed limits must not be negative
_BOUND = 1e9
_SCENE_NUMBERS = {"dt": (1e-6, _BOUND), "length": (1e-6, _BOUND), "width": (1e-6, _BOUND),
                  "speed": (0.0, _BOUND), "speed_limit": (0.0, _BOUND)}


@st.composite
def valid_scene_texts(draw):
    """The valid scene file changed only in ways the format admits: up to three numbers moved within
    their ranges, the agents reordered, and up to two whole states dropped from each agent.  Each
    agent has six consecutive states, and any four of them hold a consecutive pair, so every class
    keeps a transition."""
    doc = json.loads(json.dumps(_VALID_SCENE))
    numbers = [path for path in _paths(doc) if type(functools.reduce(operator.getitem, path, doc)) is float]
    for path in draw(st.lists(st.sampled_from(numbers), max_size=3, unique=True)):
        low, high = _SCENE_NUMBERS.get(path[-1], (-_BOUND, _BOUND))
        functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = draw(
            st.floats(low, high) | st.sampled_from([low, high]))
    doc["agents"] = draw(st.permutations(doc["agents"]))
    for agent in doc["agents"]:
        dropped = draw(st.sets(st.sampled_from(range(len(agent["states"]))), max_size=2))
        agent["states"] = [state for j, state in enumerate(agent["states"]) if j not in dropped]
    return json.dumps(doc)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(valid_scene_texts())
def test_validly_mutated_scene_exits_0_with_a_finite_vocab(text):
    """`vocab` on a scene file that stays valid (numbers in range, agents reordered, states
    dropped) ends in exit 0, with a vocab file that reads back finite."""
    with tempfile.TemporaryDirectory() as tmp:
        scenes, out = Path(tmp) / "scenes", Path(tmp) / "vocab.json"
        scenes.mkdir()
        (scenes / "scene_00000.json").write_text(text)
        assert _run_quietly(["vocab", "--scenes", str(scenes), "--out", str(out)]) == cli.EXIT_OK
        vocab = sc.vocab_from_json(out.read_text())
        assert all(np.isfinite(d).all() for d in vocab.deltas.values())


def test_the_widest_valid_transition_makes_a_vocab_that_trains(tmp_path):
    """Consecutive states at x = 1e9 and x = -1e9 are valid, and so is their delta of about -2e9:
    `vocab` writes it and `train --vocab` reads it back."""
    doc = json.loads(json.dumps(_VALID_SCENE))
    states = doc["agents"][0]["states"]
    states[0]["x"], states[1]["x"] = _BOUND, -_BOUND
    (tmp_path / "scenes").mkdir()
    (tmp_path / "scenes" / "scene_00000.json").write_text(json.dumps(doc))
    vocab = tmp_path / "vocab.json"
    assert _run_quietly(["vocab", "--scenes", str(tmp_path / "scenes"), "--out", str(vocab)]) == cli.EXIT_OK
    assert max(np.abs(d[:, :2]).max() for d in sc.vocab_from_json(vocab.read_text()).deltas.values()) > _BOUND
    assert _run_quietly(["train", "--scenes", str(tmp_path / "scenes"), "--vocab", str(vocab), "--steps", "1",
                         "--out", str(tmp_path / "run")]) == cli.EXIT_OK


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(data=st.data())
def test_mutated_vocab_exits_0_or_fails_with_one_line(workspace, data):
    """`train --steps 1` with a mutated vocab file ends in exit 0 with a finite loss and checkpoint,
    or exit 1, 2 or 3 with a one-line message."""
    valid = json.loads(workspace["vocab"].read_text())
    text = _mutated_text(data.draw, valid, list(_paths(valid)))
    with tempfile.TemporaryDirectory() as tmp:
        vocab, out = Path(tmp) / "vocab.json", Path(tmp) / "run"
        vocab.write_text(text)
        code = _run_quietly(["train", "--scenes", str(workspace["scenes"]), "--vocab", str(vocab), "--steps", "1",
                             "--out", str(out), "--config", str(workspace["cfg"])])
        if code == cli.EXIT_OK:
            load_checkpoint(out / "checkpoint.ckpt")  # rejects a non-finite parameter
            loss = (out / "loss.csv").read_text().splitlines()[-1].split(",")[2]
            assert np.isfinite(float(loss))


@pytest.fixture(scope="module")
def two_step_checkpoint(workspace):
    out = workspace["root"] / "run_2"
    assert cli.main(["train", "--scenes", str(workspace["scenes"]), "--vocab", str(workspace["vocab"]),
                     "--steps", "2", "--out", str(out), "--config", str(workspace["cfg"])]) == 0
    return (out / "checkpoint.ckpt").read_bytes()


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(data=st.data())
def test_mutated_checkpoint_exits_0_or_fails_with_one_line(workspace, two_step_checkpoint, data):
    """`rollout` from a checkpoint with a mutated manifest line, and half the time a truncated body,
    ends in exit 0 with finite rollouts, or exit 1, 2 or 3 with a one-line message."""
    newline = two_step_checkpoint.index(b"\n")
    manifest, body = json.loads(two_step_checkpoint[:newline]), two_step_checkpoint[newline + 1:]
    paths = [path for path in _paths(manifest) if path[0] != "params" or len(path) == 1 or path[1] < 3]
    text = _mutated_text(data.draw, manifest, paths)  # the parameter entries are alike: three stand for all
    if data.draw(st.booleans()):
        body = body[:data.draw(st.integers(0, len(body) - 1))]
    scene = sorted(workspace["scenes"].glob("scene_*.json"))[0]
    with tempfile.TemporaryDirectory() as tmp:
        ckpt, out = Path(tmp) / "bad.ckpt", Path(tmp) / "ro"
        ckpt.write_bytes(text.encode() + b"\n" + body)
        code = _run_quietly(["rollout", "--checkpoint", str(ckpt), "--scene", str(scene), "--vocab",
                             str(workspace["vocab"]), "--horizon", "1", "--context", "5", "--out", str(out)])
        if code == cli.EXIT_OK:
            sc.scene_from_json((out / "rollout_000.json").read_text())  # rejects a non-finite number
            summary = json.loads((out / "summary.json").read_text())
            assert np.isfinite([summary["min_ade"], summary["constant_velocity_ade"]]).all()


def test_config_file_sets_check_flags(workspace, tmp_path):
    """Every flag's dest, in hyphen spelling, is a run-config key, the switches included."""
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({**json.loads(workspace["cfg"].read_text()),
                                    "negative-control": True, "trials": 2, "dtype": "f64"}))
    code = cli.main(["check", "--scenes", str(workspace["scenes"]), "--vocab", str(workspace["vocab"]),
                     "--out", str(tmp_path / "audit"), "--config", str(cfg_file)])
    assert code == cli.EXIT_VALIDATION
    doc = json.loads((tmp_path / "audit" / "audit.json").read_text())
    assert doc["entries"][-1]["name"] == "end_to_end_logits_negative_control"
    assert doc["entries"][-1]["trials"] == (2 + 1) * 6  # the trials and the reference transform, per scene
    assert doc["entries"][-1]["dtype"] == "f64"
