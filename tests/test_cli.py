"""End-to-end CLI: every subcommand through main(), config resolution,
error reporting, and the inspect exports."""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import carelens
from carelens.cli import TRAIN_OPTS, TRAIN_TYPES, _resolve, build_parser, main
from carelens.data import load_dataset
from carelens.train import TrainConfig

TINY_TRAIN = ["--max-epochs", "2", "--d", "8", "--heads", "2",
              "--batch-size", "16", "--lr", "3e-3"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_dir(tmp_path, capsys, name="data", cases=40, seed=0, extra=()):
    out = tmp_path / name
    code, _, err = run(capsys, "generate", "--out", str(out),
                       "--cases", str(cases), "--seed", str(seed), *extra)
    assert code == 0, err
    return out


def train_dir(tmp_path, capsys, data, name="run", extra=()):
    out = tmp_path / name
    code, _, err = run(capsys, "train", "--out", str(out),
                       "--data", str(data / "dataset.jsonl"),
                       *TINY_TRAIN, *extra)
    assert code == 0, err
    return out


def test_generate_writes_cohort_and_config(tmp_path, capsys):
    out = tmp_path / "gen"
    code, stdout, _ = run(capsys, "generate", "--out", str(out),
                          "--cases", "25", "--seed", "3",
                          "--interaction", "0:1")
    assert code == 0
    assert "25 cases" in stdout
    ds = load_dataset(out / "dataset.jsonl")
    assert len(ds) == 25
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["spec"]["interaction"] == [[0, 1]]
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["command"] == "generate"
    assert resolved["cases"] == 25 and resolved["seed"] == 3


def run_module(*argv):
    """``python -m carelens.cli *argv`` in a child process."""
    src = str(Path(carelens.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "carelens.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_python_dash_m_runs_the_cli(tmp_path):
    # without a __main__ guard this exited 0 and wrote nothing
    out = tmp_path / "gen"
    done = run_module("generate", "--out", str(out), "--cases", "5")
    assert done.returncode == 0, done.stderr
    assert len(load_dataset(out / "dataset.jsonl")) == 5
    done = run_module("generate", "--out", str(out), "--cases", "five")
    assert done.returncode == 2
    assert done.stdout == ""
    line, = done.stderr.splitlines()
    assert "--cases" in json.loads(line)["error"]


def test_generate_is_deterministic(tmp_path, capsys):
    a = gen_dir(tmp_path, capsys, "a", seed=5)
    b = gen_dir(tmp_path, capsys, "b", seed=5)
    assert (a / "dataset.jsonl").read_bytes() == (b / "dataset.jsonl").read_bytes()
    c = gen_dir(tmp_path, capsys, "c", seed=6)
    assert (a / "dataset.jsonl").read_bytes() != (c / "dataset.jsonl").read_bytes()


def test_train_outputs_model_and_log(tmp_path, capsys):
    data = gen_dir(tmp_path, capsys)
    out = tmp_path / "run"
    code, stdout, _ = run(capsys, "train", "--out", str(out),
                          "--data", str(data / "dataset.jsonl"), *TINY_TRAIN)
    assert code == 0
    assert "best val_auprc" in stdout
    assert (out / "model.json").exists()
    rows = [json.loads(l) for l in
            (out / "train_log.jsonl").read_text().splitlines()]
    assert len(rows) == 2
    assert set(rows[0]) == {"epoch", "train_loss", "train_ce",
                            "val_auprc", "val_auroc"}
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["max_epochs"] == 2 and resolved["d"] == 8


def test_config_file_overridden_by_flags(tmp_path, capsys):
    data = gen_dir(tmp_path, capsys)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_epochs": 50, "d": 8, "heads": 2,
                               "batch_size": 16}), encoding="utf-8")
    out = tmp_path / "run"
    code, _, _ = run(capsys, "train", "--out", str(out),
                     "--data", str(data / "dataset.jsonl"),
                     "--config", str(cfg), "--max-epochs", "1")
    assert code == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["max_epochs"] == 1      # flag beats file
    assert resolved["d"] == 8               # file beats default
    assert resolved["lr"] == 1e-3           # default survives


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    data = gen_dir(tmp_path, capsys)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"learning_rate": 0.1}), encoding="utf-8")
    code, _, err = run(capsys, "train", "--out", str(tmp_path / "x"),
                       "--data", str(data / "dataset.jsonl"),
                       "--config", str(cfg))
    assert code == 2
    msg = json.loads(err.strip())
    assert "unknown config key 'learning_rate'" in msg["error"]


def test_bad_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "generate", "--out", "x", "--cases", "notanint")
    assert code == 2
    assert "error" in json.loads(err.strip())


def test_runtime_failure_exits_one_with_json(tmp_path, capsys):
    code, _, err = run(capsys, "train", "--out", str(tmp_path / "x"),
                       "--data", str(tmp_path / "missing.jsonl"))
    assert code == 1
    assert "error" in json.loads(err.strip())


@pytest.mark.parametrize("flag,value", [("--lr", "nan"), ("--lr", "inf"), ("--lr", "-1"),
                                        ("--lambda-decorr", "inf")])
def test_train_refuses_a_bad_rate_with_one_json_line(tmp_path, capsys, flag, value):
    data = gen_dir(tmp_path, capsys, cases=20)
    code, _, err = run(capsys, "train", "--out", str(tmp_path / "run"),
                       "--data", str(data / "dataset.jsonl"), *TINY_TRAIN, flag, value)
    assert code == 1
    key = flag[2:].replace("-", "_")
    assert err.count("\n") == 1 and "RuntimeWarning" not in err
    assert json.loads(err)["error"].startswith(f"ValueError: train config '{key}' must be")
    assert not (tmp_path / "run" / "model.json").exists()


@pytest.mark.parametrize("flag,value", [("--w-fast", "nan"), ("--w-slow", "inf")])
def test_generate_refuses_a_weight_that_is_not_finite(tmp_path, capsys, flag, value):
    code, _, err = run(capsys, "generate", "--out", str(tmp_path / "gen"),
                       "--cases", "10", flag, value)
    assert code == 1
    key = flag[2:].replace("-", "_")
    assert json.loads(err) == {"error": f"ValueError: {key} must be finite, "
                                        f"not {float(value)!r}"}
    assert not (tmp_path / "gen" / "dataset.jsonl").exists()


def test_eval_writes_report(tmp_path, capsys):
    data = gen_dir(tmp_path, capsys)
    run_dir = train_dir(tmp_path, capsys, data)
    out = tmp_path / "eval"
    code, stdout, _ = run(capsys, "eval", "--out", str(out),
                          "--model", str(run_dir / "model.json"),
                          "--data", str(data / "dataset.jsonl"),
                          "--bootstrap", "20", "--seed", "1")
    assert code == 0
    assert "auroc" in stdout and "(" in stdout
    report = json.loads((out / "report.json").read_text())
    for name in ("auroc", "auprc", "min_se_pplus"):
        assert len(report["metrics"][name]["replicates"]) == 20


def test_eval_reports_what_it_scored(tmp_path, capsys):
    data = gen_dir(tmp_path, capsys)
    run_dir = train_dir(tmp_path, capsys, data)
    path = data / "dataset.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines) + "[1, 2]\n")    # one line that is rejected
    out = tmp_path / "eval"
    code, stdout, _ = run(capsys, "eval", "--out", str(out),
                          "--model", str(run_dir / "model.json"),
                          "--data", str(path), "--bootstrap", "5")
    assert code == 0
    dataset = load_dataset(path)
    labels = dataset.labels()
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"metrics", "n_cases", "n_rejected", "prevalence"}
    assert report["n_cases"] == len(dataset) == 40
    assert report["n_rejected"] == len(dataset.rejects) == 1
    assert report["prevalence"] == float(np.mean(labels))
    assert (f"scored 40 cases (1 rejected), prevalence "
            f"{report['prevalence']:.3f}") in stdout


def test_eval_rejects_mismatched_features(tmp_path, capsys):
    data = gen_dir(tmp_path, capsys)
    other = gen_dir(tmp_path, capsys, "other", extra=("--features", "6"))
    run_dir = train_dir(tmp_path, capsys, data)
    code, _, err = run(capsys, "eval", "--out", str(tmp_path / "x"),
                       "--model", str(run_dir / "model.json"),
                       "--data", str(other / "dataset.jsonl"))
    assert code == 1
    assert "mismatch" in json.loads(err.strip())["error"]


def test_cv_writes_fold_replicates(tmp_path, capsys):
    data = gen_dir(tmp_path, capsys, cases=36)
    out = tmp_path / "cv"
    code, stdout, _ = run(capsys, "cv", "--out", str(out),
                          "--data", str(data / "dataset.jsonl"),
                          "--k", "3", *TINY_TRAIN)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["metrics"]["auroc"]["replicates"]) == 3
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["k"] == 3


def test_inspect_exports_attention_tables(tmp_path, capsys):
    data = gen_dir(tmp_path, capsys)
    run_dir = train_dir(tmp_path, capsys, data,
                        extra=("--max-epochs", "0"))
    out = tmp_path / "inspect"
    code, stdout, _ = run(capsys, "inspect", "--out", str(out),
                          "--model", str(run_dir / "model.json"),
                          "--data", str(data / "dataset.jsonl"))
    assert code == 0
    with open(out / "decay_rates.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["feature", "decay_rate"]
    assert len(rows) == 5
    # untrained model keeps its initial decay rate of one
    for _, rate in rows[1:]:
        assert abs(float(rate) - 1.0) < 1e-9
    names = [r[0] for r in rows[1:]]
    for m in range(2):
        with open(out / f"attention_head{m}.csv", newline="") as fh:
            grid = list(csv.reader(fh))
        assert grid[0] == ["query\\key"] + names + ["baseline"]
        assert len(grid) == 6
        for row in grid[1:]:
            weights = [float(x) for x in row[1:]]
            assert abs(sum(weights) - 1.0) < 1e-9
    with open(out / "final_attention.csv", newline="") as fh:
        final = list(csv.reader(fh))
    assert final[0] == names + ["baseline"]
    assert abs(sum(float(x) for x in final[1]) - 1.0) < 1e-9


def test_inspect_label_filter_and_per_patient(tmp_path, capsys):
    data = gen_dir(tmp_path, capsys)
    run_dir = train_dir(tmp_path, capsys, data)
    out = tmp_path / "inspect"
    code, stdout, _ = run(capsys, "inspect", "--out", str(out),
                          "--model", str(run_dir / "model.json"),
                          "--data", str(data / "dataset.jsonl"),
                          "--filter", "label=1", "--per-patient")
    assert code == 0
    ds = load_dataset(data / "dataset.jsonl")
    n_pos = int(ds.labels().sum())
    assert f"inspected {n_pos} cases" in stdout
    with open(out / "final_attention.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "id"
    assert len(rows) == n_pos + 1
    pos_ids = {c.id for c in ds.cases if c.label == 1}
    assert {r[0] for r in rows[1:]} == pos_ids


def test_inspect_flag_filter_with_baseline_name(tmp_path, capsys):
    data = gen_dir(tmp_path, capsys)
    run_dir = train_dir(tmp_path, capsys, data)
    out = tmp_path / "inspect"
    code, stdout, _ = run(capsys, "inspect", "--out", str(out),
                          "--model", str(run_dir / "model.json"),
                          "--data", str(data / "dataset.jsonl"),
                          "--filter", "flag1=1")
    assert code == 0
    ds = load_dataset(data / "dataset.jsonl")
    n = sum(1 for c in ds.cases if c.baseline[1] == 1.0)
    assert f"inspected {n} cases" in stdout


def test_inspect_reports_what_it_inspected(tmp_path, capsys):
    data = gen_dir(tmp_path, capsys)
    run_dir = train_dir(tmp_path, capsys, data)
    path = data / "dataset.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines) + "[1, 2]\n")    # one line that is rejected
    out = tmp_path / "inspect"
    code, stdout, _ = run(capsys, "inspect", "--out", str(out),
                          "--model", str(run_dir / "model.json"),
                          "--data", str(path), "--filter", "flag1=1")
    assert code == 0
    dataset = load_dataset(path)
    labels = [c.label for c in dataset.cases if c.baseline[1] == 1.0]
    summary = json.loads((out / "summary.json").read_text())
    assert summary == {"n_cases": len(labels), "n_rejected": 1,
                       "prevalence": float(np.mean(labels))}
    assert 0 < len(labels) < len(dataset)
    assert (f"inspected {len(labels)} cases (1 rejected), prevalence "
            f"{summary['prevalence']:.3f}, tables in {out}") in stdout


def test_inspect_empty_filter_is_usage_error(tmp_path, capsys):
    data = gen_dir(tmp_path, capsys)
    run_dir = train_dir(tmp_path, capsys, data)
    code, _, err = run(capsys, "inspect", "--out", str(tmp_path / "x"),
                       "--model", str(run_dir / "model.json"),
                       "--data", str(data / "dataset.jsonl"),
                       "--filter", "label=1", "--filter", "label=0")
    assert code == 2
    assert "matched no cases" in json.loads(err.strip())["error"]


def test_inspect_unknown_filter_key(tmp_path, capsys):
    data = gen_dir(tmp_path, capsys)
    run_dir = train_dir(tmp_path, capsys, data)
    code, _, err = run(capsys, "inspect", "--out", str(tmp_path / "x"),
                       "--model", str(run_dir / "model.json"),
                       "--data", str(data / "dataset.jsonl"),
                       "--filter", "sex=1")
    assert code == 2
    assert "unknown filter key 'sex'" in json.loads(err.strip())["error"]


def test_generate_profile_flag(tmp_path, capsys):
    out = gen_dir(tmp_path, capsys, "prof", extra=("--features", "3",
                                                   "--profile", "fast,fast,slow"))
    ds = load_dataset(out / "dataset.jsonl")
    assert ds.feature_names == ["f0_fast", "f1_fast", "f2_slow"]


def test_train_seed_changes_output(tmp_path, capsys):
    data = gen_dir(tmp_path, capsys)
    r1 = train_dir(tmp_path, capsys, data, "r1", extra=("--seed", "0"))
    r2 = train_dir(tmp_path, capsys, data, "r2", extra=("--seed", "0"))
    r3 = train_dir(tmp_path, capsys, data, "r3", extra=("--seed", "4"))
    m1 = json.loads((r1 / "model.json").read_text())["params"]
    m2 = json.loads((r2 / "model.json").read_text())["params"]
    m3 = json.loads((r3 / "model.json").read_text())["params"]
    assert m1 == m2
    assert m1 != m3


# -- the train/cv surface, derived from TrainConfig -----------------------------

TRAIN_OPTION_STRINGS = {
    "-h", "--help", "--config", "--seed", "--out", "--data", "--lr",
    "--batch-size", "--max-epochs", "--patience", "--lambda-decorr",
    "--val-fraction", "--d", "--heads", "--d-ff", "--per-position-keys",
    "--no-per-position-keys", "--time-aware", "--no-time-aware",
    "--pool-positions", "--no-pool-positions"}


def subparser(name):
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


@pytest.mark.parametrize("command,extras", [("train", set()),
                                            ("cv", {"k"})])
def test_train_and_cv_flags_are_pinned_and_follow_train_config(command, extras):
    actions = subparser(command)._actions
    strings = {s for a in actions for s in a.option_strings}
    assert strings == TRAIN_OPTION_STRINGS | {f"--{e}" for e in extras}
    dests = {a.dest for a in actions} - {"help", "config", "out", "data"}
    assert dests == {f.name for f in fields(TrainConfig)} | extras


# every subcommand's flags as the hand-written parser declared them
OPTION_STRINGS = {
    "generate": {"-h", "--help", "--config", "--seed", "--out", "--cases", "--features",
                 "--baseline", "--profile", "--interaction", "--noise", "--prevalence",
                 "--w-fast", "--w-slow", "--w-int"},
    "train": TRAIN_OPTION_STRINGS,
    "eval": {"-h", "--help", "--config", "--seed", "--out", "--model", "--data",
             "--bootstrap"},
    "cv": TRAIN_OPTION_STRINGS | {"--k"},
    "inspect": {"-h", "--help", "--config", "--seed", "--out", "--model", "--data",
                "--filter", "--per-patient", "--no-per-patient"}}


@pytest.mark.parametrize("command", sorted(OPTION_STRINGS))
def test_every_subcommand_keeps_its_flags(command):
    actions = subparser(command)._actions
    assert {s for a in actions for s in a.option_strings} == OPTION_STRINGS[command]
    required = {a.option_strings[0] for a in actions if a.required}
    assert required == {"--out", "--data", "--model"} & OPTION_STRINGS[command]
    # no flag carries a default: a flag left out leaves the config file's value
    assert all(a.default is None for a in actions if a.dest != "help")


# resolved_config.json as the hand-written option table wrote it
RESOLVED_DEFAULTS = """{
  "batch_size": 32,
  "command": "train",
  "d": 32,
  "d_ff": null,
  "data": "DATA",
  "heads": 4,
  "lambda_decorr": 1.0,
  "lr": 0.001,
  "max_epochs": 100,
  "out": "OUT",
  "patience": 10,
  "per_position_keys": false,
  "pool_positions": false,
  "seed": 0,
  "time_aware": true,
  "val_fraction": 0.15
}
"""

RESOLVED_FILE_AND_FLAGS = """{
  "batch_size": 16,
  "command": "train",
  "d": 8,
  "d_ff": null,
  "data": "DATA",
  "heads": 2,
  "lambda_decorr": 0.5,
  "lr": 0.003,
  "max_epochs": 1,
  "out": "OUT",
  "patience": 10,
  "per_position_keys": true,
  "pool_positions": true,
  "seed": 3,
  "time_aware": false,
  "val_fraction": 0.15
}
"""


def test_resolved_config_bytes_are_unchanged(tmp_path, capsys):
    data = gen_dir(tmp_path, capsys)
    path = data / "dataset.jsonl"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_epochs": 50, "d": 8, "heads": 2,
                               "batch_size": 16, "lr": 0.003, "d_ff": None,
                               "time_aware": False, "pool_positions": True}),
                   encoding="utf-8")
    runs = [((), RESOLVED_DEFAULTS),
            (("--config", str(cfg), "--max-epochs", "1", "--per-position-keys",
              "--lambda-decorr", "0.5", "--seed", "3"), RESOLVED_FILE_AND_FLAGS)]
    for i, (argv, want) in enumerate(runs):
        out = tmp_path / f"run{i}"
        code, _, err = run(capsys, "train", "--out", str(out), "--data",
                           str(path), *argv)
        assert code == 0, err
        got = (out / "resolved_config.json").read_text(encoding="utf-8")
        assert got == want.replace("DATA", str(path)).replace("OUT", str(out))


# -- config-file values must have their option's JSON type -----------------------


def config_error(tmp_path, capsys, command, values):
    """Run ``command`` with ``values`` as its config file (bytes: the file's
    bytes); the one-line JSON error of a usage failure.  ``eval`` and
    ``inspect`` are given no model file, so their check must come before any
    file is read."""
    inputs = ()
    if command != "generate":
        data = gen_dir(tmp_path, capsys, cases=20)
        inputs = ("--data", str(data / "dataset.jsonl"))
    if command in ("eval", "inspect"):
        inputs += ("--model", str(tmp_path / "missing.json"))
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(values if type(values) is bytes else json.dumps(values).encode())
    code, out, err = run(capsys, command, "--out", str(tmp_path / "x"),
                         "--config", str(cfg), *inputs)
    assert code == 2, (out, err)
    assert len(err.strip().splitlines()) == 1
    return json.loads(err)["error"]


@pytest.mark.parametrize("values", [["cases"], "cases", 3, None])
def test_a_config_file_that_is_not_a_json_object_is_usage_error(tmp_path, capsys, values):
    # ["cases"] used to exit 1 with a dict-update ValueError, and "cases" to
    # report the unknown key 'a'
    msg = config_error(tmp_path, capsys, "generate", values)
    assert msg == "a config file must hold one JSON object"


@pytest.mark.parametrize("command,raw", [
    ("eval", b"{nope"), ("generate", b"{nope"), ("generate", b'{"seed": 1}\xff'),
    ("generate", b"[" * 100_000 + b"]" * 100_000)])
def test_a_config_file_that_is_not_json_is_usage_error_naming_it(tmp_path, capsys,
                                                                 command, raw):
    # {nope used to exit 1 with a JSONDecodeError that named no file
    msg = config_error(tmp_path, capsys, command, raw)
    assert msg.startswith(f"{tmp_path / 'cfg.json'}: not a JSON document: "), msg


@pytest.mark.parametrize("value", ["false", 0, 1.0, None])
def test_config_bool_option_takes_only_a_json_bool(tmp_path, capsys, value):
    msg = config_error(tmp_path, capsys, "train", {"time_aware": value})
    assert "config key 'time_aware' must be bool" in msg


@pytest.mark.parametrize("key,value", [("batch_size", 16.9), ("batch_size", 16.0),
                                       ("max_epochs", True), ("heads", "2"),
                                       ("patience", None)])
def test_config_int_option_takes_only_a_json_integer(tmp_path, capsys, key, value):
    msg = config_error(tmp_path, capsys, "train", {key: value})
    assert f"config key '{key}' must be int" in msg


@pytest.mark.parametrize("value", ["0.01", True, None, [0.01]])
def test_config_float_option_takes_only_a_json_number(tmp_path, capsys, value):
    msg = config_error(tmp_path, capsys, "train", {"lr": value})
    assert "config key 'lr' must be float" in msg


def test_config_null_only_for_d_ff_and_cv_extras_are_checked(tmp_path, capsys):
    msg = config_error(tmp_path, capsys, "train", {"d_ff": 8.5})
    assert "config key 'd_ff' must be int | None" in msg
    msg = config_error(tmp_path, capsys, "cv", {"k": 2.5})
    assert "config key 'k' must be int" in msg


def test_cv_has_no_workers_option(tmp_path, capsys):
    # cross-validation measures how many processes to use; a workers count
    # is refused as a flag and in a config file
    msg = config_error(tmp_path, capsys, "cv", {"workers": 2})
    assert msg == "unknown config key 'workers'"
    code, out, err = run(capsys, "cv", "--out", str(tmp_path / "y"), "--data",
                         str(tmp_path / "data" / "dataset.jsonl"), "--workers", "2")
    assert (code, out) == (2, "")
    assert len(err.strip().splitlines()) == 1
    assert json.loads(err)["error"] == "unrecognized arguments: --workers 2"


@pytest.mark.parametrize("values,why", [
    ({"cases": 10.7}, "config key 'cases' must be int"),
    ({"noise": "0.1"}, "config key 'noise' must be float"),
    ({"seed": True}, "config key 'seed' must be int"),
    ({"w_int": None}, "config key 'w_int' must be float"),
    ({"profile": ["fast", "slow"]}, "config key 'profile' must be str | None"),
    ({"interaction": "0:1"}, "config key 'interaction' must be list"),
    ({"interaction": [[0, 1]]}, "bad interaction '[0, 1]', expected FEATURE:FLAG"),
    ({"interaction": ["0:x"]}, "bad interaction '0:x', expected FEATURE:FLAG")])
def test_generate_config_values_are_type_checked(tmp_path, capsys, values, why):
    assert why in config_error(tmp_path, capsys, "generate", values)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("values,why", [
    ({"bootstrap": 10.5}, "config key 'bootstrap' must be int"),
    ({"bootstrap": "10"}, "config key 'bootstrap' must be int"),
    ({"seed": 1.0}, "config key 'seed' must be int")])
def test_eval_config_values_are_type_checked(tmp_path, capsys, values, why):
    assert why in config_error(tmp_path, capsys, "eval", values)


# resolved_config.json of generate: an int given for a float option is
# recorded as given
RESOLVED_GENERATE = """{
  "baseline": 3,
  "cases": 12,
  "command": "generate",
  "features": 4,
  "interaction": [
    "0:1"
  ],
  "noise": 0,
  "out": "OUT",
  "prevalence": 0.5,
  "profile": "fast,fast,slow,slow",
  "seed": 4,
  "w_fast": 2,
  "w_int": 1.0,
  "w_slow": 1.0
}
"""


def test_generate_config_of_the_right_types_runs_and_is_recorded_as_given(
        tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cases": 12, "noise": 0, "w_fast": 2,
                               "profile": "fast,fast,slow,slow",
                               "interaction": ["0:1"]}), encoding="utf-8")
    out = tmp_path / "gen"
    code, _, err = run(capsys, "generate", "--out", str(out), "--config",
                       str(cfg), "--seed", "4")
    assert code == 0, err
    assert len(load_dataset(out / "dataset.jsonl")) == 12
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["spec"]["interaction"] == [[0, 1]]
    got = (out / "resolved_config.json").read_text(encoding="utf-8")
    assert got == RESOLVED_GENERATE.replace("OUT", str(out))


def test_config_values_of_the_right_type_become_the_train_config(tmp_path):
    def resolved(**values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values), encoding="utf-8")
        return _resolve(argparse.Namespace(config=str(cfg)), TRAIN_OPTS, TRAIN_TYPES)

    given, opts = resolved(lr=1, lambda_decorr=0, d_ff=None, time_aware=False,
                           batch_size=16)
    assert given == dict(TRAIN_OPTS, lr=1, lambda_decorr=0, time_aware=False,
                         batch_size=16)
    config = TrainConfig(**opts)
    assert config == TrainConfig(lr=1.0, lambda_decorr=0.0, time_aware=False,
                                 batch_size=16)
    assert type(config.lr) is float and type(config.lambda_decorr) is float
    assert TrainConfig(**resolved(d_ff=64)[1]).d_ff == 64


@pytest.mark.parametrize("value", ["no", 0, None])
def test_inspect_config_per_patient_takes_only_a_json_bool(tmp_path, capsys, value):
    # {"per_patient": "no"} used to write per-patient rows
    msg = config_error(tmp_path, capsys, "inspect", {"per_patient": value})
    assert msg == f"config key 'per_patient' must be bool, got {json.dumps(value)}"


# -- inspect filters are numbers, and a label is 0 or 1 ---------------------------


@pytest.mark.parametrize("pair,why", [("label=0.5", "label must be 0 or 1"),
                                      ("label=2", "label must be 0 or 1"),
                                      ("label=abc", "expected KEY=NUMBER"),
                                      ("flag1=abc", "expected KEY=NUMBER"),
                                      ("label", "expected KEY=NUMBER")])
def test_bad_filter_is_usage_error_before_any_file_is_read(tmp_path, capsys,
                                                           pair, why):
    code, _, err = run(capsys, "inspect", "--out", str(tmp_path / "x"),
                       "--model", str(tmp_path / "missing.json"),
                       "--data", str(tmp_path / "missing.jsonl"),
                       "--filter", "label=1", "--filter", pair)
    assert code == 2
    assert json.loads(err.strip())["error"] == f"bad filter '{pair}', {why}"


def test_label_filter_takes_a_float_spelling_of_0(tmp_path, capsys):
    data = gen_dir(tmp_path, capsys)
    run_dir = train_dir(tmp_path, capsys, data, extra=("--max-epochs", "0"))
    code, stdout, _ = run(capsys, "inspect", "--out", str(tmp_path / "y"),
                          "--model", str(run_dir / "model.json"),
                          "--data", str(data / "dataset.jsonl"),
                          "--filter", "label=0.0")
    n_neg = int((load_dataset(data / "dataset.jsonl").labels() == 0).sum())
    assert code == 0 and f"inspected {n_neg} cases" in stdout


# -- eval rejects a bootstrap count below 1 before reading any file ---------------


@pytest.mark.parametrize("given,count", [(("--bootstrap", "0"), 0),
                                         (("--bootstrap", "-3"), -3),
                                         ({"bootstrap": 0}, 0)])
def test_eval_bootstrap_below_one_is_usage_error_before_any_file_is_read(
        tmp_path, capsys, given, count):
    argv = given
    if isinstance(given, dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(given), encoding="utf-8")
        argv = ("--config", str(cfg))
    code, _, err = run(capsys, "eval", "--out", str(tmp_path / "x"),
                       "--model", str(tmp_path / "missing.json"),
                       "--data", str(tmp_path / "missing.jsonl"), *argv)
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert json.loads(err)["error"] == (
        f"option 'bootstrap' must be at least 1, got {count}")
    assert not (tmp_path / "x").exists()
