"""End-to-end CLI: every subcommand through main(), config resolution,
error reporting, and the inspect exports."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from carelens.cli import main
from carelens.data import load_dataset

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
