"""The benchmark workloads: set-up, one round of timed operations, and the
checks of the round's outputs against the oracles.

Every workload runs the same pipeline on a cohort written to disk: load it,
score it, trace part of it and bootstrap the scores.  The train workloads
also fit a model on the loaded cohort every round and serve its held-out
split; ``serve`` fits its model once per set-up, on a cohort of its own, and
serves a larger cohort.  So every run reports every end-to-end metric.

Every call into carelens goes through a module attribute looked up at call
time, so the traced run can wrap it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import carelens.data as cl_data
import carelens.metrics as cl_metrics
import carelens.model as cl_model
import carelens.synthetic as cl_synth
import carelens.train as cl_train

import oracles
from timing import Round

PROFILE = ["fast", "fast", "slow", "slow"]
N_BASELINE = 3
MODEL = dict(d=16, heads=2, batch_size=64, lr=1e-2)
BOOTSTRAP_REPS = 100
MIN_AUROC = 0.7               # "well above chance" for a planted signal
ORACLE_TOL = 1e-10
SUM_TOL = 1e-12


def cohort(seed: int, n_cases: int, visits: int | None = None):
    """A generated cohort with the shared feature layout."""
    extra = {} if visits is None else {"min_visits": visits, "max_visits": visits}
    spec = cl_synth.SyntheticSpec(n_features=len(PROFILE), n_baseline=N_BASELINE,
                                  n_cases=n_cases, decay_profile=list(PROFILE),
                                  seed=seed, **extra)
    return cl_synth.generate_synthetic(spec)[0]


@dataclass(frozen=True)
class Workload:
    cases: int                # cohort written to disk and loaded every round
    visits: int | None        # fixed visit count, or None for the default 6..24
    fit_cases: int
    val_cases: int
    epochs: int
    fit_each_round: bool      # False: fit once per set-up on a separate cohort
    trace_every: int          # trace every k-th served case

    @property
    def ops(self) -> tuple[str, ...]:
        fit = ("fit",) if self.fit_each_round else ()
        return ("load",) + fit + ("score", "trace", "bootstrap")

    def config(self, seed: int) -> cl_train.TrainConfig:
        # patience >= max_epochs: early stopping never cuts the epoch budget
        return cl_train.TrainConfig(max_epochs=self.epochs, patience=self.epochs,
                                    seed=seed, **MODEL)

    def setup(self, seed: int, workdir: Path, r: Round, timed) -> dict:
        st = {"seed": seed, "data_path": workdir / "cohort.jsonl",
              "model_path": workdir / "model.json"}
        if not self.fit_each_round:
            fit_ds = timed(r, "fit_cohort",
                           lambda: cohort(seed, self.fit_cases + self.val_cases, self.visits))
            ids = fit_ds.ids()
            model = timed(r, "fit", lambda: cl_train.fit(
                fit_ds, ids[:self.fit_cases], ids[self.fit_cases:], self.config(seed)))
            timed(r, "save_model", lambda: cl_model.save_model(model, st["model_path"]))
            st["log"] = model.log
        ds = timed(r, "cohort", lambda: cohort(seed, self.cases, self.visits))
        timed(r, "save_cohort", lambda: cl_data.save_dataset(ds, st["data_path"]))
        ids = ds.ids()
        n_fit = self.fit_cases + self.val_cases
        served = ids[n_fit:] if self.fit_each_round else ids
        st.update(dataset=ds, served=served, trace_ids=served[::self.trace_every],
                  train=ids[:self.fit_cases], val=ids[self.fit_cases:n_fit])
        return st

    def round(self, st: dict, r: Round, timed) -> None:
        if self.fit_each_round:
            ds = timed(r, "load", lambda: cl_data.load_dataset(st["data_path"]))
            model = timed(r, "fit", lambda: cl_train.fit(ds, st["train"], st["val"],
                                                          self.config(st["seed"])))
            r.out["model"] = model
        else:
            model, ds = timed(r, "load", lambda: (cl_model.load_model(st["model_path"]),
                                                  cl_data.load_dataset(st["data_path"])))
        ids = st["served"] if self.fit_each_round else None     # None: every case
        scores, labels = timed(r, "score", lambda: model.score(ds, ids))
        traces = timed(r, "trace", lambda: model.trace_cases(ds, st["trace_ids"]))
        report = timed(r, "bootstrap", lambda: cl_metrics.bootstrap_eval(
            scores, labels, reps=BOOTSTRAP_REPS, seed=st["seed"]))
        r.out.update(dataset=ds, scores=scores, labels=labels, traces=traces,
                     report=report)

    def metrics(self, st: dict, rounds: list[Round], setups: list[Round]) -> dict:
        """Each timing is the median over rounds of its scaled seconds."""
        def per_s(n: int, key: str, rs=rounds) -> float:
            return n / statistics.median(r.norm(key) for r in rs)

        out = rounds[0].out
        return {
            "train_cases_per_s": (per_s(self.fit_cases * self.epochs, "fit",
                                        rounds if self.fit_each_round else setups),
                                  "cases/s"),
            "heldout_auroc": (cl_metrics.auroc(out["scores"], out["labels"]), "1"),
            "load_cases_per_s": (per_s(self.cases, "load"), "cases/s"),
            "score_cases_per_s": (per_s(len(st["served"]), "score"), "cases/s"),
            "trace_cases_per_s": (per_s(len(st["trace_ids"]), "trace"), "cases/s"),
            "bootstrap_s": (statistics.median(r.norm("bootstrap") for r in rounds), "s"),
        }

    def check(self, st: dict, rounds: list[Round]) -> list[str]:
        out = rounds[0].out
        bad = [f"round {i}: scores differ from round 0"
               for i, r in enumerate(rounds[1:], 1)
               if not np.array_equal(r.out["scores"], out["scores"])]
        bad += _same_cohort(st["dataset"], out["dataset"])
        log = out["model"].log if self.fit_each_round else st["log"]
        if len(log) != self.epochs:
            bad.append(f"{len(log)} epochs logged, budget is {self.epochs}")
        elif not (math.isfinite(log[-1]["train_loss"])
                  and log[-1]["train_loss"] < log[0]["train_loss"]):
            bad.append(f"train_loss {log[0]['train_loss']} -> "
                       f"{log[-1]['train_loss']} did not fall")
        if self.fit_each_round:
            cl_model.save_model(out["model"], st["model_path"])
        return bad + _check_served(st, out)


def _check_served(st: dict, out: dict) -> list[str]:
    """Scores, traces and bootstrap report against the oracles."""
    bad = []
    row = {c.id: i for i, c in enumerate(st["dataset"].cases)}
    served = [st["dataset"].cases[row[i]] for i in st["served"]]
    scores, labels = out["scores"], out["labels"]
    if list(labels) != [c.label for c in served]:
        bad.append("scored labels do not match the cohort")
    if not np.all((scores > 0) & (scores < 1)):
        bad.append("a probability lies outside (0, 1)")
    got, want = cl_metrics.auroc(scores, labels), oracles.auroc_pairs(scores, labels)
    if abs(got - want) > SUM_TOL:
        bad.append(f"held-out AUROC {got!r} != pairwise oracle {want!r}")
    if not want > MIN_AUROC:
        bad.append(f"held-out AUROC {want:.4f} is not well above chance")

    oracle = oracles.ForwardOracle.from_file(st["model_path"])
    position = {c.id: i for i, c in enumerate(served)}
    if [t["id"] for t in out["traces"]] != st["trace_ids"]:
        bad.append("trace_cases returned other ids than asked for")
    for tr in out["traces"]:
        case = served[position[tr["id"]]]
        want = oracle.case(case.timestamps, case.records, case.baseline)
        got = scores[position[tr["id"]]]
        if abs(got - want["prob"]) > ORACLE_TOL:
            bad.append(f"{tr['id']}: score {got!r} != oracle {want['prob']!r}")
        rows = [np.asarray(a) for a in tr["ta_alphas"]]
        rows += list(np.asarray(tr["head_attn"]).reshape(-1, len(tr["final_alpha"])))
        rows.append(np.asarray(tr["final_alpha"]))
        if any((a < 0).any() or abs(a.sum() - 1.0) > SUM_TOL for a in rows):
            bad.append(f"{tr['id']}: an attention row is negative or does not sum to 1")
        if not _close(tr["final_alpha"], want["final_alpha"]):
            bad.append(f"{tr['id']}: final_alpha differs from the oracle")
        if not all(_close(a, b) for a, b in zip(tr["ta_alphas"], want["ta_alphas"])):
            bad.append(f"{tr['id']}: time-damped attention differs from the oracle")
        if not _close(tr["head_attn"], want["head_attn"]):
            bad.append(f"{tr['id']}: head attention differs from the oracle")

    brute = {"auroc": oracles.auroc_pairs, "auprc": oracles.average_precision,
             "min_se_pplus": oracles.min_se_pplus}
    report = out["report"].metrics
    if set(report) != set(brute):
        return bad + [f"bootstrap metrics {sorted(report)} != {sorted(brute)}"]
    for name, fn in brute.items():
        want = fn(scores, labels)
        if abs(report[name].point - want) > SUM_TOL:
            bad.append(f"bootstrap {name} point {report[name].point!r} != oracle {want!r}")
        reps = report[name].replicates
        if len(reps) != BOOTSTRAP_REPS or not all(0.0 <= v <= 1.0 for v in reps):
            bad.append(f"bootstrap {name}: {len(reps)} replicates, or one outside [0, 1]")
    return bad


def _close(a, b) -> bool:
    return np.shape(a) == np.shape(b) and bool(np.all(np.abs(np.asarray(a) - b)
                                                      <= ORACLE_TOL))


def _same_cohort(want, got) -> list[str]:
    """The loaded cohort equals the generated one bit for bit."""
    if got.rejects:
        return [f"load rejected {len(got.rejects)} cases: {got.rejects[0]}"]
    if (got.feature_names, got.baseline_names) != (want.feature_names, want.baseline_names):
        return ["loaded feature or baseline names differ"]
    if [c.id for c in got.cases] != [c.id for c in want.cases]:
        return ["loaded case ids differ"]
    for a, b in zip(want.cases, got.cases):
        if not (a.label == b.label
                and np.array_equal(a.timestamps, b.timestamps)
                and np.array_equal(a.records, b.records)
                and np.array_equal(a.baseline, b.baseline)):
            return [f"loaded case {a.id} differs from the generated one"]
    return []


# 1400-case cohorts: 680 fit, 120 validation, 600 held out and served
_TRAIN = dict(cases=1400, fit_cases=680, val_cases=120, epochs=4,
              fit_each_round=True, trace_every=10)
WORKLOADS = {
    "train_mixed": Workload(visits=None, **_TRAIN),
    "train_uniform": Workload(visits=16, **_TRAIN),
    "serve": Workload(cases=2000, visits=None, fit_cases=500, val_cases=100, epochs=3,
                      fit_each_round=False, trace_every=20),
}
