"""carelens benchmark: one workload per run, checked against oracles.

    python3 carebench/run.py --workload train_mixed --seed 1 --seconds 30 --trace 0

Run from the root of a carelens checkout; the package is imported from its
``src`` directory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).  The
line before it gives the host-speed reference; details of the run go to
``.carebench_out/``.
"""

from __future__ import annotations

import os

# one BLAS thread: the model's matrices are tiny, and a fixed thread count
# keeps the arithmetic, and so every checked output, reproducible
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from timing import Round, Timer
from tracer import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3                      # set-ups per run; setup_s is their median
OUT_DIR = ROOT / ".carebench_out"

# per-layer metric -> (unit, source): ("span", name, field) reads a span
# summary, ("ratio", a, b) divides two summed counters, ("count", name)
# takes the median of a counter
PER_LAYER = {
    "autodiff.tape_nodes_per_step": ("count", ("count", "autodiff.tape_nodes")),
    "autodiff.backward_ms": ("ms", ("span", "autodiff.backward", "median_ms")),
    "autodiff.backward_tail_ms": ("ms", ("span", "autodiff.backward", "tail_ms")),
    "autodiff.tape_nodes_per_scored_case": (
        "count", ("ratio", "autodiff.scored_nodes", "autodiff.scored_cases")),
    "embedding.gru_forward_batch_ms": (
        "ms", ("span", "embedding.gru_forward_batch/step", "median_ms")),
    "embedding.gru_forward_batch_tail_ms": (
        "ms", ("span", "embedding.gru_forward_batch/step", "tail_ms")),
    "embedding.time_aware_attention_batch_ms": (
        "ms", ("span", "embedding.time_aware_attention_batch/step", "median_ms")),
    "embedding.embed_baseline_batch_ms": (
        "ms", ("span", "embedding.embed_baseline_batch/step", "median_ms")),
    "context.encode_ms": ("ms", ("span", "context.encode", "median_ms")),
    "context.decorrelation_total_ms": (
        "ms", ("span", "context.decorrelation_total", "median_ms")),
    "head.final_attention_ms": ("ms", ("span", "head.final_attention", "median_ms")),
    "head.predict_ms": ("ms", ("span", "head.predict", "median_ms")),
    "head.cross_entropy_ms": ("ms", ("span", "head.cross_entropy", "median_ms")),
    "optim.adam_step_ms": ("ms", ("span", "optim.adam_step", "median_ms")),
    "optim.adam_step_tail_ms": ("ms", ("span", "optim.adam_step", "tail_ms")),
    "data.make_batches_ms": ("ms", ("span", "data.make_batches", "median_ms")),
    "data.batches_per_epoch": ("count", ("count", "data.batches_per_epoch")),
    "data.mean_batch_size": ("cases", ("count", "data.batch_size")),
    "data.load_dataset_ms": ("ms", ("span", "data.load_dataset", "median_ms")),
    "data.apply_normalization_ms": (
        "ms", ("span", "data.apply_normalization", "median_ms")),
    "model.batch_tensors_ms": ("ms", ("span", "model.batch_tensors", "median_ms")),
    "model.forward_batch_ms": ("ms", ("span", "model.forward_batch", "median_ms")),
    "model.forward_batch_tail_ms": ("ms", ("span", "model.forward_batch", "tail_ms")),
    "model.forward_batch_self_ms": (
        "ms", ("span", "model.forward_batch", "self_median_ms")),
    "model.score_cases_ms": ("ms", ("span", "model.score_cases", "median_ms")),
    "model.score_cases_self_ms": ("ms", ("span", "model.score_cases", "self_median_ms")),
    "model.trace_cases_ms": ("ms", ("span", "model.trace_cases", "median_ms")),
    "model.trace_cases_self_ms": ("ms", ("span", "model.trace_cases", "self_median_ms")),
    "model.forward_calls_per_traced_case": (
        "count", ("ratio", "model.traced_forward_calls", "model.traced_cases")),
    "model.load_model_ms": ("ms", ("span", "model.load_model", "median_ms")),
    "train.fit_ms": ("ms", ("span", "train.fit", "median_ms")),
    "train.fit_self_ms": ("ms", ("span", "train.fit", "self_median_ms")),
    "train.validation_ms": ("ms", ("span", "train.validation", "median_ms")),
    "metrics.auroc_ms": ("ms", ("span", "metrics.auroc", "median_ms")),
    "metrics.auprc_ms": ("ms", ("span", "metrics.auprc", "median_ms")),
    "metrics.min_se_pplus_ms": ("ms", ("span", "metrics.min_se_pplus", "median_ms")),
    "metrics.bootstrap_eval_ms": ("ms", ("span", "metrics.bootstrap_eval", "median_ms")),
    "metrics.bootstrap_eval_self_ms": (
        "ms", ("span", "metrics.bootstrap_eval", "self_median_ms")),
    "synthetic.generate_synthetic_ms": (
        "ms", ("span", "synthetic.generate_synthetic", "median_ms")),
    "bench.trace_overhead_pct": ("%", ("overhead",)),
}


def run_rounds(wl, st, seconds: float, timer):
    """Whole rounds until ``seconds`` have passed; at least one."""
    rounds, failures = [], []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        r = Round()
        try:
            wl.round(st, r, timer)
        except Exception as exc:          # a failing operation is counted, not fatal
            failures.append(f"{type(exc).__name__}: {exc}")
            if len(failures) > 3 and not rounds:
                break
            continue
        if rounds:                         # later rounds need only their scores
            r.out = {"scores": r.out["scores"]}
        rounds.append(r)
    return rounds, failures


def per_layer(summary: dict, counts: dict, overhead_pct: float) -> dict:
    """Every metric of PER_LAYER; 0 where the run recorded nothing for it."""
    metrics = {}
    for name, (unit, src) in PER_LAYER.items():
        value = 0.0
        if src[0] == "span":
            value = summary.get(src[1], {}).get(src[2], 0.0)
        elif src[0] == "count" and counts.get(src[1]):
            value = statistics.median(counts[src[1]])
        elif src[0] == "ratio" and sum(counts.get(src[2], [])):
            value = sum(counts[src[1]]) / sum(counts[src[2]])
        elif src[0] == "overhead":
            value = overhead_pct
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "carelens" / "__init__.py").is_file():
        print(f"carebench: no carelens sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"carebench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    tracer = Tracer() if args.trace else None
    try:
        timer = Timer()
        setups = [Round() for _ in range(SETUPS)]
        for r in setups:
            if tracer:
                tracer.install()
            try:
                st = wl.setup(args.seed, workdir, r, timer)
            finally:
                if tracer:
                    tracer.uninstall()
        plain: list = []
        if tracer:
            setup_spans, _ = tracer.take()
            plain, plain_fail = run_rounds(wl, st, args.seconds / 2, timer)
            tracer.install()
            try:
                rounds, failures = run_rounds(wl, st, args.seconds / 2, timer)
            finally:
                tracer.uninstall()
            spans, counts = tracer.take()
            failures = plain_fail + failures
        else:
            rounds, failures = run_rounds(wl, st, args.seconds, timer)
        try:
            problems = wl.check(st, plain + rounds) if rounds else []
        except Exception as exc:          # an output of an unexpected shape
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n_ops = len(wl.ops)
    n_rounds = len(plain) + len(rounds)
    attempted = n_ops * (n_rounds + len(failures))
    failed = n_ops * len(failures)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": n_rounds, "failures": failures, "problems": problems,
              "setup_seconds": [r.seconds for r in setups],
              "setup_host_ms": [r.host_ms for r in setups],
              "round_seconds": [r.seconds for r in rounds],
              "round_host_ms": [r.host_ms for r in rounds],
              "host_ref_ms": timer.host_ms}
    if tracer:
        def round_total(rs):
            return statistics.median(sum(map(r.norm, r.seconds)) for r in rs)
        overhead = (100.0 * (round_total(rounds) / round_total(plain) - 1.0)
                    if rounds and plain else 0.0)
        summary = summarize(spans)
        summary.update((k, v) for k, v in summarize(setup_spans).items()
                       if k.startswith("synthetic."))
        metrics = per_layer(summary, counts, overhead)
        detail.update(spans=summary, missing_targets=tracer.missing,
                      plain_round_seconds=[r.seconds for r in plain])
    else:
        metrics = {}
        if rounds:
            metrics = {name: {"value": v, "unit": unit}
                       for name, (v, unit) in wl.metrics(st, rounds, setups).items()}
        metrics["setup_s"] = {"value": statistics.median(sum(map(r.norm, r.seconds))
                                                         for r in setups), "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB"}
    detail["metrics"] = metrics
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(detail, indent=1, default=float) + "\n")

    for p in problems + failures:
        print(f"carebench: {p}", file=sys.stderr)
    if tracer and tracer.missing:
        print(f"carebench: not found, reported as 0: {tracer.missing}", file=sys.stderr)
    print(json.dumps({"host_ref_ms": statistics.median(timer.host_ms),
                      "host_ref_min_ms": min(timer.host_ms), "rounds": n_rounds,
                      "detail": str(out_file.relative_to(ROOT))}))
    print(json.dumps({"correct": bool(rounds) and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
