"""Spans around calls into carelens, recorded from outside the package.

Each traced function is replaced, for the length of a traced phase, by a
wrapper in the namespace its caller looks it up in (``carelens.model`` for
the calls ``forward_batch`` makes, ``carelens.train`` for the calls ``fit``
makes, ``METRICS`` for the calls ``bootstrap_eval`` makes).  A target that
no longer exists is recorded as missing; its metrics then read 0.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

# (module, attribute, span name); "Class.method" patches a method.
TARGETS = [
    ("carelens.model", "gru_forward_batch", "embedding.gru_forward_batch"),
    ("carelens.model", "time_aware_attention_batch", "embedding.time_aware_attention_batch"),
    ("carelens.model", "embed_baseline_batch", "embedding.embed_baseline_batch"),
    ("carelens.model", "encode", "context.encode"),
    ("carelens.model", "decorrelation_total", "context.decorrelation_total"),
    ("carelens.model", "final_attention", "head.final_attention"),
    ("carelens.model", "predict", "head.predict"),
    ("carelens.model", "batch_tensors", "model.batch_tensors"),
    ("carelens.model", "forward_batch", "model.forward_batch"),
    ("carelens.model", "score_cases", "model.score_cases"),
    ("carelens.model", "apply_normalization", "data.apply_normalization"),
    ("carelens.model", "load_model", "model.load_model"),
    ("carelens.model", "FittedModel.trace_cases", "model.trace_cases"),
    ("carelens.train", "fit", "train.fit"),
    ("carelens.train", "make_batches", "data.make_batches"),
    ("carelens.train", "batch_tensors", "model.batch_tensors"),
    ("carelens.train", "forward_batch", "model.forward_batch"),
    ("carelens.train", "cross_entropy", "head.cross_entropy"),
    ("carelens.train", "adam_step", "optim.adam_step"),
    ("carelens.train", "score_cases", "train.validation"),
    ("carelens.train", "apply_normalization", "data.apply_normalization"),
    ("carelens.train", "auroc", "metrics.auroc"),
    ("carelens.train", "auprc", "metrics.auprc"),
    ("carelens.autodiff", "Var.backward", "autodiff.backward"),
    ("carelens.data", "load_dataset", "data.load_dataset"),
    ("carelens.metrics", "bootstrap_eval", "metrics.bootstrap_eval"),
    ("carelens.metrics", "METRICS[auroc]", "metrics.auroc"),
    ("carelens.metrics", "METRICS[auprc]", "metrics.auprc"),
    ("carelens.metrics", "METRICS[min_se_pplus]", "metrics.min_se_pplus"),
    ("carelens.synthetic", "generate_synthetic", "synthetic.generate_synthetic"),
]

# spans whose per-layer figure is the sum of their calls inside one
# model.forward_batch call (the N per-feature calls of one step)
PER_STEP = ("embedding.gru_forward_batch", "embedding.time_aware_attention_batch",
            "embedding.embed_baseline_batch")


@dataclass
class Span:
    name: str
    parent: int          # index into Tracer.spans, -1 at the root
    start: float
    excluded: float      # tracer bookkeeping time inside the span
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start - self.excluded


def count_nodes(*roots) -> int:
    """Graph nodes reachable from ``roots`` through ``_parents``."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(getattr(node, "_parents", ()))
    return len(seen)


class Tracer:
    """Keeps spans and counters in memory while its patches are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, list[float]] = {}
        self.missing: list[str] = []
        self._open: list[int] = []
        self._bookkeeping = 0.0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(value)

    def _inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._open)

    def _after(self, name: str, result) -> None:
        """Counters read off a call's result."""
        if name == "data.make_batches":
            self._count("data.batches_per_epoch", len(result))
            self._count("data.batch_size", sum(len(b) for b in result) / len(result))
        elif name == "model.forward_batch":
            if self._inside("model.trace_cases"):
                self._count("model.traced_forward_calls", 1)
            if self._inside("model.score_cases"):
                prob, decorr = result[0], result[1]
                self._count("autodiff.scored_nodes", count_nodes(prob, decorr))
                self._count("autodiff.scored_cases", prob.shape[0])
        elif name == "model.trace_cases":
            self._count("model.traced_cases", len(result))

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if name == "autodiff.backward":
                t0 = time.perf_counter()
                tracer._count("autodiff.tape_nodes", count_nodes(args[0]))
                tracer._bookkeeping += time.perf_counter() - t0
            idx = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else -1
            # excluded holds the bookkeeping total until the span ends
            span = Span(name, parent, 0.0, tracer._bookkeeping)
            tracer.spans.append(span)
            tracer._open.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._open.pop()
            span.excluded = tracer._bookkeeping - span.excluded
            t0 = time.perf_counter()
            tracer._after(name, result)
            tracer._bookkeeping += time.perf_counter() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        import importlib
        self.missing = []
        for mod_name, attr, name in TARGETS:
            try:
                owner = importlib.import_module(mod_name)
                if attr.startswith("METRICS["):
                    table = owner.METRICS
                    key = attr[len("METRICS["):-1]
                    fn = table[key]
                    table[key] = self.wrap(name, fn)
                    self._undo.append((table, key, fn))
                    continue
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            setattr(owner, attr, self.wrap(name, fn))
            self._undo.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = fn
            else:
                setattr(owner, attr, fn)
        self._undo = []

    def take(self) -> tuple[list[Span], dict[str, list[float]]]:
        """Hand over what was recorded and start afresh."""
        out = (self.spans, self.counts)
        self.spans, self.counts = [], {}
        return out


# -- summaries --------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest of p75/p90/p95/p99/p99.9 with at
    least ten samples beyond it; None below forty samples."""
    n = len(values)
    if n < 40:
        return None
    # in tenths of a percent, so that 100 samples do reach p90
    permille = max(p for p in (750, 900, 950, 990, 999) if n * (1000 - p) >= 10_000)
    rank = math.ceil(permille * n / 1000)    # nearest rank
    return permille / 10, sorted(values)[rank - 1]


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, median and tail in ms, and median self time."""
    durations: dict[str, list[float]] = {}
    child_time = [0.0] * len(spans)
    per_step: dict[tuple[str, int], float] = {}
    for s in spans:
        durations.setdefault(s.name, []).append(s.seconds)
        if s.parent >= 0:
            child_time[s.parent] += s.seconds
            if s.name in PER_STEP and spans[s.parent].name == "model.forward_batch":
                key = (s.name, s.parent)
                per_step[key] = per_step.get(key, 0.0) + s.seconds
    selfs: dict[str, list[float]] = {}
    for i, s in enumerate(spans):
        selfs.setdefault(s.name, []).append(s.seconds - child_time[i])
    for (name, _), secs in per_step.items():
        durations.setdefault(name + "/step", []).append(secs)
    out = {}
    for name, vals in durations.items():
        ms = [v * 1e3 for v in vals]
        entry = {"calls": len(ms), "median_ms": statistics.median(ms),
                 "total_ms": sum(ms)}
        t = tail(ms)
        if t is not None:
            entry["tail_pct"], entry["tail_ms"] = t
        if name in selfs:
            entry["self_median_ms"] = statistics.median(v * 1e3 for v in selfs[name])
        out[name] = entry
    return out
