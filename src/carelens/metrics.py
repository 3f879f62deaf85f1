"""Binary ranking metrics and bootstrap/aggregate evaluation reports.

Tie handling is deterministic and documented per metric: AUROC gives half
credit to score ties; AUPRC and min(Se, P+) sweep distinct scores in
descending order, so tied cases enter a threshold as one group.  All three
come from one kernel that sorts the scores once and reads every sample,
the whole set or a bootstrap replicate, as draw counts over that order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _checked(scores, labels) -> tuple[np.ndarray, np.ndarray, int]:
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1 or s.size == 0:
        raise ValueError("scores and labels must be equal-length 1-D and non-empty")
    if np.isnan(s).any():
        raise ValueError("NaN score")
    pos = np.count_nonzero(y == 1)
    if pos + np.count_nonzero(y == 0) != y.size:
        raise ValueError("labels must be 0 or 1")
    return s, y.astype(np.int64, copy=False), pos


# bootstrap_eval counts replicates in blocks of about this many cells: a block
# temporary (32 KB at n = 2000) stays under glibc's 128 KB mmap threshold
_BLOCK_CELLS = 2 ** 12


def _ranking(s: np.ndarray, y: np.ndarray, blocks) -> np.ndarray:
    """(3, R) AUROC, AP and min(Se,P+) of the R samples drawn by ``blocks``,
    an iterable of (rows, n) arrays of indices into ``s`` and ``y``.

    ``s`` is sorted once, descending and stable; a sample is its draw counts
    over that order, summed over tied scores.  Exact to the last bit of a
    per-group loop over the drawn cases: counts and the Mann-Whitney U are
    exact in float64, so AUROC is one rounded division; AP's ``cumsum`` adds
    in sweep order (+0.0 for an undrawn group is exact); max, min are exact."""
    order = np.argsort(-s, kind="stable")
    desc, y_desc = s[order], y[order]
    starts = np.flatnonzero(np.concatenate(([True], desc[1:] != desc[:-1])))
    out = []
    for idx in blocks:
        cells = (idx + np.arange(0, idx.size, s.size)[:, None]).ravel()
        drawn = np.bincount(cells, minlength=idx.size).reshape(idx.shape)
        hits = drawn.take(order, axis=1)     # draw counts in descending order
        dtp = hits * y_desc
        if starts.size < s.size:
            hits = np.add.reduceat(hits, starts, axis=1)
            dtp = np.add.reduceat(dtp, starts, axis=1)
        tp = dtp.cumsum(axis=1, dtype=np.float64)
        k = hits.cumsum(axis=1, dtype=np.float64)      # cases flagged
        pos, n = tp[:, -1], k[:, -1]
        u = ((hits - dtp) * (tp - dtp / 2)).sum(axis=1)
        precision = tp / np.maximum(k, 1)      # k is 0 before the first draw
        ap = (dtp / pos[:, None] * precision).cumsum(axis=1)[:, -1]
        auc = u / np.maximum(pos * (n - pos), 1)   # 0/0: auroc rejects it
        min_se = np.minimum(tp / pos[:, None], precision).max(axis=1)
        out.append(np.stack([auc, ap, min_se]))    # a copy: ap views a block
    return np.concatenate(out, axis=1)


def auroc(scores, labels) -> float:
    """Probability a positive outranks a negative, ties worth 1/2: the
    Mann-Whitney U over pos*neg.  Undefined unless both classes appear."""
    s, y, pos = _checked(scores, labels)
    if pos == 0 or pos == y.size:
        raise ValueError("undefined AUROC: needs both classes")
    return float(_ranking(s, y, [np.arange(y.size)[None]])[0, 0])


def auprc(scores, labels) -> float:
    """Average precision: sum of precision x recall-increment over the
    descending-score sweep.  Needs at least one positive."""
    s, y, pos = _checked(scores, labels)
    if pos == 0:
        raise ValueError("undefined AUPRC: needs at least one positive")
    return float(_ranking(s, y, [np.arange(y.size)[None]])[1, 0])


def min_se_pplus(scores, labels) -> float:
    """Best achievable min(sensitivity, precision) over thresholds at the
    distinct observed scores (predict positive when score >= threshold)."""
    s, y, pos = _checked(scores, labels)
    if pos == 0:
        raise ValueError("undefined min(Se, P+): needs at least one positive")
    return float(_ranking(s, y, [np.arange(y.size)[None]])[2, 0])


METRICS = {"auroc": auroc, "auprc": auprc, "min_se_pplus": min_se_pplus}


@dataclass
class MetricSummary:
    point: float
    mean: float
    std: float
    replicates: list[float]

    def to_json(self) -> dict:
        return {"point": self.point, "mean": self.mean, "std": self.std,
                "replicates": self.replicates}


@dataclass
class EvalReport:
    metrics: dict[str, MetricSummary]

    @staticmethod
    def from_replicates(points: dict[str, float],
                        replicates: dict[str, list[float]]) -> "EvalReport":
        out = {}
        for name, reps in replicates.items():
            arr = np.asarray(reps)
            std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
            out[name] = MetricSummary(points[name], float(arr.mean()), std,
                                      [float(r) for r in reps])
        return EvalReport(out)

    def format_table(self) -> str:
        """mean(std) per metric, in the usual leading-dot style."""
        lines = []
        for name, m in self.metrics.items():
            lines.append(f"{name:<14} {_dot(m.mean, 4)} ({_dot(m.std, 3)})")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {name: m.to_json() for name, m in self.metrics.items()}


def _dot(x: float, digits: int) -> str:
    s = f"{x:.{digits}f}"
    return s[1:] if s.startswith("0.") else s


def bootstrap_eval(scores, labels, reps: int, seed: int) -> EvalReport:
    """Resample cases with replacement ``reps`` times and summarize each
    metric.  Replicates that lose a class are redrawn from the same stream
    (the sample must contain both classes to begin with)."""
    s, y, pos = _checked(scores, labels)
    if reps < 1:
        raise ValueError("reps must be positive")
    if seed < 0:
        raise ValueError(f"bootstrap seed must be at least 0, not {seed!r}")
    if pos in (0, y.size):
        raise ValueError("bootstrap needs both classes in the sample")
    points = {name: fn(s, y) for name, fn in METRICS.items()}
    rng = np.random.default_rng(np.random.SeedSequence([seed, reps]))

    def draw() -> np.ndarray:
        for _ in range(1000):
            idx = rng.integers(0, y.size, y.size)
            if 0 < y[idx].sum() < y.size:
                return idx
        raise RuntimeError("bootstrap: could not draw a two-class replicate")

    rows = max(1, _BLOCK_CELLS // y.size)
    blocks = (np.stack([draw() for _ in range(min(rows, reps - start))])
              for start in range(0, reps, rows))
    replicates = dict(zip(METRICS, _ranking(s, y, blocks).tolist()))
    return EvalReport.from_replicates(points, replicates)
