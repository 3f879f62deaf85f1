"""Ranking metrics against brute-force oracles, plus bootstrap reports."""

from __future__ import annotations

import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carelens import metrics
from carelens.metrics import (EvalReport, MetricSummary, auprc, auroc,
                              bootstrap_eval, min_se_pplus)

PROPERTY = settings(max_examples=150, deadline=None, database=None,
                    derandomize=True)


def auroc_oracle(scores, labels):
    """All positive/negative pairs, ties worth half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def auprc_oracle(scores, labels):
    """Descending sweep over distinct scores, one precision reading per
    recall increment."""
    pos = sum(labels)
    pairs = sorted(zip(scores, labels), key=lambda t: -t[0])
    ap = 0.0
    tp = fp = 0
    tp_prev = 0
    i = 0
    while i < len(pairs):
        j = i
        while j < len(pairs) and pairs[j][0] == pairs[i][0]:
            tp += pairs[j][1]
            fp += 1 - pairs[j][1]
            j += 1
        if tp > tp_prev:
            ap += (tp - tp_prev) / pos * (tp / (tp + fp))
        tp_prev = tp
        i = j
    return ap


def min_se_pplus_oracle(scores, labels):
    """Try every distinct score as the >= threshold."""
    pos = sum(labels)
    best = 0.0
    for theta in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if s >= theta and y == 1)
        flagged = sum(1 for s in scores if s >= theta)
        best = max(best, min(tp / pos, tp / flagged))
    return best


# -- frozen values --------------------------------------------------------------


def test_auroc_frozen_cases():
    assert auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert auroc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0
    assert auroc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5
    assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75


def test_auroc_tie_gets_half_credit():
    assert auroc([0.7, 0.7], [1, 0]) == 0.5
    assert auroc([0.7, 0.7, 0.1], [1, 0, 0]) == 0.75


def test_auprc_frozen_cases():
    # single positive ranked last among four
    assert auprc([0.9, 0.8, 0.7, 0.1], [0, 0, 0, 1]) == 0.25
    assert auprc([0.9, 0.8, 0.7, 0.1], [1, 1, 0, 0]) == 1.0
    # positive at rank 1 and rank 3: AP = (1/2)(1/1) + (1/2)(2/3)
    got = auprc([0.9, 0.8, 0.7, 0.1], [1, 0, 1, 0])
    assert abs(got - (0.5 + 0.5 * 2 / 3)) < 1e-15


def test_min_se_pplus_frozen_case():
    # threshold at 0.8: min(1/2, 1/1); at 0.6: min(1/2, 1/2); at 0.4: min(1, 2/3)
    assert min_se_pplus([0.8, 0.6, 0.4], [1, 0, 1]) == 2 / 3
    assert min_se_pplus([0.9, 0.1], [1, 0]) == 1.0


# -- oracle equivalence -----------------------------------------------------------


def test_metrics_equal_brute_force_on_random_draws():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        # half the draws quantized to force ties
        if rng.random() < 0.5:
            scores = np.round(rng.random(n) * 4) / 4
        else:
            scores = rng.normal(size=n)
        y = labels.tolist()
        s = scores.tolist()
        assert auroc(s, y) == auroc_oracle(s, y)
        assert auprc(s, y) == auprc_oracle(s, y)
        assert min_se_pplus(s, y) == min_se_pplus_oracle(s, y)


def test_metrics_exhaustive_small_patterns():
    rng = np.random.default_rng(32)
    for n in range(2, 6):
        for labels in itertools.product((0, 1), repeat=n):
            if sum(labels) in (0, n):
                continue
            scores = rng.normal(size=n).tolist()
            y = list(labels)
            assert auroc(scores, y) == auroc_oracle(scores, y)
            assert auprc(scores, y) == auprc_oracle(scores, y)
            assert min_se_pplus(scores, y) == min_se_pplus_oracle(scores, y)


def test_metrics_invariant_to_monotone_rescaling():
    rng = np.random.default_rng(33)
    s = rng.normal(size=12)
    y = rng.integers(0, 2, 12)
    y[0], y[1] = 0, 1
    t = 3.0 * s + 7.0
    assert auroc(s, y) == auroc(t, y)
    assert auprc(s, y) == auprc(t, y)
    assert min_se_pplus(s, y) == min_se_pplus(t, y)


# -- error contracts ---------------------------------------------------------------


def test_single_class_errors():
    with pytest.raises(ValueError, match="undefined AUROC"):
        auroc([0.1, 0.9], [1, 1])
    with pytest.raises(ValueError, match="undefined AUROC"):
        auroc([0.1, 0.9], [0, 0])
    with pytest.raises(ValueError, match="at least one positive"):
        auprc([0.1, 0.9], [0, 0])
    with pytest.raises(ValueError, match="at least one positive"):
        min_se_pplus([0.1, 0.9], [0, 0])


def test_nan_and_shape_errors():
    with pytest.raises(ValueError, match="NaN score"):
        auroc([0.1, float("nan")], [0, 1])
    with pytest.raises(ValueError):
        auroc([0.1, 0.2, 0.3], [0, 1])
    with pytest.raises(ValueError, match="labels"):
        auroc([0.1, 0.2], [0, 2])
    with pytest.raises(ValueError):
        auroc([], [])


def test_all_negative_auprc_is_error_not_zero():
    with pytest.raises(ValueError):
        auprc([0.5], [0])


# -- bootstrap and reports -----------------------------------------------------------


def test_bootstrap_deterministic_per_seed():
    rng = np.random.default_rng(34)
    s = rng.random(40)
    y = rng.integers(0, 2, 40)
    y[:3] = [0, 1, 1]
    r1 = bootstrap_eval(s, y, reps=50, seed=5)
    r2 = bootstrap_eval(s, y, reps=50, seed=5)
    assert r1.to_json() == r2.to_json()
    r3 = bootstrap_eval(s, y, reps=50, seed=6)
    assert r1.to_json() != r3.to_json()


def test_bootstrap_replicates_keep_both_classes():
    # one positive among twelve: naive resampling would often lose it
    s = np.linspace(0, 1, 12)
    y = np.zeros(12, dtype=int)
    y[-1] = 1
    report = bootstrap_eval(s, y, reps=40, seed=1)
    assert len(report.metrics["auroc"].replicates) == 40
    assert all(math.isfinite(r) for r in report.metrics["auroc"].replicates)


def test_bootstrap_point_matches_direct_metric():
    rng = np.random.default_rng(35)
    s = rng.random(30)
    y = rng.integers(0, 2, 30)
    y[:2] = [0, 1]
    report = bootstrap_eval(s, y, reps=10, seed=2)
    assert report.metrics["auroc"].point == auroc(s, y)
    assert report.metrics["auprc"].point == auprc(s, y)
    assert report.metrics["min_se_pplus"].point == min_se_pplus(s, y)


def test_bootstrap_single_rep_has_zero_std():
    s = [0.1, 0.9, 0.4, 0.6]
    y = [0, 1, 0, 1]
    report = bootstrap_eval(s, y, reps=1, seed=0)
    for m in report.metrics.values():
        assert m.std == 0.0


def test_bootstrap_rejects_degenerate_input():
    with pytest.raises(ValueError, match="both classes"):
        bootstrap_eval([0.1, 0.2], [0, 0], reps=5, seed=0)
    with pytest.raises(ValueError, match="reps"):
        bootstrap_eval([0.1, 0.2], [0, 1], reps=0, seed=0)
    with pytest.raises(ValueError, match=r"^bootstrap seed must be at least 0, not -1$"):
        bootstrap_eval([0.1, 0.2], [0, 1], reps=5, seed=-1)


def test_bootstrap_std_tracks_analytic_scale():
    # Hanley-McNeil standard error for AUROC; the bootstrap spread should
    # land within a factor of 3
    rng = np.random.default_rng(36)
    pos = rng.normal(1.0, 1.0, 60)
    neg = rng.normal(0.0, 1.0, 60)
    s = np.concatenate([pos, neg])
    y = np.concatenate([np.ones(60, dtype=int), np.zeros(60, dtype=int)])
    report = bootstrap_eval(s, y, reps=100, seed=3)
    a = report.metrics["auroc"].point
    q1 = a / (2 - a)
    q2 = 2 * a * a / (1 + a)
    se = math.sqrt((a * (1 - a) + 59 * (q1 - a * a) + 59 * (q2 - a * a))
                   / (60 * 60))
    assert se / 3 < report.metrics["auroc"].std < se * 3


def test_report_table_format():
    rep = EvalReport({
        "auroc": MetricSummary(0.87, 0.8702, 0.0084, [0.87]),
        "auprc": MetricSummary(0.5, 0.5004, 0.0121, [0.5]),
    })
    table = rep.format_table()
    lines = table.splitlines()
    assert lines[0].startswith("auroc")
    assert ".8702 (.008)" in lines[0]
    assert ".5004 (.012)" in lines[1]


def test_report_from_replicates_uses_sample_std():
    reps = [0.8, 0.9, 0.85]
    report = EvalReport.from_replicates({"auroc": 0.84}, {"auroc": reps})
    m = report.metrics["auroc"]
    assert m.point == 0.84
    assert abs(m.mean - np.mean(reps)) < 1e-15
    assert abs(m.std - np.std(reps, ddof=1)) < 1e-15


def test_metrics_emit_no_numpy_warning_when_a_class_is_absent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert auprc([0.1, 0.9], [1, 1]) == 1.0
        assert min_se_pplus([0.1, 0.9], [1, 1]) == 1.0


# -- the per-replicate loops the one-sort kernel replaced ---------------------------


def _descending_groups(s, y):
    """Yield (tp, fp) cumulative counts after each distinct score group,
    walking scores high to low."""
    order = np.argsort(-s, kind="mergesort")
    tp = fp = 0
    i = 0
    n = s.shape[0]
    while i < n:
        j = i
        while j < n and s[order[j]] == s[order[i]]:
            if y[order[j]] == 1:
                tp += 1
            else:
                fp += 1
            j += 1
        yield tp, fp
        i = j


def loop_auroc(s, y):
    """AUROC from average ranks."""
    pos = int(y.sum())
    neg = y.size - pos
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(y.size)
    i = 0
    while i < y.size:
        j = i
        while j < y.size and s[order[j]] == s[order[i]]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + 1 + j)   # average of ranks i+1 .. j
        i = j
    return float((ranks[y == 1].sum() - pos * (pos + 1) / 2.0) / (pos * neg))


def loop_auprc(s, y):
    pos = int(y.sum())
    ap = 0.0
    tp_prev = 0
    for tp, fp in _descending_groups(s, y):
        if tp > tp_prev:
            ap += (tp - tp_prev) / pos * (tp / (tp + fp))
        tp_prev = tp
    return float(ap)


def loop_min_se_pplus(s, y):
    pos = int(y.sum())
    best = 0.0
    for tp, fp in _descending_groups(s, y):
        best = max(best, min(tp / pos, tp / (tp + fp)))
    return float(best)


LOOP_METRICS = {"auroc": loop_auroc, "auprc": loop_auprc,
                "min_se_pplus": loop_min_se_pplus}


def bootstrap_oracle(scores, labels, reps, seed):
    """``bootstrap_eval`` as it was: one draw and three loop metrics per
    replicate, from the same stream with the same one-class redraw."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    points = {name: fn(s, y) for name, fn in LOOP_METRICS.items()}
    rng = np.random.default_rng(np.random.SeedSequence([seed, reps]))
    replicates = {name: [] for name in LOOP_METRICS}
    for _ in range(reps):
        for _ in range(1000):
            idx = rng.integers(0, y.size, y.size)
            if 0 < y[idx].sum() < y.size:
                break
        else:
            raise RuntimeError("bootstrap: could not draw a two-class replicate")
        for name, fn in LOOP_METRICS.items():
            replicates[name].append(fn(s[idx], y[idx]))
    return EvalReport.from_replicates(points, replicates)


def assert_bootstrap_is_the_loop(s, y, reps, seed):
    got = json.dumps(bootstrap_eval(s, y, reps, seed).to_json())
    assert got == json.dumps(bootstrap_oracle(s, y, reps, seed).to_json())


def score_kinds(rng, n):
    """Continuous, quantized (ties), and a mix with +-inf and +-0.0."""
    quantized = np.round(rng.random(n) * 8) / 8
    special = rng.normal(size=n)
    for value, step in ((0.0, 3), (-0.0, 5), (np.inf, 7), (-np.inf, 11)):
        special[rng.integers(0, step)::step] = value
    return {"continuous": rng.random(n), "quantized": quantized,
            "special": special}


@pytest.mark.parametrize("n", [2, 3, 8, 120, 600, 2000, 40000])
def test_bootstrap_is_bitwise_the_per_replicate_loop(n):
    # 40000 cases exceed the block's cells, so every block holds one row;
    # 7 replicates never fill a whole number of blocks
    rng = np.random.default_rng(38 + n)
    y = rng.integers(0, 2, n)
    y[:2] = [0, 1]
    kinds = score_kinds(rng, n)
    if n > 600:
        del kinds["continuous"]
    for kind, s in kinds.items():
        for reps in ((1, 7) if n > 2000 else (1, 7, 100)):
            assert_bootstrap_is_the_loop(s, y, reps, seed=int(rng.integers(1000)))


@pytest.mark.parametrize("seed", [10, *range(401, 411)])
def test_bootstrap_is_bitwise_the_loop_on_the_benchmark_seeds(seed):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, 600)
    y[:2] = [0, 1]
    kinds = score_kinds(rng, 600)
    s = kinds[("continuous", "quantized", "special")[seed % 3]]
    assert_bootstrap_is_the_loop(s, y, 100, seed)


CELLS = metrics._BLOCK_CELLS


@pytest.mark.parametrize("n,reps", [
    (CELLS // 3, 7),        # three rows a block, the last block one row
    (CELLS // 2, 3),        # two rows a block, the last block one row
    (CELLS // 2 + 1, 3),    # one row a block, just
    (CELLS - 1, 2), (CELLS, 2), (CELLS + 1, 2)])    # one row, near the cells
def test_bootstrap_is_the_loop_at_the_block_boundaries(n, reps):
    rng = np.random.default_rng(n)
    y = rng.integers(0, 2, n)
    y[:2] = [0, 1]
    kinds = score_kinds(rng, n)
    for s in (kinds["quantized"], kinds["special"]):
        assert_bootstrap_is_the_loop(s, y, reps, seed=n)


@pytest.mark.parametrize("n", [2, 9, 600])
def test_bootstrap_is_the_loop_when_every_score_ties(n):
    rng = np.random.default_rng(50 + n)
    y = rng.integers(0, 2, n)
    y[:2] = [0, 1]
    s = np.full(n, 0.25)
    assert auroc(s, y) == 0.5
    assert auprc(s, y) == min_se_pplus(s, y) == y.sum() / n
    assert_bootstrap_is_the_loop(s, y, 20, seed=n)


@pytest.mark.parametrize("n", [2, 9, 600])
def test_bootstrap_is_the_loop_when_every_score_is_distinct(n):
    rng = np.random.default_rng(60 + n)
    y = rng.integers(0, 2, n)
    y[:2] = [0, 1]
    s = rng.permutation(n) - n / 2.0
    assert np.unique(s).size == n
    assert_bootstrap_is_the_loop(s, y, 20, seed=n)


def test_a_replicate_that_misses_the_top_scored_group():
    # case 0 holds the top score alone, cases 1-2 tie below it; the stream of
    # this seed draws five replicates without case 0, two of them without 0-2
    s = np.array([0.9, 0.7, 0.7, 0.5, 0.4, 0.3, 0.2, 0.1])
    y = np.array([1, 0, 1, 1, 0, 1, 0, 0])
    seed, reps = 5, 12
    rng = np.random.default_rng(np.random.SeedSequence([seed, reps]))
    drawn = []
    while len(drawn) < reps:                # bootstrap_eval's one-class redraw
        idx = rng.integers(0, 8, 8)
        if 0 < y[idx].sum() < 8:
            drawn.append(set(idx.tolist()))
    assert sum(0 not in idx for idx in drawn) == 5
    assert sum(not {0, 1, 2} & idx for idx in drawn) == 2
    assert_bootstrap_is_the_loop(s, y, reps, seed)
    # the kernel itself, on draws that skip the top group and the tie
    idx = np.array([[3, 4, 5, 6, 7, 3, 4, 5], [1, 2, 7, 7, 6, 5, 4, 3],
                    [6, 3, 6, 3, 6, 3, 6, 3]])
    got = metrics._ranking(s, y, [idx[:2], idx[2:]])
    assert np.isfinite(got).all()
    for r, row in enumerate(idx):
        want = [fn(s[row], y[row]) for fn in LOOP_METRICS.values()]
        assert got[:, r].tolist() == want


def test_bootstrap_memory_does_not_grow_with_reps():
    # a block's buffers are freed before the next block: keeping every
    # replicate's draw counts would take reps * n * 8 bytes (6.4 MB at 400)
    rng = np.random.default_rng(70)
    y = rng.integers(0, 2, 2000)
    s = rng.random(2000)

    def peak(reps):
        bootstrap_eval(s, y, reps, seed=1)
        tracemalloc.start()
        try:
            bootstrap_eval(s, y, reps, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(20), peak(400)
    # the 380 extra replicates' results take about 40 KB
    assert large - small < 2 ** 17, (small, large)


# -- properties ------------------------------------------------------------------


@st.composite
def scored_cases(draw, max_n=30):
    """Two-class labels and scores drawn from a few tie-prone values,
    +-inf, +-0.0 and every finite float."""
    n = draw(st.integers(2, max_n))
    rest = draw(st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2))
    labels = draw(st.permutations([0, 1] + rest))
    value = st.one_of(
        st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.25, 1.0, np.inf]),
        st.floats(allow_nan=False))
    scores = draw(st.lists(value, min_size=n, max_size=n))
    return np.array(scores), np.array(labels)


@PROPERTY
@given(scored_cases(), st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
def test_property_bootstrap_equals_the_loop(case, reps, seed):
    s, y = case
    assert_bootstrap_is_the_loop(s, y, reps, seed)


@PROPERTY
@given(scored_cases(), st.randoms(use_true_random=False))
def test_property_metrics_ignore_case_order(case, rnd):
    s, y = case
    perm = list(range(y.size))
    rnd.shuffle(perm)
    for fn in (auroc, auprc, min_se_pplus):
        assert fn(s[perm], y[perm]) == fn(s, y)


@PROPERTY
@given(scored_cases())
def test_property_metrics_see_only_the_score_order(case):
    s, y = case
    dense = np.unique(s, return_inverse=True)[1].astype(np.float64)
    for fn in (auroc, auprc, min_se_pplus):
        assert fn(dense, y) == fn(s, y)


@PROPERTY
@given(scored_cases())
def test_property_auroc_equals_the_pairwise_oracle(case):
    s, y = case
    assert auroc(s, y) == auroc_oracle(s.tolist(), y.tolist())
