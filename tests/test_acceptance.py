"""Acceptance suite: gradient integrity, formula fidelity against direct-loop
oracles, planted-signal recovery on synthetic cohorts, and report plumbing.

Each test is self-contained and states its own pass bar.  The slow studies
(planted decay ordering, the time-awareness ablation and the interaction
study) take their per-seed runs from one module-scoped fixture, which shares
them among the CPUs.
"""

from __future__ import annotations

import itertools
import math
import re
import time

import numpy as np
import pytest

import carelens.autodiff as ad
from carelens.autodiff import Var
from carelens.context import decorrelation_total, multi_head_attention
from carelens.data import PatientCase, apply_normalization, fit_normalization
from carelens.embedding import (effective_beta, time_aware_attention_batch,
                                time_damped_scores)
from carelens.head import cross_entropy, final_attention
from carelens.metrics import auprc, auroc, bootstrap_eval, min_se_pplus
from carelens.model import ModelConfig, forward_batch, fork_map, init_params, pad_cases
from carelens.optim import ParamStore
from carelens.optim import grad_check
from carelens.synthetic import SyntheticSpec, generate_synthetic
from carelens.train import (TrainConfig, _derive_seed, cross_validate, fit,
                            split_train_val, train_epoch)

DECAY_FLOOR = 0.01


def softmax_rows(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


# -- 1. end-to-end gradient integrity --------------------------------------------


def test_acceptance_01_every_parameter_passes_end_to_end_grad_check():
    """Tiny full model (3 features, 4 visits, d=8, 2 heads, batch 2, penalty
    weight 1): every parameter's analytic gradient matches central
    differences to a relative error below 1e-4, in under a minute."""
    t0 = time.monotonic()
    cfg = ModelConfig(n_features=3, n_baseline=2, d=8, heads=2)
    store = init_params(cfg, seed=5)
    rng = np.random.default_rng(11)
    cases = []
    for i in range(2):
        ts = np.concatenate([[0.0], np.cumsum(rng.uniform(2.0, 20.0, 3))])
        cases.append(PatientCase(id=f"p{i}", baseline=rng.normal(size=2),
                                 timestamps=ts,
                                 records=rng.normal(size=(3, 4)),
                                 label=i % 2))
    records, delta, baseline, labels, _ = pad_cases(cases)

    def loss(s: ParamStore) -> Var:
        prob, decorr, _ = forward_batch(s, records, delta, baseline, cfg)
        return cross_entropy(prob, labels) + decorr

    errs = grad_check(loss, store, h=3e-5)
    must_cover = {f"channel{n}.attn.beta_raw" for n in range(3)}
    must_cover |= {f"encoder.head{m}.{w}"
                   for m in range(2) for w in ("W_q", "W_k", "W_v")}
    assert must_cover <= errs.keys()
    worst_name = max(errs, key=errs.get)
    assert errs[worst_name] < 1e-4, f"{worst_name}: {errs[worst_name]:.3e}"
    assert time.monotonic() - t0 < 60.0


# -- 2. formula fidelity against direct-loop oracles ------------------------------


def ta_oracle(hidden, ts, w_q, w_k, beta_raw):
    """Time-damped attention, one score at a time."""
    t_len = hidden.shape[0]
    beta = math.log1p(math.exp(beta_raw)) + DECAY_FLOOR
    q = w_q @ hidden[-1]
    zeta = np.empty(t_len)
    for t in range(t_len):
        c = float(q @ (w_k @ hidden[t]))
        dt = float(ts[-1] - ts[t])
        damp = math.log(math.e + (1.0 - sigmoid(c)) * dt)
        zeta[t] = math.tanh(c / (beta * damp))
    alpha = softmax_rows(zeta)
    summary = np.zeros(hidden.shape[1])
    for t in range(t_len):
        summary += alpha[t] * hidden[t]
    return summary, alpha


def mha_oracle(feats, head_mats):
    """Per-head scaled dot-product attention, scores element by element."""
    p_len, _ = feats.shape
    outs, attns = [], []
    for w_q, w_k, w_v in head_mats:
        d_k = w_q.shape[0]
        q = feats @ w_q.T
        k = feats @ w_k.T
        v = feats @ w_v.T
        attn = np.empty((p_len, p_len))
        for i in range(p_len):
            s = np.array([float(q[i] @ k[j]) for j in range(p_len)])
            attn[i] = softmax_rows(s / math.sqrt(d_k))
        out = np.zeros((p_len, d_k))
        for i in range(p_len):
            for j in range(p_len):
                out[i] += attn[i, j] * v[j]
        outs.append(out)
        attns.append(attn)
    return np.concatenate(outs, axis=-1), attns


def cov_penalty(u) -> Var:
    """The covariance penalty of (B, K) rows: ``decorrelation_total`` with
    one feature position."""
    u = ad.as_var(u)
    return decorrelation_total(ad.reshape(u, (u.shape[0], 1, u.shape[1])))


def decorr_oracle(u):
    """Half the squared off-diagonal batch covariance, pair by pair."""
    b_size, k = u.shape
    cent = u - u.mean(axis=0)
    total = 0.0
    for i in range(k):
        for j in range(k):
            if i != j:
                c_ij = float(cent[:, i] @ cent[:, j]) / b_size
                total += 0.5 * c_ij * c_ij
    return total


def final_oracle(fstar, w_q, key_mats):
    """Baseline-queried attention with tanh-bounded scores, one row at a time."""
    p_len, d = fstar.shape
    q = w_q @ fstar[-1]
    zeta = np.array([math.tanh(float(q @ (key_mats[i] @ fstar[i])))
                     for i in range(p_len)])
    alpha = softmax_rows(zeta)
    summary = np.zeros(d)
    for i in range(p_len):
        summary += alpha[i] * fstar[i]
    return summary, alpha


def time_aware_attention(hidden, timestamps, p):
    """One case's (T, d) states and (T,) timestamps through the batched
    production attention as a batch of one, with the (1, ...) weights of
    ``p``: ((d,), (T,)) tape nodes."""
    t_len, d = hidden.shape
    ts = np.asarray(timestamps, dtype=np.float64)
    f, alpha = time_aware_attention_batch(ad.as_var(hidden[None, None]),
                                          (ts[-1] - ts)[None, :], p)
    return ad.reshape(f, (d,)), ad.reshape(alpha, (t_len,))


def test_acceptance_02_attention_and_penalty_match_direct_loop_oracles():
    rng = np.random.default_rng(202)
    for _ in range(100):
        t_len = int(rng.integers(1, 7))
        d = int(rng.integers(2, 7))
        hidden = rng.normal(size=(t_len, d))
        ts = np.concatenate([[0.0], np.cumsum(rng.uniform(1.0, 30.0, t_len - 1))])
        w_q = rng.normal(size=(d, d))
        w_k = rng.normal(size=(d, d))
        raw = float(rng.uniform(-1.0, 2.0))
        p = {"W_q": ad.as_var(w_q[None]), "W_k": ad.as_var(w_k[None]),
             "beta_raw": ad.as_var(np.array([raw]))}
        f, alpha = time_aware_attention(hidden, ts, p)
        f_o, alpha_o = ta_oracle(hidden, ts, w_q, w_k, raw)
        assert np.abs(f.data - f_o).max() <= 1e-12
        assert np.abs(alpha.data - alpha_o).max() <= 1e-12

    for _ in range(100):
        n_heads = int(rng.choice([1, 2, 3]))
        d_k = int(rng.integers(1, 4))
        d = n_heads * d_k if rng.random() < 0.5 else int(rng.integers(2, 7))
        p_len = int(rng.integers(2, 6))
        feats = rng.normal(size=(p_len, d))
        head_mats = [tuple(rng.normal(size=(d_k, d)) for _ in range(3))
                     for _ in range(n_heads)]
        heads = [{"W_q": ad.as_var(a), "W_k": ad.as_var(b), "W_v": ad.as_var(c)}
                 for a, b, c in head_mats]
        u, attns = multi_head_attention(ad.as_var(feats), heads)
        u_o, attns_o = mha_oracle(feats, head_mats)
        assert np.abs(u.data - u_o).max() <= 1e-12
        for got, want in zip(attns, attns_o):
            assert np.abs(got.data - want).max() <= 1e-12

    for _ in range(100):
        b_size = int(rng.integers(1, 7))
        k = int(rng.integers(2, 7))
        u = rng.normal(size=(b_size, k)) * float(rng.uniform(0.5, 3.0))
        got = float(cov_penalty(u).data)
        assert abs(got - decorr_oracle(u)) <= 1e-12

    for trial in range(100):
        p_len = int(rng.integers(2, 6))
        d = int(rng.integers(2, 7))
        fstar = rng.normal(size=(p_len, d))
        w_q = rng.normal(size=(d, d))
        per_position = trial % 2 == 1
        if per_position:
            key_mats = [rng.normal(size=(d, d)) for _ in range(p_len)]
            lv = {"head.W_q_base": ad.as_var(w_q)}
            lv.update({f"head.W_k_{i}": ad.as_var(key_mats[i])
                       for i in range(p_len)})
        else:
            shared = rng.normal(size=(d, d))
            key_mats = [shared] * p_len
            lv = {"head.W_q_base": ad.as_var(w_q), "head.W_k": ad.as_var(shared)}
        summary, alpha = final_attention(ad.as_var(fstar[None]), lv,
                                         per_position_keys=per_position)
        s_o, a_o = final_oracle(fstar, w_q, key_mats)
        assert np.abs(summary.data[0] - s_o).max() <= 1e-12
        assert np.abs(alpha.data[0] - a_o).max() <= 1e-12


# -- 3. decay monotonicity --------------------------------------------------------


def damped_curves(c_vals: np.ndarray, raw_vals: np.ndarray) -> np.ndarray:
    """Production scores for every pair over the horizon 0..200 hours."""
    horizon = np.arange(201.0)
    c = ad.as_var(np.repeat(c_vals[:, None], horizon.size, axis=1))
    beta = effective_beta(ad.as_var(raw_vals[:, None]))
    return time_damped_scores(c, np.broadcast_to(horizon, c.shape), beta).data


def test_acceptance_03_damped_scores_never_regain_magnitude():
    """1000 random (content score, decay rate) pairs: |score| is
    non-increasing in elapsed time, and strictly decreasing whenever the
    content score is positive.  Zero violations allowed.

    Strictness is checked on the half whose draws keep tanh away from its
    float64 saturation plateau (|argument| < ~4.1); at extreme ratios the
    score is exactly 1.0 for a stretch, where only non-increase is
    meaningful.  The wide half covers that regime plus negative and
    near-zero content scores."""
    rng = np.random.default_rng(303)
    c_any = rng.uniform(-6.0, 6.0, 500)
    raw_any = rng.uniform(-2.0, 3.0, 500)
    zeta = damped_curves(c_any, raw_any)
    violations = int((np.diff(np.abs(zeta), axis=1) > 0).sum())

    c_pos = rng.uniform(0.1, 4.0, 500)
    raw_pos = rng.uniform(0.5, 3.0, 500)
    zeta = damped_curves(c_pos, raw_pos)
    violations += int((np.diff(np.abs(zeta), axis=1) > 0).sum())
    violations += int((np.diff(zeta, axis=1) >= 0).sum())
    assert violations == 0


# -- 4. decorrelation penalty behavior --------------------------------------------


def test_acceptance_04_decorrelation_sign_zeros_and_hand_value():
    rng = np.random.default_rng(404)
    for _ in range(200):
        b_size = int(rng.integers(2, 9))
        k = int(rng.integers(2, 7))
        u = rng.normal(size=(b_size, k)) * float(rng.uniform(0.1, 5.0))
        assert float(cov_penalty(u).data) >= 0.0

    for _ in range(20):
        single = rng.normal(size=(1, int(rng.integers(2, 7))))
        assert float(cov_penalty(single).data) == 0.0

    # integer-valued rows keep the column means exact for any batch size
    for b_size in (2, 3, 4, 5, 7):
        row = rng.integers(-9, 10, size=4).astype(float)
        const = np.tile(row, (b_size, 1))
        assert float(cov_penalty(const).data) == 0.0

    hand = float(cov_penalty(np.eye(2)).data)
    assert abs(hand - 0.0625) <= 1e-12


# -- 5. ranking metrics against brute force ---------------------------------------


def auroc_oracle(scores, labels):
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
    pos = sum(labels)
    best = 0.0
    for theta in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if s >= theta and y == 1)
        flagged = sum(1 for s in scores if s >= theta)
        best = max(best, min(tp / pos, tp / flagged))
    return best


def test_acceptance_05_metrics_equal_brute_force_on_all_small_sets():
    """Every two-class label pattern of 2..8 cases (494 of them) plus six
    extra draws: production metrics equal the brute-force oracles exactly.
    Odd trials quantize scores to force ties."""
    rng = np.random.default_rng(505)
    trials = 0

    def check(scores, labels):
        assert auroc(scores, labels) == auroc_oracle(scores, labels)
        assert auprc(scores, labels) == auprc_oracle(scores, labels)
        assert min_se_pplus(scores, labels) == min_se_pplus_oracle(scores, labels)

    for n in range(2, 9):
        for bits in itertools.product((0, 1), repeat=n):
            if sum(bits) in (0, n):
                continue
            raw = rng.uniform(0.0, 1.0, n)
            scores = list(np.round(raw * 4) / 4 if trials % 2 else raw)
            check(scores, list(bits))
            trials += 1
    for _ in range(6):
        labels = [1, 0] + [int(b) for b in rng.integers(0, 2, 6)]
        check(list(rng.uniform(0.0, 1.0, 8)), labels)
        trials += 1
    assert trials == 500


# -- 6. overfit capacity -----------------------------------------------------------


def _overfit_trajectory(seed: int) -> list[float]:
    """Train on 32 cases until the epoch cross-entropy drops below 0.05."""
    spec = SyntheticSpec(n_cases=32, n_features=4, n_baseline=3,
                         decay_profile=["fast", "fast", "slow", "slow"],
                         label_noise=0.0, seed=seed)
    ds_raw, _ = generate_synthetic(spec)
    ids = ds_raw.ids()
    ds = apply_normalization(ds_raw, fit_normalization(ds_raw, ids))
    config = TrainConfig(d=16, heads=2, lr=1e-2, batch_size=16, seed=seed)
    store = init_params(config.model_config(ds), _derive_seed(seed, 1))
    trajectory = []
    for epoch in range(500):
        trajectory.append(train_epoch(store, ds, ids, config, epoch)["train_ce"])
        if trajectory[-1] < 0.05:
            break
    return trajectory


def test_acceptance_06_overfits_32_patients_deterministically():
    t0 = time.monotonic()
    first = _overfit_trajectory(seed=6)
    assert len(first) <= 500
    assert first[-1] < 0.05
    second = _overfit_trajectory(seed=6)
    assert first == second
    assert time.monotonic() - t0 < 300.0


# -- 7 & 8. planted decay ordering and the time-awareness ablation -----------------

STUDY_SEEDS = (0, 1, 2, 3, 4)
STUDY_EPOCHS = 40
# the model and optimiser of 07, 08 and 09
STUDY_CONFIG = dict(d=16, heads=2, lr=1e-2, batch_size=64)


def _train_fixed_budget(ds, train_ids, config: TrainConfig) -> ParamStore:
    """All ``config.max_epochs`` epochs (no early stop, no checkpoint
    restore), so the returned parameters are the end-of-training state."""
    store = init_params(config.model_config(ds), _derive_seed(config.seed, 1))
    for epoch in range(config.max_epochs):
        train_epoch(store, ds, train_ids, config, epoch)
    return store


def _decay_seed(seed: int) -> dict:
    """One seed of ``decay_study``: held-out AUROC of both models, and the
    full model's learned decay rates."""
    from carelens.model import FittedModel, score_cases

    spec = SyntheticSpec(n_cases=1000, n_features=4, n_baseline=3,
                         decay_profile=["fast", "fast", "slow", "slow"],
                         label_noise=0.1, seed=seed,
                         tau_fast=6.0, tau_slow=2000.0, w_fast=2.0)
    ds_raw, _ = generate_synthetic(spec)
    ids = ds_raw.ids()
    order = np.random.default_rng(
        np.random.SeedSequence([seed, 77])).permutation(len(ids))
    test_ids = [ids[i] for i in order[:200]]
    train_ids = [ids[i] for i in order[360:]]
    ds = apply_normalization(ds_raw, fit_normalization(ds_raw, train_ids))
    test_cases = ds.subset(test_ids)
    test_labels = np.array([c.label for c in test_cases], dtype=np.int64)
    entry = {}
    for ta in (True, False):
        config = TrainConfig(time_aware=ta, max_epochs=STUDY_EPOCHS, seed=seed,
                             **STUDY_CONFIG)
        store = _train_fixed_budget(ds, train_ids, config)
        scores = score_cases(store, config.model_config(ds), test_cases)
        entry["full" if ta else "ablated"] = auroc(scores, test_labels)
        if ta:
            betas = list(FittedModel(store, config.model_config(ds), ds.feature_names,
                                     ds.baseline_names).decay_rates().values())
            entry["fast"], entry["slow"] = betas[:2], betas[2:]
    return entry


@pytest.fixture(scope="module")
def decay_study(seed_runs):
    """Five seeds: train the full model and its time-blind twin on a cohort
    whose first two features only matter through their latest value and whose
    last two only matter through their stay-long average."""
    return seed_runs["decay"]


def test_acceptance_07_recovers_planted_decay_ordering(decay_study):
    wins = sum(min(r["fast"]) > max(r["slow"]) for r in decay_study)
    detail = [(round(min(r["fast"]), 3), round(max(r["slow"]), 3))
              for r in decay_study]
    assert wins >= 4, f"min-fast vs max-slow per seed: {detail}"


def test_acceptance_08_time_awareness_lifts_held_out_auroc(decay_study):
    full = np.array([r["full"] for r in decay_study])
    ablated = np.array([r["ablated"] for r in decay_study])
    assert full.mean() >= 0.75, f"per-seed AUROC: {np.round(full, 4)}"
    lift = float((full - ablated).mean())
    assert lift >= 0.01, (f"full {np.round(full, 4)} vs "
                          f"ablated {np.round(ablated, 4)}")


# -- 9. interaction visibility ------------------------------------------------------


def _interaction_gap(seed: int) -> float:
    """One seed of acceptance 09: the flag=1 minus flag=0 mean attention from
    the interacting feature's row to the baseline row."""
    from carelens.model import FittedModel

    spec = SyntheticSpec(n_cases=800, n_features=4, n_baseline=3,
                         decay_profile=["fast", "fast", "slow", "slow"],
                         interaction=[(0, 1)], w_int=5.0, w_fast=0.0,
                         label_noise=0.1, seed=seed)
    ds_raw, _ = generate_synthetic(spec)
    ids = ds_raw.ids()
    norm = fit_normalization(ds_raw, ids)
    ds = apply_normalization(ds_raw, norm)
    config = TrainConfig(max_epochs=100, seed=seed, **STUDY_CONFIG)
    store = _train_fixed_budget(ds, ids, config)
    model = FittedModel(store, config.model_config(ds), list(ds_raw.feature_names),
                        list(ds_raw.baseline_names), norm, [])
    flag_of = {c.id: int(c.baseline[1]) for c in ds_raw.cases}
    weight = {0: [], 1: []}
    for tr in model.trace_cases(ds_raw):
        weight[flag_of[tr["id"]]].append(float(tr["head_attn"][:, 0, -1].mean()))
    return float(np.mean(weight[1]) - np.mean(weight[0]))


@pytest.fixture(scope="module")
def seed_runs():
    """The per-seed runs of 07/08 and of 09, shared among the CPUs by one
    ``fork_map``; each depends only on its seed.  The longer 09 runs come
    first, so that the round-robin deal gives each process a like load."""
    jobs = ([(_interaction_gap, seed) for seed in STUDY_SEEDS]
            + [(_decay_seed, seed) for seed in STUDY_SEEDS])
    out = fork_map(lambda job: job[0](job[1]), jobs)
    return {"gaps": out[:len(STUDY_SEEDS)], "decay": out[len(STUDY_SEEDS):]}


def test_acceptance_09_planted_interaction_shows_in_baseline_attention(seed_runs):
    """A feature whose label effect exists only when a baseline flag is set:
    the trained encoder attends from that feature's row to the baseline row
    more strongly for flag=1 cases than flag=0 cases in >= 4 of 5 seeds."""
    gaps = seed_runs["gaps"]
    wins = sum(gap > 0 for gap in gaps)
    assert wins >= 4, f"flag1-minus-flag0 attention gaps: {[round(g, 4) for g in gaps]}"


# -- 10. protocol plumbing -----------------------------------------------------------


LINE_SHAPE = re.compile(r"[a-z_]+\s+(?:1\.\d{4}|\.\d{4}) \((?:1\.\d{3}|\.\d{3})\)")


def test_acceptance_10_reports_are_formatted_and_bitwise_deterministic():
    spec = SyntheticSpec(n_cases=80, n_features=4, n_baseline=3, seed=10)
    ds, _ = generate_synthetic(spec)
    cfg = TrainConfig(d=8, heads=2, batch_size=32, lr=3e-3, max_epochs=2,
                      patience=2, seed=10)

    cv_a = cross_validate(ds, 10, cfg)
    cv_b = cross_validate(ds, 10, cfg)
    assert cv_a.to_json() == cv_b.to_json()
    assert all(len(m.replicates) == 10 for m in cv_a.metrics.values())

    ids = ds.ids()
    order = np.random.default_rng(np.random.SeedSequence([10, 79])).permutation(len(ids))
    test_ids = [ids[i] for i in order[:20]]
    rest_ids = [ids[i] for i in order[20:]]
    rest_labels = np.array([c.label for c in ds.subset(rest_ids)])
    train_ids, val_ids = split_train_val(rest_ids, rest_labels, 0.2, seed=10)
    model = fit(ds, train_ids, val_ids, cfg)
    scores, labels = model.score(ds, test_ids)
    boot_a = bootstrap_eval(scores, labels, reps=100, seed=10)
    boot_b = bootstrap_eval(scores, labels, reps=100, seed=10)
    assert boot_a.to_json() == boot_b.to_json()
    assert all(len(m.replicates) == 100 for m in boot_a.metrics.values())

    for report in (cv_a, boot_a):
        lines = report.format_table().splitlines()
        assert sorted(l.split()[0] for l in lines) == ["auprc", "auroc",
                                                       "min_se_pplus"]
        for line in lines:
            assert LINE_SHAPE.fullmatch(line), line
