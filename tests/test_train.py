"""Training loop behavior: determinism, early stopping, logging, CV."""

from __future__ import annotations

import hashlib
import json
import os
import re
import time

import numpy as np
import numpy.testing as npt
import pytest

import carelens.model as model_mod
import carelens.train as train_module
from carelens import autodiff as ad
from carelens.data import apply_normalization, fit_normalization
from carelens.model import ModelConfig, init_params
from carelens.synthetic import SyntheticSpec, generate_synthetic
from carelens.train import (TrainConfig, _derive_seed, cross_validate, fit, split_train_val,
                            train_epoch)

LOG_FIELDS = {"epoch", "train_loss", "train_ce", "val_auprc", "val_auroc"}


def quick_config(**kw):
    base = dict(d=8, heads=2, batch_size=16, max_epochs=3, patience=10,
                lr=3e-3, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def toy_dataset(n=48, seed=0, **kw):
    ds, _ = generate_synthetic(SyntheticSpec(n_cases=n, seed=seed, **kw))
    return ds


def split_ids(ds, n_val):
    ids = ds.ids()
    return ids[n_val:], ids[:n_val]


def test_model_config_carries_every_field_the_configs_share():
    ds = toy_dataset(n=8)
    shared = dict(d=8, heads=2, d_ff=12, per_position_keys=True,
                  time_aware=False, pool_positions=True)
    got = TrainConfig(lr=0.5, patience=3, **shared).model_config(ds)
    assert got == ModelConfig(n_features=ds.n_features,
                              n_baseline=ds.n_baseline, **shared)
    assert TrainConfig().model_config(ds) == ModelConfig(ds.n_features,
                                                         ds.n_baseline)


def test_fit_is_bitwise_deterministic():
    ds = toy_dataset(seed=1)
    train_ids, val_ids = split_ids(ds, 12)
    m1 = fit(ds, train_ids, val_ids, quick_config())
    m2 = fit(ds, train_ids, val_ids, quick_config())
    assert m1.log == m2.log
    npt.assert_array_equal(m1.store.flat("value"), m2.store.flat("value"))
    s1, _ = m1.score(ds)
    s2, _ = m2.score(ds)
    npt.assert_array_equal(s1, s2)


def test_fit_on_mixed_visit_counts_is_bitwise_pinned():
    # 48 cases of 6-24 visits: the trained values and the log (validation
    # scores feed early stopping) must not move by a bit
    ds = toy_dataset(seed=7)
    assert len({c.n_visits for c in ds.cases}) > 10
    train_ids, val_ids = split_ids(ds, 12)
    model = fit(ds, train_ids, val_ids, quick_config())
    digest = hashlib.sha256(model.store.flat("value").tobytes())
    digest.update(json.dumps(model.log).encode())
    assert digest.hexdigest() == ("569d7a5ec73ac6c8f2c7c3750f93b358"
                                  "4acfd8592de03840b292c947f9af7976")


@pytest.mark.parametrize("time_aware,digest", [
    (True, "5e47b836dfde852fa97542648dea2d58a5315c23c8e02e5bd9f6d5f30bad5566"),
    (False, "74e8d14004071488bf93b0d455edf4fc0f002f8df7435aef6a8211f7db2982a0")])
def test_fixed_budget_epochs_are_bitwise_pinned(time_aware, digest):
    # acceptance 07/08's cohort and protocol cut to 120 cases and 3 epochs,
    # with no validation; 19 visit counts, so most batches are small.  The
    # digests are those of the loop 07/08 ran before ``train_epoch`` existed
    spec = SyntheticSpec(n_cases=120, n_features=4, n_baseline=3,
                         decay_profile=["fast", "fast", "slow", "slow"],
                         label_noise=0.1, seed=0, tau_fast=6.0, tau_slow=2000.0,
                         w_fast=2.0)
    ds_raw, _ = generate_synthetic(spec)
    ids = ds_raw.ids()
    ds = apply_normalization(ds_raw, fit_normalization(ds_raw, ids))
    config = TrainConfig(d=16, heads=2, time_aware=time_aware, lr=1e-2, batch_size=64,
                         seed=0)
    store = init_params(config.model_config(ds), _derive_seed(0, 1))
    for epoch in range(3):
        train_epoch(store, ds, ids, config, epoch)
    assert store.step_count == 57
    assert hashlib.sha256(store.flat("value").tobytes()).hexdigest() == digest


def test_a_non_finite_loss_raises_before_its_adam_step(monkeypatch):
    ds = toy_dataset(seed=18)
    train_ids, val_ids = split_ids(ds, 12)
    config = quick_config()
    calls, real_ce = [], train_module.cross_entropy

    def nan_on_batch_1(prob, labels):
        calls.append(1)
        ce = real_ce(prob, labels)
        return ce * np.nan if len(calls) == 2 else ce

    monkeypatch.setattr(train_module, "cross_entropy", nan_on_batch_1)
    store = init_params(config.model_config(ds), 0)
    with pytest.raises(RuntimeError, match="^non-finite loss at epoch 0 batch 1$"):
        train_epoch(store, ds, train_ids, config, 0)
    assert store.step_count == 1
    calls.clear()
    with pytest.raises(RuntimeError, match="^non-finite loss at epoch 0 batch 1$"):
        fit(ds, train_ids, val_ids, config)
    assert len(calls) == 2


def test_fit_seed_changes_model():
    ds = toy_dataset(seed=2)
    train_ids, val_ids = split_ids(ds, 12)
    m1 = fit(ds, train_ids, val_ids, quick_config(seed=0))
    m2 = fit(ds, train_ids, val_ids, quick_config(seed=1))
    assert not np.array_equal(m1.store.flat("value"), m2.store.flat("value"))


def test_log_rows_have_expected_fields():
    ds = toy_dataset(seed=3)
    train_ids, val_ids = split_ids(ds, 12)
    model = fit(ds, train_ids, val_ids, quick_config(max_epochs=2))
    assert len(model.log) == 2
    for i, row in enumerate(model.log):
        assert set(row) == LOG_FIELDS
        assert row["epoch"] == i
        assert all(np.isfinite(v) for v in row.values())


def test_training_reduces_cross_entropy():
    ds = toy_dataset(n=60, seed=4)
    train_ids, val_ids = split_ids(ds, 12)
    model = fit(ds, train_ids, val_ids, quick_config(max_epochs=12))
    ces = [row["train_ce"] for row in model.log]
    assert min(ces[1:]) < ces[0]


def test_early_stopping_cuts_epochs():
    # labels are pure noise, so validation AUPRC cannot keep improving
    ds = toy_dataset(n=40, seed=5, label_noise=0.5)
    train_ids, val_ids = split_ids(ds, 10)
    model = fit(ds, train_ids, val_ids,
                quick_config(max_epochs=60, patience=2))
    assert len(model.log) < 60


def test_best_epoch_weights_are_kept():
    ds = toy_dataset(n=40, seed=6)
    train_ids, val_ids = split_ids(ds, 10)
    model = fit(ds, train_ids, val_ids, quick_config(max_epochs=6))
    best = max(row["val_auprc"] for row in model.log)
    scores, labels = model.score(ds, val_ids)
    from carelens.metrics import auprc
    assert auprc(scores, labels) == best


def test_zero_epochs_returns_untrained_but_usable_model():
    ds = toy_dataset(seed=7)
    train_ids, val_ids = split_ids(ds, 12)
    model = fit(ds, train_ids, val_ids, quick_config(max_epochs=0))
    assert model.log == []
    scores, _ = model.score(ds)
    assert np.isfinite(scores).all()
    for v in model.decay_rates().values():
        assert abs(v - 1.0) < 1e-12


def test_fit_rejects_bad_splits():
    ds = toy_dataset(seed=8)
    ids = ds.ids()
    with pytest.raises(ValueError, match="overlap"):
        fit(ds, ids[:20], ids[15:25], quick_config())
    with pytest.raises(ValueError, match="non-empty"):
        fit(ds, ids, [], quick_config())


@pytest.mark.parametrize("missing, label", [("positive", 0), ("negative", 1)])
def test_fit_rejects_single_class_validation_before_training(monkeypatch,
                                                             missing, label):
    import carelens.train as train_module
    ds = toy_dataset(seed=14)
    val_ids = [c.id for c in ds.cases if c.label == label][:6]
    train_ids = [i for i in ds.ids() if i not in set(val_ids)]
    steps = []
    monkeypatch.setattr(train_module, "make_batches",
                        lambda *a, **k: steps.append(a) or [])
    with pytest.raises(ValueError, match=f"validation split has no {missing} case"):
        fit(ds, train_ids, val_ids, quick_config())
    assert steps == []


def test_fit_normalizes_from_train_ids_only():
    ds = toy_dataset(seed=9)
    train_ids, val_ids = split_ids(ds, 12)
    model = fit(ds, train_ids, val_ids, quick_config(max_epochs=0))
    from carelens.data import fit_normalization
    expect = fit_normalization(ds, train_ids)
    npt.assert_array_equal(model.normalization.feature_mean,
                           expect.feature_mean)
    npt.assert_array_equal(model.normalization.feature_std,
                           expect.feature_std)


def test_train_config_validation():
    for bad in (dict(lr=0.0), dict(batch_size=0), dict(max_epochs=-1),
                dict(patience=0), dict(lambda_decorr=-0.1),
                dict(val_fraction=0.0)):
        with pytest.raises(ValueError):
            TrainConfig(**bad).validate()
    TrainConfig().validate()
    TrainConfig(max_epochs=0, lambda_decorr=0.0).validate()


NON_FINITE_TRAIN = [
    (dict(lr=float("nan")), "train config 'lr' must be finite and above 0, not nan"),
    (dict(lr=float("inf")), "train config 'lr' must be finite and above 0, not inf"),
    (dict(lr=-1.0), "train config 'lr' must be finite and above 0, not -1.0"),
    (dict(lambda_decorr=float("inf")),
     "train config 'lambda_decorr' must be finite and >= 0, not inf"),
    (dict(lambda_decorr=float("nan")),
     "train config 'lambda_decorr' must be finite and >= 0, not nan"),
    (dict(max_epochs=-1), "train config 'max_epochs' must be at least 0, not -1"),
    (dict(seed=-1), "train config 'seed' must be at least 0, not -1")]


@pytest.mark.parametrize("bad,why", NON_FINITE_TRAIN)
def test_fit_and_cross_validate_refuse_a_bad_rate_before_any_step(monkeypatch, bad, why):
    # a NaN or infinite lr used to pass, and the first Adam step wrote NaN
    # into every weight before the loss check of the next batch tripped
    steps = []
    monkeypatch.setattr(train_module, "make_batches",
                        lambda *a, **k: steps.append(a) or [])
    ds = toy_dataset(n=24, seed=17)
    with pytest.raises(ValueError, match=f"^{re.escape(why)}$"):
        fit(ds, ds.ids()[6:], ds.ids()[:6], quick_config(**bad))
    with pytest.raises(ValueError, match=f"^{re.escape(why)}$"):
        cross_validate(ds, k=2, config=quick_config(**bad))
    assert steps == []


def test_a_training_step_runs_159_tape_nodes_at_the_benchmark_setup(monkeypatch):
    """N=4, T=16, d=16, two heads: one graph over the stacked channel
    weights.  Restacking the weights per channel made it 198."""
    real = ad.Var.backward
    counts = []

    def count_then_backward(root):
        seen, todo = set(), [root]
        while todo:
            node = todo.pop()
            if id(node) not in seen:
                seen.add(id(node))
                todo.extend(node._parents)
        counts.append(len(seen))
        real(root)

    monkeypatch.setattr(ad.Var, "backward", count_then_backward)
    ds = toy_dataset(n=8, n_features=4, min_visits=16, max_visits=16)
    config = TrainConfig(d=16, heads=2, batch_size=4, lr=1e-2)
    store = init_params(config.model_config(ds), seed=0)
    train_epoch(store, apply_normalization(ds, fit_normalization(ds, ds.ids())),
                ds.ids(), config, 0)
    assert counts == [159, 159]


# -- split_train_val -------------------------------------------------------------


def test_split_train_val_sizes_and_determinism():
    ids = [f"p{i}" for i in range(40)]
    labels = np.array([i % 2 for i in range(40)])
    tr1, va1 = split_train_val(ids, labels, 0.25, seed=0)
    tr2, va2 = split_train_val(ids, labels, 0.25, seed=0)
    assert (tr1, va1) == (tr2, va2)
    assert len(va1) == 10 and len(tr1) == 30
    assert sorted(tr1 + va1) == sorted(ids)


def test_split_train_val_keeps_both_classes_in_val():
    rng = np.random.default_rng(10)
    labels = np.zeros(30, dtype=int)
    labels[rng.choice(30, 4, replace=False)] = 1
    ids = [f"p{i}" for i in range(30)]
    for seed in range(6):
        tr, va = split_train_val(ids, labels, 0.2, seed=seed)
        by_id = dict(zip(ids, labels))
        val_labels = {by_id[i] for i in va}
        assert val_labels == {0, 1}


# -- cross-validation -------------------------------------------------------------


def test_cross_validate_replicates_and_determinism():
    ds = toy_dataset(n=36, seed=11)
    cfg = quick_config(max_epochs=2, batch_size=12)
    r1 = cross_validate(ds, k=3, config=cfg)
    r2 = cross_validate(ds, k=3, config=cfg)
    assert r1.to_json() == r2.to_json()
    for name in ("auroc", "auprc", "min_se_pplus"):
        m = r1.metrics[name]
        assert len(m.replicates) == 3
        assert m.point == pytest.approx(np.mean(m.replicates))


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` lets this process run on ``n`` CPUs and returns the list
    that gains an entry for each fork this process makes."""
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())

    def allow(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        return forks
    return allow


def test_cross_validate_parallel_matches_serial(cpus):
    # the folds in one process or dealt to two: the same report, pinned
    ds, _ = generate_synthetic(SyntheticSpec(n_cases=240, seed=7))
    cfg = TrainConfig(max_epochs=2, d=8, heads=2, batch_size=32, seed=5)
    digests = []
    for n in (1, 2):
        forks = cpus(n)
        report = cross_validate(ds, k=4, config=cfg)
        digests.append(hashlib.sha256(json.dumps(report.to_json()).encode()).hexdigest())
    assert forks == [1]
    assert digests == ["5724810b924d87923e896f8f65a0a27b"
                       "9021bd7577f12712fb0237025d4d0874"] * 2


def test_a_fold_that_fails_in_the_parent_ends_the_other_folds_at_once(cpus, monkeypatch):
    # the child's fold stands in for a long training: were it waited for,
    # the error would come after a minute
    cpus(2)
    parent, real_fit = os.getpid(), train_module.fit

    def fit(*args):
        if os.getpid() == parent:
            raise ValueError("the parent's fold failed")
        time.sleep(60)
        return real_fit(*args)

    monkeypatch.setattr(train_module, "fit", fit)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="^fold 0: the parent's fold failed$"):
        cross_validate(toy_dataset(n=60, seed=16), k=3, config=quick_config(max_epochs=2))
    assert time.perf_counter() - start < 10.0


@pytest.mark.parametrize("n_cpus", [2, 3])
def test_a_cv_run_forks_once_for_each_extra_process(cpus, monkeypatch, n_cpus):
    # chunks of 24 cells: each fold's validation and test scoring would
    # fork too, were a process that runs a share of the folds let to
    monkeypatch.setattr(model_mod, "CHUNK_CELLS", 24)
    forks = cpus(n_cpus)
    cross_validate(toy_dataset(n=60, seed=16), k=3, config=quick_config(max_epochs=2))
    assert len(forks) == n_cpus - 1


@pytest.mark.parametrize("bad,why", [
    (dict(d=16, heads=3), "d=16 not divisible by heads=3"),
    (dict(d=16.0), "model config 'd' must be int, got 16.0")])
def test_a_bad_model_config_fails_before_any_fold_or_normalization(cpus, monkeypatch,
                                                                   bad, why):
    # it used to fail inside a fold, as "fold 0: d=16 not divisible ..."
    forks = cpus(2)
    normalized = []
    monkeypatch.setattr(train_module, "fit_normalization",
                        lambda *args: normalized.append(args))
    ds = toy_dataset(n=24, seed=17)
    with pytest.raises(ValueError, match=f"^{why}$"):
        cross_validate(ds, k=2, config=quick_config(**bad))
    with pytest.raises(ValueError, match=f"^{why}$"):
        fit(ds, ds.ids()[6:], ds.ids()[:6], quick_config(**bad))
    assert forks == [] and normalized == []


def test_cross_validate_fold_errors_name_the_fold():
    ds = toy_dataset(n=10, seed=13)
    # k = len(dataset) gives one-case test folds and nine-case rests; with
    # val_fraction tiny the single-class validation split must fail inside
    # a fold and surface with its index
    cfg = quick_config(max_epochs=1)
    ds.cases[0].label = 1
    for c in ds.cases[1:]:
        c.label = 0
    with pytest.raises(RuntimeError, match=r"fold \d"):
        cross_validate(ds, k=2, config=cfg)


def test_cross_validate_parallel_fold_errors_name_the_fold(cpus, monkeypatch):
    # one positive case: whichever side of a fold's split it lands on, the
    # validation split or the test fold lacks a class, so every fold fails,
    # in one process and in two
    ds = toy_dataset(n=12, seed=15)
    for c in ds.cases:
        c.label = 0
    ds.cases[0].label = 1
    for n in (1, 2):
        forks = cpus(n)
        with pytest.raises(RuntimeError, match=r"^fold \d+: "):
            cross_validate(ds, k=3, config=quick_config(max_epochs=1))
    # a fold that fails in a forked child only
    parent, real_fit = os.getpid(), train_module.fit

    def fit_failing_in_a_child(*args):
        if os.getpid() != parent:
            raise ValueError("the child's fold failed")
        return real_fit(*args)

    monkeypatch.setattr(train_module, "fit", fit_failing_in_a_child)
    with pytest.raises(RuntimeError, match="^fold 1: the child's fold failed$"):
        cross_validate(toy_dataset(n=36, seed=12), k=3, config=quick_config(max_epochs=1))
    assert len(forks) == 2
