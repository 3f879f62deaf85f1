"""Synthetic cohort generator: determinism, planted structure, invariants."""

from __future__ import annotations

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from carelens.synthetic import (MIN_GAP_HOURS, SyntheticSpec,
                                generate_synthetic)


def datasets_equal(a, b):
    if a.ids() != b.ids() or a.feature_names != b.feature_names:
        return False
    for ca, cb in zip(a.cases, b.cases):
        if ca.label != cb.label:
            return False
        if not (np.array_equal(ca.timestamps, cb.timestamps)
                and np.array_equal(ca.records, cb.records)
                and np.array_equal(ca.baseline, cb.baseline)):
            return False
    return True


def test_same_seed_same_cohort():
    spec = SyntheticSpec(n_cases=50, seed=7, label_noise=0.1,
                         interaction=[(0, 1)])
    ds1, man1 = generate_synthetic(spec)
    ds2, man2 = generate_synthetic(dataclasses.replace(spec))
    assert datasets_equal(ds1, ds2)
    assert man1 == man2


def test_different_seed_different_cohort():
    ds1, _ = generate_synthetic(SyntheticSpec(n_cases=50, seed=1))
    ds2, _ = generate_synthetic(SyntheticSpec(n_cases=50, seed=2))
    assert not datasets_equal(ds1, ds2)


def test_schema_invariants_hold():
    specs = [SyntheticSpec(n_cases=40, seed=s, n_features=3, n_baseline=4,
                           min_visits=2, max_visits=9,
                           decay_profile=["fast", "slow", "slow"])
             for s in range(4)]
    specs.append(SyntheticSpec(n_cases=40, seed=9))
    for spec in specs:
        ds, _ = generate_synthetic(spec)
        assert len(ds) == spec.n_cases
        for c in ds.cases:
            c.validate(spec.n_features, spec.n_baseline)
            assert spec.min_visits <= c.n_visits <= spec.max_visits
            gaps = np.diff(c.timestamps)
            assert (gaps >= MIN_GAP_HOURS - 1e-12).all()
            # flags binary, age continuous
            assert set(np.unique(c.baseline[1:])) <= {0.0, 1.0}


def test_feature_names_carry_decay_tags():
    ds, man = generate_synthetic(SyntheticSpec(n_cases=5, n_features=4, seed=0))
    assert ds.feature_names == ["f0_fast", "f1_fast", "f2_slow", "f3_slow"]
    assert man["decay_profile"] == ["fast", "fast", "slow", "slow"]
    assert ds.baseline_names == ["age", "flag1", "flag2"]


def test_prevalence_close_to_target():
    for target in (0.5, 0.3):
        ds, man = generate_synthetic(
            SyntheticSpec(n_cases=1000, seed=3, prevalence=target))
        rate = ds.labels().mean()
        assert abs(rate - target) < 0.05
        assert man["empirical_prevalence"] == pytest.approx(rate)


def test_noiseless_single_feature_is_threshold_separable():
    # with only one fast feature carrying weight, the label must equal
    # latest(f0) > manifest threshold exactly
    spec = SyntheticSpec(n_cases=300, seed=5, n_features=2,
                         decay_profile=["fast", "slow"], w_slow=0.0,
                         label_noise=0.0)
    ds, man = generate_synthetic(spec)
    latest = np.array([c.records[0, -1] for c in ds.cases])
    expect = (spec.w_fast * latest > man["threshold"]).astype(int)
    npt.assert_array_equal(ds.labels(), expect)


def test_label_noise_flips_expected_fraction():
    spec = SyntheticSpec(n_cases=2000, seed=6, label_noise=0.0)
    noisy = dataclasses.replace(spec, label_noise=0.2)
    clean_ds, _ = generate_synthetic(spec)
    noisy_ds, _ = generate_synthetic(noisy)
    flipped = (clean_ds.labels() != noisy_ds.labels()).mean()
    assert 0.15 < flipped < 0.25


def test_interaction_term_shifts_scores_with_flag():
    spec = SyntheticSpec(n_cases=2000, seed=8, interaction=[(0, 1)],
                         w_int=5.0, label_noise=0.0)
    ds, _ = generate_synthetic(spec)
    flag = np.array([c.baseline[1] for c in ds.cases])
    latest = np.array([c.records[0, -1] for c in ds.cases])
    y = ds.labels()
    # among flag=1 cases the interaction feature's latest value separates
    # labels far better than among flag=0 cases
    def gap(mask):
        return latest[mask & (y == 1)].mean() - latest[mask & (y == 0)].mean()
    assert gap(flag == 1.0) > gap(flag == 0.0) + 0.5


def test_fast_feature_decorrelates_quicker_than_slow():
    spec = SyntheticSpec(n_cases=400, seed=11, n_features=2,
                         decay_profile=["fast", "slow"])
    ds, _ = generate_synthetic(spec)
    def lag1_corr(feature_idx):
        pairs = np.concatenate([
            np.stack([c.records[feature_idx, :-1], c.records[feature_idx, 1:]])
            for c in ds.cases if c.n_visits > 1], axis=1)
        return np.corrcoef(pairs)[0, 1]
    assert lag1_corr(1) > lag1_corr(0) + 0.2


def test_trajectories_are_standardized():
    ds, _ = generate_synthetic(SyntheticSpec(n_cases=500, seed=12))
    pooled = np.concatenate([c.records for c in ds.cases], axis=1)
    npt.assert_allclose(pooled.mean(axis=1), 0.0, atol=0.1)
    npt.assert_allclose(pooled.std(axis=1), 1.0, atol=0.1)


def test_spec_validation_errors():
    with pytest.raises(ValueError, match="decay_profile"):
        generate_synthetic(SyntheticSpec(n_features=3, decay_profile=["fast"]))
    with pytest.raises(ValueError, match="prevalence"):
        generate_synthetic(SyntheticSpec(prevalence=1.0))
    with pytest.raises(ValueError, match="flag"):
        generate_synthetic(SyntheticSpec(interaction=[(0, 0)]))
    with pytest.raises(ValueError, match="out of range"):
        generate_synthetic(SyntheticSpec(interaction=[(9, 1)]))
    with pytest.raises(ValueError, match="label_noise"):
        generate_synthetic(SyntheticSpec(label_noise=1.0))
    with pytest.raises(ValueError, match="min_visits"):
        generate_synthetic(SyntheticSpec(min_visits=5, max_visits=4))


@pytest.mark.parametrize("field,value,rule", [
    ("w_fast", float("nan"), "finite"), ("w_slow", float("inf"), "finite"),
    ("w_int", -float("inf"), "finite"),
    ("tau_fast", -5.0, "finite and above 0"), ("tau_slow", 0.0, "finite and above 0"),
    ("tau_fast", float("inf"), "finite and above 0"),
    ("mean_gap_hours", float("nan"), "finite and above 0")])
def test_spec_refuses_weights_and_time_scales_that_are_not_finite(field, value, rule):
    # a NaN weight gave a one-class cohort and a NaN threshold; tau_fast=-5
    # gave records that were 47 % NaN
    with pytest.raises(ValueError, match=f"^{field} must be {rule}, not {value!r}$"):
        generate_synthetic(SyntheticSpec(n_cases=5, **{field: value}))


def test_spec_validation_names_each_field_and_value():
    with pytest.raises(ValueError, match=r"^n_cases must be at least 1, not 0$"):
        SyntheticSpec(n_cases=0).validate()
    with pytest.raises(ValueError, match=r"^min_visits must be in 1\.\.max_visits, not 5$"):
        SyntheticSpec(min_visits=5, max_visits=4).validate()
    SyntheticSpec(w_fast=0.0, w_slow=-2.0, w_int=0.0).validate()


def test_manifest_records_ground_truth():
    spec = SyntheticSpec(n_cases=30, seed=1, interaction=[(1, 2)])
    _, man = generate_synthetic(spec)
    assert man["spec"]["interaction"] == [(1, 2)]
    assert man["spec"]["seed"] == 1
    assert isinstance(man["threshold"], float)
