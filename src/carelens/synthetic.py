"""Synthetic cohort generator with planted, recoverable structure.

Each case gets an irregular visit grid (exponential gaps) and per-feature
mean-reverting trajectories: stationary N(0,1) processes whose
autocorrelation decays with real elapsed time, fast features on a short
time constant and slow features on a long one.  The label score combines
the latest value of each fast feature, the visit-average of each slow
feature, and optional latest-value x baseline-flag interaction terms;
labels come from thresholding the scores at the target-prevalence quantile,
then flipping each with probability ``label_noise``.  Ground truth goes
into a sidecar manifest.

Baseline layout: dimension 0 is numeric ("age", standard normal), the rest
are Bernoulli(1/2) flags.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .data import Dataset, PatientCase

MIN_GAP_HOURS = 1e-3


@dataclass
class SyntheticSpec:
    n_features: int = 4
    n_baseline: int = 3
    n_cases: int = 200
    decay_profile: list[str] | None = None      # per-feature "fast" | "slow"
    interaction: list[tuple[int, int]] = field(default_factory=list)
    label_noise: float = 0.0
    seed: int = 0
    prevalence: float = 0.5
    w_fast: float = 1.0
    w_slow: float = 1.0
    w_int: float = 1.0
    tau_fast: float = 12.0    # autocorrelation time constants, hours
    tau_slow: float = 96.0
    mean_gap_hours: float = 12.0
    min_visits: int = 6
    max_visits: int = 24

    def resolved_profile(self) -> list[str]:
        if self.decay_profile is None:
            half = (self.n_features + 1) // 2
            return ["fast"] * half + ["slow"] * (self.n_features - half)
        return list(self.decay_profile)

    def validate(self) -> None:
        prof = self.resolved_profile()
        for key, ok, rule in (
                ("n_features", self.n_features >= 1, "at least 1"),
                ("n_baseline", self.n_baseline >= 1, "at least 1"),
                ("n_cases", self.n_cases >= 1, "at least 1"),
                ("decay_profile", len(prof) == self.n_features
                 and set(prof) <= {"fast", "slow"}, "a fast or slow tag per feature"),
                ("label_noise", 0 <= self.label_noise < 1, "in [0, 1)"),
                ("prevalence", 0 < self.prevalence < 1, "in (0, 1)"),
                ("min_visits", 1 <= self.min_visits <= self.max_visits, "in 1..max_visits"),
                *((k, np.isfinite(getattr(self, k)), "finite")
                  for k in ("w_fast", "w_slow", "w_int")),
                *((k, 0 < getattr(self, k) < np.inf, "finite and above 0")
                  for k in ("tau_fast", "tau_slow", "mean_gap_hours"))):
            if not ok:
                raise ValueError(f"{key} must be {rule}, not {getattr(self, key)!r}")
        for fi, bi in self.interaction:
            if not 0 <= fi < self.n_features:
                raise ValueError(f"interaction feature index {fi} out of range")
            if not 1 <= bi < self.n_baseline:
                raise ValueError(f"interaction baseline index {bi} is not a flag "
                                 f"dimension (flags start at 1)")


def _trajectory(rng: np.random.Generator, gaps: np.ndarray, tau: float) -> np.ndarray:
    """Stationary mean-reverting path sampled at irregular gaps."""
    t_len = gaps.shape[0] + 1
    v = np.empty(t_len)
    v[0] = rng.standard_normal()
    rho = np.exp(-gaps / tau)
    noise = rng.standard_normal(t_len - 1)
    for j in range(t_len - 1):
        v[j + 1] = rho[j] * v[j] + np.sqrt(1.0 - rho[j] ** 2) * noise[j]
    return v


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, dict]:
    """Build a cohort and its ground-truth manifest, deterministic per seed."""
    spec.validate()
    prof = spec.resolved_profile()
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, spec.n_cases]))
    feature_names = [f"f{i}_{prof[i]}" for i in range(spec.n_features)]
    baseline_names = ["age"] + [f"flag{j}" for j in range(1, spec.n_baseline)]
    taus = np.where(np.array(prof) == "fast", spec.tau_fast, spec.tau_slow)

    cases: list[PatientCase] = []
    scores = np.empty(spec.n_cases)
    for i in range(spec.n_cases):
        t_len = int(rng.integers(spec.min_visits, spec.max_visits + 1))
        gaps = np.maximum(rng.exponential(spec.mean_gap_hours, t_len - 1),
                          MIN_GAP_HOURS)
        ts = np.concatenate([[0.0], np.cumsum(gaps)])
        records = np.stack([_trajectory(rng, gaps, taus[n])
                            for n in range(spec.n_features)])
        age = rng.standard_normal()
        flags = rng.integers(0, 2, spec.n_baseline - 1).astype(np.float64)
        baseline = np.concatenate([[age], flags])
        score = 0.0
        for n in range(spec.n_features):
            if prof[n] == "fast":
                score += spec.w_fast * records[n, -1]
            else:
                score += spec.w_slow * records[n].mean()
        for fi, bi in spec.interaction:
            score += spec.w_int * records[fi, -1] * baseline[bi]
        scores[i] = score
        cases.append(PatientCase(id=f"p{i:05d}", baseline=baseline,
                                 timestamps=ts, records=records, label=0))

    threshold = float(np.quantile(scores, 1.0 - spec.prevalence))
    labels = (scores > threshold).astype(int)
    if spec.label_noise > 0.0:
        flips = rng.random(spec.n_cases) < spec.label_noise
        labels = np.where(flips, 1 - labels, labels)
    for c, y in zip(cases, labels):
        c.label = int(y)

    dataset = Dataset(feature_names, baseline_names, cases)
    manifest = {
        "spec": asdict(spec),
        "feature_names": feature_names,
        "baseline_names": baseline_names,
        "decay_profile": prof,
        "threshold": threshold,
        "empirical_prevalence": float(labels.mean()),
    }
    return dataset, manifest


def save_manifest(manifest: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
