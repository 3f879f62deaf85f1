"""Full model assembly: configuration, init, batched forward, serialization.

A forward pass stacks, for each case, the N per-feature attention summaries
plus the baseline embedding into an (N+1) x d matrix, re-encodes it with the
context block, and scores it with the baseline-queried head.  Batches must
share an identical visit count; batching is what gives the covariance
penalty something to work with.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .context import LN_EPS, decorrelation_total, encode, init_encoder_params
from .data import Dataset, Normalization, PatientCase, apply_normalization
from .embedding import (channel_leaves, decay_rate, embed_baseline_batch,
                        gru_forward_batch, init_baseline_params,
                        init_channel_params, time_aware_attention_batch)
from .head import final_attention, init_head_params, predict
from .optim import ParamStore

MODEL_FORMAT = "carelens-model"
MODEL_VERSION = 1


@dataclass
class ModelConfig:
    n_features: int
    n_baseline: int
    d: int = 32
    heads: int = 4
    d_ff: int | None = None          # defaults to 2 * d
    per_position_keys: bool = False
    time_aware: bool = True
    pool_positions: bool = False
    ln_eps: float = LN_EPS

    @property
    def ffn_dim(self) -> int:
        return 2 * self.d if self.d_ff is None else self.d_ff

    def validate(self) -> None:
        if min(self.n_features, self.n_baseline, self.d, self.heads) < 1:
            raise ValueError("model dimensions must be positive")
        if self.d % self.heads != 0:
            raise ValueError(f"d={self.d} not divisible by heads={self.heads}")
        if self.ffn_dim < 1:
            raise ValueError("d_ff must be positive")


def init_params(cfg: ModelConfig, seed: int) -> ParamStore:
    cfg.validate()
    rng = np.random.default_rng(np.random.SeedSequence([seed, cfg.d]))
    store = ParamStore()
    for n in range(cfg.n_features):
        init_channel_params(store, n, cfg.d, rng)
    init_baseline_params(store, cfg.d, cfg.n_baseline, rng)
    init_encoder_params(store, cfg.d, cfg.heads, cfg.ffn_dim, rng)
    init_head_params(store, cfg.d, cfg.n_features, rng, cfg.per_position_keys)
    return store


def batch_tensors(cases: list[PatientCase]) -> tuple[np.ndarray, np.ndarray,
                                                     np.ndarray, np.ndarray]:
    """Stack same-length cases into (B,N,T) records, (B,T) hours-back deltas,
    (B,S) baselines, and (B,) labels."""
    t_len = cases[0].n_visits
    if any(c.n_visits != t_len for c in cases):
        raise ValueError("cases in a batch must share the same visit count")
    records = np.stack([c.records for c in cases])
    delta = np.stack([c.timestamps[-1] - c.timestamps for c in cases])
    baseline = np.stack([c.baseline for c in cases])
    labels = np.array([c.label for c in cases], dtype=np.float64)
    return records, delta, baseline, labels


def forward_batch(lv: dict[str, Var], records: np.ndarray, delta: np.ndarray,
                  baseline: np.ndarray, cfg: ModelConfig,
                  collect_trace: bool = False):
    """Run the full model on stacked arrays.

    Returns (probabilities (B,), covariance penalty, trace-or-None).  The
    trace holds per-feature attention weights, per-head attention matrices,
    and final attention weights as plain arrays.
    """
    channels = [channel_leaves(lv, n) for n in range(cfg.n_features)]
    hidden = gru_forward_batch(records, channels)          # (N, B, T, d)
    ta_summary, ta_alpha = time_aware_attention_batch(hidden, delta, channels,
                                                      cfg.time_aware)
    base = embed_baseline_batch(baseline, lv["baseline.W_emb"])
    b_size, d = base.shape
    features = ad.concat([ad.transpose(ta_summary, (1, 0, 2)),
                          ad.reshape(base, (b_size, 1, d))], axis=1)  # (B, N+1, d)
    fstar, attns, u = encode(features, lv, cfg.heads, cfg.ln_eps)
    decorr = decorrelation_total(u, cfg.pool_positions)
    summary, final_alpha = final_attention(fstar, lv, cfg.per_position_keys)
    prob = predict(summary, lv)
    trace = None
    if collect_trace:
        trace = {"ta_alphas": list(ta_alpha.data),            # N x (B, T)
                 "head_attn": [a.data for a in attns],        # M x (B, P, P)
                 "final_alpha": final_alpha.data}             # (B, P)
    return prob, decorr, trace


def _visit_count_groups(cases: list[PatientCase]) -> list[list[int]]:
    """Positions of ``cases`` grouped by visit count, shortest first."""
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(cases):
        groups.setdefault(c.n_visits, []).append(i)
    return [groups[t_len] for t_len in sorted(groups)]


def score_cases(store: ParamStore, cfg: ModelConfig,
                cases: list[PatientCase]) -> np.ndarray:
    """Probabilities for arbitrary cases, batched internally by visit count."""
    lv = store.leaves()
    out = np.empty(len(cases))
    for idx in _visit_count_groups(cases):
        records, delta, baseline, _ = batch_tensors([cases[i] for i in idx])
        prob, _, _ = forward_batch(lv, records, delta, baseline, cfg)
        out[idx] = prob.data
    return out


@dataclass
class FittedModel:
    """Trained weights plus everything needed to score raw datasets."""

    store: ParamStore
    config: ModelConfig
    feature_names: list[str]
    baseline_names: list[str]
    normalization: Normalization | None = None
    log: list[dict] = field(default_factory=list)

    def check_compatible(self, dataset: Dataset) -> None:
        if dataset.feature_names != self.feature_names:
            raise ValueError(f"feature list mismatch: model has "
                             f"{self.feature_names}, dataset has "
                             f"{dataset.feature_names}")
        if dataset.baseline_names != self.baseline_names:
            raise ValueError(f"baseline list mismatch: model has "
                             f"{self.baseline_names}, dataset has "
                             f"{dataset.baseline_names}")

    def _prepared(self, dataset: Dataset, ids: list[str] | None
                  ) -> list[PatientCase]:
        """The cases of ``ids`` (default: every case), normalised."""
        self.check_compatible(dataset)
        if ids is not None:
            dataset = replace(dataset, cases=dataset.subset(ids))
        if self.normalization is not None:
            dataset = apply_normalization(dataset, self.normalization)
        return dataset.cases

    def score(self, dataset: Dataset, ids: list[str] | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
        """(probabilities, labels) for ``ids`` (default: every case)."""
        cases = self._prepared(dataset, ids)
        labels = np.array([c.label for c in cases], dtype=np.int64)
        return score_cases(self.store, self.config, cases), labels

    def decay_rates(self) -> dict[str, float]:
        """Learned per-feature decay rates (higher = forgets faster)."""
        return {name: float(decay_rate(
                    self.store.value(f"channel{n}.attn.beta_raw")))
                for n, name in enumerate(self.feature_names)}

    def trace_cases(self, dataset: Dataset, ids: list[str] | None = None
                    ) -> list[dict]:
        """Per-case attention traces on a raw dataset, in ``ids`` order.

        One forward pass per visit count, as in ``score_cases``.
        """
        cases = self._prepared(dataset, ids)
        lv = self.store.leaves()
        out: list[dict] = [{} for _ in cases]
        for idx in _visit_count_groups(cases):
            records, delta, baseline, _ = batch_tensors([cases[i] for i in idx])
            _, _, tr = forward_batch(lv, records, delta, baseline,
                                     self.config, collect_trace=True)
            for j, i in enumerate(idx):
                out[i] = {"id": cases[i].id, "label": cases[i].label,
                          "ta_alphas": [a[j] for a in tr["ta_alphas"]],
                          "head_attn": np.stack([a[j] for a in tr["head_attn"]]),
                          "final_alpha": tr["final_alpha"][j]}
        return out


def save_model(model: FittedModel, path) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "config": asdict(model.config),
        "feature_names": model.feature_names,
        "baseline_names": model.baseline_names,
        "normalization": (None if model.normalization is None
                          else model.normalization.to_json()),
        "params": {name: {"shape": list(e.value.shape),
                          "data": e.value.ravel().tolist()}
                   for name, e in model.store.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_model(path) -> FittedModel:
    """Rebuild a model bit-for-bit from its file (optimizer state starts fresh)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != MODEL_FORMAT or doc.get("version") != MODEL_VERSION:
        raise ValueError(f"{path}: not a {MODEL_FORMAT} v{MODEL_VERSION} file")
    cfg = ModelConfig(**doc["config"])
    cfg.validate()
    params = doc["params"]
    expected = init_params(cfg, 0)
    for name, e in expected.items():
        if name not in params:
            raise ValueError(f"{path}: missing parameter '{name}'")
        if list(params[name]["shape"]) != list(e.value.shape):
            raise ValueError(f"{path}: parameter '{name}' has shape "
                             f"{params[name]['shape']}, the config needs "
                             f"{list(e.value.shape)}")
    extra = sorted(set(params) - set(expected.names()))
    if extra:
        raise ValueError(f"{path}: unexpected parameter '{extra[0]}'")
    store = ParamStore()
    for name, spec in params.items():
        try:
            value = np.array(spec["data"], dtype=np.float64).reshape(spec["shape"])
        except ValueError as exc:
            raise ValueError(f"{path}: parameter '{name}': {exc}") from exc
        store.add(name, value)
    norm = (None if doc["normalization"] is None
            else Normalization.from_json(doc["normalization"]))
    return FittedModel(store, cfg, list(doc["feature_names"]),
                       list(doc["baseline_names"]), norm)
