"""The training loop (``train_epoch``), early stopping (``fit``) and k-fold CV.

``fit`` takes a *raw* dataset: it computes z-score statistics from the
training ids only, and ``pad_cases`` applies them to each training batch and
validation chunk as it stacks it; the returned model carries them for
anything it later scores.  Identical seeds give bit-identical models.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .data import Dataset, Normalization, fit_normalization, make_batches, split_folds
from .head import cross_entropy
from .metrics import METRICS, EvalReport, auprc, auroc
from .model import (FittedModel, ModelConfig, forward_batch, fork_map, init_params,
                    pad_cases, score_cases)
from .optim import ParamStore, adam_step


@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 10
    lambda_decorr: float = 1.0
    seed: int = 0
    val_fraction: float = 0.15
    d: int = 32
    heads: int = 4
    d_ff: int | None = None
    per_position_keys: bool = False
    time_aware: bool = True
    pool_positions: bool = False

    def validate(self) -> None:
        for key, ok, rule in (
                ("lr", 0 < self.lr < np.inf, "finite and above 0"),
                ("batch_size", self.batch_size >= 1, "at least 1"),
                ("max_epochs", self.max_epochs >= 0, "at least 0"),
                ("patience", self.patience >= 1, "at least 1"),
                ("lambda_decorr", 0 <= self.lambda_decorr < np.inf, "finite and >= 0"),
                ("seed", self.seed >= 0, "at least 0"),
                ("val_fraction", 0 < self.val_fraction < 1, "in (0, 1)")):
            if not ok:
                raise ValueError(f"train config '{key}' must be {rule}, "
                                 f"not {getattr(self, key)!r}")

    def model_config(self, dataset: Dataset) -> ModelConfig:
        """The model this config trains: every field the two configs share."""
        shared = {f.name: getattr(self, f.name) for f in fields(ModelConfig)
                  if hasattr(self, f.name)}
        return ModelConfig(n_features=dataset.n_features,
                           n_baseline=dataset.n_baseline, **shared)


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def train_epoch(store: ParamStore, dataset: Dataset, ids: list[str],
                config: TrainConfig, epoch: int, norm: Normalization) -> dict[str, float]:
    """One epoch of Adam steps on ``ids`` of a raw dataset, batched by
    ``make_batches`` for the config's seed and ``epoch`` and z-scored with
    ``norm`` as ``pad_cases`` stacks each batch: the one training loop.
    Returns the case-weighted mean ``train_loss`` and ``train_ce``."""
    cfg = config.model_config(dataset)
    loss_sum = ce_sum = 0.0
    seen = 0
    batches = make_batches(dataset, ids, config.batch_size,
                           _derive_seed(config.seed, 2, epoch))
    for b_idx, batch in enumerate(batches):
        records, delta, baseline, labels, keep = pad_cases(batch, norm)
        store.zero_grad()
        prob, decorr, _ = forward_batch(store, records, delta, baseline, cfg, keep=keep)
        ce = cross_entropy(prob, labels)
        loss = ce + config.lambda_decorr * decorr
        if not np.isfinite(loss.data):
            raise RuntimeError(f"non-finite loss at epoch {epoch} batch {b_idx}")
        loss.backward()
        adam_step(store, config.lr)
        loss_sum += float(loss.data) * len(batch)
        ce_sum += float(ce.data) * len(batch)
        seen += len(batch)
    return {"train_loss": loss_sum / seen, "train_ce": ce_sum / seen}


def fit(dataset: Dataset, train_ids: list[str], val_ids: list[str],
        config: TrainConfig) -> FittedModel:
    """Train on raw data; returns the best-validation-AUPRC model."""
    config.validate()
    cfg = config.model_config(dataset)
    cfg.validate()
    if not train_ids or not val_ids:
        raise ValueError("train and validation splits must be non-empty")
    if set(train_ids) & set(val_ids):
        raise ValueError("train and validation splits overlap")
    norm = fit_normalization(dataset, train_ids)
    store = init_params(cfg, _derive_seed(config.seed, 1))
    val_cases = dataset.subset(val_ids)
    val_labels = np.array([c.label for c in val_cases], dtype=np.int64)
    for name, cls in (("positive", 1), ("negative", 0)):
        if not (val_labels == cls).any():
            raise ValueError(f"validation split has no {name} case: early "
                             "stopping needs both classes")

    log: list[dict] = []
    best_val = -np.inf
    best_snap = store.snapshot()
    stale = 0
    for epoch in range(config.max_epochs):
        losses = train_epoch(store, dataset, train_ids, config, epoch, norm)
        val_scores = score_cases(store, cfg, val_cases, norm)
        entry = {"epoch": epoch, **losses,
                 "val_auprc": auprc(val_scores, val_labels),
                 "val_auroc": auroc(val_scores, val_labels)}
        log.append(entry)
        if entry["val_auprc"] > best_val:
            best_val = entry["val_auprc"]
            best_snap = store.snapshot()
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    store.restore(best_snap)
    return FittedModel(store, cfg, list(dataset.feature_names),
                       list(dataset.baseline_names), norm, log)


def split_train_val(ids: list[str], labels: np.ndarray, val_fraction: float,
                    seed: int) -> tuple[list[str], list[str]]:
    """Shuffled split that keeps both classes on both sides when possible."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, len(ids)]))
    order = rng.permutation(len(ids))
    n_val = max(1, int(round(val_fraction * len(ids))))
    if n_val >= len(ids):
        n_val = len(ids) - 1
    val_idx = list(order[:n_val])
    train_idx = list(order[n_val:])
    labels = np.asarray(labels)
    for cls in (0, 1):
        if not (labels[val_idx] == cls).any() and (labels[train_idx] == cls).sum() > 1:
            give = next(i for i in train_idx if labels[i] == cls)
            take = next((i for i in val_idx
                         if (labels[val_idx] == labels[i]).sum() > 1), val_idx[0])
            train_idx.remove(give)
            val_idx.remove(take)
            val_idx.append(give)
            train_idx.append(take)
    return [ids[i] for i in train_idx], [ids[i] for i in val_idx]


def cross_validate(dataset: Dataset, k: int, config: TrainConfig) -> EvalReport:
    """k-fold CV; each fold trains a fresh model on the remaining cases and
    is scored on the held-out fold.  Fold metrics become the replicates.
    The folds are shared out by ``fork_map``."""
    config.validate()
    config.model_config(dataset).validate()
    labels_by_id = {c.id: c.label for c in dataset.cases}

    def run_fold(fold: tuple[int, list[str]]) -> dict[str, float]:
        fold_idx, test_ids = fold
        try:
            in_test = set(test_ids)
            rest_ids = [x for x in dataset.ids() if x not in in_test]
            train_ids, val_ids = split_train_val(
                rest_ids, np.array([labels_by_id[i] for i in rest_ids]),
                config.val_fraction, _derive_seed(config.seed, 3, fold_idx))
            model = fit(dataset, train_ids, val_ids, config)
            scores, labels = model.score(dataset, test_ids)
            return {name: fn(scores, labels) for name, fn in METRICS.items()}
        except Exception as exc:
            raise RuntimeError(f"fold {fold_idx}: {exc}") from exc

    results = fork_map(run_fold, list(enumerate(split_folds(dataset, k, config.seed))))
    replicates = {name: [r[name] for r in results] for name in METRICS}
    points = {name: float(np.mean(vals)) for name, vals in replicates.items()}
    return EvalReport.from_replicates(points, replicates)
