"""Full model assembly: configuration, init, batched forward, serialization.

A forward pass stacks, for each case, the N per-feature attention summaries
plus the baseline embedding into an (N+1) x d matrix, re-encodes it with the
context block, and scores it with the baseline-queried head.  Training
batches share an identical visit count; batching is what gives the
covariance penalty something to work with.  Scoring and tracing sort the
cases by visit count and run them in chunks of at most ``CHUNK_CELLS``
padded (case, visit) cells, left-padded to the chunk's longest case with a
keep-mask, and with no tape.  With two chunks or more for each CPU the
process may use, forked children run a share of the chunks each.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import signal
import threading
from dataclasses import dataclass, asdict, field, replace
from multiprocessing import parent_process

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
# cases x longest visit count per inference chunk: 85 cases of 24 visits,
# 128 of 16; it bounds the memory of one pass
CHUNK_CELLS = 2048


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


def pad_cases(cases: list[PatientCase]) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                                 np.ndarray, np.ndarray | None]:
    """Stack cases left-padded to the longest: (B,N,T) records, (B,T)
    hours-back deltas, (B,S) baselines, (B,) labels and the (B,T) keep-mask,
    False at pad steps, or None when every case has T visits.  Pads hold
    0.0 in records and deltas."""
    lengths = np.array([c.n_visits for c in cases])
    t_len = int(lengths.max())
    keep = np.arange(t_len) >= (t_len - lengths)[:, None]
    # a mask scatter fills its targets row by row, so each case's visits
    # land in its own row, in order, after its pads
    records = np.zeros((len(cases), cases[0].records.shape[0], t_len))
    records.transpose(1, 0, 2)[:, keep] = np.concatenate([c.records for c in cases],
                                                         axis=1)
    stamps = np.zeros((len(cases), t_len))
    stamps[keep] = np.concatenate([c.timestamps for c in cases])
    # the last step is always real, so stamps[:, -1:] is each case's last visit
    delta = np.where(keep, stamps[:, -1:] - stamps, 0.0)
    baseline = np.stack([c.baseline for c in cases])
    labels = np.array([c.label for c in cases], dtype=np.float64)
    return records, delta, baseline, labels, None if keep.all() else keep


def batch_tensors(cases: list[PatientCase]) -> tuple[np.ndarray, np.ndarray,
                                                     np.ndarray, np.ndarray]:
    """Stack same-length cases into (B,N,T) records, (B,T) hours-back deltas,
    (B,S) baselines, and (B,) labels."""
    if any(c.n_visits != cases[0].n_visits for c in cases):
        raise ValueError("cases in a batch must share the same visit count")
    return pad_cases(cases)[:4]


def forward_batch(lv: dict[str, Var], records: np.ndarray, delta: np.ndarray,
                  baseline: np.ndarray, cfg: ModelConfig,
                  collect_trace: bool = False, keep: np.ndarray | None = None):
    """Run the full model on stacked arrays.

    Returns (probabilities (B,), covariance penalty, trace-or-None).  The
    penalty only feeds the training loss: inside ``autodiff.no_grad()`` it
    is not computed and its slot holds None.  The trace holds per-feature
    attention weights, per-head attention matrices, and final attention
    weights as plain arrays.  ``keep`` is the (B,T) mask of a left-padded
    batch (see ``pad_cases``); pad steps then get zero attention.
    """
    channels = [channel_leaves(lv, n) for n in range(cfg.n_features)]
    hidden = gru_forward_batch(records, channels, keep)    # (N, B, T, d)
    ta_summary, ta_alpha = time_aware_attention_batch(hidden, delta, channels,
                                                      cfg.time_aware, keep)
    base = embed_baseline_batch(baseline, lv["baseline.W_emb"])
    b_size, d = base.shape
    features = ad.concat([ad.transpose(ta_summary, (1, 0, 2)),
                          ad.reshape(base, (b_size, 1, d))], axis=1)  # (B, N+1, d)
    fstar, attns, u = encode(features, lv, cfg.heads, cfg.ln_eps)
    decorr = decorrelation_total(u, cfg.pool_positions) if ad.grad_enabled() else None
    summary, final_alpha = final_attention(fstar, lv, cfg.per_position_keys)
    prob = predict(summary, lv)
    trace = None
    if collect_trace:
        trace = {"ta_alphas": list(ta_alpha.data),            # N x (B, T)
                 "head_attn": [a.data for a in attns],        # M x (B, P, P)
                 "final_alpha": final_alpha.data}             # (B, P)
    return prob, decorr, trace


def _chunk_plan(cases: list[PatientCase]) -> list[list[int]]:
    """Positions of ``cases`` cut into inference chunks.

    The cases are sorted by visit count and cut greedily so that no chunk
    holds more than ``CHUNK_CELLS`` padded cells; a case longer than that
    gets a chunk of its own.
    """
    lengths = [c.n_visits for c in cases]
    order = sorted(range(len(cases)), key=lengths.__getitem__)
    plan, start = [], 0
    while start < len(order):
        stop = start + 1
        # sorted, so the case at ``stop`` is the longest once it joins
        while (stop < len(order)
               and (stop - start + 1) * lengths[order[stop]] <= CHUNK_CELLS):
            stop += 1
        plan.append(order[start:stop])
        start = stop
    return plan


def _inference_processes(n_chunks: int) -> int:
    """How many processes share a plan of ``n_chunks``: one per CPU this
    process may run on, as long as each gets at least two chunks.

    1 (no fork) where ``os.fork`` or ``os.sched_getaffinity`` is missing,
    where other threads are alive (a fork copies only the calling one), and
    in a ``multiprocessing`` child, such as a ``cv --workers`` fold, whose
    siblings already use the other CPUs.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1 or parent_process() is not None:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_chunks // 2))


def _forward_chunks(store: ParamStore, cfg: ModelConfig,
                    cases: list[PatientCase], collect_trace: bool = False):
    """(positions, probabilities, trace) for each chunk of ``_chunk_plan``,
    each run as one padded forward pass with no tape.

    The chunks are dealt round-robin to this process and to a forked child
    per extra process of ``_inference_processes``.  A chunk's outputs depend
    only on its own cases and the weights, so they have the same bits in
    whichever process runs them.
    """
    lv = store.leaves()

    def run(chunks):
        out = []
        for idx in chunks:
            records, delta, baseline, _, keep = pad_cases([cases[i] for i in idx])
            with ad.no_grad():
                prob, _, trace = forward_batch(lv, records, delta, baseline, cfg,
                                               collect_trace, keep=keep)
            out.append((idx, prob.data, trace))
        return out

    plan = _chunk_plan(cases)
    procs = _inference_processes(len(plan))
    if procs == 1:
        return run(plan)
    return _fork_join(run, [plan[k::procs] for k in range(procs)])


def _fork_join(run, shares: list):
    """``run(shares[0])`` here and ``run(share)`` for each later share in a
    forked child, concatenated in share order.

    The children are always reaped, also when this raises.  Every read end
    is closed before the first ``waitpid``, so a child still writing gets
    ``BrokenPipeError`` and exits.  A child's exception is raised here with
    its type and message; a child killed by a signal raises RuntimeError.
    """
    children: list[tuple[int, int]] = []       # (pid, read end of its pipe)
    payloads = []
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                for _, fd in children:
                    os.close(fd)
                _child(write_fd, run, share)     # never returns
            os.close(write_fd)
            children.append((pid, read_fd))
        out = run(shares[0])
        for _, fd in children:
            with open(fd, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
    finally:
        for _, fd in children:
            os.close(fd)
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    for (pid, _), status, payload in zip(children, statuses, payloads):
        if os.WIFSIGNALED(status):
            raise RuntimeError(f"inference child {pid} was killed by "
                               f"{signal.Signals(os.WTERMSIG(status)).name}")
        if not payload:
            raise RuntimeError(f"inference child {pid} exited with status "
                               f"{os.WEXITSTATUS(status)} and sent nothing")
        ok, value = pickle.loads(payload)
        if not ok:
            raise value
        out += value
    return out


def _child(write_fd: int, run, share) -> None:
    """Run ``share`` in a forked child and pickle ``(True, outputs)`` or
    ``(False, exception)`` into ``write_fd``.

    It leaves by ``os._exit``, so nothing the parent left pending (buffered
    output, ``atexit`` handlers, finalizers) runs a second time here; the
    inherited objects are frozen out of the garbage collector for the same
    reason.
    """
    status = 1
    try:
        gc.freeze()
        try:
            outcome = (True, run(share))
        except BaseException as exc:
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            outcome = (False, exc)
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def score_cases(store: ParamStore, cfg: ModelConfig,
                cases: list[PatientCase]) -> np.ndarray:
    """Probabilities for arbitrary cases, scored in padded chunks with no tape."""
    out = np.empty(len(cases))
    for idx, prob, _ in _forward_chunks(store, cfg, cases):
        out[idx] = prob
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

        Chunked as in ``score_cases``; each ``ta_alphas`` row has the case's
        own visit count, with the pads trimmed off.
        """
        cases = self._prepared(dataset, ids)
        out: list[dict] = [{} for _ in cases]
        for idx, _, tr in _forward_chunks(self.store, self.config, cases,
                                          collect_trace=True):
            for j, i in enumerate(idx):
                t_len = cases[i].n_visits
                out[i] = {"id": cases[i].id, "label": cases[i].label,
                          "ta_alphas": [a[j, -t_len:] for a in tr["ta_alphas"]],
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
        if not np.isfinite(value).all():
            raise ValueError(f"{path}: parameter '{name}' has a non-finite value")
        store.add(name, value)
    norm = None
    if doc["normalization"] is not None:
        norm = Normalization.from_json(doc["normalization"])
        try:
            norm.validate(cfg.n_features, cfg.n_baseline)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return FittedModel(store, cfg, list(doc["feature_names"]),
                       list(doc["baseline_names"]), norm)
