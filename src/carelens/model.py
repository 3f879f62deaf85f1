"""Full model assembly: configuration, init, batched forward, serialization.

A forward pass stacks, for each case, the N per-feature attention summaries
plus the baseline embedding into an (N+1) x d matrix, re-encodes it with the
context block, and scores it with the baseline-queried head.  Every batch,
in training and in inference, is stacked by ``pad_cases``; batching is
what gives the covariance penalty something to work with.  Scoring and
tracing sort the cases by visit count and run them in chunks of at most
``CHUNK_CELLS`` padded (case, visit) cells, with no tape.  With two chunks
or more for each CPU the process may use, forked children run a share of
the chunks each (``fork_map``, the package's one way to use several CPUs).
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
from typing import Iterator, get_type_hints

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .context import LN_EPS, decorrelation_total, encode, init_encoder_params
from .data import (Dataset, Normalization, PatientCase, _numbers, apply_normalization,
                   name_list, typed)
from .embedding import (channel_leaves, effective_beta, embed_baseline_batch,
                        gru_forward_batch, init_baseline_params,
                        init_channel_params, time_aware_attention_batch)
from .head import final_attention, init_head_params, predict
from .optim import ParamDecl, ParamStore

MODEL_FORMAT = "carelens-model"
MODEL_VERSION = 1
# the top-level keys of a model file
MODEL_KEYS = ("format", "version", "config", "feature_names", "baseline_names",
              "normalization", "params")
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
        for key, hint in CONFIG_TYPES.items():
            setattr(self, key, typed(f"model config '{key}'", getattr(self, key), hint))
        if min(self.n_features, self.n_baseline, self.d, self.heads) < 1:
            raise ValueError("model dimensions must be positive")
        if self.d % self.heads != 0:
            raise ValueError(f"d={self.d} not divisible by heads={self.heads}")
        if self.ffn_dim < 1:
            raise ValueError("d_ff must be positive")
        if not 0 < self.ln_eps < np.inf:
            raise ValueError("model config 'ln_eps' must be finite and above 0, "
                             f"not {self.ln_eps!r}")


CONFIG_TYPES = get_type_hints(ModelConfig)


def param_layout(cfg: ModelConfig,
                 rng: np.random.Generator | None = None) -> Iterator[ParamDecl]:
    """Every parameter's (name, shape, init) in init order, lazily; each
    ``init(shape)`` that draws, draws from ``rng``.  With no ``rng`` the
    layout serves for its names and shapes, and no init may be called."""
    for n in range(cfg.n_features):
        yield from init_channel_params(n, cfg.d, rng)
    yield from init_baseline_params(cfg.d, cfg.n_baseline, rng)
    yield from init_encoder_params(cfg.d, cfg.heads, cfg.ffn_dim, rng)
    yield from init_head_params(cfg.d, cfg.n_features, rng, cfg.per_position_keys)


def init_params(cfg: ModelConfig, seed: int) -> ParamStore:
    cfg.validate()
    rng = np.random.default_rng(np.random.SeedSequence([seed, cfg.d]))
    return ParamStore((name, init(shape)) for name, shape, init in param_layout(cfg, rng))


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


def forward_batch(lv: dict[str, Var], channels: dict[str, Var], records: np.ndarray,
                  delta: np.ndarray, baseline: np.ndarray, cfg: ModelConfig,
                  collect_trace: bool = False, keep: np.ndarray | None = None):
    """Run the full model on stacked arrays with a store's leaves and ``channel_leaves``.

    Returns (probabilities (B,), covariance penalty, trace-or-None).  The
    penalty only feeds the training loss: inside ``autodiff.no_grad()`` it
    is not computed and its slot holds None.  The trace holds per-feature
    attention weights, per-head attention matrices, and final attention
    weights as plain arrays.  ``keep`` is the (B,T) mask of a left-padded
    batch (see ``pad_cases``); pad steps then get zero attention.
    """
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


# True in a process that runs a share of a ``fork_map``, which forks no further
_sharing = False


def _processes(limit: int) -> int:
    """How many processes may share a job: one per CPU this process may run
    on, and at most ``limit``.

    1 (no fork) where ``os.fork`` or ``os.sched_getaffinity`` is missing,
    where other threads are alive (a fork copies only the calling one), and
    in a process whose siblings already use the other CPUs: one that runs a
    share of a ``fork_map``, or a ``multiprocessing`` child.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if _sharing or threading.active_count() > 1 or parent_process() is not None:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), limit))


def _forward_chunks(store: ParamStore, cfg: ModelConfig,
                    cases: list[PatientCase], collect_trace: bool = False):
    """(positions, probabilities, trace) for each chunk of ``_chunk_plan``,
    each run as one padded forward pass with no tape; ``fork_map`` shares
    the chunks out, at least two to a process.  A chunk's outputs depend
    only on its own cases and the weights."""
    lv, channels = store.leaves(), channel_leaves(store, cfg.n_features, cfg.d)

    def run(idx):
        records, delta, baseline, _, keep = pad_cases([cases[i] for i in idx])
        with ad.no_grad():
            prob, _, trace = forward_batch(lv, channels, records, delta, baseline, cfg,
                                           collect_trace, keep=keep)
        return idx, prob.data, trace

    return fork_map(run, _chunk_plan(cases), 2)


def fork_map(fn, items: list, per_process: int = 1) -> list:
    """``[fn(item) for item in items]``, the package's one way to use several
    CPUs: the items are dealt round-robin to this process and to a forked
    child per extra process of ``_processes``, at least ``per_process`` to
    each, and every share runs with ``_sharing`` set.  Where ``fn(item)``
    depends only on ``item`` and what the fork copied, its output has the
    same bits in whichever process runs it.

    Each share is pinned to its own CPU of this process's mask, this
    process's share to the first: a fresh child otherwise stays on its
    parent's CPU until the scheduler moves it, which a share of well under
    a second rarely outlasts.  Pinning is best effort (a CPU the mask names
    but the kernel refuses leaves that share unpinned), and this process
    gets its whole mask back before the children are reaped.

    The children are always reaped, also when this raises; when this
    process's own share raises, each child gets SIGTERM first, so the error
    does not wait for their shares.  Every read end is closed before the
    first ``waitpid``, so a child still writing gets ``BrokenPipeError`` and
    exits.  A child's exception is raised here with its type and message; a
    child killed by a signal raises RuntimeError.
    """
    global _sharing
    procs = _processes(len(items) // per_process)
    if procs == 1:
        return [fn(item) for item in items]
    mask = os.sched_getaffinity(0)
    cpus = sorted(mask)
    children: list[tuple[int, int]] = []       # (pid, read end of its pipe)
    payloads = []
    out = [None] * len(items)
    _sharing = True
    try:
        for k in range(1, procs):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:                                  # never returns
                _child(write_fd, [read_fd] + [fd for _, fd in children], cpus[k],
                       fn, items[k::procs])
            os.close(write_fd)
            children.append((pid, read_fd))
        _pin({cpus[0]})
        out[::procs] = [fn(item) for item in items[::procs]]
        for _, fd in children:
            with open(fd, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGTERM)
        raise
    finally:
        _sharing = False
        _pin(mask)
        for _, fd in children:
            os.close(fd)
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    for k, ((pid, _), status, payload) in enumerate(zip(children, statuses, payloads), 1):
        if os.WIFSIGNALED(status):
            raise RuntimeError(f"forked child {pid} was killed by "
                               f"{signal.Signals(os.WTERMSIG(status)).name}")
        if not payload:
            raise RuntimeError(f"forked child {pid} exited with status "
                               f"{os.WEXITSTATUS(status)} and sent nothing")
        ok, value = pickle.loads(payload)
        if not ok:
            raise value
        out[k::procs] = value
    return out


def _pin(cpus: set[int]) -> None:
    """Let this process run on ``cpus`` only, where the kernel allows it."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _child(write_fd: int, read_fds: list[int], cpu: int, fn, share: list) -> None:
    """In a forked child: close the pipes' read ends, pin to ``cpu``, run
    ``fn`` on each item of ``share`` and pickle ``(True, outputs)`` or
    ``(False, exception)`` into ``write_fd``.

    It leaves by ``os._exit`` whatever happens, so the child never returns
    into the caller's code, and nothing the parent left pending (buffered
    output, ``atexit`` handlers, finalizers) runs a second time here; the
    inherited objects are frozen out of the garbage collector for the same
    reason.
    """
    status = 1
    try:
        for fd in read_fds:
            os.close(fd)
        gc.freeze()
        try:
            _pin({cpu})
            outcome = (True, [fn(item) for item in share])
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
        raw = channel_leaves(self.store, self.config.n_features, self.config.d)["beta_raw"]
        with ad.no_grad():
            return dict(zip(self.feature_names, map(float, effective_beta(raw).data)))

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
        "params": {name: {"shape": list(leaf.shape), "data": leaf.data.ravel().tolist()}
                   for name, leaf in model.store.leaves().items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _param_value(path, name: str, shape: tuple[int, ...], params: dict) -> np.ndarray:
    """The file's weights of parameter ``name``, which must have ``shape``."""
    if name not in params:
        raise ValueError(f"{path}: missing parameter '{name}'")
    entry = typed(f"{path}: parameter '{name}'", params[name], dict)
    odd = sorted({"shape", "data"} ^ set(entry))
    if odd:
        raise ValueError(f"{path}: parameter '{name}' has "
                         f"{'no' if odd[0] in ('shape', 'data') else 'unknown'} key '{odd[0]}'")
    got = entry["shape"]
    if (type(got) is not list or got != list(shape)
            or any(type(n) is not int for n in got)):
        raise ValueError(f"{path}: parameter '{name}' has shape {json.dumps(got)}, "
                         f"the config needs {list(shape)}")
    data = _numbers(entry["data"], True)
    if data.dtype.kind != "f" or data.ndim != 1:
        raise ValueError(f"{path}: parameter '{name}' must be a list of numbers")
    try:
        data = data.reshape(shape)
    except ValueError as exc:
        raise ValueError(f"{path}: parameter '{name}': {exc}") from exc
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: parameter '{name}' has a non-finite value")
    return data


def load_model(path) -> FittedModel:
    """Rebuild a model bit-for-bit from its file, in init order (fresh Adam state).

    Each parameter of ``param_layout`` is checked against the file, name,
    shape and data, before the store is built, so a file that does not fit
    its config is refused before any weight is allocated for it."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:     # not UTF-8, not JSON, too deep
        raise ValueError(f"{path}: not a JSON document: {exc}") from None
    if (type(doc) is not dict or doc.get("format") != MODEL_FORMAT
            or doc.get("version") != MODEL_VERSION or type(doc["version"]) is not int):
        raise ValueError(f"{path}: not a {MODEL_FORMAT} v{MODEL_VERSION} file")
    odd = sorted(set(MODEL_KEYS) ^ set(doc))
    if odd:
        raise ValueError(f"{path}: {'missing' if odd[0] in MODEL_KEYS else 'unknown'} "
                         f"key '{odd[0]}'")
    odd = sorted(set(CONFIG_TYPES) ^ set(typed(f"{path}: 'config'", doc["config"], dict)))
    if odd:
        raise ValueError(f"{path}: model config has "
                         f"{'no' if odd[0] in CONFIG_TYPES else 'unknown'} key '{odd[0]}'")
    try:
        cfg = ModelConfig(**doc["config"])
        cfg.validate()
        for key, size in (("feature_names", cfg.n_features),
                          ("baseline_names", cfg.n_baseline)):
            if len(name_list(key, doc[key])) != size:
                raise ValueError(f"'{key}' has {len(doc[key])} names, "
                                 f"the config needs {size}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    params = typed(f"{path}: 'params'", doc["params"], dict)
    values = {name: _param_value(path, name, shape, params)
              for name, shape, _ in param_layout(cfg)}
    extra = sorted(set(params) - set(values))
    if extra:
        raise ValueError(f"{path}: unexpected parameter '{extra[0]}'")
    norm = None
    if doc["normalization"] is not None:
        try:
            norm = Normalization.from_json(doc["normalization"])
            norm.validate(cfg.n_features, cfg.n_baseline)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return FittedModel(ParamStore(values.items()), cfg, doc["feature_names"],
                       doc["baseline_names"], norm)
