"""Patient dataset schema, file io, normalization, folds, and batching.

File format: UTF-8 text, one JSON object per line.  The first line is a
header ``{"feature_names": [...], "baseline_names": [...]}``; every other
line is one case::

    {"id": "p00001", "baseline": [..S..],
     "visits": [{"t": 0.0, "values": [..N..]}, ...], "label": 0}

Timestamps are hours since the first visit (so ``t`` starts at 0 and is
strictly increasing).  ``values`` may also be an object keyed by feature
name; names missing from the header are an error.  Every ``t``, value and
baseline entry is a JSON number (an integer loads as its float); a string,
boolean, null or nested list rejects the case.  Labels are the JSON
integers 0 or 1.  Cases that violate the schema invariants are skipped with
a logged diagnostic naming the case id; a case line that is not UTF-8, not
a JSON object or has no string ``id`` is skipped the same way, named
``line <k>`` (1-based file line).  A header whose name lists are not
non-empty lists of distinct strings aborts the load.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Iterable, Sequence, get_args

import numpy as np

log = logging.getLogger(__name__)

STD_FLOOR = 1e-6


class DatasetFormatError(ValueError):
    """File-level schema violation that aborts loading (unlike per-case
    problems, which only skip the offending case)."""


def typed(what: str, value, hint):
    """``value`` if its exact type is one that ``hint`` names (a bool is no
    int; an int within the float range may fill a float field, as a float),
    else ValueError."""
    if hint is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:               # beyond the float range
            pass
    if type(value) not in (get_args(hint) or (hint,)):
        raise ValueError(f"{what} must be {getattr(hint, '__name__', hint)}, "
                         f"got {json.dumps(value, default=repr)}")
    return value


def name_list(key: str, names) -> list[str]:
    """``names`` if it is a non-empty list of distinct strings, else
    ValueError naming ``key``."""
    if (type(names) is not list or not names
            or any(type(n) is not str for n in names) or len(set(names)) < len(names)):
        raise ValueError(f"'{key}' must be a non-empty list of distinct strings")
    return names


@dataclass
class PatientCase:
    """One patient: static baseline vector plus an irregular visit series."""

    id: str
    baseline: np.ndarray     # (S,)
    timestamps: np.ndarray   # (T,) hours, t[0] == 0, strictly increasing
    records: np.ndarray      # (N, T) one row per dynamic feature
    label: int

    @property
    def n_visits(self) -> int:
        return int(self.timestamps.shape[0])

    def validate(self, n_features: int, n_baseline: int) -> None:
        t = self.timestamps
        if t.size == 0:
            raise ValueError(f"case {self.id}: needs at least one visit")
        for name, arr, shape in (("timestamps", t, t.shape[:1]),
                                 ("records", self.records, (n_features,) + t.shape[:1]),
                                 ("baseline", self.baseline, (n_baseline,))):
            if arr.shape != shape:
                raise ValueError(f"case {self.id}: {name} shape {arr.shape} != {shape}")
            if arr.dtype.kind != "f":
                raise ValueError(f"case {self.id}: non-numeric value in {name}")
        if t[0] != 0.0:
            raise ValueError(f"case {self.id}: timestamps must start at 0")
        if not (t[1:] > t[:-1]).all():
            raise ValueError(f"case {self.id}: timestamps must be strictly increasing")
        if self.label not in (0, 1):
            raise ValueError(f"case {self.id}: label must be 0 or 1")
        if not np.isfinite(self.baseline).all():
            raise ValueError(f"case {self.id}: non-finite value in baseline")
        if t[-1] == np.inf:     # timestamps rising from 0 can end only in +inf
            raise ValueError(f"case {self.id}: non-finite value in timestamps")
        if not np.isfinite(self.records).all():
            raise ValueError(f"case {self.id}: non-finite value in records")


@dataclass
class Normalization:
    """Z-score statistics, always computed from the training split only."""

    feature_mean: np.ndarray   # (N,)
    feature_std: np.ndarray    # (N,) floored at STD_FLOOR
    baseline_mean: np.ndarray  # (S,)
    baseline_std: np.ndarray   # (S,)
    baseline_is_flag: np.ndarray  # (S,) bool; flags pass through untouched

    def to_json(self) -> dict:
        return {"feature_mean": self.feature_mean.tolist(),
                "feature_std": self.feature_std.tolist(),
                "baseline_mean": self.baseline_mean.tolist(),
                "baseline_std": self.baseline_std.tolist(),
                "baseline_is_flag": self.baseline_is_flag.astype(int).tolist()}

    def validate(self, n_features: int, n_baseline: int) -> None:
        """Raise ValueError naming the first field that has the wrong
        length or a non-finite entry, or a std that is not positive."""
        for name, size in (("feature_mean", n_features), ("feature_std", n_features),
                           ("baseline_mean", n_baseline), ("baseline_std", n_baseline),
                           ("baseline_is_flag", n_baseline)):
            value = getattr(self, name)
            if value.shape != (size,):
                raise ValueError(f"normalization '{name}' has shape "
                                 f"{list(value.shape)}, the model needs [{size}]")
            if not np.isfinite(value).all():
                raise ValueError(f"normalization '{name}' has a non-finite entry")
            if name.endswith("_std") and not (value > 0).all():
                raise ValueError(f"normalization '{name}' has an entry that is not "
                                 f"positive: {float(value.min())!r}")

    @staticmethod
    def from_json(d: dict) -> "Normalization":
        """Raise ValueError naming a field that is missing, unknown or not a
        list of JSON numbers, or a ``baseline_is_flag`` entry that is not 0
        or 1."""
        arrays = {}
        for name in ("feature_mean", "feature_std", "baseline_mean",
                     "baseline_std", "baseline_is_flag"):
            if type(d) is not dict or name not in d:
                raise ValueError(f"normalization has no field '{name}'")
            arrays[name] = _numbers(d[name], True)
            if arrays[name].dtype.kind != "f":
                raise ValueError(f"normalization '{name}' must be a list of numbers")
        unknown = sorted(set(d) - set(arrays))
        if unknown:
            raise ValueError(f"normalization has unknown field '{unknown[0]}'")
        if not np.isin(arrays["baseline_is_flag"], (0.0, 1.0)).all():
            raise ValueError("normalization 'baseline_is_flag' entries must be 0 or 1")
        arrays["baseline_is_flag"] = arrays["baseline_is_flag"].astype(bool)
        return Normalization(**arrays)


@dataclass
class Dataset:
    feature_names: list[str]
    baseline_names: list[str]
    cases: list[PatientCase]
    rejects: list[tuple[str, str]] = field(default_factory=list)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def n_baseline(self) -> int:
        return len(self.baseline_names)

    def __len__(self) -> int:
        return len(self.cases)

    def ids(self) -> list[str]:
        return [c.id for c in self.cases]

    def labels(self) -> np.ndarray:
        return np.array([c.label for c in self.cases], dtype=np.int64)

    def subset(self, ids: Iterable[str]) -> list[PatientCase]:
        by_id = {c.id: c for c in self.cases}
        return [by_id[i] for i in ids]


def _numbers(raw, may_hold_bool: bool) -> np.ndarray:
    """A decoded JSON field as one numpy array: float64 when it holds JSON
    numbers only.  A string, null or nested list leaves another dtype or
    shape, which ``PatientCase.validate`` rejects.  numpy reads ``true`` as 1,
    so where the line may hold a bool the elements are looked at one by one."""
    try:
        arr = np.array(raw)
    except ValueError:                       # ragged nesting
        return np.array(raw, dtype=object)
    if may_hold_bool:
        cells = np.array(raw, dtype=object)
        if any(type(x) is bool for x in cells.flat):
            return cells
    if arr.dtype.kind in "iu":
        return arr.astype(np.float64)
    if arr.dtype == object and all(type(x) in (int, float) for x in arr.flat):
        try:                                 # an int beyond 64 bits
            return arr.astype(np.float64)
        except OverflowError:
            pass
    return arr


def _named_values(raw: dict, feature_names: list[str], case_id: str) -> list:
    """Values keyed by feature name, in header order."""
    unknown = set(raw) - set(feature_names)
    if unknown:
        # a name outside the header means the file disagrees with its
        # own schema, so give up on the whole file
        raise DatasetFormatError(f"case {case_id}: unknown feature name "
                                 f"'{sorted(unknown)[0]}'")
    missing = set(feature_names) - set(raw)
    if missing:
        raise ValueError(f"case {case_id}: missing feature "
                         f"'{sorted(missing)[0]}'")
    return [raw[n] for n in feature_names]


def _field(obj: dict, key: str, case_id: str):
    if key not in obj:
        raise ValueError(f"case {case_id}: missing field '{key}'")
    return obj[key]


def _bad_visit(visits: list, case_id: str) -> str:
    """The reject message for the first visit that is not an object with a
    ``t`` and a ``values`` field; the caller has met one."""
    for k, v in enumerate(visits):
        if type(v) is not dict:
            return f"case {case_id}: visit {k} must be an object, got {type(v).__name__}"
        for key in ("t", "values"):
            if key not in v:
                return f"case {case_id}: visit {k} has no field '{key}'"


def _parse_label(raw, case_id: str) -> int:
    # bool is an int subclass, so JSON true would pass as 1 without this
    if isinstance(raw, bool) or not isinstance(raw, int) or raw not in (0, 1):
        raise ValueError(f"case {case_id}: label must be the integer 0 or 1, "
                         f"got {raw!r}")
    return raw


def load_dataset(path) -> Dataset:
    """Parse a dataset file; invalid cases are skipped and recorded in
    ``rejects`` with a diagnostic, keyed by case id, or by ``line <k>`` for
    a line that is not UTF-8, not a JSON object, nested too deep to decode,
    or without a string ``id``.

    Each field of a case becomes one numpy array: the timestamps, the
    (T, N) visit values and the baseline."""
    with open(path, "rb") as fh:
        lines = ((k, ln) for k, ln in enumerate(map(bytes.strip, fh), 1) if ln)
        first = next(lines, None)
        if first is None:
            raise ValueError(f"{path}: empty dataset file")
        try:                          # not UTF-8 or JSON, too deep, not an object
            header = json.loads(first[1].decode())
            if type(header) is not dict:
                raise ValueError(f"got {type(header).__name__}, not an object")
            feature_names = name_list("feature_names", header["feature_names"])
            baseline_names = name_list("baseline_names", header["baseline_names"])
        except KeyError as exc:
            raise ValueError(f"{path}: malformed header line: no key {exc}") from None
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: malformed header line: {exc}") from None
        ds = Dataset(feature_names, baseline_names, [])
        seen: set[str] = set()

        def reject(key: str, why: str) -> None:
            log.warning("rejected %s: %s", key, why)
            ds.rejects.append((key, why))

        for k, ln in lines:
            line_id = f"line {k}"
            try:
                obj = json.loads(ln.decode())    # bytes that are not UTF-8 raise ValueError
                if not isinstance(obj, dict):
                    raise ValueError(f"got {type(obj).__name__}")
            except (ValueError, RecursionError) as exc:
                reject(line_id, f"{line_id}: not a JSON object: {exc}")
                continue
            case_id = obj.get("id")
            if type(case_id) is not str:
                why = ("missing field 'id'" if "id" not in obj
                       else f"id must be a string, got {json.dumps(case_id)}")
                reject(line_id, f"{line_id}: {why}")
                continue
            # JSON spells a bool only as true or false, so a line with no
            # "r" and no "f" holds none; one letter is found by memchr, many
            # times faster than a word
            may_hold_bool = b"r" in ln or b"f" in ln
            try:
                if case_id in seen:
                    raise ValueError(f"case {case_id}: duplicate id")
                visits = _field(obj, "visits", case_id)
                if type(visits) is not list:
                    raise ValueError(f"case {case_id}: visits must be a list of "
                                     f"objects, got {type(visits).__name__}")
                try:
                    rows = [v["values"] for v in visits]
                    stamps = [v["t"] for v in visits]
                except (KeyError, TypeError):
                    raise ValueError(_bad_visit(visits, case_id)) from None
                values = _numbers(rows, may_hold_bool)
                if values.dtype == object and any(type(r) is dict for r in rows):
                    values = _numbers([_named_values(r, feature_names, case_id)
                                       if type(r) is dict else r for r in rows],
                                      may_hold_bool)
                case = PatientCase(
                    id=case_id,
                    baseline=_numbers(_field(obj, "baseline", case_id), may_hold_bool),
                    timestamps=_numbers(stamps, may_hold_bool),
                    records=values.T,
                    label=_parse_label(_field(obj, "label", case_id), case_id))
                case.validate(len(feature_names), len(baseline_names))
            except DatasetFormatError:
                raise
            except (ValueError, KeyError, TypeError) as exc:
                reject(case_id, str(exc))
                continue
            seen.add(case_id)
            ds.cases.append(case)
    return ds


def save_dataset(dataset: Dataset, path) -> None:
    """Write the line-delimited format; floats round-trip bit for bit."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"feature_names": dataset.feature_names,
                             "baseline_names": dataset.baseline_names}) + "\n")
        for c in dataset.cases:
            fh.write(json.dumps({
                "id": c.id,
                "baseline": c.baseline.tolist(),
                "visits": [{"t": float(t), "values": c.records[:, j].tolist()}
                           for j, t in enumerate(c.timestamps)],
                "label": int(c.label)}) + "\n")


def fit_normalization(dataset: Dataset, train_ids: Iterable[str]) -> Normalization:
    """Per-feature z-score stats over all training visits; baseline
    dimensions whose training values all lie in {0, 1} count as flags."""
    train = dataset.subset(train_ids)
    if not train:
        raise ValueError("empty training split")
    s = dataset.n_baseline
    pooled = np.concatenate([c.records for c in train], axis=1)  # (N, sum T)
    f_mean = pooled.mean(axis=1)
    f_std = np.maximum(pooled.std(axis=1), STD_FLOOR)
    base = np.stack([c.baseline for c in train], axis=0)  # (n_train, S)
    is_flag = np.array([np.isin(base[:, j], (0.0, 1.0)).all() for j in range(s)])
    b_mean = np.where(is_flag, 0.0, base.mean(axis=0))
    b_std = np.where(is_flag, 1.0, np.maximum(base.std(axis=0), STD_FLOOR))
    return Normalization(f_mean, f_std, b_mean, b_std, is_flag)


def apply_normalization(dataset: Dataset, norm: Normalization) -> Dataset:
    """Z-score all cases in one pass; each case keeps its timestamps array."""
    out = Dataset(list(dataset.feature_names), list(dataset.baseline_names), [])
    if dataset.cases:
        # concatenate and stack copy, so the input's arrays stay untouched;
        # z-scoring in place allocates no temporaries, which would be freed
        # to the system and faulted in again by the next forward pass
        records = np.concatenate([c.records for c in dataset.cases], axis=1)
        records -= norm.feature_mean[:, None]
        records /= norm.feature_std[:, None]
        base = np.stack([c.baseline for c in dataset.cases])
        base -= norm.baseline_mean
        base /= norm.baseline_std
        splits = np.cumsum([c.n_visits for c in dataset.cases[:-1]])
        out.cases = [PatientCase(c.id, b, c.timestamps, r, c.label) for c, b, r
                     in zip(dataset.cases, base, np.split(records, splits, axis=1))]
    return out


def normalize(dataset: Dataset, train_ids: Iterable[str]) -> Dataset:
    """Z-score every case with statistics fit on ``train_ids`` only."""
    return apply_normalization(dataset, fit_normalization(dataset, train_ids))


def split_folds(dataset: Dataset, k: int, seed: int) -> list[list[str]]:
    """Shuffle ids and deal them into k folds with sizes differing by at
    most one.  Deterministic under the seed."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > len(dataset):
        raise ValueError(f"k={k} exceeds {len(dataset)} cases")
    ids = dataset.ids()
    rng = np.random.default_rng(np.random.SeedSequence([seed, len(ids)]))
    order = rng.permutation(len(ids))
    folds: list[list[str]] = [[] for _ in range(k)]
    for pos, idx in enumerate(order):
        folds[pos % k].append(ids[idx])
    return folds


def make_batches(dataset: Dataset, ids: Sequence[str], batch_size: int,
                 seed: int) -> list[list[PatientCase]]:
    """Batches of cases sharing an identical visit count (no padding).

    Cases are bucketed by T, shuffled within buckets, chunked to
    ``batch_size``, and the batch order itself is shuffled, all driven by
    the seed.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    rng = np.random.default_rng(np.random.SeedSequence([seed, batch_size]))
    buckets: dict[int, list[PatientCase]] = {}
    for c in dataset.subset(ids):
        buckets.setdefault(c.n_visits, []).append(c)
    batches: list[list[PatientCase]] = []
    for t in sorted(buckets):
        group = buckets[t]
        order = rng.permutation(len(group))
        for start in range(0, len(group), batch_size):
            batches.append([group[i] for i in order[start:start + batch_size]])
    batch_order = rng.permutation(len(batches))
    return [batches[i] for i in batch_order]
