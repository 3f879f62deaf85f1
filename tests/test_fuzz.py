"""Fuzzing the two file loaders with Hypothesis.

Each example changes one value of a valid model file or cohort: a type
swap, a deleted key, ``NaN``/``Infinity``, a huge integer, deep nesting or
bad bytes; or it inserts an unknown key into an object of a model file.
A model file must then load or be refused by a ValueError that names the
file, and one with an unknown key must be refused; a cohort must load,
with each case line either loaded or recorded in ``rejects`` under its
case or line, or be refused by a ValueError that names the file or the
case.  No other exception may escape.  What loads must save back to what
was read.
"""

from __future__ import annotations

import copy
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from carelens.data import (Dataset, DatasetFormatError, PatientCase, fit_normalization,
                           load_dataset, save_dataset)
from carelens.model import FittedModel, ModelConfig, init_params, load_model, save_model

FUZZ = settings(max_examples=400, deadline=None, database=None, derandomize=True)

DELETE = object()
DEEP = "\u0000deep"             # stands for a value nested too deep to decode
DEEP_TEXT = "[" * 100_000 + "]" * 100_000
HUGE = [2 ** 63, -2 ** 63 - 1, 2 ** 64, 10 ** 30, -10 ** 30, 10 ** 400, -10 ** 400]
VALUES = st.one_of(
    st.just(DELETE), st.none(), st.booleans(), st.integers(-2, 40),
    st.sampled_from(HUGE), st.floats(), st.text(max_size=3),
    st.sampled_from([[], {}, [1.0], [[0.5, 1.0]], {"a": 1}, DEEP,
                     [[[[[[[[[[0.5]]]]]]]]]] * 2]))


def key_paths(doc, prefix=()) -> list[tuple]:
    """The path of every value in a decoded JSON document, the root
    included; of a list of scalars only the first and the last entry."""
    out = [prefix]
    if type(doc) is dict:
        for key, value in doc.items():
            out += key_paths(value, prefix + (key,))
    elif type(doc) is list:
        flat = all(type(x) not in (dict, list) for x in doc)
        for i in sorted({0, len(doc) - 1}) if flat and doc else range(len(doc)):
            out += key_paths(doc[i], prefix + (i,))
    return out


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutated_text(doc, path, new) -> str:
    """``doc`` as one JSON line with the value at ``path`` deleted or
    replaced by ``new``."""
    if not path:
        doc = new if new is not DELETE else {}
    else:
        doc = copy.deepcopy(doc)
        parent = at(doc, path[:-1])
        if new is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = new
    return json.dumps(doc).replace(json.dumps(DEEP), DEEP_TEXT)


def same_json(a, b) -> bool:
    """Equal decoded JSON, where an int and a float of one value are equal."""
    if {type(a), type(b)} == {int, float}:
        return float(a) == float(b)
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return a.keys() == b.keys() and all(same_json(a[k], b[k]) for k in a)
    if type(a) is list:
        return len(a) == len(b) and all(map(same_json, a, b))
    return a == b


# -- model files -------------------------------------------------------------------


def _saved(obj, save) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "saved"
        save(obj, path)
        return path.read_text(encoding="utf-8")


def _cohort() -> Dataset:
    rng = np.random.default_rng(3)
    return Dataset(["f0", "f1"], ["b0", "b1"], [
        PatientCase(f"p{i}", rng.normal(size=2).round(2), np.array([0.0, 1.5, 4.0])[:i + 1],
                    rng.normal(size=(2, i + 1)).round(2), i % 2) for i in range(3)])


def _model() -> FittedModel:
    cfg = ModelConfig(n_features=2, n_baseline=2, d=4, heads=2)
    ds = _cohort()
    return FittedModel(init_params(cfg, 1), cfg, ds.feature_names, ds.baseline_names,
                       fit_normalization(ds, ds.ids()))


MODEL_DOC = json.loads(_saved(_model(), save_model))
MODEL_PATHS = key_paths(MODEL_DOC)
UNKNOWN = "extra_field"         # a key that no object of a model file has
INSERTS = [p + (UNKNOWN,) for p in MODEL_PATHS if type(at(MODEL_DOC, p)) is dict]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(key=st.one_of(st.sampled_from(MODEL_PATHS),
                     # config values and shapes are drawn more often than the rest
                     st.sampled_from([p for p in MODEL_PATHS if p[:1] == ("config",)]),
                     st.sampled_from([p for p in MODEL_PATHS if "shape" in p]),
                     st.sampled_from(INSERTS)),
       new=st.one_of(VALUES, st.sampled_from(HUGE)))
@example(key=("normalization", UNKNOWN), new=[1, 2])
@example(key=("config", "d"), new=10 ** 30)
@example(key=("config", "ln_eps"), new=10 ** 400)
@example(key=("params",), new=5)
@example(key=("params", "head.W_out", "shape"), new=7)
def test_a_mutated_model_file_loads_or_is_refused_by_name(workdir, key, new):
    inserted = key in INSERTS
    assume(not (inserted and new is DELETE))
    mutant = workdir / "mutant.json"
    text = mutated_text(MODEL_DOC, key, new) + "\n"
    mutant.write_text(text, encoding="utf-8")
    try:
        model = load_model(mutant)
    except ValueError as exc:
        why = str(exc)
        assert why.startswith(f"{mutant}: "), why
        if key[:1] == ("params",) and len(key) > 1 and new is not DEEP:
            assert f"'{key[1]}'" in why, why
        if inserted and new is not DEEP:
            assert f"'{UNKNOWN}'" in why, why
        return
    assert not inserted, "a model file with an unknown key loaded"
    resaved = workdir / "resaved.json"
    save_model(model, resaved)
    again = resaved.read_text(encoding="utf-8")
    assert same_json(json.loads(again), json.loads(text))
    if {type(new), type(at(MODEL_DOC, key))} != {int, float}:
        assert again == text                 # byte for byte
    save_model(load_model(resaved), mutant)
    assert mutant.read_text(encoding="utf-8") == again


# -- cohorts -----------------------------------------------------------------------


COHORT_LINES = _saved(_cohort(), save_dataset).splitlines()


def _assert_same_cohort(a: Dataset, b: Dataset) -> None:
    assert (a.feature_names, a.baseline_names, a.ids()) == (b.feature_names,
                                                           b.baseline_names, b.ids())
    for x, y in zip(a.cases, b.cases):
        assert x.label == y.label
        for field in ("baseline", "timestamps", "records"):
            assert np.array_equal(getattr(x, field), getattr(y, field)), (x.id, field)


@FUZZ
@given(data=st.data())
def test_a_mutated_cohort_line_loads_or_is_rejected_by_name(workdir, data):
    lines = COHORT_LINES
    k = data.draw(st.integers(0, len(lines) - 1))     # 0 is the header
    line = data.draw(st.one_of(
        st.builds(mutated_text, st.just(json.loads(lines[k])),
                  st.sampled_from(key_paths(json.loads(lines[k]))), VALUES),
        st.integers(1, len(lines[k]) - 1).map(lambda n: lines[k][:n]),
    ).map(str.encode))
    if data.draw(st.integers(0, 4)) == 0:              # a byte that is not UTF-8
        cut = data.draw(st.integers(0, len(line)))
        line = line[:cut] + b"\xff" + line[cut:]
    mutant = workdir / "mutant.jsonl"
    mutant.write_bytes(b"\n".join([ln.encode() for ln in lines[:k]] + [line]
                                  + [ln.encode() for ln in lines[k + 1:]]) + b"\n")
    try:
        ds = load_dataset(mutant)
    except DatasetFormatError as exc:
        assert k and str(exc).startswith("case "), str(exc)
        return
    except ValueError as exc:
        assert k == 0 and str(exc).startswith(f"{mutant}: "), str(exc)
        return
    assert len(ds.cases) + len(ds.rejects) == len(lines) - 1
    for key, why in ds.rejects:
        assert why.startswith(f"case {key}: ") or (
            key.startswith("line ") and why.startswith(f"{key}: ")), (key, why)
    resaved = workdir / "resaved.jsonl"
    save_dataset(ds, resaved)
    again = load_dataset(resaved)
    assert again.rejects == []
    _assert_same_cohort(again, ds)
    save_dataset(again, mutant)
    assert mutant.read_bytes() == resaved.read_bytes()
