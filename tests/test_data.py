"""Dataset parsing, validation, normalization, folds, and batching."""

from __future__ import annotations

import json
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from carelens.data import (STD_FLOOR, Dataset, DatasetFormatError, PatientCase,
                           apply_normalization, fit_normalization,
                           load_dataset, make_batches, normalize,
                           save_dataset, split_folds)
from carelens.synthetic import SyntheticSpec, generate_synthetic

PROPERTY = settings(max_examples=80, deadline=None, database=None,
                    derandomize=True)

HEADER = {"feature_names": ["hr", "bp"], "baseline_names": ["age", "flag"]}


def case_line(cid, ts, rows, baseline=(50.0, 1.0), label=0, named=False):
    visits = []
    for j, t in enumerate(ts):
        vals = [rows[i][j] for i in range(len(rows))]
        if named:
            vals = dict(zip(HEADER["feature_names"], vals))
        visits.append({"t": t, "values": vals})
    return {"id": cid, "baseline": list(baseline), "visits": visits,
            "label": label}


def write_file(path, lines):
    path.write_text("\n".join(json.dumps(l) for l in lines) + "\n",
                    encoding="utf-8")


def make_case(cid, ts, label=0, n_feat=2, n_base=2, seed=0):
    rng = np.random.default_rng(seed)
    return PatientCase(cid, rng.normal(size=n_base),
                       np.asarray(ts, dtype=np.float64),
                       rng.normal(size=(n_feat, len(ts))), label)


def make_dataset(n=12, seed=0):
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n):
        t = np.concatenate([[0.0], np.cumsum(rng.uniform(1, 5, size=rng.integers(0, 6)))])
        cases.append(PatientCase(f"p{i:03d}", rng.normal(size=2), t,
                                 rng.normal(size=(2, len(t))), int(i % 2)))
    return Dataset(list(HEADER["feature_names"]), list(HEADER["baseline_names"]), cases)


# -- loading ------------------------------------------------------------------


def test_load_positional_and_named_forms_agree(tmp_path):
    ts = [0.0, 2.5, 7.0]
    rows = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    write_file(tmp_path / "a.jsonl",
               [HEADER, case_line("p1", ts, rows)])
    write_file(tmp_path / "b.jsonl",
               [HEADER, case_line("p1", ts, rows, named=True)])
    a = load_dataset(tmp_path / "a.jsonl").cases[0]
    b = load_dataset(tmp_path / "b.jsonl").cases[0]
    npt.assert_array_equal(a.records, b.records)
    npt.assert_array_equal(a.records, np.array(rows))
    npt.assert_array_equal(a.timestamps, ts)


def test_round_trip_is_bit_for_bit(tmp_path):
    ds = make_dataset(seed=3)
    # awkward values that expose any float formatting loss
    ds.cases[0].records[0, 0] = 0.1 + 0.2
    ds.cases[0].baseline[0] = 1.0 / 3.0
    ds.cases[1].records[-1, -1] = 1e-17
    p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    save_dataset(ds, p1)
    loaded = load_dataset(p1)
    assert loaded.ids() == ds.ids()
    for a, b in zip(ds.cases, loaded.cases):
        npt.assert_array_equal(a.records, b.records)
        npt.assert_array_equal(a.timestamps, b.timestamps)
        npt.assert_array_equal(a.baseline, b.baseline)
        assert a.label == b.label
    save_dataset(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_tied_timestamps_reject_with_case_id(tmp_path):
    bad = case_line("p_bad", [0.0, 5.0, 5.0], [[1, 2, 3], [4, 5, 6]])
    good = case_line("p_ok", [0.0, 1.0], [[1, 2], [3, 4]])
    write_file(tmp_path / "d.jsonl", [HEADER, bad, good])
    ds = load_dataset(tmp_path / "d.jsonl")
    assert ds.ids() == ["p_ok"]
    assert len(ds.rejects) == 1
    rid, msg = ds.rejects[0]
    assert rid == "p_bad"
    assert "p_bad" in msg and "increasing" in msg


def test_rejects_cover_schema_violations(tmp_path):
    lines = [
        HEADER,
        {"id": "t0", "baseline": [1, 0], "visits": [], "label": 0},
        case_line("late_start", [1.0, 2.0], [[1, 2], [3, 4]]),
        case_line("bad_label", [0.0], [[1], [2]], label=2),
        case_line("short_row", [0.0, 1.0], [[1, 2]]),
        {"id": "nan_val", "baseline": [1, 0],
         "visits": [{"t": 0.0, "values": [float("nan"), 1.0]}], "label": 0},
        case_line("wide", [0.0], [[1], [2], [3]]),
        case_line("ok", [0.0, 3.0], [[1, 2], [3, 4]]),
    ]
    write_file(tmp_path / "d.jsonl", lines)
    ds = load_dataset(tmp_path / "d.jsonl")
    assert ds.ids() == ["ok"]
    rejected = {rid for rid, _ in ds.rejects}
    assert rejected == {"t0", "late_start", "bad_label", "short_row",
                        "nan_val", "wide"}


def test_duplicate_id_keeps_first(tmp_path):
    one = case_line("dup", [0.0], [[1], [2]])
    two = case_line("dup", [0.0, 1.0], [[9, 9], [9, 9]], label=1)
    write_file(tmp_path / "d.jsonl", [HEADER, one, two])
    ds = load_dataset(tmp_path / "d.jsonl")
    assert ds.ids() == ["dup"]
    assert ds.cases[0].n_visits == 1
    assert ds.rejects and "duplicate" in ds.rejects[0][1]


def test_unknown_feature_name_is_a_file_error(tmp_path):
    bad = {"id": "p1", "baseline": [1, 0],
           "visits": [{"t": 0.0, "values": {"hr": 1.0, "bp": 2.0, "o2": 3.0}}],
           "label": 0}
    write_file(tmp_path / "d.jsonl", [HEADER, bad])
    with pytest.raises(DatasetFormatError, match="unknown feature name 'o2'"):
        load_dataset(tmp_path / "d.jsonl")


def test_missing_feature_name_rejects_case(tmp_path):
    bad = {"id": "p1", "baseline": [1, 0],
           "visits": [{"t": 0.0, "values": {"hr": 1.0}}], "label": 0}
    write_file(tmp_path / "d.jsonl", [HEADER, bad, case_line("ok", [0.0], [[1], [2]])])
    ds = load_dataset(tmp_path / "d.jsonl")
    assert ds.ids() == ["ok"]
    assert "missing feature 'bp'" in ds.rejects[0][1]


def test_empty_or_headerless_file_errors(tmp_path):
    p = tmp_path / "e.jsonl"
    p.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty"):
        load_dataset(p)
    p.write_text(json.dumps({"feature_names": ["a"]}) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        load_dataset(p)


def test_blank_lines_are_ignored(tmp_path):
    text = json.dumps(HEADER) + "\n\n" + json.dumps(
        case_line("p1", [0.0], [[1], [2]])) + "\n\n"
    (tmp_path / "d.jsonl").write_text(text, encoding="utf-8")
    assert load_dataset(tmp_path / "d.jsonl").ids() == ["p1"]



def test_malformed_json_line_is_rejected_by_line_number(tmp_path):
    good = json.dumps(case_line("p1", [0.0], [[1], [2]]))
    text = "\n".join([json.dumps(HEADER), good, "", "{not json", "[1, 2]",
                      good.replace("p1", "p2")]) + "\n"
    (tmp_path / "d.jsonl").write_text(text, encoding="utf-8")
    ds = load_dataset(tmp_path / "d.jsonl")
    assert ds.ids() == ["p1", "p2"]
    assert [rid for rid, _ in ds.rejects] == ["line 4", "line 5"]
    assert "line 4" in ds.rejects[0][1] and "JSON" in ds.rejects[0][1]
    assert "line 5" in ds.rejects[1][1]


def test_malformed_header_line_names_the_path(tmp_path):
    p = tmp_path / "h.jsonl"
    p.write_text("{not json\n" + json.dumps(case_line("p1", [0.0], [[1], [2]]))
                 + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="h.jsonl.*header"):
        load_dataset(p)


@pytest.mark.parametrize("header,why", [
    ('{"feature_names": ["hr", "bp"]}', "no key 'baseline_names'"),
    ("{not json", "Expecting property name enclosed in double quotes: "
                  "line 1 column 2 (char 1)"),
    ("[1]", "got list, not an object")])
def test_a_malformed_header_line_names_its_cause(tmp_path, header, why):
    # each used to give the bare "malformed header line"
    p = tmp_path / "h.jsonl"
    p.write_text(header + "\n" + json.dumps(case_line("p1", [0.0], [[1], [2]])) + "\n",
                 encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: malformed header line: "
                                         f"{re.escape(why)}$"):
        load_dataset(p)


@pytest.mark.parametrize("key,names", [
    ("feature_names", "hb"), ("feature_names", [1, None]), ("feature_names", ["hr", "hr"]),
    ("feature_names", []), ("baseline_names", []), ("baseline_names", ["age", ["flag"]]),
    ("baseline_names", {"age": 0}), ("baseline_names", None)])
def test_header_names_must_be_a_non_empty_list_of_distinct_strings(tmp_path, key, names):
    # "hb" used to load as the features h and b, ["hr", "hr"] as two
    # columns filled from one key, and [] until training failed
    p = tmp_path / "h.jsonl"
    write_file(p, [dict(HEADER, **{key: names}), case_line("p1", [0.0], [[1], [2]])])
    with pytest.raises(ValueError, match=f"h.jsonl: malformed header line: '{key}' must "
                                         "be a non-empty list of distinct strings$"):
        load_dataset(p)


@pytest.mark.parametrize("line,why", [
    ({"baseline": [1, 0], "visits": [{"t": 0.0, "values": [1, 2]}], "label": 0},
     "line 2: missing field 'id'"),
    (dict(case_line("x", [0.0], [[1], [2]]), id=["a"]), 'line 2: id must be a string, got ["a"]'),
    (dict(case_line("x", [0.0], [[1], [2]]), id=7), "line 2: id must be a string, got 7"),
    (dict(case_line("x", [0.0], [[1], [2]]), id=None), "line 2: id must be a string, got null"),
])
def test_a_case_without_a_string_id_is_rejected_by_line_number(tmp_path, line, why):
    # a missing id used to load as "<missing id>", and ["a"] as "['a']"
    write_file(tmp_path / "d.jsonl", [HEADER, line, case_line("ok", [0.0], [[1], [2]])])
    ds = load_dataset(tmp_path / "d.jsonl")
    assert ds.ids() == ["ok"]
    assert ds.rejects == [("line 2", why)]


def test_a_line_that_is_not_utf8_is_rejected_by_line_number(tmp_path):
    # one byte that is not UTF-8 used to fail the whole load
    good = json.dumps(case_line("p1", [0.0], [[1], [2]])).encode()
    bad = json.dumps(case_line("p\u00e9", [0.0], [[1], [2]])).encode().replace(
        b"\\u00e9", b"\xe9")
    p = tmp_path / "d.jsonl"
    p.write_bytes(b"\n".join([json.dumps(HEADER).encode(), good, bad,
                              good.replace(b"p1", b"p2")]) + b"\n")
    ds = load_dataset(p)
    assert ds.ids() == ["p1", "p2"]
    assert [rid for rid, _ in ds.rejects] == ["line 3"]
    assert ds.rejects[0][1].startswith("line 3: not a JSON object: 'utf-8' codec")


@pytest.mark.parametrize("depth", [200_000, 5_000])
def test_a_line_nested_too_deep_is_rejected_by_line_number(tmp_path, depth):
    # a case line nested 200 000 deep used to fail the whole load
    deep = '{"id": "deep", "visits": ' + "[" * depth + "]" * depth + "}"
    p = tmp_path / "d.jsonl"
    p.write_text("\n".join([json.dumps(HEADER), deep,
                            json.dumps(case_line("ok", [0.0], [[1], [2]]))]) + "\n",
                 encoding="utf-8")
    ds = load_dataset(p)
    assert ds.ids() == ["ok"]
    assert [rid for rid, _ in ds.rejects] == ["line 2"]
    assert "not a JSON object: maximum recursion depth" in ds.rejects[0][1]
    p.write_text("[" * depth + "]" * depth + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="d.jsonl: malformed header line"):
        load_dataset(p)


@pytest.mark.parametrize("label", [0.9, 1.0, "1", True, False, None, 2, -1])
def test_label_must_be_the_integer_zero_or_one(tmp_path, label):
    write_file(tmp_path / "d.jsonl",
               [HEADER, case_line("odd", [0.0], [[1], [2]], label=label),
                case_line("ok", [0.0], [[1], [2]], label=1)])
    ds = load_dataset(tmp_path / "d.jsonl")
    assert ds.ids() == ["ok"] and ds.cases[0].label == 1
    assert [rid for rid, _ in ds.rejects] == ["odd"]
    assert "case odd" in ds.rejects[0][1] and "label" in ds.rejects[0][1]


def per_value_parse(line, feature_names):
    """The reference parse: ``float()`` on every value, one list per visit."""
    obj = json.loads(line)
    rows = [[float(v["values"][n]) for n in feature_names]
            if isinstance(v["values"], dict) else [float(x) for x in v["values"]]
            for v in obj["visits"]]
    return {"timestamps": np.array([float(v["t"]) for v in obj["visits"]]),
            "records": np.array(rows, dtype=np.float64).T,
            "baseline": np.array([float(x) for x in obj["baseline"]])}


def assert_loads_as_per_value_parse(path):
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln]
    ds = load_dataset(path)
    assert ds.rejects == [] and len(ds.cases) == len(lines) - 1
    for case, line in zip(ds.cases, lines[1:]):
        for name, want in per_value_parse(line, ds.feature_names).items():
            got = getattr(case, name)
            # tobytes, so that the sign of a zero counts
            assert (got.dtype, got.shape, got.strides) == (want.dtype, want.shape,
                                                           want.strides), name
            assert got.tobytes() == want.tobytes(), (case.id, name)


@pytest.mark.parametrize("visits", [None, 16])
def test_generated_cohorts_load_as_the_per_value_parse(tmp_path, visits):
    extra = {} if visits is None else {"min_visits": visits, "max_visits": visits}
    ds = generate_synthetic(SyntheticSpec(n_features=4, n_baseline=3, n_cases=60,
                                          seed=11, **extra))[0]
    save_dataset(ds, tmp_path / "d.jsonl")
    assert_loads_as_per_value_parse(tmp_path / "d.jsonl")


def test_hand_written_numbers_load_as_the_per_value_parse(tmp_path):
    # JSON ints (also past 2**53, 2**63 and 2**64), -0 and -0.0, the smallest
    # subnormal, a value near the largest float, and an id holding "r" and "f"
    lines = [json.dumps(HEADER),
             '{"id": "ints", "baseline": [50, -0], "label": 1, "visits": ['
             '{"t": 0, "values": [1, -2]}, {"t": 3, "values": [9007199254740993, 0]}]}',
             '{"id": "zeros", "baseline": [-0.0, 0.0], "label": 0, "visits": ['
             '{"t": 0.0, "values": [-0.0, 5e-324]}, {"t": 1e-300, "values": '
             '[1.7e308, -1.7e308]}]}',
             '{"id": "wide", "baseline": [9223372036854775808, 18446744073709551616],'
             ' "label": 0, "visits": [{"t": 0, "values": [9223372036854775808, -1]},'
             ' {"t": 18446744073709551617, "values": [2.5, 36893488147419103232]}]}',
             '{"id": "ref_frf", "baseline": [1.5, 1], "label": 1, "visits": ['
             '{"t": 0.0, "values": {"bp": -0.0, "hr": 7}},'
             ' {"t": 2.5, "values": [3, 4.25]}]}']
    (tmp_path / "d.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert_loads_as_per_value_parse(tmp_path / "d.jsonl")


BAD_NUMBERS = ["1", True, False, None, [1.0]]
FIELD_NAMES = {"t": "timestamps", "values": "records", "named": "records",
               "baseline": "baseline"}


@pytest.mark.parametrize("bad", BAD_NUMBERS, ids=repr)
@pytest.mark.parametrize("field", sorted(FIELD_NAMES))
def test_a_value_that_is_not_a_json_number_rejects_its_case(tmp_path, field, bad):
    odd = case_line("odd", [0.0, 2.0], [[1.0, 2.0], [3.0, 4.0]],
                    named=field == "named")
    if field == "t":
        odd["visits"][1]["t"] = bad
    elif field == "baseline":
        odd["baseline"][1] = bad
    else:
        odd["visits"][1]["values"]["bp" if field == "named" else 1] = bad
    write_file(tmp_path / "d.jsonl",
               [HEADER, odd, case_line("ok", [0.0], [[1], [2]])])
    ds = load_dataset(tmp_path / "d.jsonl")
    assert ds.ids() == ["ok"]
    assert [rid for rid, _ in ds.rejects] == ["odd"]
    msg = ds.rejects[0][1]
    assert "case odd" in msg and FIELD_NAMES[field] in msg, msg


@pytest.mark.parametrize("bad", BAD_NUMBERS, ids=repr)
def test_a_field_of_one_bad_value_rejects_its_case(tmp_path, bad):
    # the whole field is the bad value: every timestamp, or every visit's values
    lines = [HEADER]
    for name in ("t", "values"):
        odd = case_line(f"odd_{name}", [0.0], [[1.0], [2.0]])
        odd["visits"][0][name] = bad if name == "t" else [bad, bad]
        lines.append(odd)
    write_file(tmp_path / "d.jsonl", lines)
    ds = load_dataset(tmp_path / "d.jsonl")
    assert ds.ids() == []
    for (rid, msg), name in zip(ds.rejects, ("timestamps", "records")):
        assert f"case {rid}" in msg and name in msg, msg

DROP = object()
# shape: (path to the changed part of the case, its new value or DROP, what
# the reject must say besides the case)
BROKEN_STRUCTURE = {
    "visit_not_object": (("visits",), [1], "visit 0 must be an object"),
    "visit_is_a_list": (("visits", 1), [0.0, 1.0], "visit 1 must be an object"),
    "visit_without_t": (("visits", 1, "t"), DROP, "visit 1 has no field 't'"),
    "visit_without_values": (("visits", 0, "values"), DROP,
                             "visit 0 has no field 'values'"),
    "visits_is_an_object": (("visits",), {}, "visits must be a list"),
    "visits_is_a_string": (("visits",), "0,1", "visits must be a list"),
    "no_visits": (("visits",), DROP, "missing field 'visits'"),
    "no_baseline": (("baseline",), DROP, "missing field 'baseline'"),
    "no_label": (("label",), DROP, "missing field 'label'"),
}


@pytest.mark.parametrize("shape", sorted(BROKEN_STRUCTURE))
def test_a_case_of_the_wrong_structure_is_rejected_naming_the_field(tmp_path, shape):
    path, value, says = BROKEN_STRUCTURE[shape]
    odd = case_line("odd", [0.0, 2.0], [[1.0, 2.0], [3.0, 4.0]])
    parent = odd
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    write_file(tmp_path / "d.jsonl",
               [HEADER, odd, case_line("ok", [0.0], [[1], [2]])])
    ds = load_dataset(tmp_path / "d.jsonl")
    assert ds.ids() == ["ok"]
    assert [rid for rid, _ in ds.rejects] == ["odd"]
    msg = ds.rejects[0][1]
    assert msg.startswith("case odd: ") and says in msg, msg


# -- normalization ------------------------------------------------------------


def test_zscore_example_zero_two():
    # training values {0, 2}: mean 1, std 1, so a raw 2.0 maps to 1.0
    cases = [PatientCase("a", np.array([0.0]), np.array([0.0, 1.0]),
                         np.array([[0.0, 2.0]]), 0),
             PatientCase("b", np.array([1.0]), np.array([0.0]),
                         np.array([[2.0]]), 1)]
    ds = Dataset(["x"], ["flag"], cases)
    norm = fit_normalization(ds, ["a"])
    assert norm.feature_mean[0] == 1.0
    assert norm.feature_std[0] == 1.0
    out = normalize(ds, ["a"])
    npt.assert_array_equal(out.cases[0].records, [[-1.0, 1.0]])
    npt.assert_array_equal(out.cases[1].records, [[1.0]])


def test_stats_come_from_train_split_only():
    ds = make_dataset(n=10, seed=1)
    ds.cases[9].records[:] = 1e6  # extreme values in the held-out case
    train_ids = ds.ids()[:9]
    norm = fit_normalization(ds, train_ids)
    pooled = np.concatenate([c.records for c in ds.subset(train_ids)], axis=1)
    npt.assert_allclose(norm.feature_mean, pooled.mean(axis=1), rtol=0, atol=0)
    npt.assert_allclose(norm.feature_std, pooled.std(axis=1), rtol=0, atol=0)


def test_normalized_train_visits_are_standard():
    ds = make_dataset(n=20, seed=2)
    ids = ds.ids()
    out = normalize(ds, ids)
    pooled = np.concatenate([c.records for c in out.cases], axis=1)
    npt.assert_allclose(pooled.mean(axis=1), 0.0, atol=1e-12)
    npt.assert_allclose(pooled.std(axis=1), 1.0, atol=1e-9)


def test_constant_feature_hits_std_floor():
    cases = [PatientCase("a", np.array([0.0]), np.array([0.0, 1.0]),
                         np.array([[7.0, 7.0]]), 0)]
    ds = Dataset(["x"], ["b"], cases)
    norm = fit_normalization(ds, ["a"])
    assert norm.feature_std[0] == 1e-6
    out = normalize(ds, ["a"])
    npt.assert_array_equal(out.cases[0].records, [[0.0, 0.0]])


def test_binary_baselines_pass_through():
    rng = np.random.default_rng(5)
    cases = [PatientCase(f"p{i}", np.array([rng.normal(60, 10), float(i % 2)]),
                         np.array([0.0]), rng.normal(size=(1, 1)), 0)
             for i in range(8)]
    ds = Dataset(["x"], ["age", "flag"], cases)
    out = normalize(ds, ds.ids())
    npt.assert_array_equal(fit_normalization(ds, ds.ids()).baseline_is_flag,
                           [False, True])
    flags = np.array([c.baseline[1] for c in out.cases])
    npt.assert_array_equal(flags, [float(i % 2) for i in range(8)])
    ages = np.array([c.baseline[0] for c in out.cases])
    assert abs(ages.mean()) < 1e-12


def test_timestamps_unchanged_by_normalization():
    ds = make_dataset(n=6, seed=7)
    out = normalize(ds, ds.ids())
    for a, b in zip(ds.cases, out.cases):
        npt.assert_array_equal(a.timestamps, b.timestamps)


def test_normalizing_no_cases_gives_no_cases():
    ds = make_dataset(n=6, seed=7)
    empty = Dataset(ds.feature_names, ds.baseline_names, [])
    assert apply_normalization(empty, fit_normalization(ds, ds.ids())).cases == []


# -- folds --------------------------------------------------------------------


def test_split_folds_partition_and_sizes():
    ds = make_dataset(n=25, seed=4)
    folds = split_folds(ds, k=4, seed=11)
    sizes = sorted(len(f) for f in folds)
    assert sizes == [6, 6, 6, 7]
    flat = [i for f in folds for i in f]
    assert sorted(flat) == sorted(ds.ids())
    assert len(set(flat)) == 25


def test_split_folds_deterministic_and_seed_sensitive():
    ds = make_dataset(n=30, seed=4)
    assert split_folds(ds, 5, seed=1) == split_folds(ds, 5, seed=1)
    assert split_folds(ds, 5, seed=1) != split_folds(ds, 5, seed=2)


def test_split_folds_bad_k():
    ds = make_dataset(n=5)
    with pytest.raises(ValueError):
        split_folds(ds, 1, seed=0)
    with pytest.raises(ValueError):
        split_folds(ds, 6, seed=0)


# -- batching -----------------------------------------------------------------


def test_batches_share_visit_count_and_partition_ids():
    ds = make_dataset(n=40, seed=6)
    ids = ds.ids()
    batches = make_batches(ds, ids, batch_size=4, seed=3)
    seen = []
    for batch in batches:
        assert 1 <= len(batch) <= 4
        assert len({c.n_visits for c in batch}) == 1
        seen.extend(c.id for c in batch)
    assert sorted(seen) == sorted(ids)


def test_batch_shapes_for_five_five_seven():
    cases = [make_case("a", [0, 1, 2, 3, 4]),
             make_case("b", [0, 2, 4, 6, 8]),
             make_case("c", [0, 1, 2, 3, 4, 5, 6])]
    ds = Dataset(HEADER["feature_names"], HEADER["baseline_names"], cases)
    batches = make_batches(ds, ["a", "b", "c"], batch_size=2, seed=0)
    sizes = sorted((b[0].n_visits, len(b)) for b in batches)
    assert sizes == [(5, 2), (7, 1)]


def test_batches_deterministic_and_reshuffled():
    ds = make_dataset(n=40, seed=6)
    ids = ds.ids()
    b1 = make_batches(ds, ids, 4, seed=9)
    b2 = make_batches(ds, ids, 4, seed=9)
    assert [[c.id for c in b] for b in b1] == [[c.id for c in b] for b in b2]
    b3 = make_batches(ds, ids, 4, seed=10)
    assert [[c.id for c in b] for b in b1] != [[c.id for c in b] for b in b3]


def test_batches_respect_id_subset():
    ds = make_dataset(n=12, seed=8)
    subset = ds.ids()[::2]
    batches = make_batches(ds, subset, 3, seed=1)
    seen = sorted(c.id for b in batches for c in b)
    assert seen == sorted(subset)


# -- properties -------------------------------------------------------------------


ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
# bounded, so that the rounding of a z-score stays far below 1e-12
SMALL_FLOAT = st.floats(-10.0, 10.0)


@st.composite
def cohorts(draw, values=ANY_FLOAT, n_flags=0):
    """Valid cohorts: 1-3 features, 1-3 baseline dimensions (the last
    ``n_flags`` of them 0/1 flags), 1-6 cases of 1-6 visits."""
    n_feat = draw(st.integers(1, 3))
    n_base = draw(st.integers(n_flags, 3)) or 1
    cases = []
    for i in range(draw(st.integers(1, 6))):
        later = draw(st.lists(st.floats(0.0, 1e9, exclude_min=True), max_size=5,
                              unique=True))
        ts = np.array([0.0] + sorted(later))
        base = draw(arrays(np.float64, n_base, elements=values))
        base[n_base - n_flags:] = draw(arrays(np.float64, n_flags,
                                              elements=st.sampled_from([0.0, 1.0])))
        cases.append(PatientCase(f"c{i}", base, ts,
                                 draw(arrays(np.float64, (n_feat, len(ts)),
                                             elements=values)),
                                 draw(st.integers(0, 1))))
    return Dataset([f"f{n}" for n in range(n_feat)],
                   [f"b{j}" for j in range(n_base)], cases)


@PROPERTY
@given(cohorts())
def test_property_save_load_round_trips_bit_for_bit(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("cohort") / "data.jsonl"
    save_dataset(ds, path)
    got = load_dataset(path)
    assert got.rejects == []
    assert (got.feature_names, got.baseline_names) == (ds.feature_names,
                                                       ds.baseline_names)
    assert [(c.id, c.label) for c in got.cases] == [(c.id, c.label) for c in ds.cases]
    for a, b in zip(got.cases, ds.cases):
        for field in ("baseline", "timestamps", "records"):
            x, y = getattr(a, field), getattr(b, field)
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), field


@PROPERTY
@given(cohorts(values=SMALL_FLOAT, n_flags=1), st.data())
def test_property_normalization_standardizes_the_training_split(ds, data):
    ids = ds.ids()
    train = data.draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
    norm = fit_normalization(ds, train)
    out = apply_normalization(ds, norm)
    raw = ds.subset(train)
    done = out.subset(train)
    pooled_raw = np.concatenate([c.records for c in raw], axis=1)
    pooled = np.concatenate([c.records for c in done], axis=1)
    base_raw = np.stack([c.baseline for c in raw], axis=1)
    base = np.stack([c.baseline for c in done], axis=1)
    flags = np.array([np.isin(r, (0.0, 1.0)).all() for r in base_raw])
    npt.assert_array_equal(norm.baseline_is_flag, flags)
    for rows_raw, rows, skip in ((pooled_raw, pooled, np.zeros(len(pooled), bool)),
                                 (base_raw, base, flags)):
        for r_raw, r, is_flag in zip(rows_raw, rows, skip):
            if is_flag or r_raw.std() < 0.1:
                continue        # too narrow to check to 1e-12
            assert abs(r.mean()) <= 1e-12
            assert abs(r.std() - 1.0) <= 1e-12
    # flags pass through untouched, in every case, not only the training ones
    for c_raw, c in zip(ds.cases, out.cases):
        assert c.baseline[flags].tobytes() == c_raw.baseline[flags].tobytes()
        assert c.timestamps.tobytes() == c_raw.timestamps.tobytes()
    assert (norm.feature_std >= STD_FLOOR).all()


@PROPERTY
@given(cohorts(values=SMALL_FLOAT, n_flags=1), st.randoms(use_true_random=False))
def test_property_normalization_ignores_case_order(ds, rnd):
    ids = ds.ids()
    train = ids[: max(1, len(ids) // 2)]
    shuffled = Dataset(ds.feature_names, ds.baseline_names,
                       rnd.sample(ds.cases, len(ds.cases)))
    norm = fit_normalization(ds, train)
    norm_s = fit_normalization(shuffled, rnd.sample(train, len(train)))
    for field in ("feature_mean", "feature_std", "baseline_mean", "baseline_std"):
        npt.assert_allclose(getattr(norm_s, field), getattr(norm, field),
                            rtol=1e-12, atol=1e-12, err_msg=field)
    npt.assert_array_equal(norm_s.baseline_is_flag, norm.baseline_is_flag)
    # with the same statistics each case comes out bit for bit the same
    by_id = {c.id: c for c in apply_normalization(ds, norm).cases}
    for c in apply_normalization(shuffled, norm).cases:
        for field in ("baseline", "timestamps", "records"):
            assert getattr(c, field).tobytes() == getattr(by_id[c.id], field).tobytes()


@PROPERTY
@given(cohorts(values=SMALL_FLOAT, n_flags=1))
def test_property_normalization_is_the_formula_and_keeps_its_input(ds):
    before = [(c.baseline.tobytes(), c.timestamps.tobytes(), c.records.tobytes())
              for c in ds.cases]
    norm = fit_normalization(ds, ds.ids()[:1])
    out = apply_normalization(ds, norm)
    for c_raw, c in zip(ds.cases, out.cases):
        want = (c_raw.records - norm.feature_mean[:, None]) / norm.feature_std[:, None]
        assert c.records.tobytes() == want.tobytes()
        want = (c_raw.baseline - norm.baseline_mean) / norm.baseline_std
        assert c.baseline.tobytes() == want.tobytes()
    assert [(c.baseline.tobytes(), c.timestamps.tobytes(), c.records.tobytes())
            for c in ds.cases] == before
