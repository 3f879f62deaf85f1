"""Model assembly: config, batched forward, scoring, serialization."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import time
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

import carelens.model as model_mod
from carelens import autodiff as ad
from carelens.data import (Dataset, PatientCase, apply_normalization,
                           fit_normalization)
from carelens.context import decorrelation_total
from carelens.embedding import channel_leaves
from carelens.head import PROB_CLAMP, cross_entropy
from carelens.model import (FittedModel, ModelConfig, forward_batch, init_params,
                            load_model, pad_cases, save_model, score_cases)
from carelens.synthetic import SyntheticSpec, generate_synthetic


def leaves(store, cfg):
    """The ``lv`` and ``channels`` that ``forward_batch`` takes."""
    return store.leaves(), channel_leaves(store, cfg.n_features, cfg.d)


def tiny_config(**kw):
    base = dict(n_features=3, n_baseline=2, d=8, heads=2)
    base.update(kw)
    return ModelConfig(**base)


def make_cases(n, t_len, cfg, seed):
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n):
        ts = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 30, t_len - 1))])
        cases.append(PatientCase(f"p{i}", rng.normal(size=cfg.n_baseline), ts,
                                 rng.normal(size=(cfg.n_features, t_len)),
                                 int(rng.integers(0, 2))))
    return cases


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        tiny_config(d=6, heads=4).validate()
    with pytest.raises(ValueError, match="positive"):
        tiny_config(n_features=0).validate()
    assert tiny_config(d=12, heads=3).ffn_dim == 24
    assert tiny_config(d_ff=5).ffn_dim == 5


def test_init_params_deterministic_per_seed():
    cfg = tiny_config()
    s1, s2 = init_params(cfg, 7), init_params(cfg, 7)
    assert [name for name, _ in s1.items()] == [name for name, _ in s2.items()]
    for name, _ in s1.items():
        npt.assert_array_equal(s1.value(name), s2.value(name))
    s3 = init_params(cfg, 8)
    assert any(not np.array_equal(s1.value(n), s3.value(n))
               for n, _ in s1.items())


def test_init_param_inventory():
    cfg = tiny_config(per_position_keys=True)
    store = init_params(cfg, 0)
    names = {name for name, _ in store.items()}
    assert "channel0.gru.W_z" in names and "channel2.attn.beta_raw" in names
    assert "baseline.W_emb" in names and "encoder.W_O" in names
    # one key matrix per feature row plus the baseline row
    assert {f"head.W_k_{i}" for i in range(4)} <= names
    assert "head.W_k" not in names


def store_digest(store):
    h = hashlib.sha256()
    for name, e in store.items():
        h.update(name.encode())
        h.update(repr(e.value.shape).encode())
        h.update(e.value.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kw,seed,digest", [
    (dict(n_features=3, n_baseline=2, d=8, heads=2), 0,
     "8ef76dbc4e6cf3f3d0c97b5b77747976a7a83823af8c74a67c623c6bf8ba6e36"),
    (dict(n_features=4, n_baseline=3, d=16, heads=2), 7,
     "09bb0c2275b7c68c4570d446cfa3ee7693bb12a43413cad78eba11c50565f4df"),
    (dict(n_features=5, n_baseline=1, d=12, heads=3, d_ff=5,
          per_position_keys=True), 123,
     "2ea4502ad27ef1fcebcb70f776f285f2dba1ef764eb6a1bfa7a0a349d7de1b07"),
])
def test_init_params_is_bitwise_pinned(kw, seed, digest):
    # names, shapes, order and every initial value, frozen by digest
    assert store_digest(init_params(ModelConfig(**kw), seed)) == digest


def test_batch_tensors_layout():
    # the layout of a training batch, stacked by pad_cases: no mask, no pads
    cfg = tiny_config()
    cases = make_cases(4, 5, cfg, seed=1)
    records, delta, baseline, labels, keep = pad_cases(cases)
    assert keep is None
    assert records.shape == (4, 3, 5)
    assert delta.shape == (4, 5) and baseline.shape == (4, 2)
    for b, c in enumerate(cases):
        npt.assert_array_equal(delta[b], c.timestamps[-1] - c.timestamps)
    assert (delta[:, -1] == 0.0).all()
    npt.assert_array_equal(labels, [c.label for c in cases])


def test_forward_outputs_are_clamped_probabilities():
    cfg = tiny_config()
    store = init_params(cfg, 3)
    records, delta, baseline, _, _ = pad_cases(make_cases(6, 4, cfg, seed=4))
    prob, decorr, trace = forward_batch(*leaves(store, cfg), records, delta,
                                        baseline, cfg)
    assert prob.shape == (6,)
    assert (prob.data >= PROB_CLAMP).all()
    assert (prob.data <= 1.0 - PROB_CLAMP).all()
    assert float(decorr.data) >= 0.0
    assert trace is None


def test_batched_forward_matches_single_case_runs():
    cfg = tiny_config()
    store = init_params(cfg, 5)
    cases = make_cases(5, 6, cfg, seed=6)
    records, delta, baseline, _, _ = pad_cases(cases)
    prob, _, _ = forward_batch(*leaves(store, cfg), records, delta, baseline, cfg)
    for b, c in enumerate(cases):
        r1, d1, b1, _, _ = pad_cases([c])
        p1, _, _ = forward_batch(*leaves(store, cfg), r1, d1, b1, cfg)
        assert abs(float(p1.data[0]) - prob.data[b]) < 1e-10


def test_trace_shapes_and_distributions():
    cfg = tiny_config()
    store = init_params(cfg, 7)
    records, delta, baseline, _, _ = pad_cases(make_cases(3, 5, cfg, seed=8))
    _, _, trace = forward_batch(*leaves(store, cfg), records, delta, baseline, cfg,
                                collect_trace=True)
    assert len(trace["ta_alphas"]) == cfg.n_features
    for a in trace["ta_alphas"]:
        assert a.shape == (3, 5)
        npt.assert_allclose(a.sum(axis=-1), np.ones(3), atol=1e-12)
    assert len(trace["head_attn"]) == cfg.heads
    for a in trace["head_attn"]:
        assert a.shape == (3, 4, 4)
        npt.assert_allclose(a.sum(axis=-1), np.ones((3, 4)), atol=1e-12)
    assert trace["final_alpha"].shape == (3, 4)


def test_score_cases_handles_mixed_visit_counts():
    cfg = tiny_config()
    store = init_params(cfg, 9)
    cases = make_cases(3, 4, cfg, seed=10) + make_cases(2, 7, cfg, seed=11)
    scores = score_cases(store, cfg, cases)
    for i, c in enumerate(cases):
        one = score_cases(store, cfg, [c])
        assert abs(scores[i] - one[0]) < 1e-10


def test_time_aware_false_ignores_visit_spacing():
    cfg_off = tiny_config(time_aware=False)
    store = init_params(cfg_off, 12)
    cases = make_cases(4, 5, cfg_off, seed=13)
    stretched = [dataclasses.replace(c, timestamps=c.timestamps * 37.0)
                 for c in cases]
    s1 = score_cases(store, cfg_off, cases)
    s2 = score_cases(store, cfg_off, stretched)
    npt.assert_array_equal(s1, s2)
    cfg_on = tiny_config(time_aware=True)
    s3 = score_cases(store, cfg_on, cases)
    s4 = score_cases(store, cfg_on, stretched)
    assert not np.array_equal(s3, s4)


def test_fitted_model_round_trip_is_bitwise(tmp_path):
    ds, _ = generate_synthetic(SyntheticSpec(n_cases=12, seed=1))
    cfg = ModelConfig(n_features=ds.n_features, n_baseline=ds.n_baseline,
                      d=8, heads=2)
    model = FittedModel(init_params(cfg, 14), cfg, ds.feature_names,
                        ds.baseline_names)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.config == cfg
    assert loaded.feature_names == ds.feature_names
    for name, _ in model.store.items():
        npt.assert_array_equal(loaded.store.value(name),
                               model.store.value(name))
    s1, y1 = model.score(ds)
    s2, y2 = loaded.score(ds)
    npt.assert_array_equal(s1, s2)
    npt.assert_array_equal(y1, y2)


def test_load_model_rejects_other_files(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"format": "something-else", "version": 1}',
                    encoding="utf-8")
    with pytest.raises(ValueError, match="not a"):
        load_model(path)


def _saved_model_doc(tmp_path, d=12, heads=2):
    ds, _ = generate_synthetic(SyntheticSpec(n_cases=6, seed=5))
    cfg = ModelConfig(n_features=ds.n_features, n_baseline=ds.n_baseline,
                      d=d, heads=heads)
    path = tmp_path / "model.json"
    save_model(FittedModel(init_params(cfg, 18), cfg, ds.feature_names,
                           ds.baseline_names), path)
    return path, json.loads(path.read_text(encoding="utf-8"))


def test_load_model_rejects_a_missing_weight(tmp_path):
    path, doc = _saved_model_doc(tmp_path)
    del doc["params"]["encoder.ffn.b_1"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="missing parameter 'encoder.ffn.b_1'"):
        load_model(path)


def test_load_model_rejects_weights_that_do_not_fit_the_config(tmp_path):
    path, doc = _saved_model_doc(tmp_path)
    doc["config"]["heads"] = 3
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="parameter 'encoder.head"):
        load_model(path)
    path, doc = _saved_model_doc(tmp_path)
    doc["params"]["channel1.gru.U_r"]["shape"] = [4, 36]
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="'channel1.gru.U_r' has shape"):
        load_model(path)
    path, doc = _saved_model_doc(tmp_path)
    doc["params"]["baseline.W_emb"]["data"].pop()
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="parameter 'baseline.W_emb': cannot reshape"):
        load_model(path)
    path, doc = _saved_model_doc(tmp_path)
    doc["params"]["extra.W"] = {"shape": [1], "data": [0.0]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="unexpected parameter 'extra.W'"):
        load_model(path)


def test_load_model_rejects_a_non_finite_weight(tmp_path):
    path, doc = _saved_model_doc(tmp_path)
    doc["params"]["channel0.gru.W_z"]["data"][3] = float("nan")
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError,
                       match="parameter 'channel0.gru.W_z' has a non-finite value"):
        load_model(path)


def _doc_with_normalization(tmp_path):
    path, doc = _saved_model_doc(tmp_path)
    ds, _ = generate_synthetic(SyntheticSpec(n_cases=6, seed=5))
    doc["normalization"] = fit_normalization(ds, ds.ids()).to_json()
    return path, doc


@pytest.mark.parametrize("field, entry, message", [
    ("feature_std", 0.0, "'feature_std' has an entry that is not positive: 0.0"),
    ("baseline_std", -1.0, "'baseline_std' has an entry that is not positive"),
    ("feature_mean", float("inf"), "'feature_mean' has a non-finite entry"),
    ("baseline_mean", float("nan"), "'baseline_mean' has a non-finite entry"),
    ("feature_std", float("inf"), "'feature_std' has a non-finite entry"),
])
def test_load_model_rejects_a_bad_normalization(tmp_path, field, entry, message):
    path, doc = _doc_with_normalization(tmp_path)
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_model(path).normalization is not None
    doc["normalization"][field][1] = entry
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=f"normalization {message}"):
        load_model(path)


def test_load_model_rejects_a_normalization_of_the_wrong_length(tmp_path):
    path, doc = _doc_with_normalization(tmp_path)
    doc["normalization"]["baseline_is_flag"].append(0)
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=r"'baseline_is_flag' has shape \[4\], "
                                         r"the model needs \[3\]"):
        load_model(path)


def test_load_model_validates_the_config(tmp_path):
    path, doc = _saved_model_doc(tmp_path, d=16)
    doc["config"]["heads"] = 3
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: d=16 not divisible"):
        load_model(path)


@pytest.mark.parametrize("key", ["time_aware", "per_position_keys", "pool_positions"])
@pytest.mark.parametrize("value", ["no", 1, None])
def test_load_model_rejects_a_config_flag_that_is_not_a_bool(tmp_path, key, value):
    # "time_aware": "no" used to load and score with time-damping on
    path, doc = _saved_model_doc(tmp_path)
    doc["config"][key] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: model config "
                                         f"'{key}' must be bool, got {re.escape(json.dumps(value))}$"):
        load_model(path)


@pytest.mark.parametrize("value", [-1.0, 0.0, -0.0, float("nan"), float("inf"),
                                   "1e-5", True, None])
def test_load_model_rejects_an_ln_eps_that_is_not_finite_and_positive(tmp_path, value):
    # "ln_eps": -1.0 used to load and make every score NaN
    path, doc = _saved_model_doc(tmp_path)
    doc["config"]["ln_eps"] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    why = ("must be finite and above 0" if type(value) is float
           else f"must be float, got {re.escape(json.dumps(value))}$")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: model config "
                                         f"'ln_eps' {why}"):
        load_model(path)
    doc["config"]["ln_eps"] = 1
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_model(path).config.ln_eps == 1


@pytest.mark.parametrize("value", [1, 10 ** 300], ids=["1", "10**300"])
def test_an_integer_ln_eps_loads_and_saves_as_its_float(tmp_path, value):
    # "ln_eps": 1 used to load as the int 1 and save back as 1
    path, doc = _saved_model_doc(tmp_path)
    doc["config"]["ln_eps"] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    model = load_model(path)
    assert type(model.config.ln_eps) is float and model.config.ln_eps == float(value)
    save_model(model, path)
    text = path.read_text(encoding="utf-8")
    assert f'"ln_eps": {float(value)!r}}}' in text
    assert type(json.loads(text)["config"]["ln_eps"]) is float


@pytest.mark.parametrize("key,value,why", [
    ("d", "4", "model config 'd' must be int, got \"4\""),
    ("d", 4.0, "model config 'd' must be int, got 4.0"),
    ("heads", True, "model config 'heads' must be int, got true"),
    ("n_features", None, "model config 'n_features' must be int, got null"),
    ("d_ff", 8.5, "model config 'd_ff' must be int | None, got 8.5"),
])
def test_load_model_rejects_a_config_value_of_the_wrong_json_type(tmp_path, key, value, why):
    # "d": "4" and "d": 4.0 used to fail with a raw TypeError naming no key
    path, doc = _saved_model_doc(tmp_path)
    doc["config"][key] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(why)}$"):
        load_model(path)


@pytest.mark.parametrize("change,why", [
    (lambda c: c.update(depth=2), "model config has unknown key 'depth'"),
    (lambda c: c.pop("time_aware"), "model config has no key 'time_aware'"),
    (lambda c: c.pop("n_baseline"), "model config has no key 'n_baseline'"),
])
def test_load_model_names_an_unknown_or_missing_config_key(tmp_path, change, why):
    path, doc = _saved_model_doc(tmp_path)
    change(doc["config"])
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {why}$"):
        load_model(path)


@pytest.mark.parametrize("key", ["config", "feature_names", "baseline_names",
                                 "normalization", "params"])
def test_load_model_names_a_missing_top_level_key(tmp_path, key):
    path, doc = _saved_model_doc(tmp_path)
    del doc[key]
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: missing key '{key}'$"):
        load_model(path)


@pytest.mark.parametrize("doc", [[1, 2], "carelens-model", None])
def test_load_model_rejects_a_file_that_is_not_a_json_object(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="not a carelens-model v1 file"):
        load_model(path)
    path, saved = _saved_model_doc(tmp_path)
    saved["config"] = doc
    path.write_text(json.dumps(saved), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: 'config' must be dict"):
        load_model(path)


@pytest.mark.parametrize("bad", ["1", True, False, None, [0.5]])
def test_load_model_rejects_parameter_data_that_is_not_numbers(tmp_path, bad):
    # ["1", ...] and [true, ...] used to load as 1.0
    path, doc = _saved_model_doc(tmp_path)
    doc["params"]["head.W_out"]["data"][0] = bad
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: parameter 'head.W_out' "
                                         "must be a list of numbers$"):
        load_model(path)


@pytest.mark.parametrize("field,entry,why", [
    ("feature_mean", "0", "'feature_mean' must be a list of numbers"),
    ("baseline_std", True, "'baseline_std' must be a list of numbers"),
    ("feature_std", None, "'feature_std' must be a list of numbers"),
    ("baseline_is_flag", 2, "'baseline_is_flag' entries must be 0 or 1"),
    ("baseline_is_flag", True, "'baseline_is_flag' must be a list of numbers"),
    ("baseline_is_flag", 0.5, "'baseline_is_flag' entries must be 0 or 1"),
])
def test_load_model_rejects_a_normalization_entry_that_is_not_a_number(tmp_path, field,
                                                                       entry, why):
    # a mean of "0" used to load as 0.0, and a flag of 2 as True
    path, doc = _doc_with_normalization(tmp_path)
    doc["normalization"][field][0] = entry
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: normalization {why}$"):
        load_model(path)


@pytest.mark.parametrize("norm", [{"feature_mean": [0.0]}, [0.0], "stats"])
def test_load_model_names_a_missing_normalization_field(tmp_path, norm):
    path, doc = _saved_model_doc(tmp_path)
    doc["normalization"] = norm
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: normalization has no "
                                         "field 'f"):
        load_model(path)


def test_load_model_names_an_unknown_normalization_field(tmp_path):
    # it used to load, and a re-save dropped the key
    path, doc = _doc_with_normalization(tmp_path)
    doc["normalization"]["extra_field"] = [1, 2]
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: normalization has "
                                         "unknown field 'extra_field'$"):
        load_model(path)


def test_a_model_with_normalization_saves_loads_and_saves_byte_for_byte(tmp_path):
    path, doc = _doc_with_normalization(tmp_path)
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    resaved = tmp_path / "resaved.json"
    save_model(load_model(path), resaved)
    assert resaved.read_bytes() == path.read_bytes()


def test_load_model_takes_params_in_any_order_and_saves_them_in_init_order(tmp_path):
    path, doc = _saved_model_doc(tmp_path)
    original = load_model(path)
    names = list(doc["params"])
    assert names == [name for name, _ in original.store.items()]
    doc["params"] = {name: doc["params"][name] for name in reversed(names)}
    shuffled = tmp_path / "shuffled.json"
    shuffled.write_text(json.dumps(doc), encoding="utf-8")
    loaded = load_model(shuffled)
    assert [name for name, _ in loaded.store.items()] == names
    assert np.array_equal(loaded.store.flat("value"), original.store.flat("value"))
    resaved = tmp_path / "resaved.json"
    save_model(loaded, resaved)
    assert resaved.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("d,per_position_keys,digest", [
    (16, False, "7a7748b2904dbd62e8291dcfe7312c666b5fc1f87fb4e6239856727703569796"),
    (16, True, "2d943cf5cd6a000bf2f5f941e4b944988a28d3cefb8169fa2c23e2e624431172"),
    (32, False, "c5f9e18d25c3376390e50dbef010b3d46896ab7d3aad39dc05eede929c8797bb"),
    (32, True, "2904358ff999173739dc592efcc3e74140a701799f66245631fb53e8ffe24ec1"),
])
def test_init_params_flat_values_are_pinned(d, per_position_keys, digest):
    # the digests of the store that grew one parameter at a time
    cfg = ModelConfig(n_features=4, n_baseline=3, d=d, heads=4,
                      per_position_keys=per_position_keys)
    flat = init_params(cfg, 11).flat("value")
    assert hashlib.sha256(flat.tobytes()).hexdigest() == digest


def test_param_layout_is_the_store_of_init_params():
    cfg = tiny_config(per_position_keys=True)
    store = init_params(cfg, 2)
    assert ([(name, shape) for name, shape, _ in model_mod.param_layout(cfg)]
            == [(name, e.value.shape) for name, e in store.items()])


def test_load_model_neither_inits_nor_draws(tmp_path, monkeypatch):
    path, _ = _saved_model_doc(tmp_path)
    want = load_model(path).store.flat("value")

    def boom(*args, **kwargs):
        raise AssertionError("load_model drew initial weights")

    monkeypatch.setattr(model_mod, "init_params", boom)
    monkeypatch.setattr(np.random, "default_rng", boom)
    assert np.array_equal(load_model(path).store.flat("value"), want)


def _refuse_wide_config(tmp_path, d):
    """A d=16 model file whose config says ``d``: load it, refuse it and
    return the (error, best seconds of 3, tracemalloc peak in bytes)."""
    path, doc = _saved_model_doc(tmp_path, d=16)
    doc["config"]["d"] = d
    path.write_text(json.dumps(doc), encoding="utf-8")
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(ValueError) as err:
            load_model(path)
        seconds.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return str(err.value), min(seconds), peak


@pytest.mark.parametrize("d", [256, 1024])
def test_a_wide_config_is_refused_before_any_weight_is_allocated(tmp_path, d):
    # the store used to draw every weight of the config before the check:
    # +62 MB at d=256, +794 MB and 0.9 s at d=1024
    why, seconds, peak = _refuse_wide_config(tmp_path, d)
    assert why.endswith(f"parameter 'channel0.gru.W_z' has shape [16, 1], "
                        f"the config needs [{d}, 1]")
    assert peak < 8e6
    assert seconds < 0.05


@pytest.mark.parametrize("change,why", [
    (lambda doc: doc.update(params=5), "'params' must be dict, got 5"),
    (lambda doc: doc["params"].update({"channel0.gru.W_z": 5}),
     "parameter 'channel0.gru.W_z' must be dict, got 5"),
    (lambda doc: doc["params"]["head.W_out"].pop("shape"),
     "parameter 'head.W_out' has no key 'shape'"),
    (lambda doc: doc["params"]["head.W_out"].pop("data"),
     "parameter 'head.W_out' has no key 'data'"),
    (lambda doc: doc["params"]["head.W_out"].update(grad=[0.0]),
     "parameter 'head.W_out' has unknown key 'grad'"),
    (lambda doc: doc["params"]["head.W_out"].update(shape=7),
     "parameter 'head.W_out' has shape 7, the config needs [1, 12]"),
    (lambda doc: doc["params"]["head.W_out"].update(shape=[1, 12.0]),
     "parameter 'head.W_out' has shape [1, 12.0], the config needs [1, 12]"),
    (lambda doc: doc["params"]["head.W_out"].update(shape=[True, 12]),
     "parameter 'head.W_out' has shape [true, 12], the config needs [1, 12]"),
    (lambda doc: doc["params"]["head.b_out"].update(data=0.0),
     "parameter 'head.b_out' must be a list of numbers"),
    (lambda doc: doc["params"]["head.b_out"].update(data=[[0.0]]),
     "parameter 'head.b_out' must be a list of numbers"),
    (lambda doc: doc.update(extra=1), "unknown key 'extra'"),
])
def test_load_model_names_malformed_params(tmp_path, change, why):
    # each of these used to raise a TypeError or KeyError naming no key
    path, doc = _saved_model_doc(tmp_path)
    change(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(why)}$"):
        load_model(path)


@pytest.mark.parametrize("key,names,why", [
    ("feature_names", "ab", "must be a non-empty list of distinct strings"),
    ("feature_names", [], "must be a non-empty list of distinct strings"),
    ("baseline_names", ["a", 1, "b"], "must be a non-empty list of distinct strings"),
    ("baseline_names", ["a", "a", "b"], "must be a non-empty list of distinct strings"),
    ("baseline_names", None, "must be a non-empty list of distinct strings"),
    ("feature_names", ["a"], "has 1 names, the config needs 4"),
    ("baseline_names", ["a", "b", "c", "d"], "has 4 names, the config needs 3"),
])
def test_load_model_checks_the_name_lists(tmp_path, key, names, why):
    # "ab" used to load as a, b, and ["a"] for a 4-feature config
    path, doc = _saved_model_doc(tmp_path)
    doc[key] = names
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: '{key}' {why}$"):
        load_model(path)


@pytest.mark.parametrize("text,why", [
    (b'{"format": ', "not a JSON document"),
    (b"[" * 100_000 + b"]" * 100_000, "not a JSON document"),
    (b'{"format": "carelens-model\xff"}', "not a JSON document"),
    (b'{"format": "carelens-model", "version": true}', "not a carelens-model v1 file"),
    (b'{"format": "carelens-model", "version": 1.5}', "not a carelens-model v1 file"),
])
def test_load_model_refuses_a_file_that_is_no_model_by_name(tmp_path, text, why):
    # the first three used to raise a JSONDecodeError, a RecursionError and a
    # UnicodeDecodeError that named no file; "version": true passed this check
    path = tmp_path / "model.json"
    path.write_bytes(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {why}"):
        load_model(path)


def test_score_rejects_mismatched_schema():
    ds, _ = generate_synthetic(SyntheticSpec(n_cases=6, seed=2))
    cfg = ModelConfig(n_features=ds.n_features, n_baseline=ds.n_baseline,
                      d=8, heads=2)
    model = FittedModel(init_params(cfg, 15), cfg, ["other", "names", "x", "y"],
                        ds.baseline_names)
    with pytest.raises(ValueError, match="feature list mismatch"):
        model.score(ds)


def test_decay_rates_start_at_one():
    ds, _ = generate_synthetic(SyntheticSpec(n_cases=6, seed=3))
    cfg = ModelConfig(n_features=ds.n_features, n_baseline=ds.n_baseline,
                      d=8, heads=2)
    model = FittedModel(init_params(cfg, 16), cfg, ds.feature_names,
                        ds.baseline_names)
    rates = model.decay_rates()
    assert set(rates) == set(ds.feature_names)
    for v in rates.values():
        assert abs(v - 1.0) < 1e-12


def test_trace_cases_order_and_fields():
    ds, _ = generate_synthetic(SyntheticSpec(n_cases=5, seed=4))
    cfg = ModelConfig(n_features=ds.n_features, n_baseline=ds.n_baseline,
                      d=8, heads=2)
    model = FittedModel(init_params(cfg, 17), cfg, ds.feature_names,
                        ds.baseline_names)
    traces = model.trace_cases(ds, ids=ds.ids()[:2])
    assert [t["id"] for t in traces] == ds.ids()[:2]
    p_len = ds.n_features + 1
    for t in traces:
        assert t["head_attn"].shape == (2, p_len, p_len)
        assert t["final_alpha"].shape == (p_len,)
        assert len(t["ta_alphas"]) == ds.n_features


def _normalized_model(n_cases, seed):
    ds, _ = generate_synthetic(SyntheticSpec(n_cases=n_cases, seed=seed))
    cfg = ModelConfig(n_features=ds.n_features, n_baseline=ds.n_baseline,
                      d=8, heads=2)
    norm = fit_normalization(ds, ds.ids())
    return ds, FittedModel(init_params(cfg, seed), cfg, ds.feature_names,
                           ds.baseline_names, norm)


def test_batched_traces_equal_per_case_traces_in_ids_order():
    ds, model = _normalized_model(40, seed=19)
    ids = ds.ids()[::-1][:25]
    assert len({c.n_visits for c in ds.subset(ids)}) > 3
    traces = model.trace_cases(ds, ids)
    assert [t["id"] for t in traces] == ids
    for tr in traces:
        one, = model.trace_cases(ds, [tr["id"]])
        assert tr["label"] == one["label"]
        for a, b in zip(tr["ta_alphas"], one["ta_alphas"]):
            npt.assert_allclose(a, b, atol=1e-12, rtol=0)
        npt.assert_allclose(tr["head_attn"], one["head_attn"], atol=1e-12, rtol=0)
        npt.assert_allclose(tr["final_alpha"], one["final_alpha"],
                            atol=1e-12, rtol=0)


def test_score_normalizes_only_the_selected_cases(monkeypatch):
    ds, model = _normalized_model(30, seed=20)
    ids = ds.ids()[3:10]
    whole = apply_normalization(ds, model.normalization)
    want = score_cases(model.store, model.config, whole.subset(ids))
    seen = []

    def spy(dataset, norm):
        seen.append(len(dataset))
        return apply_normalization(dataset, norm)

    monkeypatch.setattr(model_mod, "apply_normalization", spy)
    got, labels = model.score(ds, ids)
    assert np.array_equal(got, want)
    npt.assert_array_equal(labels, [c.label for c in ds.subset(ids)])
    model.trace_cases(ds, ids)
    assert seen == [len(ids), len(ids)]


# -- padded, chunked, tape-free inference -----------------------------------------


def biased_store(cfg, seed):
    """``init_params`` with random GRU biases.  At init they are 0, and a
    zero input then leaves a zero state zero, which would hide what the
    GRU does at a pad step."""
    store = init_params(cfg, seed)
    rng = np.random.default_rng(seed)
    for name, e in store.items():
        if ".gru.b_" in name:
            e.value[...] = rng.normal(size=e.value.shape)
    return store


def run_chunk(store, cfg, cases, loss_rows=None):
    """Forward pass of ``pad_cases(cases)`` with its trace; with
    ``loss_rows``, also every parameter gradient of those rows'
    cross-entropy."""
    records, delta, baseline, labels, keep = pad_cases(cases)
    store.zero_grad()
    prob, _, trace = forward_batch(*leaves(store, cfg), records, delta, baseline,
                                   cfg, collect_trace=True, keep=keep)
    grads = None
    if loss_rows is not None:
        cross_entropy(prob[loss_rows], labels[loss_rows]).backward()
        grads = {n: e.grad.copy() for n, e in store.items()}
    return prob.data, trace, grads, keep


def assert_case_matches(trace, j, want, b, t_len):
    """Row ``j`` of a (padded) trace equals row ``b`` of ``want`` to 1e-12,
    and its pads get exactly zero weight."""
    for a, a_ref in zip(trace["ta_alphas"], want["ta_alphas"]):
        npt.assert_allclose(a[j, -t_len:], a_ref[b, -t_len:], atol=1e-12, rtol=0)
        assert not a[j, :-t_len].any()
    for a, a_ref in zip(trace["head_attn"], want["head_attn"]):
        npt.assert_allclose(a[j], a_ref[b], atol=1e-12, rtol=0)
    npt.assert_allclose(trace["final_alpha"][j], want["final_alpha"][b],
                        atol=1e-12, rtol=0)


@pytest.mark.parametrize("pad", [1, 5])
@pytest.mark.parametrize("t_len", [1, 2, 24])
def test_left_padding_leaves_a_case_unchanged(t_len, pad):
    cfg = tiny_config()
    store = biased_store(cfg, 21)
    case, = make_cases(1, t_len, cfg, seed=t_len)
    longer, = make_cases(1, t_len + pad, cfg, seed=100 + pad)
    prob, trace, grads, keep = run_chunk(store, cfg, [case, longer], slice(0, 1))
    npt.assert_array_equal(keep[0], np.arange(t_len + pad) >= pad)
    assert keep[1].all()
    prob_ref, trace_ref, grads_ref, keep_ref = run_chunk(store, cfg, [case],
                                                         slice(0, 1))
    assert keep_ref is None
    assert abs(prob[0] - prob_ref[0]) <= 1e-12
    assert_case_matches(trace, 0, trace_ref, 0, t_len)
    for name, g in grads_ref.items():
        npt.assert_allclose(grads[name], g, atol=1e-12, rtol=0, err_msg=name)
    assert any(np.abs(g).max() > 0 for n, g in grads.items() if ".gru." in n)


def test_mixed_length_chunk_equals_per_length_batches():
    cfg = tiny_config()
    store = biased_store(cfg, 22)
    by_len = {t: make_cases(3, t, cfg, seed=t) for t in (1, 3, 7, 12)}
    cases = [c for t in (7, 1, 12, 3) for c in by_len[t]]
    prob, trace, _, keep = run_chunk(store, cfg, cases)
    npt.assert_array_equal(keep.sum(axis=1), [c.n_visits for c in cases])
    for t, group in by_len.items():
        prob_ref, trace_ref, _, _ = run_chunk(store, cfg, group)
        for b, c in enumerate(group):
            j = next(i for i, x in enumerate(cases) if x is c)
            assert abs(prob[j] - prob_ref[b]) <= 1e-12
            assert_case_matches(trace, j, trace_ref, b, t)


def test_equal_length_chunk_is_exactly_batch_tensors():
    # equal lengths: pad_cases is the plain stack of the case fields
    cases = make_cases(5, 6, tiny_config(), seed=23)
    *arrays, keep = pad_cases(cases)
    assert keep is None
    want = (np.stack([c.records for c in cases]),
            np.stack([c.timestamps[-1] - c.timestamps for c in cases]),
            np.stack([c.baseline for c in cases]),
            np.array([c.label for c in cases], dtype=np.float64))
    for got, ref in zip(arrays, want, strict=True):
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert np.array_equal(got, ref)


def looped_pad_cases(cases):
    """``pad_cases`` as a per-case loop, each case copied into its row."""
    lengths = np.array([c.n_visits for c in cases])
    t_len = int(lengths.max())
    records = np.zeros((len(cases), cases[0].records.shape[0], t_len))
    stamps = np.zeros((len(cases), t_len))
    for b, c in enumerate(cases):
        records[b, :, t_len - lengths[b]:] = c.records
        stamps[b, t_len - lengths[b]:] = c.timestamps
    keep = np.arange(t_len) >= (t_len - lengths)[:, None]
    delta = np.where(keep, stamps[:, -1:] - stamps, 0.0)
    baseline = np.stack([c.baseline for c in cases])
    labels = np.array([c.label for c in cases], dtype=np.float64)
    return records, delta, baseline, labels, None if keep.all() else keep


@pytest.mark.parametrize("lengths", [[7, 1, 12, 3, 7], [5], [1], [4, 4, 4]])
def test_pad_cases_is_bitwise_the_per_case_loop(lengths):
    cfg = tiny_config()
    cases = [make_cases(1, t, cfg, seed=60 + i)[0] for i, t in enumerate(lengths)]
    # loaded cases hold (N, T) records as transposed views
    cases[0] = dataclasses.replace(cases[0],
                                   records=np.ascontiguousarray(cases[0].records.T).T)
    got, want = pad_cases(cases), looped_pad_cases(cases)
    for a, b in zip(got, want):
        if b is None:
            assert a is None
            continue
        assert a.dtype == b.dtype and a.flags.c_contiguous
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_pad_cases_fills_pads_with_zeros():
    cfg = tiny_config()
    short, = make_cases(1, 2, cfg, seed=24)
    long_, = make_cases(1, 5, cfg, seed=25)
    records, delta, _, _, keep = pad_cases([short, long_])
    npt.assert_array_equal(records[0], np.pad(short.records, ((0, 0), (3, 0))))
    npt.assert_array_equal(delta[0], [0, 0, 0, short.timestamps[1], 0])
    npt.assert_array_equal(keep, [[0, 0, 0, 1, 1], [1] * 5])


def test_score_cases_runs_length_sorted_chunks_within_the_cell_budget(monkeypatch):
    cfg = tiny_config()
    store = biased_store(cfg, 26)
    lengths = [9, 2, 30, 4, 4, 9, 1, 2, 17, 4]
    cases = [make_cases(1, t, cfg, seed=40 + i)[0] for i, t in enumerate(lengths)]
    want = [score_cases(store, cfg, [c])[0] for c in cases]
    monkeypatch.setattr(model_mod, "CHUNK_CELLS", 20)
    # sorted 1,2,2,4,4,4,9,9,17,30; greedy fill up to 20 cells; the 30-visit
    # case is over budget and runs alone
    plan = model_mod._chunk_plan(cases)
    expected = [(5, 4), (2, 9), (1, 9), (1, 17), (1, 30)]
    assert [(len(idx), max(lengths[i] for i in idx)) for idx in plan] == expected
    shapes = []

    def spy(*args, **kw):
        shapes.append(args[2].shape)
        assert not ad.grad_enabled()
        return forward_batch(*args, **kw)

    # in one process, so that the spy sees every chunk
    monkeypatch.setattr(model_mod, "_processes", lambda limit: 1)
    monkeypatch.setattr(model_mod, "forward_batch", spy)
    got = score_cases(store, cfg, cases)
    npt.assert_allclose(got, want, atol=1e-12, rtol=0)
    assert [(b, t) for b, _, t in shapes] == expected
    assert ad.grad_enabled()


@settings(max_examples=200, deadline=None)
@given(lengths=st.lists(st.integers(1, 40), max_size=60),
       budget=st.integers(1, 120))
def test_chunk_plan_covers_every_case_once_in_length_order_within_budget(lengths,
                                                                         budget):
    cases = [SimpleNamespace(n_visits=t) for t in lengths]
    with mock.patch.object(model_mod, "CHUNK_CELLS", budget):
        plan = model_mod._chunk_plan(cases)
    flat = [i for idx in plan for i in idx]
    assert sorted(flat) == list(range(len(cases)))
    assert all(lengths[a] <= lengths[b] for a, b in zip(flat, flat[1:]))
    for k, idx in enumerate(plan):
        cells = len(idx) * max(lengths[i] for i in idx)
        assert cells <= budget or len(idx) == 1
        # greedy: the next case would have broken the budget
        if k + 1 < len(plan):
            assert (len(idx) + 1) * lengths[plan[k + 1][0]] > budget


def graph_free_outputs(store, cfg, cases):
    with ad.no_grad():
        prob, trace, _, _ = run_chunk(store, cfg, cases)
    return prob, trace


def test_no_grad_forward_records_no_graph_and_the_same_values(monkeypatch):
    cfg = tiny_config()
    store = biased_store(cfg, 27)
    cases = make_cases(2, 3, cfg, seed=28) + make_cases(3, 6, cfg, seed=29)
    prob_ref, trace_ref, _, _ = run_chunk(store, cfg, cases)
    made = []
    init = ad.Var.__init__

    def recording_init(self, *args, **kw):
        init(self, *args, **kw)
        made.append(self)

    monkeypatch.setattr(ad.Var, "__init__", recording_init)
    prob, trace = graph_free_outputs(store, cfg, cases)
    assert len(made) > 100
    assert all(v._parents == () and v._backward is None for v in made)
    assert np.array_equal(prob, prob_ref)
    for key in ("ta_alphas", "head_attn"):
        for a, a_ref in zip(trace[key], trace_ref[key]):
            assert np.array_equal(a, a_ref)
    assert np.array_equal(trace["final_alpha"], trace_ref["final_alpha"])


def test_no_inference_chunk_computes_the_covariance_penalty(monkeypatch):
    cfg = tiny_config()
    store = biased_store(cfg, 30)
    cases = make_cases(3, 4, cfg, seed=31) + make_cases(2, 9, cfg, seed=32)
    calls = []

    def spy(*args, **kw):
        calls.append(ad.grad_enabled())
        return decorrelation_total(*args, **kw)

    monkeypatch.setattr(model_mod, "decorrelation_total", spy)
    monkeypatch.setattr(model_mod, "CHUNK_CELLS", 12)
    # a penalty computed in a forked child would not reach ``calls``
    monkeypatch.setattr(model_mod, "_processes", lambda limit: 1)
    fitted = FittedModel(store, cfg, ["a", "b", "c"], ["x", "y"])
    ds = Dataset(["a", "b", "c"], ["x", "y"], cases)
    fitted.score(ds)
    fitted.trace_cases(ds)
    records, delta, baseline, _, keep = pad_cases(cases)
    with ad.no_grad():
        _, decorr, _ = forward_batch(*leaves(store, cfg), records, delta, baseline,
                                     cfg, keep=keep)
    assert decorr is None and calls == []
    _, decorr, _ = forward_batch(*leaves(store, cfg), records, delta, baseline, cfg,
                                 keep=keep)
    assert calls == [True] and decorr.data >= 0
