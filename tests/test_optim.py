"""Parameter store, Adam updates, and the finite-difference gradient audit."""

from __future__ import annotations

import math
import re

import numpy as np
import numpy.testing as npt
import pytest

from carelens import autodiff as ad
from carelens.embedding import channel_stacks
from carelens.model import FittedModel, ModelConfig, init_params, load_model, save_model
from carelens.optim import ParamStore, adam_step, grad_check


def make_store(**arrays):
    return ParamStore(arrays.items(), {})


def test_store_rejects_duplicate_names():
    pairs = [("w", [1.0]), ("v", [[2.0]]), ("w", np.zeros(1))]
    with pytest.raises(ValueError, match="^duplicate parameter name 'w'$"):
        ParamStore(pairs, {})


def test_leaf_shares_gradient_buffer():
    store = make_store(w=[[1.0, 2.0]])
    leaf = store.leaves()["w"]
    ad.vsum(leaf * np.array([[3.0, 4.0]])).backward()
    npt.assert_array_equal(store.leaves()["w"].grad, [[3.0, 4.0]])
    store.zero_grad()
    npt.assert_array_equal(store.leaves()["w"].grad, [[0.0, 0.0]])


# two channels of (w, b, scale) entries, then one unrelated entry
CHANNEL_LIKE = {"c0.w": [[1.0, 2.0], [3.0, 4.0]], "c0.b": [5.0, 6.0], "c0.s": 7.0,
                "c1.w": [[8.0, 9.0], [10.0, 11.0]], "c1.b": [12.0, 13.0], "c1.s": 14.0,
                "other": [15.0, 16.0]}


def test_stacked_leaf_views_the_entries_both_ways():
    store = ParamStore(CHANNEL_LIKE.items(), {"w": ["c0.w", "c1.w"], "s": ["c0.s", "c1.s"]})
    w, s = store.stacks()["w"], store.stacks()["s"]
    assert w.shape == (2, 2, 2) and s.shape == (2,)
    npt.assert_array_equal(w.data[1], store.leaves()["c1.w"].data)
    npt.assert_array_equal(s.data, [7.0, 14.0])
    # a write through an entry's grad shows in the stacked grad
    store.leaves()["c1.w"].grad[0, 1] = 2.5
    assert w.grad[1, 0, 1] == 2.5 and not w.grad[0].any()
    # backward through the stacked leaf lands in the entries' grads
    ad.vsum(w * np.arange(8.0).reshape(2, 2, 2)).backward()
    npt.assert_array_equal(store.leaves()["c0.w"].grad, [[0.0, 1.0], [2.0, 3.0]])
    npt.assert_array_equal(store.leaves()["c1.w"].grad, [[4.0, 7.5], [6.0, 7.0]])
    assert not store.leaves()["c0.b"].grad.any() and not store.leaves()["other"].grad.any()
    # an Adam step on the store shows in the stacked data
    adam_step(store, lr=0.5)
    npt.assert_array_equal(w.data[0], store.leaves()["c0.w"].data)
    assert w.data[0, 0, 1] < 2.0 and s.data[0] == 7.0
    store.zero_grad()
    assert not w.grad.any()


def test_stacked_leaf_of_one_entry():
    store = ParamStore(CHANNEL_LIKE.items(), {"b": ["c1.b"], "s": ["c0.s"]})
    b = store.stacks()["b"]
    assert b.shape == (1, 2)
    npt.assert_array_equal(b.data, [[12.0, 13.0]])
    ad.vsum(b * 3.0).backward()
    npt.assert_array_equal(store.leaves()["c1.b"].grad, [3.0, 3.0])
    assert store.stacks()["s"].shape == (1,)


@pytest.mark.parametrize("names,odd", [
    (["c0.w", "c1.b"], "['c1.b']"),                  # another shape
    (["c0.w", "c1.w", "other"], "['other']"),        # another shape and step
    (["c0.b", "c1.b", "c0.s"], "['c0.s']"),          # another shape and step
    (["c0.s", "c1.s", "c1.s"], "['c1.s']"),          # the same entry twice
    (["c1.w", "c0.w"], "['c1.w', 'c0.w']"),          # a step backwards
    (["c0.s", "c0.s"], "['c0.s', 'c0.s']")])         # a step of zero
def test_stacked_leaf_refuses_entries_it_cannot_view_by_name(names, odd):
    with pytest.raises(ValueError, match=f"^parameters {re.escape(odd)} do not share"):
        ParamStore(CHANNEL_LIKE.items(), {"b": ["c0.b", "c1.b"], "bad": names})


def test_stacked_leaf_refuses_unequal_steps_by_name():
    pairs = {"a": [1.0], "b": [2.0], "pad": [0.0], "c": [3.0], "d": [4.0]}.items()
    assert ParamStore(pairs, {"ab": ["a", "b"]}).stacks()["ab"].shape == (2, 1)
    with pytest.raises(ValueError, match=r"^parameters \['c', 'd'\] do not share the "
                                         r"shape of 'a' at equal, positive steps after it$"):
        ParamStore(pairs, {"ab": ["a", "b"], "abcd": ["a", "b", "c", "d"]})


def test_adam_zero_gradient_leaves_values_unchanged():
    store = make_store(w=[1.5, -2.0], b=[[0.25]])
    before = store.snapshot()
    for _ in range(3):
        store.zero_grad()
        adam_step(store, lr=0.1)
    npt.assert_array_equal(store.flat("value"), before)


def test_adam_first_step_matches_closed_form():
    # After one step from zero moments the update direction is g/(|g|+eps')
    # with bias correction folded in; check against the explicit formula.
    g = np.array([0.3, -1.7, 2.0e-4])
    store = make_store(w=np.zeros(3))
    store.leaves()["w"].grad[:] = g
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    adam_step(store, lr=lr, beta1=b1, beta2=b2, eps=eps)
    m_hat = (b1 * 0 + (1 - b1) * g) / (1 - b1)
    v_hat = (b2 * 0 + (1 - b2) * g * g) / (1 - b2)
    expect = -lr * m_hat / (np.sqrt(v_hat) + eps)
    npt.assert_allclose(store.leaves()["w"].data, expect, atol=1e-9, rtol=0)


def test_adam_two_steps_match_hand_recurrence():
    gs = [0.7, -0.2]
    store = make_store(w=[1.0])
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    m = v = 0.0
    w = 1.0
    for t, g in enumerate(gs, start=1):
        store.zero_grad()
        store.leaves()["w"].grad[:] = g
        adam_step(store, lr=lr)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        w = w - lr * m_hat / (math.sqrt(v_hat) + eps)
    npt.assert_allclose(store.leaves()["w"].data, [w], rtol=1e-12, atol=0)
    assert store.step_count == 2


def test_adam_rejects_nonfinite_gradient_by_name():
    store = make_store(good=[1.0], bad=[2.0])
    store.leaves()["good"].grad[:] = 0.5
    store.leaves()["bad"].grad[:] = np.nan
    before = store.leaves()["good"].data.copy()
    with pytest.raises(ValueError, match="bad"):
        adam_step(store, lr=0.1)
    # no partial update: validation happens before any write
    npt.assert_array_equal(store.leaves()["good"].data, before)


def test_snapshot_restore_round_trip():
    store = make_store(w=[1.0, 2.0], b=[[0.5]])
    snap = store.snapshot()
    npt.assert_array_equal(snap, [1.0, 2.0, 0.5])
    assert not np.shares_memory(snap, store.flat("value"))
    store.flat("grad")[...] = [1.0, -1.0, 3.0]
    adam_step(store, lr=0.5)
    assert not np.array_equal(store.flat("value"), snap)
    store.restore(snap)
    npt.assert_array_equal(store.leaves()["w"].data, [1.0, 2.0])
    npt.assert_array_equal(store.leaves()["b"].data, [[0.5]])


def test_grad_check_quadratic():
    store = make_store(theta=[3.0])

    def loss(s):
        th = s.leaves()["theta"]
        return ad.vsum(th * th)

    errs = grad_check(loss, store, h=1e-5)
    assert errs["theta"] < 1e-8


def test_grad_check_sigmoid_sum_matches_closed_form():
    rng = np.random.default_rng(21)
    store = make_store(theta=rng.normal(size=(2, 3)))

    def loss(s):
        return ad.vsum(ad.sigmoid(s.leaves()["theta"]))

    errs = grad_check(loss, store, h=1e-5)
    assert errs["theta"] < 1e-6
    store.zero_grad()
    loss(store).backward()
    s = 1.0 / (1.0 + np.exp(-store.leaves()["theta"].data))
    npt.assert_allclose(store.leaves()["theta"].grad, s * (1 - s), atol=1e-6)


def test_grad_check_rejects_out_of_range_h():
    store = make_store(theta=[1.0])
    for h in (1e-8, 1e-2):
        with pytest.raises(ValueError):
            grad_check(lambda s: ad.vsum(s.leaves()["theta"]), store, h=h)


def test_grad_check_restores_values():
    store = make_store(theta=[1.25, -0.5])

    def loss(s):
        th = s.leaves()["theta"]
        return ad.vsum(th * th)

    grad_check(loss, store, h=1e-5)
    npt.assert_array_equal(store.leaves()["theta"].data, [1.25, -0.5])


# -- flat store -------------------------------------------------------------------


def adam_loop_oracle(store, moments, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-entry Adam update the flat one must equal bit for bit;
    ``moments`` holds each entry's own (m, v) arrays."""
    leaves = store.leaves()
    for name, leaf in leaves.items():
        if not np.isfinite(leaf.grad).all():
            raise ValueError(f"non-finite gradient for parameter '{name}'")
    store.step_count += 1
    t = store.step_count
    for name, leaf in leaves.items():
        m, v = moments[name]
        m[...] = beta1 * m + (1.0 - beta1) * leaf.grad
        v[...] = beta2 * v + (1.0 - beta2) * leaf.grad * leaf.grad
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        leaf.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


def full_model_store():
    return init_params(ModelConfig(n_features=4, n_baseline=3, d=16, heads=2), 3)


def test_flat_adam_is_bitwise_the_per_entry_loop_for_300_steps():
    flat, loop = full_model_store(), full_model_store()
    moments = {name: (np.zeros(leaf.shape), np.zeros(leaf.shape))
               for name, leaf in loop.leaves().items()}
    rng = np.random.default_rng(31)
    for step in range(300):
        for (name, leaf), other in zip(flat.leaves().items(), loop.leaves().values()):
            g = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=leaf.shape)
            g[rng.random(g.shape) < 0.1] = 0.0
            leaf.grad[...] = g
            other.grad[...] = g
        lr = (1e-2, 3e-3)[step % 2]
        adam_step(flat, lr)
        adam_loop_oracle(loop, moments, lr)
    assert list(flat.leaves()) == list(loop.leaves())
    for field in ("value", "grad"):
        assert np.array_equal(flat.flat(field), loop.flat(field)), field
    for k, field in enumerate(("adam_m", "adam_v")):
        per_entry = np.concatenate([mv[k].ravel() for mv in moments.values()])
        assert np.array_equal(flat.flat(field), per_entry), field
    assert flat.step_count == loop.step_count


def test_nonfinite_gradient_leaves_every_buffer_untouched():
    store = full_model_store()
    store.leaves()["encoder.W_O"].grad[...] = 0.5
    adam_step(store, 0.1)
    names = list(store.leaves())
    store.leaves()[names[5]].grad[0] = np.inf
    store.leaves()[names[-1]].grad[...] = np.nan
    before = {f: store.flat(f).copy() for f in ("value", "grad", "adam_m", "adam_v")}
    steps = store.step_count
    with pytest.raises(ValueError, match=f"parameter '{re.escape(names[5])}'"):
        adam_step(store, 0.1)
    for f, buf in before.items():
        assert np.array_equal(store.flat(f), buf, equal_nan=True), f
    assert store.step_count == steps


def test_entries_are_views_of_the_flat_buffers():
    rng = np.random.default_rng(4)
    values = {"a": np.array([1.0, 2.0]), "s": np.array(0.75)}
    values.update((f"w{i}", rng.normal(size=(i % 4 + 1, 3))) for i in range(40))
    store = ParamStore(values.items(), {})
    assert list(store.leaves()) == list(values)
    for name, leaf in store.leaves().items():
        assert np.shares_memory(leaf.data, store.flat("value")), name
        assert np.shares_memory(leaf.grad, store.flat("grad")), name
        npt.assert_array_equal(leaf.data, values[name])
        assert leaf.shape == values[name].shape
    npt.assert_array_equal(store.flat("value"),
                           np.concatenate([v.ravel() for v in values.values()]))
    leaf = store.leaves()["w3"]
    ad.vsum(leaf * 2.0).backward()
    npt.assert_array_equal(store.flat("grad")[3:3 + values["w0"].size], 0.0)
    npt.assert_array_equal(store.leaves()["w3"].grad, np.full((4, 3), 2.0))
    store.zero_grad()
    npt.assert_array_equal(store.flat("grad"), 0.0)


def test_each_parameter_is_one_leaf_that_sees_every_write_to_the_store(tmp_path):
    cfg = ModelConfig(n_features=3, n_baseline=2, d=8, heads=2)
    store = init_params(cfg, 5)
    lv = store.leaves()
    assert lv is not store.leaves()
    assert all(leaf is store.leaves()[name] for name, leaf in lv.items())
    # the dict is the caller's: an edit to it does not reach the store
    kept = lv.pop("encoder.W_O")
    lv["head.W_out"] = ad.Var(np.zeros(1))
    assert store.leaves()["encoder.W_O"] is kept
    assert store.leaves()["head.W_out"] is not lv["head.W_out"]
    lv = store.leaves()

    def seen(leaves):
        return np.concatenate([leaf.data.ravel() for leaf in leaves.values()])

    snap = store.snapshot()
    store.flat("grad")[...] = 0.01
    adam_step(store, 0.1)
    assert np.array_equal(seen(lv), store.flat("value"))
    assert not np.array_equal(seen(lv), snap)
    store.restore(snap)
    assert np.array_equal(seen(lv), snap)
    path = tmp_path / "m.json"
    save_model(FittedModel(store, cfg, ["f0", "f1", "f2"], ["b0", "b1"]), path)
    loaded = load_model(path).store
    got = loaded.leaves()
    assert list(got) == list(lv) and np.array_equal(seen(got), snap)
    loaded.flat("value")[...] += 1.0
    loaded.flat("grad")[...] = 2.0
    assert all(leaf is loaded.leaves()[name] for name, leaf in got.items())
    assert np.array_equal(seen(got), snap + 1.0)
    assert all((leaf.grad == 2.0).all() for leaf in got.values())


def test_each_stack_is_one_leaf_that_sees_every_write_to_the_store(tmp_path):
    cfg = ModelConfig(n_features=3, n_baseline=2, d=8, heads=2)
    store = init_params(cfg, 5)
    names = channel_stacks(3, 8)
    st = store.stacks()
    assert st is not store.stacks() and list(st) == list(names)
    assert all(leaf is store.stacks()[key] for key, leaf in st.items())
    # the dict is the caller's: an edit to it does not reach the store
    kept = st.pop("W_z")
    st["U_z"] = ad.Var(np.zeros(1))
    assert store.stacks()["W_z"] is kept and store.stacks()["U_z"] is not st["U_z"]
    st = store.stacks()

    def seen(stacks):
        return np.concatenate([leaf.data.ravel() for leaf in stacks.values()])

    def entries(store):
        lv = store.leaves()
        return np.concatenate([np.stack([lv[n].data for n in ns]).ravel()
                               for ns in names.values()])

    before = seen(st)
    assert np.array_equal(before, entries(store))
    snap = store.snapshot()
    store.flat("grad")[...] = 0.01
    adam_step(store, 0.1)
    assert np.array_equal(seen(st), entries(store))
    assert not np.array_equal(seen(st), before)
    store.restore(snap)
    assert np.array_equal(seen(st), before)
    path = tmp_path / "m.json"
    save_model(FittedModel(store, cfg, ["f0", "f1", "f2"], ["b0", "b1"]), path)
    loaded = load_model(path).store
    got = loaded.stacks()
    assert list(got) == list(st) and np.array_equal(seen(got), before)
    loaded.flat("value")[...] += 1.0
    loaded.flat("grad")[...] = 2.0
    assert all(leaf is loaded.stacks()[key] for key, leaf in got.items())
    assert np.array_equal(seen(got), before + 1.0)
    assert all((leaf.grad == 2.0).all() for leaf in got.values())


def test_the_buffers_are_the_ones_the_constructor_made():
    store = full_model_store()
    bufs = {f: store.flat(f) for f in ("value", "grad", "adam_m", "adam_v")}
    snap = store.snapshot()
    store.flat("grad")[...] = 0.25
    adam_step(store, 0.1)
    store.zero_grad()
    store.restore(snap)
    for f, buf in bufs.items():
        assert store.flat(f) is buf, f
    assert not hasattr(store, "add")


def test_save_then_load_gives_a_byte_identical_model_file(tmp_path):
    cfg = ModelConfig(n_features=3, n_baseline=2, d=8, heads=2)
    store = init_params(cfg, 5)
    store.flat("grad")[...] = 0.01
    adam_step(store, 0.1)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_model(FittedModel(store, cfg, ["f0", "f1", "f2"], ["b0", "b1"]), first)
    save_model(load_model(first), second)
    assert first.read_bytes() == second.read_bytes()
