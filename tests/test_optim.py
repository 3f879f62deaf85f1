"""Parameter store, Adam updates, and the finite-difference gradient audit."""

from __future__ import annotations

import math
import re

import numpy as np
import numpy.testing as npt
import pytest

from carelens import autodiff as ad
from carelens.model import FittedModel, ModelConfig, init_params, load_model, save_model
from carelens.optim import ParamStore, adam_step, grad_check


def make_store(**arrays):
    return ParamStore(arrays.items())


def test_store_rejects_duplicate_names():
    pairs = [("w", [1.0]), ("v", [[2.0]]), ("w", np.zeros(1))]
    with pytest.raises(ValueError, match="^duplicate parameter name 'w'$"):
        ParamStore(pairs)


def test_leaf_shares_gradient_buffer():
    store = make_store(w=[[1.0, 2.0]])
    leaf = store.leaf("w")
    ad.vsum(leaf * np.array([[3.0, 4.0]])).backward()
    npt.assert_array_equal(store.leaf("w").grad, [[3.0, 4.0]])
    store.zero_grad()
    npt.assert_array_equal(store.leaf("w").grad, [[0.0, 0.0]])


def channel_like_store():
    """Two channels of (w, b, scale) entries, then one unrelated entry."""
    return make_store(**{"c0.w": [[1.0, 2.0], [3.0, 4.0]], "c0.b": [5.0, 6.0], "c0.s": 7.0,
                         "c1.w": [[8.0, 9.0], [10.0, 11.0]], "c1.b": [12.0, 13.0],
                         "c1.s": 14.0, "other": [15.0, 16.0]})


def test_stacked_leaf_views_the_entries_both_ways():
    store = channel_like_store()
    w, s = store.stacked_leaf(["c0.w", "c1.w"]), store.stacked_leaf(["c0.s", "c1.s"])
    assert w.shape == (2, 2, 2) and s.shape == (2,)
    npt.assert_array_equal(w.data[1], store.value("c1.w"))
    npt.assert_array_equal(s.data, [7.0, 14.0])
    # a write through an entry's grad shows in the stacked grad
    store.leaf("c1.w").grad[0, 1] = 2.5
    assert w.grad[1, 0, 1] == 2.5 and not w.grad[0].any()
    # backward through the stacked leaf lands in the entries' grads
    ad.vsum(w * np.arange(8.0).reshape(2, 2, 2)).backward()
    npt.assert_array_equal(store.leaf("c0.w").grad, [[0.0, 1.0], [2.0, 3.0]])
    npt.assert_array_equal(store.leaf("c1.w").grad, [[4.0, 7.5], [6.0, 7.0]])
    assert not store.leaf("c0.b").grad.any() and not store.leaf("other").grad.any()
    # an Adam step on the store shows in the stacked data
    adam_step(store, lr=0.5)
    npt.assert_array_equal(w.data[0], store.value("c0.w"))
    assert w.data[0, 0, 1] < 2.0 and s.data[0] == 7.0
    store.zero_grad()
    assert not w.grad.any()


def test_stacked_leaf_of_one_entry():
    store = channel_like_store()
    b = store.stacked_leaf(["c1.b"])
    assert b.shape == (1, 2)
    npt.assert_array_equal(b.data, [[12.0, 13.0]])
    ad.vsum(b * 3.0).backward()
    npt.assert_array_equal(store.leaf("c1.b").grad, [3.0, 3.0])
    assert store.stacked_leaf(["c0.s"]).shape == (1,)


@pytest.mark.parametrize("names,odd", [
    (["c0.w", "c1.b"], "['c1.b']"),                  # another shape
    (["c0.w", "c1.w", "other"], "['other']"),        # another shape and step
    (["c0.b", "c1.b", "c0.s"], "['c0.s']"),          # another shape and step
    (["c0.s", "c1.s", "c1.s"], "['c1.s']"),          # the same entry twice
    (["c1.w", "c0.w"], "['c1.w', 'c0.w']"),          # a step backwards
    (["c0.s", "c0.s"], "['c0.s', 'c0.s']")])         # a step of zero
def test_stacked_leaf_refuses_entries_it_cannot_view_by_name(names, odd):
    with pytest.raises(ValueError, match=f"^parameters {re.escape(odd)} do not share"):
        channel_like_store().stacked_leaf(names)


def test_stacked_leaf_refuses_unequal_steps_by_name():
    store = make_store(a=[1.0], b=[2.0], pad=[0.0], c=[3.0], d=[4.0])
    assert store.stacked_leaf(["a", "b"]).shape == (2, 1)
    with pytest.raises(ValueError, match=r"^parameters \['c', 'd'\] do not share the "
                                         r"shape of 'a' at equal, positive steps after it$"):
        store.stacked_leaf(["a", "b", "c", "d"])


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
    store.leaf("w").grad[:] = g
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    adam_step(store, lr=lr, beta1=b1, beta2=b2, eps=eps)
    m_hat = (b1 * 0 + (1 - b1) * g) / (1 - b1)
    v_hat = (b2 * 0 + (1 - b2) * g * g) / (1 - b2)
    expect = -lr * m_hat / (np.sqrt(v_hat) + eps)
    npt.assert_allclose(store.value("w"), expect, atol=1e-9, rtol=0)


def test_adam_two_steps_match_hand_recurrence():
    gs = [0.7, -0.2]
    store = make_store(w=[1.0])
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    m = v = 0.0
    w = 1.0
    for t, g in enumerate(gs, start=1):
        store.zero_grad()
        store.leaf("w").grad[:] = g
        adam_step(store, lr=lr)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        w = w - lr * m_hat / (math.sqrt(v_hat) + eps)
    npt.assert_allclose(store.value("w"), [w], rtol=1e-12, atol=0)
    assert store.step_count == 2


def test_adam_rejects_nonfinite_gradient_by_name():
    store = make_store(good=[1.0], bad=[2.0])
    store.leaf("good").grad[:] = 0.5
    store.leaf("bad").grad[:] = np.nan
    before = store.value("good").copy()
    with pytest.raises(ValueError, match="bad"):
        adam_step(store, lr=0.1)
    # no partial update: validation happens before any write
    npt.assert_array_equal(store.value("good"), before)


def test_snapshot_restore_round_trip():
    store = make_store(w=[1.0, 2.0], b=[[0.5]])
    snap = store.snapshot()
    npt.assert_array_equal(snap, [1.0, 2.0, 0.5])
    assert not np.shares_memory(snap, store.flat("value"))
    store.flat("grad")[...] = [1.0, -1.0, 3.0]
    adam_step(store, lr=0.5)
    assert not np.array_equal(store.flat("value"), snap)
    store.restore(snap)
    npt.assert_array_equal(store.value("w"), [1.0, 2.0])
    npt.assert_array_equal(store.value("b"), [[0.5]])


def test_grad_check_quadratic():
    store = make_store(theta=[3.0])

    def loss(s):
        th = s.leaf("theta")
        return ad.vsum(th * th)

    errs = grad_check(loss, store, h=1e-5)
    assert errs["theta"] < 1e-8


def test_grad_check_sigmoid_sum_matches_closed_form():
    rng = np.random.default_rng(21)
    store = make_store(theta=rng.normal(size=(2, 3)))

    def loss(s):
        return ad.vsum(ad.sigmoid(s.leaf("theta")))

    errs = grad_check(loss, store, h=1e-5)
    assert errs["theta"] < 1e-6
    store.zero_grad()
    loss(store).backward()
    s = 1.0 / (1.0 + np.exp(-store.value("theta")))
    npt.assert_allclose(store.leaf("theta").grad, s * (1 - s), atol=1e-6)


def test_grad_check_rejects_out_of_range_h():
    store = make_store(theta=[1.0])
    for h in (1e-8, 1e-2):
        with pytest.raises(ValueError):
            grad_check(lambda s: ad.vsum(s.leaf("theta")), store, h=h)


def test_grad_check_restores_values():
    store = make_store(theta=[1.25, -0.5])

    def loss(s):
        th = s.leaf("theta")
        return ad.vsum(th * th)

    grad_check(loss, store, h=1e-5)
    npt.assert_array_equal(store.value("theta"), [1.25, -0.5])


# -- flat store -------------------------------------------------------------------


def adam_loop_oracle(store, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-entry Adam update the flat one must equal bit for bit."""
    for name, e in store.items():
        if not np.isfinite(e.grad).all():
            raise ValueError(f"non-finite gradient for parameter '{name}'")
    store.step_count += 1
    t = store.step_count
    for _, e in store.items():
        e.adam_m[...] = beta1 * e.adam_m + (1.0 - beta1) * e.grad
        e.adam_v[...] = beta2 * e.adam_v + (1.0 - beta2) * e.grad * e.grad
        m_hat = e.adam_m / (1.0 - beta1 ** t)
        v_hat = e.adam_v / (1.0 - beta2 ** t)
        e.value -= lr * m_hat / (np.sqrt(v_hat) + eps)


def full_model_store():
    return init_params(ModelConfig(n_features=4, n_baseline=3, d=16, heads=2), 3)


def assert_stores_equal(a, b):
    assert [name for name, _ in a.items()] == [name for name, _ in b.items()]
    for (name, e), (_, f) in zip(a.items(), b.items()):
        for field in ("value", "grad", "adam_m", "adam_v"):
            assert np.array_equal(getattr(e, field), getattr(f, field)), (name, field)
    assert a.step_count == b.step_count


def test_flat_adam_is_bitwise_the_per_entry_loop_for_300_steps():
    flat, loop = full_model_store(), full_model_store()
    rng = np.random.default_rng(31)
    for step in range(300):
        for name, _ in flat.items():
            grad = flat.leaf(name).grad
            g = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=grad.shape)
            g[rng.random(g.shape) < 0.1] = 0.0
            grad[...] = g
            loop.leaf(name).grad[...] = g
        lr = (1e-2, 3e-3)[step % 2]
        adam_step(flat, lr)
        adam_loop_oracle(loop, lr)
    assert_stores_equal(flat, loop)


def test_nonfinite_gradient_leaves_every_buffer_untouched():
    store = full_model_store()
    store.leaf("encoder.W_O").grad[...] = 0.5
    adam_step(store, 0.1)
    names = [name for name, _ in store.items()]
    store.leaf(names[5]).grad[0] = np.inf
    store.leaf(names[-1]).grad[...] = np.nan
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
    store = ParamStore(values.items())
    assert [name for name, _ in store.items()] == list(values)
    for name, e in store.items():
        for field in ("value", "grad", "adam_m", "adam_v"):
            assert np.shares_memory(getattr(e, field), store.flat(field)), (name, field)
        npt.assert_array_equal(e.value, values[name])
        assert e.value.shape == values[name].shape
    npt.assert_array_equal(store.flat("value"),
                           np.concatenate([v.ravel() for v in values.values()]))
    leaf = store.leaf("w3")
    ad.vsum(leaf * 2.0).backward()
    npt.assert_array_equal(store.flat("grad")[3:3 + values["w0"].size], 0.0)
    npt.assert_array_equal(store.leaf("w3").grad, np.full((4, 3), 2.0))
    store.zero_grad()
    npt.assert_array_equal(store.flat("grad"), 0.0)


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
    for _, e in store.items():
        e.grad[...] = 0.01
    adam_step(store, 0.1)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_model(FittedModel(store, cfg, ["f0", "f1", "f2"], ["b0", "b1"]), first)
    save_model(load_model(first), second)
    assert first.read_bytes() == second.read_bytes()
