"""Baseline-queried final attention, prediction, and loss."""

from __future__ import annotations

import math

import numpy as np
import numpy.testing as npt

from carelens import autodiff as ad
from carelens import head
from carelens.optim import ParamStore, grad_check


def head_store(d, n_features, per_position_keys=False, seed=0):
    layout = head.init_head_params(d, n_features, np.random.default_rng(seed),
                                   per_position_keys)
    return ParamStore(((name, init(shape)) for name, shape, init in layout), {})


def final_oracle(fstar, wq, key_mats):
    """Loop form: query from last row, tanh scores, softmax, weighted sum."""
    p_len, d = fstar.shape
    q = wq @ fstar[-1]
    zeta = np.array([math.tanh(q @ (key_mats[i] @ fstar[i]))
                     for i in range(p_len)])
    e = np.exp(zeta - zeta.max())
    alpha = e / e.sum()
    return alpha @ fstar, alpha


def test_final_attention_matches_loop_oracle():
    rng = np.random.default_rng(1)
    store = head_store(d=5, n_features=3, seed=2)
    lv = store.leaves()
    wk = lv["head.W_k"].data
    for _ in range(20):
        fstar = rng.normal(size=(4, 5))
        summary, alpha = head.final_attention(ad.Var(fstar[None]), lv)
        s_ref, a_ref = final_oracle(fstar, lv["head.W_q_base"].data,
                                    [wk] * 4)
        npt.assert_allclose(alpha.data[0], a_ref, atol=1e-12, rtol=0)
        npt.assert_allclose(summary.data[0], s_ref, atol=1e-12, rtol=0)


def test_per_position_keys_match_loop_oracle():
    store = head_store(d=4, n_features=2, per_position_keys=True, seed=3)
    lv = store.leaves()
    fstar = np.random.default_rng(4).normal(size=(3, 4))
    summary, alpha = head.final_attention(ad.Var(fstar[None]), lv,
                                          per_position_keys=True)
    mats = [lv[f"head.W_k_{i}"].data for i in range(3)]
    s_ref, a_ref = final_oracle(fstar, lv["head.W_q_base"].data, mats)
    npt.assert_allclose(alpha.data[0], a_ref, atol=1e-12, rtol=0)
    npt.assert_allclose(summary.data[0], s_ref, atol=1e-12, rtol=0)


def test_per_position_keys_equal_shared_when_tied():
    shared = head_store(d=4, n_features=2, seed=5)
    tied = head_store(d=4, n_features=2, per_position_keys=True, seed=5)
    tied_lv, shared_lv = tied.leaves(), shared.leaves()
    for i in range(3):
        tied_lv[f"head.W_k_{i}"].data[...] = shared_lv["head.W_k"].data
    tied_lv["head.W_q_base"].data[...] = shared_lv["head.W_q_base"].data
    fstar = np.random.default_rng(6).normal(size=(3, 4))
    s1, a1 = head.final_attention(ad.Var(fstar[None]), shared.leaves())
    s2, a2 = head.final_attention(ad.Var(fstar[None]), tied.leaves(),
                                  per_position_keys=True)
    npt.assert_allclose(a1.data, a2.data, atol=1e-15)
    npt.assert_allclose(s1.data, s2.data, atol=1e-15)


def test_zero_projections_average_rows():
    store = head_store(d=4, n_features=2, seed=7)
    store.leaves()["head.W_q_base"].data[...] = 0.0
    fstar = np.random.default_rng(8).normal(size=(3, 4))
    summary, alpha = head.final_attention(ad.Var(fstar[None]), store.leaves())
    npt.assert_allclose(alpha.data[0], np.full(3, 1 / 3), atol=1e-15)
    npt.assert_allclose(summary.data[0], fstar.mean(axis=0), atol=1e-14)


def test_batched_final_attention_matches_per_case():
    store = head_store(d=5, n_features=3, seed=9)
    lv = store.leaves()
    batch = np.random.default_rng(10).normal(size=(4, 4, 5))
    summary, alpha = head.final_attention(ad.Var(batch), lv)
    assert summary.shape == (4, 5) and alpha.shape == (4, 4)
    for b in range(4):      # each row against a batch of one
        s1, a1 = head.final_attention(ad.Var(batch[b:b + 1]), lv)
        npt.assert_allclose(summary.data[b], s1.data[0], atol=1e-13)
        npt.assert_allclose(alpha.data[b], a1.data[0], atol=1e-13)


def test_scores_are_tanh_bounded():
    store = head_store(d=4, n_features=2, seed=11)
    lv = store.leaves()
    # huge rows would explode an unbounded dot-product score; tanh keeps the
    # softmax inputs in [-1, 1] so no weight can collapse to exactly 0/1
    fstar = np.random.default_rng(12).normal(size=(3, 4)) * 1e4
    _, alpha = head.final_attention(ad.Var(fstar[None]), lv)
    assert np.isfinite(alpha.data).all()
    assert alpha.data.min() > math.exp(-2) / (3 * math.exp(2))


def test_predict_formula_and_clamp():
    store = head_store(d=3, n_features=1, seed=13)
    lv = store.leaves()
    s = np.array([0.4, -1.0, 2.2])
    got = float(head.predict(ad.Var(s[None]), lv).data[0])
    z = lv["head.W_out"].data[0] @ s + lv["head.b_out"].data[0]
    assert abs(got - 1.0 / (1.0 + math.exp(-z))) < 1e-12
    lv["head.b_out"].data[...] = 80.0
    assert float(head.predict(ad.Var(s[None]), lv).data[0]) == 1.0 - 1e-7
    lv["head.b_out"].data[...] = -80.0
    assert float(head.predict(ad.Var(s[None]), lv).data[0]) == 1e-7


def test_predict_zero_weights_give_half():
    store = head_store(d=3, n_features=1, seed=14)
    store.leaves()["head.W_out"].data[...] = 0.0
    prob = head.predict(ad.Var(np.array([[1.0, 2.0, 3.0]])), store.leaves())
    assert prob.shape == (1,) and float(prob.data[0]) == 0.5


def test_cross_entropy_hand_value():
    prob = ad.Var(np.array([0.9, 0.2]))
    got = float(head.cross_entropy(prob, [1, 0]).data)
    want = -(math.log(0.9) + math.log(0.8)) / 2.0
    assert abs(got - want) < 1e-15


def test_cross_entropy_penalizes_confident_mistakes():
    sure_right = float(head.cross_entropy(ad.Var(np.array([0.99])), [1]).data)
    sure_wrong = float(head.cross_entropy(ad.Var(np.array([0.01])), [1]).data)
    assert sure_wrong > sure_right
    assert sure_wrong == float(-np.log(0.01))


def test_head_gradients_match_finite_differences():
    for ppk in (False, True):
        store = head_store(d=4, n_features=2, per_position_keys=ppk, seed=15)
        fstar = np.random.default_rng(16).normal(size=(2, 3, 4))
        labels = [1, 0]

        def loss(s, ppk=ppk):
            summary, _ = head.final_attention(ad.Var(fstar), s.leaves(), ppk)
            return head.cross_entropy(head.predict(summary, s.leaves()), labels)

        errs = grad_check(loss, store, h=3e-5)
        assert max(errs.values()) < 1e-4, errs
