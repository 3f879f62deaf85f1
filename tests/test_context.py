"""Feature-context encoder and the cross-head covariance penalty."""

from __future__ import annotations

import math

import numpy as np
import numpy.testing as npt
import pytest

from carelens import autodiff as ad
from carelens import context as ctx
from carelens.model import ModelConfig, init_params
from carelens.optim import ParamStore, grad_check


def encoder_store(d, n_heads, d_ff=None, seed=0):
    layout = ctx.init_encoder_params(d, n_heads, d_ff or 2 * d, np.random.default_rng(seed))
    return ParamStore(((name, init(shape)) for name, shape, init in layout), {})


def heads_of(lv, n_heads):
    """The per-head weights ``multi_head_attention`` takes, as ``encode``
    reads them from the ``encoder.head<m>`` leaves."""
    return [{w: lv[f"encoder.head{m}.{w}"] for w in ("W_q", "W_k", "W_v")}
            for m in range(n_heads)]


def mha_oracle(features, heads):
    """Scalar loops over queries, keys, values, heads."""
    p_len, d = features.shape
    d_k = heads[0]["W_q"].data.shape[0]
    outs = []
    attns = []
    for hp in heads:
        wq, wk, wv = hp["W_q"].data, hp["W_k"].data, hp["W_v"].data
        scores = np.empty((p_len, p_len))
        for i in range(p_len):
            q = wq @ features[i]
            for j in range(p_len):
                scores[i, j] = q @ (wk @ features[j]) / math.sqrt(d_k)
        alpha = np.empty_like(scores)
        for i in range(p_len):
            e = np.exp(scores[i] - scores[i].max())
            alpha[i] = e / e.sum()
        out = np.empty((p_len, d_k))
        for i in range(p_len):
            out[i] = sum(alpha[i, j] * (wv @ features[j]) for j in range(p_len))
        outs.append(out)
        attns.append(alpha)
    return np.concatenate(outs, axis=-1), attns


def cov_penalty(u) -> ad.Var:
    """The covariance penalty of (B, K) rows: ``decorrelation_total`` with
    one feature position."""
    u = ad.as_var(u)
    return ctx.decorrelation_total(ad.reshape(u, (u.shape[0], 1, u.shape[1])))


def pair_penalty_2d(u) -> ad.Var:
    """The (B, K) penalty composed on 2-D operands; the pooled penalty must
    equal it bit for bit, values and gradients."""
    u = ad.as_var(u)
    b_size, k = u.shape
    cent = u - ad.vmean(u, axis=0, keepdims=True)
    cov = (ad.transpose(cent) @ cent) * (1.0 / b_size)
    off = 1.0 - np.eye(k)
    return 0.5 * ad.vsum(cov * cov * off)


def decorr_oracle(u):
    b, k = u.shape
    mu = u.mean(axis=0)
    cov = np.zeros((k, k))
    for row in u:
        cov += np.outer(row - mu, row - mu)
    cov /= b
    total = 0.0
    for i in range(k):
        for j in range(k):
            if i != j:
                total += cov[i, j] ** 2
    return 0.5 * total


# -- multi-head attention -------------------------------------------------------


def test_mha_matches_loop_oracle():
    rng = np.random.default_rng(1)
    for trial in range(10):
        d, m = [(4, 2), (6, 3), (8, 1)][trial % 3]
        store = encoder_store(d, m, seed=trial)
        heads = heads_of(store.leaves(), m)
        feats = rng.normal(size=(int(rng.integers(1, 6)), d))
        u, attns = ctx.multi_head_attention(ad.Var(feats), heads)
        u_ref, attn_ref = mha_oracle(feats, heads)
        npt.assert_allclose(u.data, u_ref, atol=1e-12, rtol=0)
        for a, r in zip(attns, attn_ref):
            npt.assert_allclose(a.data, r, atol=1e-12, rtol=0)


def test_mha_rows_are_distributions():
    store = encoder_store(6, 2, seed=2)
    heads = heads_of(store.leaves(), 2)
    feats = np.random.default_rng(3).normal(size=(5, 6))
    _, attns = ctx.multi_head_attention(ad.Var(feats), heads)
    for a in attns:
        npt.assert_allclose(a.data.sum(axis=-1), np.ones(5), atol=1e-12)
        assert (a.data >= 0).all()


def test_mha_single_position_attends_to_itself():
    store = encoder_store(4, 2, seed=4)
    heads = heads_of(store.leaves(), 2)
    feats = np.random.default_rng(5).normal(size=(1, 4))
    u, attns = ctx.multi_head_attention(ad.Var(feats), heads)
    for a in attns:
        npt.assert_array_equal(a.data, [[1.0]])
    expect = np.concatenate([hp["W_v"].data @ feats[0] for hp in heads])
    npt.assert_allclose(u.data[0], expect, atol=1e-14)


def test_mha_zero_queries_average_values():
    store = encoder_store(4, 1, seed=6)
    store.leaves()["encoder.head0.W_q"].data[...] = 0.0
    heads = heads_of(store.leaves(), 1)
    feats = np.random.default_rng(7).normal(size=(3, 4))
    u, attns = ctx.multi_head_attention(ad.Var(feats), heads)
    npt.assert_allclose(attns[0].data, np.full((3, 3), 1 / 3), atol=1e-15)
    v = feats @ heads[0]["W_v"].data.T
    npt.assert_allclose(u.data, np.tile(v.mean(axis=0), (3, 1)), atol=1e-14)


def test_mha_scaling_uses_per_head_width():
    # doubling scores via W_q must differ from what unscaled attention gives;
    # verify the 1/sqrt(d_k) factor is applied by reproducing scores directly
    store = encoder_store(8, 2, seed=8)
    heads = heads_of(store.leaves(), 2)
    feats = np.random.default_rng(9).normal(size=(4, 8))
    _, attns = ctx.multi_head_attention(ad.Var(feats), heads)
    hp = heads[1]
    q = feats @ hp["W_q"].data.T
    k = feats @ hp["W_k"].data.T
    scores = q @ k.T / math.sqrt(4)  # d_k = 8 / 2
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    npt.assert_allclose(attns[1].data, e / e.sum(axis=-1, keepdims=True),
                        atol=1e-12)


def test_encode_is_permutation_equivariant():
    store = encoder_store(6, 3, seed=10)
    lv = store.leaves()
    feats = np.random.default_rng(11).normal(size=(5, 6))
    perm = np.array([3, 0, 4, 1, 2])
    out, attns, u = ctx.encode(ad.Var(feats), lv, 3)
    out_p, attns_p, u_p = ctx.encode(ad.Var(feats[perm]), lv, 3)
    npt.assert_allclose(out_p.data, out.data[perm], atol=1e-12, rtol=0)
    npt.assert_allclose(u_p.data, u.data[perm], atol=1e-12, rtol=0)
    for a, ap in zip(attns, attns_p):
        npt.assert_allclose(ap.data, a.data[perm][:, perm], atol=1e-12, rtol=0)


# -- covariance penalty ----------------------------------------------------------


def test_decorrelation_hand_case():
    # B=2, u = (1,0) and (0,1): C = [[.25,-.25],[-.25,.25]], loss = 0.0625
    u = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss = float(cov_penalty(u).data)
    assert abs(loss - 0.0625) < 1e-12


def test_decorrelation_zero_cases():
    assert float(cov_penalty(np.array([[3.0, -1.0, 2.0]])).data) == 0.0
    const = np.tile([2.0, 5.0], (4, 1))
    assert float(cov_penalty(const).data) == 0.0


def test_decorrelation_nonnegative_and_matches_oracle():
    rng = np.random.default_rng(12)
    for _ in range(25):
        u = rng.normal(size=(int(rng.integers(1, 7)), int(rng.integers(1, 6))))
        got = float(cov_penalty(u).data)
        assert got >= 0.0
        assert abs(got - decorr_oracle(u)) < 1e-12


def test_decorrelation_ignores_mean_shift():
    rng = np.random.default_rng(13)
    u = rng.normal(size=(5, 4))
    shifted = u + np.array([10.0, -3.0, 0.5, 100.0])
    a = float(cov_penalty(u).data)
    b = float(cov_penalty(shifted).data)
    assert abs(a - b) < 1e-9


def test_duplicated_coordinates_raise_penalty():
    rng = np.random.default_rng(14)
    indep = rng.normal(size=(64, 2))
    dup = np.stack([indep[:, 0], indep[:, 0]], axis=1)
    assert float(cov_penalty(dup).data) > \
        10 * float(cov_penalty(indep).data)


def test_decorrelation_total_averages_positions():
    rng = np.random.default_rng(15)
    u_all = rng.normal(size=(6, 4, 3))
    per_pos = [float(cov_penalty(u_all[:, p, :]).data)
               for p in range(4)]
    got = float(ctx.decorrelation_total(ad.Var(u_all)).data)
    npt.assert_allclose(got, np.mean(per_pos), atol=1e-13)


def test_decorrelation_total_pooled_flattens():
    rng = np.random.default_rng(16)
    u_all = rng.normal(size=(6, 4, 3))
    got = float(ctx.decorrelation_total(ad.Var(u_all), pool_positions=True).data)
    want = float(cov_penalty(u_all.reshape(24, 3)).data)
    assert abs(got - want) < 1e-13


@pytest.mark.parametrize("shape", [(64, 5, 16), (36, 5, 16), (1, 5, 8),
                                   (7, 3, 4), (120, 5, 16), (3, 1, 2)])
def test_pooled_penalty_is_bitwise_the_two_dimensional_form(shape):
    # pool_positions runs the (B*P, 1, K) reshape through the per-position
    # code; loss and input gradient must equal the 2-D form bit for bit
    b_size, p_len, k = shape
    u = np.random.default_rng(b_size * 31 + k).normal(size=shape)
    results = []
    for loss_of in (lambda v: ctx.decorrelation_total(v, pool_positions=True),
                    lambda v: pair_penalty_2d(ad.reshape(v, (b_size * p_len, k)))):
        v = ad.Var(u)
        loss = loss_of(v)
        loss.backward()
        results.append((loss.data, v.grad))
    (loss, grad), (loss_ref, grad_ref) = results
    assert np.array_equal(loss, loss_ref)
    assert np.array_equal(grad, grad_ref)


def test_decorrelation_gradients():
    store = ParamStore([("u", np.random.default_rng(17).normal(size=(4, 3)))], {})
    errs = grad_check(lambda s: cov_penalty(s.leaves()["u"]), store,
                      h=1e-5)
    assert errs["u"] < 1e-6


# -- feed-forward and the full block ----------------------------------------------


def test_feed_forward_matches_direct_formula():
    store = encoder_store(4, 2, d_ff=6, seed=18)
    lv = store.leaves()
    x = np.random.default_rng(19).normal(size=(3, 4))
    got = ctx.feed_forward(ad.Var(x), lv).data
    w1, b1 = lv["encoder.ffn.W_1"].data, lv["encoder.ffn.b_1"].data
    w2, b2 = lv["encoder.ffn.W_2"].data, lv["encoder.ffn.b_2"].data
    want = np.maximum(x @ w1.T + b1, 0.0) @ w2.T + b2
    npt.assert_allclose(got, want, atol=1e-13)


def test_encode_zero_weights_reduce_to_double_norm():
    store = encoder_store(5, 1, seed=20)
    for name in ("encoder.head0.W_v", "encoder.W_O", "encoder.ffn.W_1",
                 "encoder.ffn.W_2"):
        store.leaves()[name].data[...] = 0.0
    feats = np.random.default_rng(21).normal(size=(3, 5))
    out, _, _ = ctx.encode(ad.Var(feats), store.leaves(), 1)
    ones, zeros = np.ones(5), np.zeros(5)
    once = ad.layer_norm(feats, ones, zeros, ctx.LN_EPS).data
    twice = ad.layer_norm(once, ones, zeros, ctx.LN_EPS).data
    npt.assert_allclose(out.data, twice, atol=1e-13)


def test_encode_returns_preprojection_concat():
    store = encoder_store(6, 2, seed=22)
    lv = store.leaves()
    feats = np.random.default_rng(23).normal(size=(4, 6))
    _, _, u = ctx.encode(ad.Var(feats), lv, 2)
    heads = heads_of(lv, 2)
    u_ref, _ = mha_oracle(feats, heads)
    assert u.shape == (4, 6)  # M * d_k == d
    npt.assert_allclose(u.data, u_ref, atol=1e-12)


def test_encoder_rejects_indivisible_width():
    # the model config's check, which runs before any layer's layout
    with pytest.raises(ValueError, match="^d=6 not divisible by heads=4$"):
        init_params(ModelConfig(n_features=2, n_baseline=1, d=6, heads=4), 0)


def test_encoder_gradients_match_finite_differences():
    store = encoder_store(4, 2, d_ff=6, seed=24)
    feats = np.random.default_rng(25).normal(size=(2, 3, 4))
    w = np.random.default_rng(26).normal(size=(2, 3, 4))

    def loss(s):
        out, _, u = ctx.encode(ad.Var(feats), s.leaves(), 2)
        return ad.vsum(out * w) + ctx.decorrelation_total(u)

    errs = grad_check(loss, store, h=3e-5)
    assert max(errs.values()) < 1e-4, errs
