"""Per-feature GRU, time-damped attention, and baseline embedding."""

from __future__ import annotations

import math

import numpy as np
import numpy.testing as npt
import pytest

from carelens import autodiff as ad
from carelens import embedding as emb
from carelens import model
from carelens.data import PatientCase
from carelens.head import cross_entropy
from carelens.model import ModelConfig, init_params
from carelens.optim import ParamStore, grad_check


def channel_store(d, n_channels=1, seed=0, with_baseline=0):
    rng = np.random.default_rng(seed)
    layout = [decl for n in range(n_channels) for decl in emb.init_channel_params(n, d, rng)]
    if with_baseline:
        layout += emb.init_baseline_params(d, with_baseline, rng)
    return ParamStore((name, init(shape)) for name, shape, init in layout)


def channel(lv, n):
    """Channel n's leaves of ``ParamStore.leaves()``, keyed as ``channel_leaves``
    keys its stacked ones.  Their arrays alias the stacked leaves', so the
    per-channel references write their gradients into the same buffers."""
    return {name.rsplit(".", 1)[1]: v for name, v in lv.items()
            if name.startswith(f"channel{n}.")}


def channel_list(store, n_channels):
    return [channel(store.leaves(), n) for n in range(n_channels)]


def one_channel(store, n=0):
    """Channel n alone, as the (1, ...) stacked leaves the batched ops take."""
    return {name.rsplit(".", 1)[1]: store.stacked_leaf([name])
            for name, _ in store.items() if name.startswith(f"channel{n}.")}


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def gru_oracle(series, p):
    """Plain-numpy per-step recurrence, no batching."""
    d = p["b_z"].data.shape[0]
    h = np.zeros(d)
    out = []
    for x in series:
        z = sigmoid(p["W_z"].data[:, 0] * x + p["U_z"].data @ h + p["b_z"].data)
        r = sigmoid(p["W_r"].data[:, 0] * x + p["U_r"].data @ h + p["b_r"].data)
        cand = np.tanh(p["W_h"].data[:, 0] * x + p["U_h"].data @ (r * h)
                       + p["b_h"].data)
        h = (1.0 - z) * h + z * cand
        out.append(h)
    return np.stack(out)


def composed_gru(x, p):
    """The recurrence built one time step at a time from scalar tape ops:
    (B, T) series -> (B, T, d) hidden states.  The fused op must reproduce
    its values and gradients bit for bit."""
    x = ad.as_var(x)
    b_size, t_len = x.shape
    d = p["b_z"].shape[0]
    w_z, w_r, w_h = (ad.transpose(p[f"W_{g}"]) for g in emb.GATES)   # (1, d)
    u_z, u_r, u_h = (ad.transpose(p[f"U_{g}"]) for g in emb.GATES)   # (d, d)
    h = ad.Var(np.zeros((b_size, d)))
    states = []
    for t in range(t_len):
        xt = x[:, t:t + 1]
        z = ad.sigmoid(xt @ w_z + h @ u_z + p["b_z"])
        r = ad.sigmoid(xt @ w_r + h @ u_r + p["b_r"])
        cand = ad.tanh(xt @ w_h + (r * h) @ u_h + p["b_h"])
        h = (1.0 - z) * h + z * cand
        states.append(h)
    return ad.stack(states, axis=1)


def composed_gru_forward_batch(records, channels, keep=None):
    """Drop-in for unpadded ``gru_forward_batch`` built on ``composed_gru``."""
    assert keep is None
    return ad.stack([composed_gru(records[:, n, :], p)
                     for n, p in enumerate(channels)], axis=0)


# -- GRU ----------------------------------------------------------------------


def test_gru_zero_parameters_give_zero_states():
    store = channel_store(d=5)
    for name, _ in store.items():
        if ".gru." in name:
            store.value(name)[...] = 0.0
    hidden = emb.gru_forward_batch(np.array([[[1.0, -2.0, 3.5]]]), one_channel(store))
    npt.assert_array_equal(hidden.data[0, 0], np.zeros((3, 5)))


def test_gru_single_step_matches_closed_form():
    store = channel_store(d=4, seed=1)
    p = channel(store.leaves(), 0)
    x = 0.75
    hidden = emb.gru_forward_batch(np.array([[[x]]]), one_channel(store)).data[0, 0]
    z = sigmoid(p["W_z"].data[:, 0] * x + p["b_z"].data)
    cand = np.tanh(p["W_h"].data[:, 0] * x + p["b_h"].data)
    npt.assert_allclose(hidden[0], z * cand, atol=1e-12, rtol=0)


def test_gru_matches_reference_recurrence():
    store = channel_store(d=6, seed=2)
    p = channel(store.leaves(), 0)
    rng = np.random.default_rng(3)
    for _ in range(5):
        series = rng.normal(size=rng.integers(1, 8))
        npt.assert_allclose(emb.gru_forward_batch(series[None, None],
                                                  one_channel(store)).data[0, 0],
                            gru_oracle(series, p), atol=1e-12, rtol=0)


def test_gru_batch_rows_independent():
    store = channel_store(d=4, seed=4)
    p = one_channel(store)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 5))
    batch = emb.gru_forward_batch(x[:, None, :], p).data[0]
    for b in range(3):
        npt.assert_allclose(batch[b],
                            emb.gru_forward_batch(x[b][None, None], p).data[0, 0],
                            atol=1e-13, rtol=0)


def per_channel_attention(hidden, delta, p, time_aware=True):
    """Time-damped attention for one channel's (B, T, d) states, one channel
    at a time: the batched op must reproduce its values and gradients bit
    for bit."""
    b_size, t_len, d = hidden.shape
    q = hidden[:, -1, :] @ ad.transpose(p["W_q"])            # (B, d)
    k = hidden @ ad.transpose(p["W_k"])                      # (B, T, d)
    c = ad.vsum(ad.reshape(q, (b_size, 1, d)) * k, axis=-1)  # (B, T)
    if not time_aware:
        delta = np.zeros((b_size, t_len))
    zeta = emb.time_damped_scores(c, np.asarray(delta, dtype=np.float64),
                                  emb.effective_beta(p["beta_raw"]))
    alpha = ad.softmax(zeta, axis=-1)
    summary = ad.reshape(ad.reshape(alpha, (b_size, 1, t_len)) @ hidden,
                         (b_size, d))
    return summary, alpha


def per_channel_attention_batch(hidden, delta, channels, time_aware=True,
                                keep=None):
    """Drop-in for unpadded ``time_aware_attention_batch`` built on
    ``per_channel_attention``."""
    assert keep is None
    outs = [per_channel_attention(hidden[n], delta, p, time_aware)
            for n, p in enumerate(channels)]
    return (ad.stack([f for f, _ in outs], axis=0),
            ad.stack([a for _, a in outs], axis=0))


def full_model_problem(n_feat, b_size, t_len, d, time_aware=True):
    """A random model and batch: (cfg, store, records, delta, baseline, labels)."""
    cfg = ModelConfig(n_features=n_feat, n_baseline=3, d=d, heads=2,
                      time_aware=time_aware)
    store = init_params(cfg, seed=n_feat * 100 + t_len)
    rng = np.random.default_rng(b_size * 7 + t_len)
    records = 1.5 * rng.normal(size=(b_size, n_feat, t_len))
    ts = np.cumsum(rng.uniform(0.5, 30.0, size=(b_size, t_len)), axis=1)
    delta = ts[:, -1:] - ts
    baseline = rng.normal(size=(b_size, 3))
    labels = rng.integers(0, 2, size=b_size).astype(np.float64)
    return cfg, store, records, delta, baseline, labels


def model_leaves(store, cfg):
    """The ``lv`` and ``channels`` that ``forward_batch`` takes."""
    return store.leaves(), emb.channel_leaves(store, cfg.n_features, cfg.d)


def full_loss_grads(cfg, store, records, delta, baseline, labels):
    """Probabilities, time-damped attention rows and every parameter
    gradient of the cross-entropy + decorrelation loss."""
    store.zero_grad()
    prob, decorr, trace = model.forward_batch(*model_leaves(store, cfg), records, delta,
                                              baseline, cfg, collect_trace=True)
    (cross_entropy(prob, labels) + decorr).backward()
    return (prob.data, trace["ta_alphas"],
            {n: e.grad.copy() for n, e in store.items()})


def assert_same_outputs(got, want):
    prob, alphas, grads = got
    prob_ref, alphas_ref, grads_ref = want
    npt.assert_array_equal(prob, prob_ref)
    assert len(alphas) == len(alphas_ref)
    for a, a_ref in zip(alphas, alphas_ref):
        npt.assert_array_equal(a, a_ref)
    assert grads.keys() == grads_ref.keys()
    for name, g in grads_ref.items():
        assert np.array_equal(grads[name], g), name


FUSED_SHAPES = [(4, 64, 16, 16), (1, 1, 1, 4), (3, 5, 7, 8), (4, 37, 24, 16),
                (2, 1, 9, 6), (4, 64, 16, 32), (3, 9, 5, 32), (3, 2, 7, 8)]


def randomize_gru_biases(store, seed):
    """At init the GRU biases are 0, which would hide the order of the
    adds they enter and leave a pad step's state at 0."""
    rng = np.random.default_rng(seed)
    for name, e in store.items():
        if ".gru.b_" in name:
            e.value[...] = rng.normal(size=e.value.shape)


@pytest.mark.parametrize("n_feat,b_size,t_len,d", FUSED_SHAPES)
def test_fused_gru_is_bitwise_the_composed_recurrence(monkeypatch, n_feat,
                                                      b_size, t_len, d):
    problem = full_model_problem(n_feat, b_size, t_len, d)
    store, records = problem[1], problem[2]
    randomize_gru_biases(store, n_feat + b_size + t_len + d)
    npt.assert_array_equal(
        emb.gru_forward_batch(records, emb.channel_leaves(store, n_feat, d)).data,
        composed_gru_forward_batch(records, channel_list(store, n_feat)).data)

    got = full_loss_grads(*problem)
    monkeypatch.setattr(model, "gru_forward_batch", lambda records, _, keep=None:
                        composed_gru_forward_batch(records, channel_list(store, n_feat),
                                                   keep))
    assert_same_outputs(got, full_loss_grads(*problem))
    assert any(np.abs(g).max() > 0 for n, g in got[2].items() if ".gru." in n)


def precomputed_gru_forward_batch(records, channels, keep=None):
    """The fused GRU as it was before each step formed its own input
    projection: every step's x_t W^T is built up front as one
    (T, 3, N, B, d) block and the biases broadcast over B at every add.
    The current op must reproduce its values and gradients bit for bit."""
    records = np.asarray(records, dtype=np.float64)
    b_size, _, t_len = records.shape
    leaves = {(w, g): [ch[f"{w}_{g}"] for ch in channels]
              for w in ("W", "U", "b") for g in emb.GATES}
    w_in = np.stack([[v.data[:, 0] for v in leaves["W", g]] for g in emb.GATES])
    u = np.stack([[v.data for v in leaves["U", g]] for g in emb.GATES])
    bias = np.stack([[v.data for v in leaves["b", g]] for g in emb.GATES])[:, :, None, :]
    u_t = np.swapaxes(u, -1, -2)
    d = u.shape[-1]
    x = records.transpose(2, 1, 0)
    xw = x[:, None, :, :, None] * w_in[None, :, :, None, :]
    pads = [None] * t_len if keep is None else [
        None if col.all() else ~col for col in np.asarray(keep, dtype=bool).T]
    hs = np.zeros((t_len + 1, len(channels), b_size, d))
    acts = np.empty((t_len if ad.grad_enabled() else 1, 3, len(channels), b_size, d))
    pre = np.empty((2, len(channels), b_size, d))
    for t in range(t_len):
        h = hs[t]
        step = acts[t % len(acts)]
        z, r, cand = step
        np.matmul(h, u_t[0], out=pre[0])
        np.matmul(h, u_t[1], out=pre[1])
        pre += xw[t, :2]
        pre += bias[:2]
        ad._sigmoid(pre, out=step[:2])
        np.matmul(r * h, u_t[2], out=cand)
        cand += xw[t, 2]
        cand += bias[2]
        np.tanh(cand, out=cand)
        np.multiply(1.0 - z, h, out=hs[t + 1])
        hs[t + 1] += z * cand
        if pads[t] is not None:
            hs[t + 1][:, pads[t]] = 0.0

    def bwd(grad):
        d_pre = np.empty_like(acts)
        dh = grad[:, :, -1]
        for t in range(t_len - 1, -1, -1):
            if pads[t] is not None:
                dh = np.where(pads[t][:, None], 0.0, dh)
            h = hs[t]
            z, r, cand = acts[t]
            dp_z, dp_r, dp_h = d_pre[t]
            np.multiply(dh * z, 1.0 - cand * cand, out=dp_h)
            drh = dp_h @ u[2]
            np.multiply(drh * h * r, 1.0 - r, out=dp_r)
            np.multiply((dh * cand - dh * h) * z, 1.0 - z, out=dp_z)
            if t:
                dh = grad[:, :, t - 1] + dh * (1.0 - z)
                dh += dp_z @ u[0]
                dh += drh * r
                dh += dp_r @ u[1]
        h_rows = np.swapaxes(hs[:-1], -1, -2)
        lhs = (h_rows, h_rows, np.swapaxes(acts[:, 1] * hs[:-1], -1, -2))
        x_rows = x[:, :, None, :]
        for i, g in enumerate(emb.GATES):
            dp = d_pre[:, i]
            d_w = emb._sum_from_last(x_rows @ dp)
            d_u = emb._sum_from_last(lhs[i] @ dp)
            d_b = emb._sum_from_last(dp.sum(axis=2))
            for n in range(len(channels)):
                leaves["W", g][n]._accumulate(d_w[n].T)
                leaves["U", g][n]._accumulate(d_u[n].T)
                leaves["b", g][n]._accumulate(d_b[n])

    return ad.Var(np.ascontiguousarray(hs[1:].transpose(1, 2, 0, 3)),
                  tuple(v for vs in leaves.values() for v in vs), bwd)


@pytest.mark.parametrize("n_feat,b_size,t_len,d", FUSED_SHAPES)
def test_stepwise_input_projection_is_bitwise_the_precomputed_one(monkeypatch, n_feat,
                                                                  b_size, t_len, d):
    cfg, store, records, delta, baseline, labels = full_model_problem(
        n_feat, b_size, t_len, d)
    rng = np.random.default_rng(n_feat + b_size + t_len + d)
    randomize_gru_biases(store, n_feat + b_size + t_len + d)
    # left-pad every row but the last to a random length
    lengths = np.append(rng.integers(1, t_len + 1, size=b_size - 1), t_len)
    keep = np.arange(t_len) >= (t_len - lengths)[:, None]
    records[~np.broadcast_to(keep[:, None, :], records.shape)] = 0.0
    delta = np.where(keep, delta, 0.0)
    keep = None if keep.all() else keep

    def outputs():
        store.zero_grad()
        prob, decorr, trace = model.forward_batch(*model_leaves(store, cfg), records,
                                                  delta, baseline, cfg,
                                                  collect_trace=True, keep=keep)
        (cross_entropy(prob, labels) + decorr).backward()
        with ad.no_grad():
            graph_free, _, _ = model.forward_batch(*model_leaves(store, cfg), records,
                                                   delta, baseline, cfg, keep=keep)
        return (prob.data, trace["ta_alphas"], graph_free.data,
                {n: e.grad.copy() for n, e in store.items()})

    got = outputs()
    monkeypatch.setattr(model, "gru_forward_batch", lambda records, _, keep=None:
                        precomputed_gru_forward_batch(records, channel_list(store, n_feat),
                                                      keep))
    want = outputs()
    assert_same_outputs(got[:2] + got[3:], want[:2] + want[3:])
    assert np.array_equal(got[2], want[2]) and np.array_equal(got[2], got[0])


ATTENTION_SHAPES = [(4, 64, 16, 16), (4, 37, 24, 16), (1, 1, 1, 4),
                    (3, 5, 7, 8), (2, 1, 9, 6), (4, 105, 6, 16)]


@pytest.mark.parametrize("time_aware", [True, False])
@pytest.mark.parametrize("n_feat,b_size,t_len,d", ATTENTION_SHAPES)
def test_batched_attention_is_bitwise_the_per_channel_loop(monkeypatch, n_feat,
                                                           b_size, t_len, d,
                                                           time_aware):
    problem = full_model_problem(n_feat, b_size, t_len, d, time_aware)
    got = full_loss_grads(*problem)
    monkeypatch.setattr(model, "time_aware_attention_batch",
                        lambda hidden, delta, _, *args: per_channel_attention_batch(
                            hidden, delta, channel_list(problem[1], n_feat), *args))
    assert_same_outputs(got, full_loss_grads(*problem))
    if t_len > 1:     # one visit gets weight 1 whatever its score
        for n in range(n_feat):
            assert np.abs(got[2][f"channel{n}.attn.W_k"]).max() > 0
            assert got[2][f"channel{n}.attn.beta_raw"] != 0


def test_masked_gru_holds_pad_states_at_positive_zero():
    store = channel_store(d=5, n_channels=2, seed=9)
    for name, e in store.items():
        if ".gru.b_" in name:       # nonzero, so a pad step would move h
            e.value[...] = np.random.default_rng(10).normal(size=e.value.shape)
    channels = emb.channel_leaves(store, 2, 5)
    rng = np.random.default_rng(11)
    records = rng.normal(size=(3, 2, 6))
    keep = np.arange(6) >= np.array([[0], [2], [5]])        # 6, 4 and 1 visits
    records[~np.broadcast_to(keep[:, None, :], records.shape)] = 0.0
    hidden = emb.gru_forward_batch(records, channels, keep).data
    pads = hidden[:, ~keep]
    assert pads.size and not pads.any() and not np.signbit(pads).any()
    for b in range(3):
        real = records[b][:, keep[b]]
        npt.assert_allclose(hidden[:, b][:, keep[b]],
                            emb.gru_forward_batch(real[None], channels).data[:, 0],
                            atol=1e-13, rtol=0)


def test_gru_saturated_update_gate_freezes_state():
    store = channel_store(d=3, seed=6)
    store.value("channel0.gru.b_z")[...] = -50.0  # z ~ 0 everywhere
    hidden = emb.gru_forward_batch(np.array([[[1.0, 2.0, 3.0]]]),
                                   one_channel(store)).data[0, 0]
    npt.assert_allclose(hidden[1], hidden[0], atol=1e-20)
    npt.assert_allclose(hidden[2], hidden[0], atol=1e-20)


# -- decay and time-damped scores ----------------------------------------------


def test_effective_beta_is_one_at_init():
    store = channel_store(d=3)
    beta = emb.effective_beta(store.leaf("channel0.attn.beta_raw"))
    assert abs(float(beta.data) - 1.0) < 1e-12
    assert abs(float(emb.effective_beta(ad.Var(emb.BETA_RAW_INIT)).data) - 1.0) < 1e-12


def test_decay_rate_respects_floor():
    beta = float(emb.effective_beta(ad.Var(-100.0)).data)
    assert emb.DECAY_FLOOR <= beta < emb.DECAY_FLOOR + 1e-12


def test_scores_at_zero_delta_divide_by_beta_exactly():
    # ln(e + 0) == 1, so the denominator is exactly beta
    c = np.array([0.3, -1.2, 4.0])
    beta = ad.Var(1.7)
    out = emb.time_damped_scores(ad.Var(c), np.zeros(3), beta).data
    npt.assert_array_equal(out, np.tanh(c / 1.7))


def test_scores_match_scalar_formula():
    rng = np.random.default_rng(7)
    for _ in range(30):
        c = float(rng.normal(scale=2))
        dt = float(rng.uniform(0, 300))
        beta = float(rng.uniform(0.05, 3.0))
        got = float(emb.time_damped_scores(ad.Var(np.array([c])),
                                           np.array([dt]), ad.Var(beta)).data[0])
        sig = 1.0 / (1.0 + math.exp(-c))
        want = math.tanh(c / (beta * math.log(math.e + (1.0 - sig) * dt)))
        assert abs(got - want) < 1e-12


def test_score_magnitude_never_grows_with_delta():
    rng = np.random.default_rng(8)
    deltas = np.arange(0.0, 201.0)
    for _ in range(200):
        c = float(rng.normal(scale=2))
        beta = float(emb.effective_beta(ad.Var(rng.uniform(-2, 3))).data)
        zeta = np.tanh(c / (beta * np.log(np.e + (1 - sigmoid(c)) * deltas)))
        assert (np.diff(np.abs(zeta)) <= 0).all()


def test_larger_beta_damps_positive_scores_more():
    deltas = np.arange(1.0, 100.0)
    for c in (0.5, 1.5, 3.0):
        prev = None
        for beta in (0.2, 0.7, 1.5, 3.0):
            zeta = np.tanh(c / (beta * np.log(np.e + (1 - sigmoid(c)) * deltas)))
            if prev is not None:
                assert (zeta < prev).all()
            prev = zeta


# -- time-aware attention -------------------------------------------------------


def attention_oracle(hidden, timestamps, p, time_aware=True):
    """Scalar loops over the published formula."""
    t_len, d = hidden.shape
    beta = float(np.logaddexp(0.0, p["beta_raw"].data) + emb.DECAY_FLOOR)
    q = p["W_q"].data @ hidden[-1]
    zeta = np.empty(t_len)
    for t in range(t_len):
        k = p["W_k"].data @ hidden[t]
        c = float(q @ k)
        dt = float(timestamps[-1] - timestamps[t]) if time_aware else 0.0
        sig = 1.0 / (1.0 + math.exp(-c))
        zeta[t] = math.tanh(c / (beta * math.log(math.e + (1.0 - sig) * dt)))
    e = np.exp(zeta - zeta.max())
    alpha = e / e.sum()
    return alpha @ hidden, alpha


def attend(hidden, timestamps, store, time_aware=True, n=0):
    """One case's (T, d) states and (T,) timestamps through the batched
    attention with channel n's weights: ((d,) summary, (T,) weights) as
    arrays."""
    ts = np.asarray(timestamps, dtype=np.float64)
    f, alpha = emb.time_aware_attention_batch(ad.Var(np.asarray(hidden)[None, None]),
                                              (ts[-1] - ts)[None], one_channel(store, n),
                                              time_aware)
    return f.data[0, 0], alpha.data[0, 0]


def test_attention_single_visit_is_identity():
    store = channel_store(d=5, seed=9)
    hidden = np.random.default_rng(10).normal(size=(1, 5))
    f, alpha = attend(hidden, [0.0], store)
    npt.assert_array_equal(alpha, [1.0])
    npt.assert_allclose(f, hidden[0], atol=1e-15)


def test_attention_matches_loop_oracle():
    rng = np.random.default_rng(11)
    store = channel_store(d=6, seed=12)
    p = channel(store.leaves(), 0)
    store.value("channel0.attn.beta_raw")[...] = 0.4
    for _ in range(20):
        t_len = int(rng.integers(1, 9))
        hidden = rng.normal(size=(t_len, 6))
        ts = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 30, t_len - 1))])
        f, alpha = attend(hidden, ts, store)
        f_ref, alpha_ref = attention_oracle(hidden, ts, p)
        npt.assert_allclose(alpha, alpha_ref, atol=1e-12, rtol=0)
        npt.assert_allclose(f, f_ref, atol=1e-12, rtol=0)


def test_attention_weights_form_distribution():
    store = channel_store(d=4, seed=13)
    rng = np.random.default_rng(14)
    hidden = rng.normal(size=(7, 4))
    ts = np.cumsum(rng.uniform(0.1, 20, 7)) - 0.1
    ts[0] = 0.0
    _, alpha = attend(hidden, ts, store)
    assert (alpha >= 0).all()
    assert abs(alpha.sum() - 1.0) < 1e-12


def test_zero_projections_give_uniform_attention():
    store = channel_store(d=4, seed=15)
    store.value("channel0.attn.W_q")[...] = 0.0
    hidden = np.random.default_rng(16).normal(size=(5, 4))
    _, alpha = attend(hidden, [0.0, 1.0, 2.0, 3.0, 4.0], store)
    npt.assert_allclose(alpha, np.full(5, 0.2), atol=1e-15)


def test_time_aware_false_ignores_timestamps():
    store = channel_store(d=5, seed=17)
    hidden = np.random.default_rng(18).normal(size=(6, 5))
    near = np.arange(6.0)
    far = np.arange(6.0) * 50.0
    f1, a1 = attend(hidden, near, store, time_aware=False)
    f2, a2 = attend(hidden, far, store, time_aware=False)
    npt.assert_array_equal(a1, a2)
    npt.assert_array_equal(f1, f2)
    _, a3 = attend(hidden, far, store, time_aware=True)
    assert not np.array_equal(a1, a3)


# -- baseline embedding ---------------------------------------------------------


def test_baseline_embed_is_linear_matvec():
    store = channel_store(d=4, with_baseline=3, seed=19)
    w = store.leaf("baseline.W_emb")
    base = np.array([1.5, 0.0, 1.0])
    out = emb.embed_baseline_batch(base[None], w).data[0]
    npt.assert_allclose(out, store.value("baseline.W_emb") @ base,
                        atol=1e-15)
    npt.assert_array_equal(emb.embed_baseline_batch(np.zeros((1, 3)), w).data[0],
                           np.zeros(4))
    twice = emb.embed_baseline_batch(2.0 * base[None], w).data[0]
    npt.assert_allclose(twice, 2.0 * out, atol=1e-15)


# -- composition ----------------------------------------------------------------


def make_case(n_feat, t_len, n_base, seed):
    rng = np.random.default_rng(seed)
    ts = np.concatenate([[0.0], np.cumsum(rng.uniform(1, 24, t_len - 1))])
    return PatientCase("c0", rng.normal(size=n_base), ts,
                       rng.normal(size=(n_feat, t_len)), 1)


def build_feature_matrix(case, store, n_features, time_aware=True):
    """One case's (N+1, d) rows, as ``forward_batch`` stacks them before the
    encoder (N attention summaries, then the baseline embedding), and its N
    attention weight rows."""
    w_emb = store.leaf("baseline.W_emb")
    channels = emb.channel_leaves(store, n_features, w_emb.shape[0])
    hidden = emb.gru_forward_batch(case.records[None], channels)
    delta = (case.timestamps[-1] - case.timestamps)[None, :]
    f, alpha = emb.time_aware_attention_batch(hidden, delta, channels, time_aware)
    base = emb.embed_baseline_batch(case.baseline[None], w_emb)
    rows = ad.concat([ad.reshape(f, (n_features, f.shape[2])), base], axis=0)
    return rows, list(alpha.data[:, 0])


def test_feature_matrix_rows_match_components():
    store = channel_store(d=5, n_channels=3, with_baseline=2, seed=20)
    case = make_case(3, 4, 2, seed=21)
    f_mat, alphas = build_feature_matrix(case, store, 3)
    assert f_mat.shape == (4, 5)
    assert len(alphas) == 3
    for n in range(3):
        hidden = emb.gru_forward_batch(case.records[n][None, None],
                                       one_channel(store, n)).data[0, 0]
        f, alpha = attend(hidden, case.timestamps, store, n=n)
        npt.assert_allclose(f_mat.data[n], f, atol=1e-12, rtol=0)
        npt.assert_allclose(alphas[n], alpha, atol=1e-12, rtol=0)
    base = emb.embed_baseline_batch(case.baseline[None], store.leaf("baseline.W_emb"))
    npt.assert_allclose(f_mat.data[3], base.data[0], atol=1e-15)


def test_channels_have_independent_gradients():
    store = channel_store(d=4, n_channels=3, with_baseline=2, seed=22)
    case = make_case(3, 5, 2, seed=23)
    f_mat, _ = build_feature_matrix(case, store, 3)
    store.zero_grad()
    ad.vsum(f_mat[1]).backward()  # depends on channel 1 and nothing else
    for name, _ in store.items():
        g = store.leaf(name).grad
        if name.startswith("channel1."):
            assert np.abs(g).max() > 0.0
        elif name.startswith("channel"):
            npt.assert_array_equal(g, np.zeros_like(g))


def test_embedding_gradients_match_finite_differences():
    store = channel_store(d=4, n_channels=2, with_baseline=2, seed=24)
    case = make_case(2, 3, 2, seed=25)
    rng = np.random.default_rng(26)
    w = rng.normal(size=(3, 4))

    def loss(s):
        f_mat, _ = build_feature_matrix(case, s, 2)
        return ad.vsum(f_mat * w)

    errs = grad_check(loss, store, h=3e-5)
    assert max(errs.values()) < 1e-4, errs
