"""Self-tests of the benchmark's oracles and span summary on hand-sized inputs."""

import math

import numpy as np
import pytest

import oracles


def test_auroc_pairs_counts_pairs_and_half_ties():
    # positives 0.35 and 0.8 against negatives 0.1 and 0.4: 3 of 4 pairs won
    assert oracles.auroc_pairs([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75
    assert oracles.auroc_pairs([0.5, 0.5], [0, 1]) == 0.5
    assert oracles.auroc_pairs([0.2, 0.2, 0.9], [1, 0, 0]) == 0.25


def test_average_precision_sweeps_tied_groups_together():
    # hits at ranks 1 and 3: 1/2 * 1 + 1/2 * 2/3
    assert oracles.average_precision([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == \
        pytest.approx(0.5 + 1 / 3, abs=1e-15)
    # the tied top pair enters as one group: 1/2 * 1/2 + 1/2 * 2/3
    assert oracles.average_precision([0.9, 0.9, 0.1], [1, 0, 1]) == \
        pytest.approx(0.25 + 1 / 3, abs=1e-15)


def test_min_se_pplus_takes_the_best_threshold():
    # thresholds give (Se, P+) = (1/2, 1), (1/2, 1/2), (1, 2/3), (1, 1/2)
    assert oracles.min_se_pplus([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == \
        pytest.approx(2 / 3, abs=1e-15)
    assert oracles.min_se_pplus([0.3, 0.3], [1, 0]) == 0.5


def _one_dim_doc(time_aware=True) -> dict:
    """A model with d = 1, one feature and one baseline dimension."""
    def p(v):
        v = np.atleast_1d(np.asarray(v, dtype=np.float64))
        return {"shape": list(v.shape), "data": v.ravel().tolist()}

    params = {
        # z = sigmoid(0) = 1/2, r = 1/2, cand = tanh(x): h_t = (h_{t-1} + tanh x_t) / 2
        "channel0.gru.W_z": p([[0.0]]), "channel0.gru.U_z": p([[0.0]]),
        "channel0.gru.b_z": p([0.0]),
        "channel0.gru.W_r": p([[0.0]]), "channel0.gru.U_r": p([[0.0]]),
        "channel0.gru.b_r": p([0.0]),
        "channel0.gru.W_h": p([[1.0]]), "channel0.gru.U_h": p([[0.0]]),
        "channel0.gru.b_h": p([0.0]),
        "channel0.attn.W_q": p([[1.0]]), "channel0.attn.W_k": p([[2.0]]),
        "channel0.attn.beta_raw": {"shape": [], "data": [0.0]},
        "baseline.W_emb": p([[1.0]]),
        "encoder.head0.W_q": p([[1.0]]), "encoder.head0.W_k": p([[1.0]]),
        "encoder.head0.W_v": p([[1.0]]), "encoder.W_O": p([[1.0]]),
        "encoder.ffn.W_1": p([[1.0]]), "encoder.ffn.b_1": p([0.0]),
        "encoder.ffn.W_2": p([[1.0]]), "encoder.ffn.b_2": p([0.0]),
        # with d = 1 layer norm returns its bias: rows become 0.5 then 0.25
        "encoder.ln1.gain": p([1.0]), "encoder.ln1.bias": p([0.5]),
        "encoder.ln2.gain": p([1.0]), "encoder.ln2.bias": p([0.25]),
        "head.W_q_base": p([[1.0]]), "head.W_k": p([[1.0]]),
        "head.W_out": p([[2.0]]), "head.b_out": p([-1.0]),
    }
    cfg = {"n_features": 1, "n_baseline": 1, "d": 1, "heads": 1, "d_ff": 1,
           "per_position_keys": False, "time_aware": time_aware,
           "pool_positions": False, "ln_eps": 1e-5}
    return {"config": cfg, "params": params, "normalization": None}


def test_forward_oracle_by_hand_on_a_one_dimensional_model():
    oracle = oracles.ForwardOracle(_one_dim_doc())
    ts, xs = [0.0, 10.0], [0.3, -0.8]
    h1 = math.tanh(0.3) / 2
    h2 = (h1 + math.tanh(-0.8)) / 2
    assert oracle.gru(0, np.array(xs))[:, 0] == pytest.approx([h1, h2], abs=1e-15)

    beta = math.log(2.0) + 0.01
    zeta = []
    for h, dt in ((h1, 10.0), (h2, 0.0)):
        c = h2 * 2.0 * h
        damp = math.log(math.e + (1 - 1 / (1 + math.exp(-c))) * dt)
        zeta.append(math.tanh(c / (beta * damp)))
    w = np.exp(zeta) / np.exp(zeta).sum()
    out = oracle.case(ts, [xs], [1.7])
    assert out["ta_alphas"][0] == pytest.approx(w, abs=1e-15)
    rows = np.array([w @ [h1, h2], 1.7])
    scores = np.outer(rows, rows)
    attn = np.exp(scores) / np.exp(scores).sum(axis=1, keepdims=True)
    assert out["head_attn"].shape == (1, 2, 2)
    assert out["head_attn"][0] == pytest.approx(attn, abs=1e-15)
    # equal rows: uniform final attention over a summary of 0.25
    assert out["final_alpha"] == pytest.approx([0.5, 0.5], abs=1e-15)
    assert out["prob"] == pytest.approx(1 / (1 + math.exp(0.5)), abs=1e-15)


def test_forward_oracle_without_time_awareness_ignores_the_gaps():
    oracle = oracles.ForwardOracle(_one_dim_doc(time_aware=False))
    near = oracle.case([0.0, 1.0], [[0.3, -0.8]], [0.0])["ta_alphas"][0]
    far = oracle.case([0.0, 500.0], [[0.3, -0.8]], [0.0])["ta_alphas"][0]
    assert near == pytest.approx(far, abs=0.0)


def test_forward_oracle_applies_the_model_normalization():
    doc = _one_dim_doc()
    doc["normalization"] = {"feature_mean": [1.0], "feature_std": [2.0],
                            "baseline_mean": [0.0], "baseline_std": [1.0],
                            "baseline_is_flag": [0]}
    raw = oracles.ForwardOracle(doc).case([0.0, 10.0], [[1.6, -0.6]], [1.7])
    scaled = oracles.ForwardOracle(_one_dim_doc()).case([0.0, 10.0], [[0.3, -0.8]], [1.7])
    assert raw["ta_alphas"][0] == pytest.approx(scaled["ta_alphas"][0], abs=1e-15)
    assert raw["head_attn"] == pytest.approx(scaled["head_attn"], abs=1e-15)


def test_tail_takes_the_highest_percentile_with_ten_samples_beyond():
    from tracer import tail
    assert tail(list(range(39))) is None
    assert tail(list(range(40))) == (75.0, 29)
    assert tail(list(range(100))) == (90.0, 89)
    assert tail(list(range(1000))) == (99.0, 989)
