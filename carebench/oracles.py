"""Reference implementations the benchmark checks carelens against.

Nothing here imports carelens.  The forward oracle reads the weights straight
out of a saved model file and runs one case at a time with plain numpy loops;
the metric oracles count pairs and sweep thresholds by brute force.
"""

from __future__ import annotations

import json
import math

import numpy as np

PROB_CLAMP = 1e-7       # carelens clamps probabilities to [1e-7, 1 - 1e-7]
DECAY_FLOOR = 0.01      # effective decay = softplus(raw) + floor


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                eps: float) -> np.ndarray:
    mu = x.mean()
    var = ((x - mu) ** 2).mean()
    return gain * (x - mu) / math.sqrt(var + eps) + bias


class ForwardOracle:
    """Scores one raw case from the arrays of a carelens model file."""

    def __init__(self, doc: dict):
        self.cfg = doc["config"]
        self.w = {name: np.array(spec["data"], dtype=np.float64)
                  .reshape(spec["shape"]) for name, spec in doc["params"].items()}
        norm = doc["normalization"]
        self.norm = None if norm is None else {
            k: np.array(v, dtype=np.float64) for k, v in norm.items()}

    @classmethod
    def from_file(cls, path) -> "ForwardOracle":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def gru(self, n: int, series: np.ndarray) -> np.ndarray:
        """Hidden states (T, d) of feature n's GRU over a (T,) series."""
        w = self.w
        pre = f"channel{n}.gru"
        d = w[f"{pre}.b_z"].shape[0]
        h = np.zeros(d)
        states = []
        for x in series:
            z = _sigmoid(w[f"{pre}.W_z"][:, 0] * x + w[f"{pre}.U_z"] @ h + w[f"{pre}.b_z"])
            r = _sigmoid(w[f"{pre}.W_r"][:, 0] * x + w[f"{pre}.U_r"] @ h + w[f"{pre}.b_r"])
            cand = np.tanh(w[f"{pre}.W_h"][:, 0] * x
                           + w[f"{pre}.U_h"] @ (r * h) + w[f"{pre}.b_h"])
            h = (1.0 - z) * h + z * cand
            states.append(h)
        return np.array(states)

    def time_damped(self, n: int, hidden: np.ndarray, dt: np.ndarray):
        """Summary (d,) and weights (T,) of feature n's time-damped attention."""
        w = self.w
        pre = f"channel{n}.attn"
        raw = float(w[f"{pre}.beta_raw"])
        beta = math.log1p(math.exp(raw)) + DECAY_FLOOR
        q = w[f"{pre}.W_q"] @ hidden[-1]
        zeta = np.empty(hidden.shape[0])
        for t in range(hidden.shape[0]):
            c = float(q @ (w[f"{pre}.W_k"] @ hidden[t]))
            lag = dt[t] if self.cfg["time_aware"] else 0.0
            damp = math.log(math.e + (1.0 - 1.0 / (1.0 + math.exp(-c))) * lag)
            zeta[t] = math.tanh(c / (beta * damp))
        alpha = _softmax(zeta)
        return alpha @ hidden, alpha

    def encoder(self, feats: np.ndarray):
        """Re-encoded rows (P, d) and per-head attention (M, P, P)."""
        w = self.w
        eps = self.cfg["ln_eps"]
        heads, attns = [], []
        for m in range(self.cfg["heads"]):
            wq, wk, wv = (w[f"encoder.head{m}.{k}"] for k in ("W_q", "W_k", "W_v"))
            q, k, v = feats @ wq.T, feats @ wk.T, feats @ wv.T
            a = np.array([_softmax(q[i] @ k.T / math.sqrt(wq.shape[0]))
                          for i in range(feats.shape[0])])
            heads.append(a @ v)
            attns.append(a)
        u = np.concatenate(heads, axis=1)
        out = np.empty_like(feats)
        for i in range(feats.shape[0]):
            mixed = _layer_norm(feats[i] + w["encoder.W_O"] @ u[i],
                                w["encoder.ln1.gain"], w["encoder.ln1.bias"], eps)
            hid = np.maximum(w["encoder.ffn.W_1"] @ mixed + w["encoder.ffn.b_1"], 0.0)
            ffn = w["encoder.ffn.W_2"] @ hid + w["encoder.ffn.b_2"]
            out[i] = _layer_norm(mixed + ffn, w["encoder.ln2.gain"],
                                 w["encoder.ln2.bias"], eps)
        return out, np.array(attns)

    def head(self, fstar: np.ndarray):
        """Probability and baseline-queried weights (P,) over encoded rows."""
        w = self.w
        q = w["head.W_q_base"] @ fstar[-1]
        zeta = np.empty(fstar.shape[0])
        for i in range(fstar.shape[0]):
            w_k = (w[f"head.W_k_{i}"] if self.cfg["per_position_keys"]
                   else w["head.W_k"])
            zeta[i] = math.tanh(float(q @ (w_k @ fstar[i])))
        alpha = _softmax(zeta)
        logit = float(w["head.W_out"][0] @ (alpha @ fstar) + w["head.b_out"][0])
        prob = min(max(1.0 / (1.0 + math.exp(-logit)), PROB_CLAMP), 1.0 - PROB_CLAMP)
        return prob, alpha

    def case(self, timestamps, records, baseline) -> dict:
        """Full forward pass on one raw (unnormalised) case."""
        ts = np.asarray(timestamps, dtype=np.float64)
        rec = np.asarray(records, dtype=np.float64)
        base = np.asarray(baseline, dtype=np.float64)
        if self.norm is not None:
            rec = (rec - self.norm["feature_mean"][:, None]) / self.norm["feature_std"][:, None]
            base = (base - self.norm["baseline_mean"]) / self.norm["baseline_std"]
        dt = ts[-1] - ts
        rows, ta_alphas = [], []
        for n in range(self.cfg["n_features"]):
            summary, alpha = self.time_damped(n, self.gru(n, rec[n]), dt)
            rows.append(summary)
            ta_alphas.append(alpha)
        rows.append(self.w["baseline.W_emb"] @ base)
        fstar, head_attn = self.encoder(np.array(rows))
        prob, final_alpha = self.head(fstar)
        return {"prob": prob, "ta_alphas": ta_alphas, "head_attn": head_attn,
                "final_alpha": final_alpha}


def auroc_pairs(scores, labels) -> float:
    """Share of (positive, negative) pairs ranked correctly, ties worth 1/2."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos, neg = s[y == 1], s[y == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins) / (pos.size * neg.size)


def _sweep(scores, labels):
    """(tp, flagged) at each distinct threshold, from the highest score down,
    flagging every case whose score reaches the threshold."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    for theta in sorted(set(s.tolist()), reverse=True):
        hit = s >= theta
        yield int((hit & (y == 1)).sum()), int(hit.sum())


def average_precision(scores, labels) -> float:
    """Sum over thresholds of precision times the gain in recall."""
    pos = int(np.sum(labels))
    ap = 0.0
    tp_prev = 0
    for tp, flagged in _sweep(scores, labels):
        if tp > tp_prev:
            ap += (tp - tp_prev) / pos * (tp / flagged)
        tp_prev = tp
    return ap


def min_se_pplus(scores, labels) -> float:
    """Best min(sensitivity, precision) over the distinct-score thresholds."""
    pos = int(np.sum(labels))
    return max(min(tp / pos, tp / flagged) for tp, flagged in _sweep(scores, labels))
