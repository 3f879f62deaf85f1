"""Feature-context encoder: multi-head self-attention across the feature
rows, a cross-head covariance penalty, and a post-norm residual block.

Attention here mixes *feature positions* (N dynamic summaries plus the
baseline row), not time steps.  The covariance penalty pushes the batch
covariance of the concatenated head outputs toward a diagonal matrix so
heads stop duplicating one another; it is computed per feature position
and averaged (optionally pooled across positions instead).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .optim import ParamDecl, uniform_init

LN_EPS = 1e-5


def init_encoder_params(d: int, n_heads: int, d_ff: int,
                        rng: np.random.Generator | None) -> Iterator[ParamDecl]:
    d_k = d // n_heads
    for m in range(n_heads):
        for w in ("W_q", "W_k", "W_v"):
            yield f"encoder.head{m}.{w}", (d_k, d), uniform_init(rng, d)
    yield "encoder.W_O", (d, n_heads * d_k), uniform_init(rng, n_heads * d_k)
    yield "encoder.ffn.W_1", (d_ff, d), uniform_init(rng, d)
    yield "encoder.ffn.b_1", (d_ff,), np.zeros
    yield "encoder.ffn.W_2", (d, d_ff), uniform_init(rng, d_ff)
    yield "encoder.ffn.b_2", (d,), np.zeros
    for ln in ("ln1", "ln2"):
        yield f"encoder.{ln}.gain", (d,), np.ones
        yield f"encoder.{ln}.bias", (d,), np.zeros


def multi_head_attention(features: Var, heads: list[dict[str, Var]]
                         ) -> tuple[Var, list[Var]]:
    """Scaled dot-product self-attention over rows of (..., P, d) features.

    Returns the concatenated head outputs (..., P, M*d_k) *before* the
    output projection (that feeds the covariance penalty) and each head's
    attention matrix (..., P, P).
    """
    outs, attns = [], []
    for hp in heads:
        q = features @ ad.transpose(hp["W_q"])
        k = features @ ad.transpose(hp["W_k"])
        v = features @ ad.transpose(hp["W_v"])
        d_k = hp["W_q"].shape[0]
        scores = (q @ ad.t2(k)) * (1.0 / np.sqrt(d_k))
        alpha = ad.softmax(scores, axis=-1)
        outs.append(alpha @ v)
        attns.append(alpha)
    return ad.concat(outs, axis=-1), attns


def decorrelation_total(u_all: Var, pool_positions: bool = False) -> Var:
    """Covariance penalty for (B, P, K) head outputs.

    Per position p, C = (1/B) sum_b (u_bp - mean_p)(u_bp - mean_p)^T and the
    penalty is (|C|_F^2 - |diag C|^2)/2: zero for B = 1 or a constant batch,
    never negative.  The P penalties are averaged; ``pool_positions``
    instead treats all B*P rows as one sample (one position of B*P cases).
    """
    if pool_positions:
        b_size, p_len, k = u_all.shape
        u_all = ad.reshape(u_all, (b_size * p_len, 1, k))
    b_size, p_len, k = u_all.shape
    u_t = ad.transpose(u_all, (1, 0, 2))                      # (P, B, K)
    cent = u_t - ad.vmean(u_t, axis=1, keepdims=True)
    cov = (ad.t2(cent) @ cent) * (1.0 / b_size)               # (P, K, K)
    off = 1.0 - np.eye(k)
    per_pos = 0.5 * ad.vsum(cov * cov * off, axis=(1, 2))     # (P,)
    return ad.vmean(per_pos)


def feed_forward(x: Var, lv: dict[str, Var]) -> Var:
    """Row-wise max(0, x W1^T + b1) W2^T + b2 with the ``encoder.ffn`` leaves."""
    w_1, b_1, w_2, b_2 = (lv[f"encoder.ffn.{w}"] for w in ("W_1", "b_1", "W_2", "b_2"))
    return ad.relu(x @ ad.transpose(w_1) + b_1) @ ad.transpose(w_2) + b_2


def encode(features: Var, lv: dict[str, Var], n_heads: int,
           eps: float = LN_EPS) -> tuple[Var, list[Var], Var]:
    """Post-norm residual encoder block over (..., P, d) features, with the
    ``encoder.*`` leaves of ``lv``.

    Returns (re-encoded features, per-head attention, pre-projection head
    concatenation for the covariance penalty).
    """
    u, attns = multi_head_attention(
        features, [{w: lv[f"encoder.head{m}.{w}"] for w in ("W_q", "W_k", "W_v")}
                   for m in range(n_heads)])
    mixed = ad.layer_norm(features + u @ ad.transpose(lv["encoder.W_O"]),
                          lv["encoder.ln1.gain"], lv["encoder.ln1.bias"], eps)
    out = ad.layer_norm(mixed + feed_forward(mixed, lv),
                        lv["encoder.ln2.gain"], lv["encoder.ln2.bias"], eps)
    return out, attns, u
