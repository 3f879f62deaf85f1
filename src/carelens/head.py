"""Prediction head: baseline-queried attention over the re-encoded feature
rows, then a sigmoid risk score.

The query comes from the re-encoded baseline row, so static context decides
how much each dynamic feature contributes to the final summary.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .optim import ParamDecl, uniform_init

PROB_CLAMP = 1e-7


def init_head_params(d: int, n_features: int, rng: np.random.Generator | None,
                     per_position_keys: bool = False) -> Iterator[ParamDecl]:
    yield "head.W_q_base", (d, d), uniform_init(rng, d)
    if per_position_keys:
        for i in range(n_features + 1):
            yield f"head.W_k_{i}", (d, d), uniform_init(rng, d)
    else:
        yield "head.W_k", (d, d), uniform_init(rng, d)
    yield "head.W_out", (1, d), uniform_init(rng, d)
    yield "head.b_out", (1,), np.zeros


def final_attention(fstar: Var, lv: dict[str, Var],
                    per_position_keys: bool = False) -> tuple[Var, Var]:
    """Attend over (B, P, d) rows with the baseline row (last) as query.

    Keys use one shared projection by default, or one per position when
    ``per_position_keys`` is set (the baseline row then owns the last one).
    Returns (patient summary (B, d), attention weights (B, P)).
    """
    b_size, p_len, d = fstar.shape
    q = fstar[:, -1, :] @ ad.transpose(lv["head.W_q_base"])      # (B, d)
    if per_position_keys:
        keys = ad.stack([fstar[:, i, :] @ ad.transpose(lv[f"head.W_k_{i}"])
                         for i in range(p_len)], axis=1)
    else:
        keys = fstar @ ad.transpose(lv["head.W_k"])              # (B, P, d)
    zeta = ad.tanh(ad.vsum(ad.reshape(q, (b_size, 1, d)) * keys, axis=-1))
    alpha = ad.softmax(zeta, axis=-1)                            # (B, P)
    summary = ad.reshape(ad.reshape(alpha, (b_size, 1, p_len)) @ fstar,
                         (b_size, d))
    return summary, alpha


def predict(summary: Var, lv: dict[str, Var]) -> Var:
    """Sigmoid risk probability per row of (B, d), clamped away from 0 and 1."""
    z = summary @ ad.transpose(lv["head.W_out"]) + lv["head.b_out"]
    prob = ad.clip(ad.sigmoid(z), PROB_CLAMP, 1.0 - PROB_CLAMP)
    return ad.reshape(prob, (prob.shape[0],))


def cross_entropy(prob: Var, labels) -> Var:
    """Mean binary cross-entropy against 0/1 labels."""
    y = np.asarray(labels, dtype=np.float64)
    ll = y * ad.log(prob) + (1.0 - y) * ad.log(1.0 - prob)
    return -ad.vmean(ll)
