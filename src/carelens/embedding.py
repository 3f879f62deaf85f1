"""Per-feature recurrent embedding and time-damped attention.

Every dynamic feature owns a private single-input GRU; no parameters are
shared across features.  The attention over a feature's hidden states
damps each score by the elapsed time to the newest visit before the
softmax:

    score_t = tanh( c_t / (beta * ln(e + (1 - sigmoid(c_t)) * dt_t)) )

with c_t the query/key dot product, dt_t >= 0 the hours back from the last
visit, and beta > 0 a learned per-feature decay rate.  At dt = 0 the damping
term is exactly 1; larger beta forgets history faster.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .optim import ParamDecl, ParamStore, uniform_init

GATES = ("z", "r", "h")
DECAY_FLOOR = 0.01
# softplus(raw) + floor == 1.0 at init
BETA_RAW_INIT = float(np.log(np.expm1(1.0 - DECAY_FLOOR)))


def init_channel_params(n: int, d: int,
                        rng: np.random.Generator | None) -> Iterator[ParamDecl]:
    pre = f"channel{n}"
    for g in GATES:
        yield f"{pre}.gru.W_{g}", (d, 1), uniform_init(rng, 1)
        yield f"{pre}.gru.U_{g}", (d, d), uniform_init(rng, d)
        yield f"{pre}.gru.b_{g}", (d,), np.zeros
    yield f"{pre}.attn.W_q", (d, d), uniform_init(rng, d)
    yield f"{pre}.attn.W_k", (d, d), uniform_init(rng, d)
    yield f"{pre}.attn.beta_raw", (), lambda shape: np.full(shape, BETA_RAW_INIT)


def init_baseline_params(d: int, n_baseline: int,
                         rng: np.random.Generator | None) -> Iterator[ParamDecl]:
    yield "baseline.W_emb", (d, n_baseline), uniform_init(rng, n_baseline)


def channel_leaves(store: ParamStore, n_features: int, d: int) -> dict[str, Var]:
    """One ``stacked_leaf`` of the channels per weight kind: ``W_z``, ..., ``beta_raw``."""
    kinds = zip(*([name for name, _, _ in init_channel_params(n, d, None)]
                  for n in range(n_features)))
    return {names[0].rsplit(".", 1)[1]: store.stacked_leaf(list(names)) for names in kinds}


def _sum_from_last(parts: np.ndarray) -> np.ndarray:
    """parts[-1] + parts[-2] + ... + parts[0], added in that order."""
    total = parts[-1].copy()
    for part in parts[-2::-1]:
        total += part
    return total


def gru_forward_batch(records: np.ndarray, channels: dict[str, Var],
                      keep: np.ndarray | None = None) -> Var:
    """Run every feature's scalar-input GRU over its row of (B, N, T) records.

    ``channels`` holds the (N, ...) ``W_*``, ``U_*`` and ``b_*`` leaves of
    ``channel_leaves``.  Returns one tape node with the hidden states of all
    N channels, shape (N, B, T, d).  Gate convention: h_t = (1 - z_t) *
    h_{t-1} + z_t * cand_t, with the reset gate applied to the previous
    state inside the candidate.

    ``keep`` is an optional (B, T) mask that is False at pad steps.  The
    state is written back to exactly 0.0 there, so with the pads first a
    case's real visits see the states its unpadded series would; pad states
    are constants and pass no gradient.

    The forward pass steps through time once for all channels with
    (N, B, d) @ (N, d, d) matmuls; the backward pass is hand-written BPTT.
    Both repeat, operation for operation, what a per-step composition of
    tape ops computes, and the backward pass adds the partial gradients in
    the order ``Var.backward`` would, so every value and gradient is bit
    for bit that of the composed recurrence.
    """
    records = np.asarray(records, dtype=np.float64)
    b_size, n_ch, t_len = records.shape
    w, u, b = ([channels[f"{kind}_{g}"] for g in GATES] for kind in "WUb")  # (N, ...) each
    u_t = [np.swapaxes(v.data, -1, -2) for v in u]  # the views a composed h @ U^T uses
    d = b[0].shape[-1]
    x = records.transpose(2, 1, 0)                                  # (T, N, B)
    # pads[t]: the rows that are padding at step t, or None
    pads = [None] * t_len if keep is None else [
        None if col.all() else ~col for col in np.asarray(keep, dtype=bool).T]
    hs = np.zeros((t_len + 1, n_ch, b_size, d))                     # hs[t] = h_{t-1}
    # z, r, cand of every step for BPTT; with no tape, one step's worth
    acts = np.empty((t_len if ad.grad_enabled() else 1, 3, n_ch, b_size, d))
    pre = np.empty((2, n_ch, b_size, d))                            # z, r inputs
    # the input weights and the biases broadcast once over the batch, so
    # that each step's products and sums run as flat passes; elementwise
    # arithmetic gives the same bits whatever its operands' strides
    w_in, bias = np.empty((2, *acts.shape[1:]))                     # (3, N, B, d) each
    for i in range(3):
        w_in[i], bias[i] = w[i].data[:, None, :, 0], b[i].data[:, None]
    x_t = np.empty((n_ch, b_size, d))                               # x_t over d
    xw = np.empty_like(w_in)                                        # x_t W^T per gate
    tmp = np.empty_like(x_t)
    for t in range(t_len):
        h = hs[t]
        step = acts[t % len(acts)]
        z, r, cand = step
        # a width-one matmul is one exact product, so x_t @ W^T is this
        x_t[...] = x[t][:, :, None]
        np.multiply(x_t, w_in, out=xw)
        # (x W^T + h U^T) + b per gate; one sigmoid call for z and r
        np.matmul(h, u_t[0], out=pre[0])
        np.matmul(h, u_t[1], out=pre[1])
        pre += xw[:2]
        pre += bias[:2]
        ad._sigmoid(pre, out=step[:2])
        np.matmul(np.multiply(r, h, out=tmp), u_t[2], out=cand)
        cand += xw[2]
        cand += bias[2]
        np.tanh(cand, out=cand)
        np.multiply(np.subtract(1.0, z, out=tmp), h, out=hs[t + 1])
        hs[t + 1] += np.multiply(z, cand, out=tmp)
        if pads[t] is not None:
            hs[t + 1][:, pads[t]] = 0.0

    def bwd(grad):
        d_pre = np.empty_like(acts)     # gradients of the gate pre-activations
        dh = grad[:, :, -1]
        for t in range(t_len - 1, -1, -1):
            if pads[t] is not None:
                # a pad state is a constant: nothing flows back through it
                dh = np.where(pads[t][:, None], 0.0, dh)
            h = hs[t]
            z, r, cand = acts[t]
            dp_z, dp_r, dp_h = d_pre[t]
            np.multiply(dh * z, 1.0 - cand * cand, out=dp_h)
            drh = dp_h @ u[2].data
            np.multiply(drh * h * r, 1.0 - r, out=dp_r)
            # z feeds 1 - z and z * cand; a sum of two terms has no order
            np.multiply((dh * cand - dh * h) * z, 1.0 - z, out=dp_z)
            if t:
                # h_{t-1} feeds the output, (1 - z) * h, h @ U_z^T, r * h and
                # h @ U_r^T; the tape adds their gradients in that order
                dh = grad[:, :, t - 1] + dh * (1.0 - z)
                dh += dp_z @ u[0].data
                dh += drh * r
                dh += dp_r @ u[1].data
        h_rows = np.swapaxes(hs[:-1], -1, -2)
        lhs = (h_rows, h_rows, np.swapaxes(acts[:, 1] * hs[:-1], -1, -2))
        x_rows = x[:, :, None, :]                                   # (T, N, 1, B)
        # per-step weight gradients, summed from the last step down as the
        # tape does, then added to the leaves once
        for i in range(3):
            dp = d_pre[:, i]
            w[i]._accumulate(np.swapaxes(_sum_from_last(x_rows @ dp), 1, 2))
            u[i]._accumulate(np.swapaxes(_sum_from_last(lhs[i] @ dp), 1, 2))
            b[i]._accumulate(_sum_from_last(dp.sum(axis=2)))

    return Var(np.ascontiguousarray(hs[1:].transpose(1, 2, 0, 3)), (*w, *u, *b), bwd)


def time_damped_scores(c: Var, delta: np.ndarray, beta: Var) -> Var:
    """Pre-softmax attention scores with time damping (see module docstring)."""
    damp = ad.log(np.e + (1.0 - ad.sigmoid(c)) * delta)
    return ad.tanh(c / (beta * damp))


def effective_beta(beta_raw: Var) -> Var:
    return ad.softplus(beta_raw) + DECAY_FLOOR


def time_aware_attention_batch(hidden: Var, delta: np.ndarray,
                               channels: dict[str, Var],
                               time_aware: bool = True,
                               keep: np.ndarray | None = None) -> tuple[Var, Var]:
    """Attend over every channel's hidden states at once.

    ``hidden`` holds (N, B, T, d) states and ``channels`` the ``channel_leaves``.
    Returns (summaries (N, B, d), alphas (N, B, T)).  The query comes from
    the last hidden state.
    ``delta`` holds (B, T) hours back from the newest visit; with
    ``time_aware=False`` the damping is frozen at its dt = 0 value.  An
    optional (B, T) ``keep`` mask gives pad steps a weight of exactly 0;
    the last step must be real.

    W_q, W_k and beta are shaped (N, d, d), (N, 1, d, d) and (N, 1, 1), so
    every product runs on the operands one channel alone would use and
    every value and gradient is bit for bit the per-channel one.
    """
    n_ch, b_size, t_len, d = hidden.shape
    q = hidden[:, :, -1, :] @ ad.t2(channels["W_q"])                   # (N, B, d)
    k = hidden @ ad.t2(ad.reshape(channels["W_k"], (n_ch, 1, d, d)))   # (N, B, T, d)
    c = ad.vsum(ad.reshape(q, (n_ch, b_size, 1, d)) * k, axis=-1)      # (N, B, T)
    if not time_aware:
        delta = np.zeros((b_size, t_len))
    beta = effective_beta(ad.reshape(channels["beta_raw"], (n_ch, 1, 1)))
    zeta = time_damped_scores(c, np.asarray(delta, dtype=np.float64), beta)
    alpha = ad.softmax(zeta, mask=keep, axis=-1)
    summary = ad.reshape(ad.reshape(alpha, (n_ch, b_size, 1, t_len)) @ hidden,
                         (n_ch, b_size, d))
    return summary, alpha


def embed_baseline_batch(base, w_emb: Var) -> Var:
    """Linear, bias-free embedding of (B, S) baselines -> (B, d)."""
    return ad.as_var(base) @ ad.transpose(w_emb)
