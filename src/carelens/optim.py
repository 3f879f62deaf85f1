"""Named parameter store, Adam updates, and a finite-difference grad checker."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .autodiff import Var


# one parameter's (name, shape, init): ``init(shape)`` makes its initial array
ParamDecl = tuple[str, tuple[int, ...], Callable[[tuple[int, ...]], np.ndarray]]


def uniform_init(rng: np.random.Generator | None,
                 fan_in: int) -> Callable[[tuple[int, ...]], np.ndarray]:
    """An init that draws from U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / np.sqrt(fan_in)
    return lambda shape: rng.uniform(-bound, bound, shape)


@dataclass
class ParamEntry:
    value: np.ndarray
    grad: np.ndarray
    adam_m: np.ndarray
    adam_v: np.ndarray


_FIELDS = ("value", "grad", "adam_m", "adam_v")


class ParamStore:
    """All learnable weights, keyed by name, with uniform gradient access.

    Built once from (name, value) pairs.  Values, gradients and both Adam
    moments each live in one contiguous float64 buffer, in the order of the
    pairs; every entry's fields are views into those buffers, so whole-store
    updates are a few numpy calls.  ``leaf(name)`` hands out a graph node
    whose gradient buffer is shared with the store, so ``backward()``
    accumulates straight into it.  One Adam step count serves every entry.
    """

    def __init__(self, pairs: Iterable[tuple[str, np.ndarray]]) -> None:
        values: dict[str, np.ndarray] = {}
        for name, value in pairs:
            if name in values:
                raise ValueError(f"duplicate parameter name '{name}'")
            values[name] = np.asarray(value, dtype=np.float64)
        size = sum(v.size for v in values.values())
        self._bufs = {f: np.zeros(size) for f in _FIELDS}
        self._entries: dict[str, ParamEntry] = {}
        start = 0
        for name, v in values.items():
            e = ParamEntry(*(self._bufs[f][start:start + v.size].reshape(v.shape)
                             for f in _FIELDS))
            e.value[...] = v
            self._entries[name] = e
            start += v.size
        self.step_count = 0

    def flat(self, field: str) -> np.ndarray:
        """The whole ``value``, ``grad``, ``adam_m`` or ``adam_v`` buffer."""
        return self._bufs[field]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def value(self, name: str) -> np.ndarray:
        return self._entries[name].value

    def items(self) -> Iterator[tuple[str, ParamEntry]]:
        return iter(self._entries.items())

    def leaf(self, name: str) -> Var:
        e = self._entries[name]
        v = Var(e.value)
        v.grad = e.grad
        return v

    def leaves(self) -> dict[str, Var]:
        return {name: self.leaf(name) for name in self._entries}

    def zero_grad(self) -> None:
        self.flat("grad")[...] = 0.0

    def snapshot(self) -> np.ndarray:
        """A flat copy of every value."""
        return self.flat("value").copy()

    def restore(self, snap: np.ndarray) -> None:
        """Write back a ``snapshot``."""
        self.flat("value")[...] = snap


def adam_step(store: ParamStore, lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One bias-corrected Adam update on every entry, in place.

    Validates all gradients up front so a non-finite gradient leaves the
    store untouched.  The update runs on the flat buffers; it is elementwise,
    so it is bit for bit the per-entry update.
    """
    g = store.flat("grad")
    if not np.isfinite(g).all():
        name = next(n for n, e in store.items() if not np.isfinite(e.grad).all())
        raise ValueError(f"non-finite gradient for parameter '{name}'")
    store.step_count += 1
    t = store.step_count
    corr1, corr2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
    m, v = store.flat("adam_m"), store.flat("adam_v")
    m[...] = beta1 * m + (1.0 - beta1) * g
    v[...] = beta2 * v + (1.0 - beta2) * g * g
    store.flat("value")[...] -= lr * (m / corr1) / (np.sqrt(v / corr2) + eps)


def grad_check(loss_fn: Callable[[ParamStore], Var], store: ParamStore,
               h: float = 1e-5) -> dict[str, float]:
    """Max relative error of analytic vs central-difference gradients.

    ``loss_fn`` must build a fresh scalar graph from the store's leaves and
    be deterministic.  Returns one worst-case error per parameter, where the
    error is |a - n| / max(|a|, |n|, 1e-8).
    """
    if not 1e-7 <= h <= 1e-3:
        raise ValueError("h outside [1e-7, 1e-3]")
    store.zero_grad()
    loss = loss_fn(store)
    loss.backward()
    analytic = {name: e.grad.copy() for name, e in store.items()}
    errs: dict[str, float] = {}
    for name, e in store.items():
        worst = 0.0
        for idx in np.ndindex(e.value.shape):
            orig = e.value[idx]
            e.value[idx] = orig + h
            lp = float(loss_fn(store).data)
            e.value[idx] = orig - h
            lm = float(loss_fn(store).data)
            e.value[idx] = orig
            num = (lp - lm) / (2.0 * h)
            a = float(analytic[name][idx])
            worst = max(worst, abs(a - num) / max(abs(a), abs(num), 1e-8))
        errs[name] = worst
    return errs
