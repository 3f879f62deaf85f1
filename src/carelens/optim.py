"""Named parameter store, Adam updates, and a finite-difference grad checker."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .autodiff import Var


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...],
                 fan_in: int) -> np.ndarray:
    """Draws from U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, shape)


@dataclass
class ParamEntry:
    value: np.ndarray
    grad: np.ndarray
    adam_m: np.ndarray
    adam_v: np.ndarray


_FIELDS = ("value", "grad", "adam_m", "adam_v")


class ParamStore:
    """All learnable weights, keyed by name, with uniform gradient access.

    Values, gradients and both Adam moments each live in one contiguous
    float64 buffer, in the order the names were added; every entry's
    fields are views into those buffers, so whole-store updates are a few
    numpy calls.  ``leaf(name)`` hands out a graph node whose gradient
    buffer is shared with the store, so ``backward()`` accumulates straight
    into it.  One Adam step count serves every entry, so no entry may be
    added once ``adam_step`` has run.
    """

    def __init__(self) -> None:
        self._entries: dict[str, ParamEntry] = {}
        self._slots: dict[str, tuple[int, tuple[int, ...]]] = {}  # offset, shape
        self._size = 0
        self._bufs = {f: np.zeros(0) for f in _FIELDS}
        self.step_count = 0

    def add(self, name: str, value) -> None:
        if name in self._entries:
            raise ValueError(f"duplicate parameter name '{name}'")
        if self.step_count:
            raise ValueError(f"cannot add parameter '{name}' after "
                             f"{self.step_count} Adam steps")
        v = np.array(value, dtype=np.float64)
        start, self._size = self._size, self._size + v.size
        if self._size > self._bufs["value"].size:
            # grow geometrically and re-point every entry at the new buffers
            cap = max(2 * self._bufs["value"].size, self._size)
            for f, old in self._bufs.items():
                self._bufs[f] = np.zeros(cap)
                self._bufs[f][:start] = old[:start]
            for key, e in self._entries.items():
                for f in _FIELDS:
                    setattr(e, f, self._view(f, key))
        self._slots[name] = (start, v.shape)
        e = ParamEntry(*(self._view(f, name) for f in _FIELDS))
        e.value[...] = v
        self._entries[name] = e

    def _view(self, field: str, name: str) -> np.ndarray:
        start, shape = self._slots[name]
        return self._bufs[field][start:start + math.prod(shape)].reshape(shape)

    def flat(self, field: str) -> np.ndarray:
        """The whole ``value``, ``grad``, ``adam_m`` or ``adam_v`` buffer."""
        return self._bufs[field][:self._size]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[str]:
        return list(self._entries)

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

    def snapshot(self) -> dict[str, np.ndarray]:
        """A copy of every value, as views into one flat copy."""
        flat = self.flat("value").copy()
        return {name: flat[start:start + math.prod(shape)].reshape(shape)
                for name, (start, shape) in self._slots.items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        """Write back a snapshot that names every parameter."""
        self.flat("value")[...] = np.concatenate(
            [np.ravel(snap[name]) for name in self._entries])


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
