"""Reverse-mode autodiff over float64 numpy arrays.

A ``Var`` wraps one array plus a backward closure; ops build a graph that
``backward()`` walks once in reverse topological order.  Graphs are single
use: build, run backward, discard.  Gradients accumulate additively, so the
caller zeroes parameter gradients between batches.  Inside ``no_grad()``
ops record no graph at all, so each intermediate is freed as soon as
nothing refers to it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

import numpy as np


_grad_enabled = True


def grad_enabled() -> bool:
    """Whether ops record parents and backward closures."""
    return _grad_enabled


@contextmanager
def no_grad() -> Iterator[None]:
    """Build no graph inside the block (inference); the previous mode comes
    back when the block ends, also when it raises."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Var:
    """Graph node: value ``data``, gradient buffer ``grad`` (lazy unless given)."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    # make numpy defer to our reflected operators instead of building
    # object arrays when an ndarray sits on the left
    __array_ufunc__ = None

    def __init__(self, data, parents: tuple = (), backward=None, grad=None):
        self.data = as_array(data)
        self.grad: np.ndarray | None = grad
        # the one place where no_grad drops the graph
        if _grad_enabled:
            self._parents, self._backward = parents, backward
        else:
            self._parents, self._backward = (), None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # a private copy: ``add`` hands one ``g`` to both parents and
            # ``vsum`` hands on a read-only broadcast view
            self.grad = np.array(g)
        else:
            self.grad += g

    def backward(self) -> None:
        """Seed d(self)/d(self) = 1 and propagate to every ancestor."""
        if self.data.shape != ():
            raise ValueError("backward() requires a scalar root")
        topo: list[Var] = []
        seen: set[int] = set()
        stack: list[tuple[Var, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(other, -1.0) if isinstance(other, Var) else -as_array(other))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)

    def __repr__(self) -> str:
        return f"Var(shape={self.data.shape})"


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Var:
    a, b = as_var(a), as_var(b)

    def bwd(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(g, b.data.shape))

    return Var(a.data + b.data, (a, b), bwd)


def mul(a, b) -> Var:
    a, b = as_var(a), as_var(b)

    def bwd(g):
        a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return Var(a.data * b.data, (a, b), bwd)


def div(a, b) -> Var:
    a, b = as_var(a), as_var(b)

    def bwd(g):
        a._accumulate(_unbroadcast(g / b.data, a.data.shape))
        b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return Var(a.data / b.data, (a, b), bwd)


def _swap(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def matmul(a, b) -> Var:
    """a @ b for operands of rank 2 or more; leading axes broadcast."""
    a, b = as_var(a), as_var(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul needs operands of rank 2 or more")

    def bwd(g):
        A, B = a.data, b.data
        a._accumulate(_unbroadcast(g @ _swap(B), A.shape))
        b._accumulate(_unbroadcast(_swap(A) @ g, B.shape))

    return Var(a.data @ b.data, (a, b), bwd)


def _selects_once(key) -> bool:
    """Whether ``key`` is basic indexing (ints, slices, None, ...), which
    selects every element at most once."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(k is None or k is Ellipsis or isinstance(k, slice)
               or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
               for k in parts)


def take(a: Var, key) -> Var:
    """a[key] for basic indexing only, so backward adds into one view."""
    if not _selects_once(key):
        raise ValueError("take needs basic indexing (ints, slices, None, ...)")

    def bwd(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[key] += g

    return Var(a.data[key], (a,), bwd)


def reshape(a, shape) -> Var:
    a = as_var(a)

    def bwd(g):
        a._accumulate(g.reshape(a.data.shape))

    return Var(a.data.reshape(shape), (a,), bwd)


def transpose(a, axes: Sequence[int] | None = None) -> Var:
    a = as_var(a)

    def bwd(g):
        a._accumulate(np.transpose(g, None if axes is None else tuple(np.argsort(axes))))

    return Var(np.transpose(a.data, axes), (a,), bwd)


def t2(a) -> Var:
    """Swap the last two axes."""
    a = as_var(a)
    axes = tuple(range(a.ndim - 2)) + (a.ndim - 1, a.ndim - 2)
    return transpose(a, axes)


def vsum(a, axis=None, keepdims: bool = False) -> Var:
    a = as_var(a)

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape))

    return Var(a.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)


def vmean(a, axis=None, keepdims: bool = False) -> Var:
    a = as_var(a)
    y = a.data.mean(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g / (a.data.size / y.size), a.data.shape))

    return Var(y, (a,), bwd)


def stack(vars_: Iterable, axis: int = 0) -> Var:
    vs = [as_var(v) for v in vars_]

    def bwd(g):
        for i, v in enumerate(vs):
            v._accumulate(np.take(g, i, axis=axis))

    return Var(np.stack([v.data for v in vs], axis=axis), tuple(vs), bwd)


def concat(vars_: Iterable, axis: int = -1) -> Var:
    vs = [as_var(v) for v in vars_]

    def bwd(g):
        splits = np.cumsum([v.data.shape[axis] for v in vs])[:-1]
        for v, piece in zip(vs, np.split(g, splits, axis=axis)):
            v._accumulate(piece)

    return Var(np.concatenate([v.data for v in vs], axis=axis), tuple(vs), bwd)


# -- nonlinearities ---------------------------------------------------------


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, without overflow;
    written into ``out`` when given."""
    e = np.exp(-np.abs(x))
    # e <= 1, so the larger of e and (x >= 0) is 1.0 for x >= 0 and e below
    return np.divide(np.maximum(e, x >= 0), 1.0 + e, out=out)


def sigmoid(a) -> Var:
    a = as_var(a)
    y = _sigmoid(a.data)

    def bwd(g):
        a._accumulate(g * y * (1.0 - y))

    return Var(y, (a,), bwd)


def tanh(a) -> Var:
    a = as_var(a)
    y = np.tanh(a.data)

    def bwd(g):
        a._accumulate(g * (1.0 - y * y))

    return Var(y, (a,), bwd)


def log(a) -> Var:
    a = as_var(a)

    def bwd(g):
        a._accumulate(g / a.data)

    return Var(np.log(a.data), (a,), bwd)


def relu(a) -> Var:
    a = as_var(a)

    def bwd(g):
        a._accumulate(g * (a.data > 0))

    return Var(np.maximum(a.data, 0.0), (a,), bwd)


def softplus(a) -> Var:
    """log(1 + exp(x)), computed without overflow."""
    a = as_var(a)

    def bwd(g):
        a._accumulate(g * _sigmoid(a.data))

    return Var(np.logaddexp(0.0, a.data), (a,), bwd)


def clip(a, lo: float, hi: float) -> Var:
    """Clamp values to [lo, hi]; gradient passes only inside the range."""
    a = as_var(a)

    def bwd(g):
        a._accumulate(g * ((a.data >= lo) & (a.data <= hi)))

    return Var(np.clip(a.data, lo, hi), (a,), bwd)


# -- attention / normalization primitives -----------------------------------


def softmax(scores, mask=None, axis: int = -1) -> Var:
    """Max-shifted softmax along ``axis``.

    ``mask`` is an optional boolean keep-mask broadcastable to the scores;
    excluded positions come out exactly 0 and pass no gradient.  Raises if a
    slice has no kept position.
    """
    a = as_var(scores)
    x = a.data
    if mask is None:
        m = x.max(axis=axis, keepdims=True)
        e = np.exp(x - m)
    else:
        keep = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
        if not keep.any(axis=axis).all():
            raise ValueError("empty attention support")
        neg = np.where(keep, x, -np.inf)
        m = neg.max(axis=axis, keepdims=True)
        e = np.exp(neg - m)
    y = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        a._accumulate(y * (g - dot))

    return Var(y, (a,), bwd)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Var:
    """Normalize the last axis to zero mean / unit variance, then scale+shift."""
    a, gn, bs = as_var(x), as_var(gain), as_var(bias)
    mu = a.data.mean(axis=-1, keepdims=True)
    xc = a.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv

    def bwd(g):
        gg = g * gn.data
        ga = inv * (gg - gg.mean(axis=-1, keepdims=True)
                    - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
        a._accumulate(ga)
        lead = tuple(range(g.ndim - gn.data.ndim))
        gn._accumulate(_unbroadcast((g * xhat).sum(axis=lead) if lead else g * xhat,
                                    gn.data.shape))
        bs._accumulate(_unbroadcast(g.sum(axis=lead) if lead else g, bs.data.shape))

    return Var(gn.data * xhat + bs.data, (a, gn, bs), bwd)
