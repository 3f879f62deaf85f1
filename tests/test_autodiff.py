"""Op-level checks: frozen forward values, invariants, and every backward
pass against central differences."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from carelens import autodiff as ad


def rel_err(a, n):
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def check_grads(make_loss, arrays, h=1e-6, bound=1e-4):
    """Analytic grads of make_loss(*arrays) vs central differences."""
    vars_ = [ad.Var(x) for x in arrays]
    loss = make_loss(*vars_)
    loss.backward()
    for v, x in zip(vars_, arrays):
        assert v.grad is not None
        for idx in np.ndindex(x.shape):
            orig = x[idx]
            x[idx] = orig + h
            lp = float(make_loss(*[ad.Var(a) for a in arrays]).data)
            x[idx] = orig - h
            lm = float(make_loss(*[ad.Var(a) for a in arrays]).data)
            x[idx] = orig
            num = (lp - lm) / (2 * h)
            assert rel_err(float(v.grad[idx]), num) < bound, \
                f"grad mismatch at {idx}: {v.grad[idx]} vs {num}"


def proj(rng, shape):
    return rng.normal(size=shape)


# -- softmax ------------------------------------------------------------------


def test_softmax_uniform_exact():
    npt.assert_array_equal(ad.softmax([0.0, 0.0, 0.0]).data,
                           np.array([1 / 3, 1 / 3, 1 / 3]))


def test_softmax_log_weights():
    out = ad.softmax(np.log([1.0, 2.0, 3.0])).data
    npt.assert_allclose(out, [1 / 6, 2 / 6, 3 / 6], atol=1e-12, rtol=0)


def test_softmax_mask_hides_position_exactly():
    out = ad.softmax([5.0, 1.0, 1.0], mask=[False, True, True]).data
    npt.assert_array_equal(out, [0.0, 0.5, 0.5])


def test_softmax_is_probability_vector():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.normal(scale=5, size=rng.integers(1, 9))
        y = ad.softmax(x).data
        assert (y >= 0).all()
        assert abs(y.sum() - 1.0) < 1e-12


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.normal(scale=3, size=6)
        base = ad.softmax(x).data
        for c in (-20.0, -3.7, 0.5, 20.0):
            npt.assert_allclose(ad.softmax(x + c).data, base, atol=1e-12, rtol=0)


def test_softmax_empty_support_errors():
    with pytest.raises(ValueError, match="empty attention support"):
        ad.softmax([1.0, 2.0], mask=[False, False])


def test_softmax_mask_blocks_gradient_and_overflow():
    # huge score at the excluded position must not produce inf/nan
    x = ad.Var([1e6, 0.0, 0.0])
    y = ad.softmax(x, mask=[False, True, True])
    npt.assert_array_equal(y.data, [0.0, 0.5, 0.5])
    ad.vsum(y * np.array([1.0, 2.0, 3.0])).backward()
    assert x.grad[0] == 0.0


def test_softmax_rows_of_matrix():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 5))
    y = ad.softmax(x, axis=-1).data
    npt.assert_allclose(y.sum(axis=-1), np.ones(4), atol=1e-12, rtol=0)


def test_softmax_backward():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 4))
    w = proj(rng, (3, 4))
    check_grads(lambda v: ad.vsum(ad.softmax(v, axis=-1) * w), [x])
    mask = np.array([True, False, True, True])
    check_grads(lambda v: ad.vsum(ad.softmax(v, mask=mask, axis=-1) * w), [x])


# -- layer_norm ---------------------------------------------------------------


def test_layer_norm_constant_row_is_zero():
    out = ad.layer_norm([1.0, 1.0, 1.0], np.ones(3), np.zeros(3)).data
    npt.assert_array_equal(out, np.zeros(3))


def test_layer_norm_matches_direct_oracle():
    rng = np.random.default_rng(4)
    x = rng.normal(size=8)
    eps = 1e-5
    out = ad.layer_norm(x, 2.0 * np.ones(8), 3.0 * np.ones(8), eps).data
    mu = x.mean()
    var = ((x - mu) ** 2).mean()
    expect = 2.0 * (x - mu) / np.sqrt(var + eps) + 3.0
    npt.assert_allclose(out, expect, atol=1e-12, rtol=0)


def test_layer_norm_standardizes():
    rng = np.random.default_rng(5)
    x = rng.normal(size=16)
    out = ad.layer_norm(x, np.ones(16), np.zeros(16), eps=1e-9).data
    assert abs(out.mean()) < 1e-9
    assert abs(out.var() - 1.0) < 1e-6


def test_layer_norm_rowwise_on_batch():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 2, 5))
    out = ad.layer_norm(x, np.ones(5), np.zeros(5), eps=1e-9).data
    npt.assert_allclose(out.mean(axis=-1), np.zeros((3, 2)), atol=1e-9)


def test_layer_norm_backward():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 5))
    gain = rng.normal(size=5)
    bias = rng.normal(size=5)
    w = proj(rng, (2, 5))
    check_grads(lambda a, g, b: ad.vsum(ad.layer_norm(a, g, b) * w),
                [x, gain, bias])


# -- arithmetic and shape ops -------------------------------------------------


def test_add_mul_broadcast_backward():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4,))
    w = proj(rng, (3, 4))
    check_grads(lambda x, y: ad.vsum((x + y) * w), [a, b])
    check_grads(lambda x, y: ad.vsum((x * y) * w), [a, b])


def test_div_backward():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(3, 4))
    b = rng.uniform(0.5, 2.0, size=(3, 4))
    w = proj(rng, (3, 4))
    check_grads(lambda x, y: ad.vsum((x / y) * w), [a, b])


def test_matmul_backward_all_ranks():
    rng = np.random.default_rng(10)
    m2, m3 = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    batched = rng.normal(size=(2, 3, 4))
    w32 = proj(rng, (3, 2))
    check_grads(lambda a, b: ad.vsum((a @ b) * w32), [m2, m3])
    w232 = proj(rng, (2, 3, 2))
    check_grads(lambda a, b: ad.vsum((a @ b) * w232), [batched, m3])
    other = rng.normal(size=(2, 4, 2))
    check_grads(lambda a, b: ad.vsum((a @ b) * w232), [batched, other])
    check_grads(lambda a, b: ad.vsum((a @ b) * w232), [m2, other])


@pytest.mark.parametrize("shapes", [((4,), (4, 2)), ((3, 4), (4,)), ((4,), (4,)),
                                    ((2, 3, 4), (4,))])
def test_matmul_rejects_a_one_dimensional_operand_when_built(shapes):
    a, b = (ad.Var(np.ones(s)) for s in shapes)
    with pytest.raises(ValueError, match="matmul needs operands of rank 2 or more"):
        a @ b
    with ad.no_grad(), pytest.raises(ValueError, match="rank 2 or more"):
        ad.matmul(a, b)


def test_take_reshape_transpose_backward():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 4, 5))
    w = proj(rng, (3, 5))
    check_grads(lambda a: ad.vsum(a[:, 2, :] * w), [x])
    check_grads(lambda a: ad.vsum(ad.reshape(a, (12, 5)) * proj(np.random.default_rng(0), (12, 5))), [x])
    check_grads(lambda a: ad.vsum(ad.transpose(a, (2, 0, 1)) * proj(np.random.default_rng(1), (5, 3, 4))), [x])
    check_grads(lambda a: ad.vsum(ad.t2(a) * proj(np.random.default_rng(2), (3, 5, 4))), [x])


def test_take_adds_every_selected_copy():
    x = ad.Var(np.zeros((3, 2)))
    ad.vsum(x[0] * 2.0 + x[1] + x[..., 1:] + x[None, 2, :1]).backward()
    npt.assert_array_equal(x.grad, [[6.0, 8.0], [3.0, 5.0], [6.0, 2.0]])
    # an advanced index may select an element twice; it is refused when built
    for key in (np.array([0, 2, 0]), [0, 1], np.array([True, False, True]), True,
                (0, np.array([1]))):
        with pytest.raises(ValueError, match="take needs basic indexing"):
            x[key]


def test_sum_mean_axes_backward():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(3, 4, 5))
    check_grads(lambda a: ad.vsum(a), [x])
    check_grads(lambda a: ad.vsum(ad.vsum(a, axis=1) * proj(np.random.default_rng(3), (3, 5))), [x])
    check_grads(lambda a: ad.vsum(ad.vsum(a, axis=(1, 2)) * proj(np.random.default_rng(4), (3,))), [x])
    check_grads(lambda a: ad.vsum(ad.vmean(a, axis=0, keepdims=True) * proj(np.random.default_rng(5), (1, 4, 5))), [x])
    check_grads(lambda a: ad.vmean(a), [x])


def test_stack_concat_backward():
    rng = np.random.default_rng(13)
    xs = [rng.normal(size=(2, 3)) for _ in range(3)]
    w = proj(rng, (2, 3, 3))
    check_grads(lambda *vs: ad.vsum(ad.stack(vs, axis=1) * w), xs)
    w2 = proj(rng, (2, 9))
    check_grads(lambda *vs: ad.vsum(ad.concat(vs, axis=-1) * w2), xs)


def test_nonlinearity_backward():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(2, 6))
    pos = rng.uniform(0.5, 3.0, size=(2, 6))
    w = proj(rng, (2, 6))
    for f in (ad.tanh, ad.sigmoid, ad.softplus):
        check_grads(lambda a, f=f: ad.vsum(f(a) * w), [x])
    check_grads(lambda a: ad.vsum(ad.log(a) * w), [pos])
    faraway = x + np.sign(x)  # keep clear of the relu kink
    check_grads(lambda a: ad.vsum(ad.relu(a) * w), [faraway])
    check_grads(lambda a: ad.vsum(ad.clip(a, -0.8, 0.8) * w),
                [x + 0.01 * np.sign(x)])


def test_sigmoid_extreme_inputs_finite():
    y = ad.sigmoid(np.array([-800.0, -40.0, 0.0, 40.0, 800.0])).data
    assert np.isfinite(y).all()
    assert y[0] == 0.0 and y[-1] == 1.0 and y[2] == 0.5


def masked_sigmoid(x):
    """Sigmoid evaluated on each sign's own branch through boolean masks."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_branch_free_sigmoid_is_bitwise_the_masked_form():
    rng = np.random.default_rng(27)
    x = np.concatenate([rng.normal(scale=s, size=250_000)
                        for s in (1.0, 10.0, 100.0, 1000.0)])
    assert np.array_equal(ad._sigmoid(x), masked_sigmoid(x))
    edges = np.array([0.0, -0.0, 1e-300, -1e-300, 708.0, -708.0, 710.0,
                      -710.0, -746.0, 1e308, -1e308, np.inf, -np.inf, np.nan])
    assert np.array_equal(ad._sigmoid(edges), masked_sigmoid(edges),
                          equal_nan=True)
    assert np.isnan(ad._sigmoid(edges)[-1])
    batch = rng.normal(scale=5.0, size=(4, 64, 16))
    assert np.array_equal(ad._sigmoid(batch), masked_sigmoid(batch))
    buf = np.empty_like(batch)
    assert ad._sigmoid(batch, out=buf) is buf
    assert np.array_equal(buf, masked_sigmoid(batch))


def test_no_grad_records_no_graph_and_restores_the_mode():
    a = ad.Var([1.0, -2.0])
    assert ad.grad_enabled()
    with ad.no_grad():
        assert not ad.grad_enabled()
        y = ad.vsum(ad.tanh(a * a + 1.0))
        with ad.no_grad():
            pass
        assert not ad.grad_enabled()
    assert ad.grad_enabled()
    assert y._parents == () and y._backward is None
    npt.assert_array_equal(y.data, np.tanh(np.array([2.0, 5.0])).sum())
    y2 = ad.vsum(ad.tanh(a * a + 1.0))
    assert y2._parents and y2._backward is not None
    with pytest.raises(RuntimeError, match="inside"):
        with ad.no_grad():
            raise RuntimeError("inside")
    assert ad.grad_enabled()
    y2.backward()
    npt.assert_allclose(a.grad, 2 * a.data * (1 - np.tanh(a.data ** 2 + 1) ** 2))


def test_clip_clamps_and_blocks_gradient_outside():
    x = ad.Var([-2.0, 0.3, 2.0])
    y = ad.clip(x, -1.0, 1.0)
    npt.assert_array_equal(y.data, [-1.0, 0.3, 1.0])
    ad.vsum(y).backward()
    npt.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


def test_backward_requires_scalar_root():
    with pytest.raises(ValueError, match="scalar"):
        ad.Var([1.0, 2.0]).backward()


def test_gradients_accumulate_additively():
    x = ad.Var(2.0)
    y = x * 3.0
    y.backward()
    (x * 5.0).backward()
    assert float(x.grad) == 8.0


def test_reused_node_gets_both_contributions():
    x = ad.Var(3.0)
    y = x * x  # dy/dx = 2x
    y.backward()
    assert float(x.grad) == 6.0


# -- first-write gradient buffers ---------------------------------------------


def zero_then_add(self, g):
    """The accumulation the first-write buffers must reproduce."""
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += g


def aliasing_graphs(rng):
    """Graphs where one gradient array reaches two parents, and both parents
    receive more gradient afterwards.  Each returns (loss, nodes to check)."""
    w = rng.normal(size=(3, 4))

    def x_plus_x():
        x = ad.Var(rng.normal(size=(3, 4)))
        y = x * 1.5                       # a non-leaf node that add feeds twice
        s = y + y
        return ad.vsum(s * w) + ad.vsum(y * y), [x, y, s]

    def reused_parents():
        a = ad.Var(rng.normal(size=(3, 4)))
        b = ad.Var(rng.normal(size=(3, 4)))
        y = a + b
        return ad.vsum(y * w) + ad.vsum(a * a) + ad.vsum(ad.tanh(b) * w), [a, b]

    def vsum_into_add():
        a = ad.Var(rng.normal(size=(3, 4)))
        s = ad.vsum(a, axis=0, keepdims=True) + ad.vsum(a * a, axis=0, keepdims=True)
        return ad.vsum(s * w[:1]) + ad.vsum(a * w), [a]

    return [x_plus_x, reused_parents, vsum_into_add]


@pytest.mark.parametrize("graph", range(3))
def test_first_write_gradients_equal_zero_then_add(monkeypatch, graph):
    def grads():
        loss, inputs = aliasing_graphs(np.random.default_rng(41))[graph]()
        loss.backward()
        return [v.grad.copy() for v in inputs]

    got = grads()
    monkeypatch.setattr(ad.Var, "_accumulate", zero_then_add)
    for g, w in zip(got, grads(), strict=True):
        assert np.array_equal(g, w)


def test_first_write_gradient_is_a_private_writable_copy():
    a, b = ad.Var(np.ones((2, 3))), ad.Var(np.ones((2, 3)))
    (a + b)._backward(np.ones((2, 3)))     # add hands one array to both parents
    assert not np.shares_memory(a.grad, b.grad)
    c = ad.Var(np.ones((2, 3)))
    ad.vsum(ad.vsum(c, axis=0) * np.array([1.0, 2.0, 3.0])).backward()
    assert c.grad.flags.writeable          # vsum hands on a read-only view
    npt.assert_array_equal(c.grad, [[1.0, 2.0, 3.0]] * 2)


# -- property tests: softmax and layer_norm gradients on random shapes --------

shapes = st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple)


def numeric_grad(f, x, h=1e-6):
    grad = np.empty_like(x)
    for idx in np.ndindex(x.shape):
        orig = x[idx]
        x[idx] = orig + h
        lp = f(x)
        x[idx] = orig - h
        lm = f(x)
        x[idx] = orig
        grad[idx] = (lp - lm) / (2 * h)
    return grad


def assert_grad_close(analytic, numeric):
    npt.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)


@settings(max_examples=60, deadline=None)
@given(shape=shapes, seed=st.integers(0, 2**32 - 1), masked=st.booleans())
def test_softmax_gradient_matches_central_differences(shape, seed, masked):
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=2.0, size=shape)
    w = rng.normal(size=shape)
    axis = int(rng.integers(-len(shape), len(shape)))
    mask = None
    if masked:
        mask = rng.random(shape) < 0.7
        first = [slice(None)] * len(shape)
        first[axis] = 0
        mask[tuple(first)] = True          # every slice keeps a position

    def loss(v):
        return ad.vsum(ad.softmax(v, mask=mask, axis=axis) * w)

    v = ad.Var(x.copy())
    loss(v).backward()
    assert_grad_close(v.grad, numeric_grad(lambda a: float(loss(ad.Var(a)).data), x))
    if mask is not None:
        npt.assert_array_equal(v.grad[~mask], 0.0)


@settings(max_examples=60, deadline=None)
@given(shape=shapes, seed=st.integers(0, 2**32 - 1))
def test_layer_norm_gradients_match_central_differences(shape, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    gain = rng.normal(size=shape[-1])
    bias = rng.normal(size=shape[-1])
    w = rng.normal(size=shape)
    arrays = [x, gain, bias]

    def loss(a, g, b):
        return ad.vsum(ad.layer_norm(a, g, b) * w)

    vs = [ad.Var(a.copy()) for a in arrays]
    loss(*vs).backward()
    for i, v in enumerate(vs):
        def f(a, i=i):
            args = [ad.Var(b) for b in arrays]
            args[i] = ad.Var(a)
            return float(loss(*args).data)
        assert_grad_close(v.grad, numeric_grad(f, arrays[i]))
