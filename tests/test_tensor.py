"""Autodiff correctness.

Every operation is checked against central finite differences through
gradcheck; the documented subgradient conventions (relu at 0, clip at the
interval edges) are pinned exactly so training behaviour cannot drift.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from derm_lab.errors import ContractError, DimensionError, DomainError
from derm_lab.nn import Tensor, as_tensor, gradcheck

TOL = 1e-5


def _rand(rng, *shape):
    return Tensor(rng.uniform(0.2, 1.5, shape), requires_grad=True)


def test_gradcheck_arithmetic_chain():
    rng = np.random.default_rng(0)
    a, b = _rand(rng, 3, 4), _rand(rng, 3, 4)

    def fn(ts):
        x, y = ts
        return ((x * y + x / y - y) ** 2.0).sum()

    assert gradcheck(fn, [a, b]) < TOL


def test_gradcheck_matmul_and_bias_broadcast():
    rng = np.random.default_rng(1)
    w = _rand(rng, 4, 3)
    b = _rand(rng, 3)
    x = rng.normal(size=(5, 4))

    def fn(ts):
        return ((as_tensor(x) @ ts[0] + ts[1]) ** 2.0).mean()

    assert gradcheck(fn, [w, b]) < TOL


@pytest.mark.parametrize("op", ["exp", "log", "sqrt", "tanh", "sigmoid", "relu"])
def test_gradcheck_elementwise(op):
    rng = np.random.default_rng(2)
    a = _rand(rng, 6)

    def fn(ts):
        return getattr(ts[0], op)().sum()

    assert gradcheck(fn, [a]) < TOL


def test_gradcheck_reductions_and_shape_ops():
    rng = np.random.default_rng(3)
    a = _rand(rng, 2, 6)

    def fn(ts):
        t = ts[0].reshape(3, 4)
        return (t.mean(axis=0) * t.sum(axis=1).mean()).sum()

    assert gradcheck(fn, [a]) < TOL


def test_gradcheck_getitem_scatter():
    rng = np.random.default_rng(4)
    a = _rand(rng, 5, 3)

    def fn(ts):
        return (ts[0][1:4] * 2.0).sum() + ts[0][0].sum()

    assert gradcheck(fn, [a]) < TOL


def test_gradcheck_clip_interior():
    a = Tensor([0.3, -0.2, 0.8], requires_grad=True)

    def fn(ts):
        return ts[0].clip(-1.0, 1.0).sum()

    assert gradcheck(fn, [a]) < TOL


@given(st.integers(0, 2 ** 31 - 1))
def test_gradcheck_random_two_layer_net(seed):
    rng = np.random.default_rng(seed)
    w1 = Tensor(rng.normal(0, 0.7, (3, 5)), requires_grad=True)
    w2 = Tensor(rng.normal(0, 0.7, (5, 1)), requires_grad=True)
    x = rng.normal(size=(4, 3))

    def fn(ts):
        h = (as_tensor(x) @ ts[0]).tanh()
        return ((h @ ts[1]) ** 2.0).mean()

    assert gradcheck(fn, [w1, w2]) < TOL


def test_broadcast_gradient_shapes():
    a = Tensor(np.ones((4, 3)), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    c = Tensor(np.ones((4, 1)), requires_grad=True)
    ((a + b) * c).sum().backward()
    assert a.grad.shape == (4, 3)
    assert b.grad.shape == (3,)
    assert c.grad.shape == (4, 1)
    assert np.array_equal(b.grad, np.full(3, 4.0))
    # d/dc_i = sum_j (a_ij + b_j) = 3 columns * (1 + 1) = 6
    assert np.array_equal(c.grad, np.full((4, 1), 6.0))


def test_relu_subgradient_at_zero_is_zero():
    a = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
    a.relu().sum().backward()
    assert np.array_equal(a.grad, [0.0, 0.0, 1.0])


def test_clip_gradient_blocked_at_edges():
    a = Tensor([-1.0, -0.5, 1.0, 0.5], requires_grad=True)
    a.clip(-1.0, 1.0).sum().backward()
    assert np.array_equal(a.grad, [0.0, 1.0, 0.0, 1.0])


def test_grad_accumulates_until_zeroed():
    a = Tensor([2.0], requires_grad=True)
    (a * 3.0).sum().backward()
    (a * 3.0).sum().backward()
    assert np.array_equal(a.grad, [6.0])
    a.zero_grad()
    assert a.grad is None


def test_backward_requires_scalar():
    a = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        (a * 2.0).backward()


def test_backward_requires_graph():
    with pytest.raises(ContractError):
        Tensor([1.0]).backward()


def test_matmul_shape_errors():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    with pytest.raises(DimensionError):
        a @ Tensor(np.ones((4, 2)))
    with pytest.raises(DimensionError):
        a @ Tensor(np.ones(3))


def test_log_domain_error():
    with pytest.raises(DomainError):
        Tensor([1.0, -2.0]).log()


def test_pow_scalar_only():
    a = Tensor([1.0], requires_grad=True)
    with pytest.raises(ContractError):
        a ** Tensor([2.0])


def test_float_conversion():
    assert float(Tensor([3.5])) == 3.5
    with pytest.raises(ContractError):
        float(Tensor([1.0, 2.0]))


@pytest.mark.parametrize("shape", [(), (1, 1)])
def test_float_conversion_any_size1_shape(shape):
    value = float(Tensor(np.full(shape, 3.5)))
    assert type(value) is float and value == 3.5


@pytest.mark.parametrize("shape", [(1,), (1, 1)])
def test_gradcheck_size1_loss_matches_0d_loss(shape):
    rng = np.random.default_rng(5)
    a = _rand(rng, 3, 2)

    def fn_0d(ts):
        return (ts[0].tanh() * ts[0]).sum()

    def fn_size1(ts):
        return fn_0d(ts).reshape(shape)

    err_0d = gradcheck(fn_0d, [a])
    assert gradcheck(fn_size1, [a]) == err_0d
    assert err_0d < TOL


def test_reflected_operators_with_ndarray():
    a = Tensor(np.ones(3), requires_grad=True)
    out = np.full(3, 2.0) * a + np.ones(3)
    assert isinstance(out, Tensor)
    out.sum().backward()
    assert np.array_equal(a.grad, np.full(3, 2.0))


def test_graph_pruning_skips_constant_parents():
    a = Tensor([1.0])  # no grad required
    b = Tensor([2.0], requires_grad=True)
    out = (a * b).sum()
    out.backward()
    assert a.grad is None
    assert np.array_equal(b.grad, [1.0])


def test_deep_chain_does_not_hit_recursion_limit():
    a = Tensor([1.0], requires_grad=True)
    h = a
    for _ in range(5000):
        h = h * 1.0001
    h.sum().backward()
    assert a.grad is not None and np.isfinite(a.grad).all()


# ----------------------------------------------------------------------
# fused linear node and graph lifetime


@pytest.mark.parametrize("x_needs_grad", [True, False])
@pytest.mark.parametrize("rows", [2, 7])
def test_gradcheck_linear(x_needs_grad, rows):
    rng = np.random.default_rng(20)
    x = Tensor(rng.normal(size=(rows, 4)), requires_grad=x_needs_grad)
    w, b = _rand(rng, 4, 3), _rand(rng, 3)
    tensors = [w, b, x] if x_needs_grad else [w, b]

    def fn(ts):
        return (x.linear(w, b) ** 2.0).mean()

    assert gradcheck(fn, tensors) < TOL
    if not x_needs_grad:
        assert x.grad is None


def test_linear_matches_composed_ops():
    rng = np.random.default_rng(21)
    x = _rand(rng, 6, 4)
    w, b = _rand(rng, 4, 3), _rand(rng, 3)
    fused = x.linear(w, b)
    composed = x @ w + b
    assert np.array_equal(fused.data, composed.data)
    g = rng.normal(size=(6, 3))
    grads = []
    for out in (fused, composed):
        for t in (x, w, b):
            t.zero_grad()
        (out * g).sum().backward()
        grads.append([t.grad.copy() for t in (x, w, b)])
    for got, want in zip(*grads):
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)


def test_linear_shape_errors():
    x = Tensor(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        x.linear(np.ones((4, 2)), np.zeros(2))
    with pytest.raises(DimensionError):
        x.linear(np.ones((3, 2)), np.zeros(3))
    with pytest.raises(DimensionError):
        Tensor(np.ones(3)).linear(np.ones((3, 2)), np.zeros(2))


def test_gradient_buffers_never_alias():
    a = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([3.0, -4.0]), requires_grad=True)
    y = a + b  # passes its own gradient down: the parents must copy it
    z = y.relu()  # a fresh array: y may keep it
    (z * 2.0).sum().backward()
    buffers = [a.grad, b.grad, y.grad, z.grad]
    for i, u in enumerate(buffers):
        for v in buffers[i + 1:]:
            assert not np.shares_memory(u, v)
    assert np.array_equal(a.grad, [2.0, 0.0])
