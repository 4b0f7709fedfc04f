"""Feed-forward nets: forward-pass equivalences, batch-norm statistics,
the fused batch-norm node, graph lifetime and bit-exact JSON checkpoints."""

import gc
import weakref

import numpy as np
import pytest

from derm_lab.errors import ContractError, DimensionError
from derm_lab.hedging import HedgePolicy, HedgingSpec, _terminal_error_graph
from derm_lab.markets import HestonParams, TimeMesh, simulate_heston
from derm_lab.nn import ACTIVATIONS, MLP, Tensor, as_tensor, gradcheck
from derm_lab.nn.net import BatchNorm
from derm_lab.rng import derive_rng


def test_train_and_eval_forward_agree_without_batch_norm():
    rng = np.random.default_rng(0)
    net = MLP([3, 8, 8, 1], activation="tanh", rng=rng)
    x = rng.normal(size=(16, 3))
    assert np.allclose(net.forward(x).data, net.forward_eval(x), atol=0.0)


def test_batch_norm_train_statistics():
    rng = np.random.default_rng(1)
    bn = BatchNorm(4)
    x = Tensor(rng.normal(2.0, 3.0, (64, 4)))
    y = bn.forward(x, train=True).data
    # gamma=1, beta=0: output is exactly centred, scaled by the biased
    # batch std (up to the eps regulariser)
    assert np.allclose(y.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(y.std(axis=0), 1.0, atol=1e-4)


def test_batch_norm_running_update_uses_unbiased_variance():
    rng = np.random.default_rng(2)
    net = MLP([2, 3, 1], batch_norm=True, rng=rng)
    norm = net.norms[0]
    x = rng.normal(size=(32, 2))
    pre = x @ net.weights[0].data + net.biases[0].data
    net.forward(x, train=True)
    m = pre.shape[0]
    assert np.allclose(norm.running_mean, 0.1 * pre.mean(axis=0))
    assert np.allclose(norm.running_var,
                       0.9 * 1.0 + 0.1 * pre.var(axis=0) * m / (m - 1))


def test_batch_norm_eval_uses_running_statistics():
    rng = np.random.default_rng(3)
    net = MLP([2, 4, 1], batch_norm=True, rng=rng)
    x = rng.normal(size=(32, 2))
    net.forward(x, train=True)
    y_eval = net.forward_eval(x)
    y_train = net.forward(x, train=True).data
    assert not np.allclose(y_eval, y_train)


def test_gradients_flow_through_batch_norm():
    rng = np.random.default_rng(4)
    net = MLP([2, 4, 1], activation="tanh", batch_norm=True, rng=rng)
    x = rng.normal(size=(8, 2))

    def fn(params):
        return (net.forward(x, train=True) ** 2.0).mean()

    assert gradcheck(fn, net.parameters()) < 1e-5


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    net = MLP([3, 8, 2], activation="relu", batch_norm=True, rng=rng)
    net.forward(rng.normal(size=(16, 3)), train=True)  # move running stats
    path = tmp_path / "net.json"
    net.save(path)
    clone = MLP.load(path)
    x = rng.normal(size=(4, 3))
    assert np.array_equal(net.forward_eval(x), clone.forward_eval(x))
    assert np.array_equal(net.param_vector(), clone.param_vector())


def test_param_vector_round_trip():
    net = MLP([2, 4, 1], rng=np.random.default_rng(6))
    vec = net.param_vector()
    net.set_param_vector(np.zeros_like(vec))
    assert np.array_equal(net.param_vector(), np.zeros_like(vec))
    net.set_param_vector(vec)
    assert np.array_equal(net.param_vector(), vec)
    with pytest.raises(DimensionError):
        net.set_param_vector(vec[:-1])


def test_same_rng_same_init():
    a = MLP([3, 5, 1], rng=np.random.default_rng(7))
    b = MLP([3, 5, 1], rng=np.random.default_rng(7))
    assert np.array_equal(a.param_vector(), b.param_vector())


def test_input_validation():
    net = MLP([3, 4, 1])
    with pytest.raises(DimensionError):
        net.forward_eval(np.ones((5, 2)))
    with pytest.raises(DimensionError):
        net.forward_eval(np.ones(3))
    with pytest.raises(ContractError):
        MLP([3])
    with pytest.raises(ContractError):
        MLP([3, 4, 1], activation="softplus")
    with pytest.raises(ContractError):
        MLP([3, 4, 4, 1], batch_norm=[True])


def test_per_layer_batch_norm_flags():
    net = MLP([3, 4, 5, 1], batch_norm=[True, False])
    assert net.norms[0] is not None
    assert net.norms[1] is None
    assert net.norms[2] is None  # output layer never normalised


# ----------------------------------------------------------------------
# the fused batch-norm node


def _batch_norm(rng, width):
    bn = BatchNorm(width)
    bn.gamma.data = rng.uniform(0.5, 1.5, width)
    bn.beta.data = rng.normal(size=width)
    bn.running_mean = rng.normal(size=width)
    bn.running_var = rng.uniform(0.5, 2.0, width)
    return bn


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("x_needs_grad", [True, False])
@pytest.mark.parametrize("rows", [2, 9])
def test_gradcheck_batch_norm_node(train, x_needs_grad, rows):
    rng = np.random.default_rng(30)
    bn = _batch_norm(rng, 3)
    x = Tensor(rng.normal(size=(rows, 3)), requires_grad=x_needs_grad)
    weights = rng.normal(size=(rows, 3))
    tensors = [bn.gamma, bn.beta] + ([x] if x_needs_grad else [])

    def fn(ts):
        return (bn.forward(x, train) * weights).tanh().sum()

    assert gradcheck(fn, tensors) < 1e-5
    if not x_needs_grad:
        assert x.grad is None


def test_batch_norm_eval_node_matches_forward_eval():
    rng = np.random.default_rng(31)
    bn = _batch_norm(rng, 4)
    x = rng.normal(size=(10, 4))
    running = (bn.running_mean.copy(), bn.running_var.copy())
    assert np.allclose(bn.forward(Tensor(x), train=False).data, bn.forward_eval(x),
                       rtol=1e-15, atol=1e-15)
    # eval mode leaves the running statistics alone
    assert np.array_equal(bn.running_mean, running[0])
    assert np.array_equal(bn.running_var, running[1])


def _composed_forward(net, x, train=False):
    """MLP.forward as it was built from composed ops: affine as matmul
    plus broadcast add, batch norm as about ten elementwise nodes, and an
    inline eval-mode copy of batch norm."""
    h = as_tensor(x)
    act = ACTIVATIONS[net.activation][0]
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w + b
        if i < last:
            norm = net.norms[i]
            if norm is not None and train:
                mu = h.mean(axis=0)
                centered = h - mu
                var = (centered * centered).mean(axis=0)
                h = centered * ((var + norm.eps) ** -0.5) * norm.gamma + norm.beta
                m = x.shape[0]
                unbiased = var.data * (m / (m - 1.0)) if m > 1 else var.data
                k = norm.momentum
                norm.running_mean = (1.0 - k) * norm.running_mean + k * mu.data
                norm.running_var = (1.0 - k) * norm.running_var + k * unbiased
            elif norm is not None:
                h = (h - norm.running_mean) \
                    * (1.0 / np.sqrt(norm.running_var + norm.eps)) \
                    * norm.gamma + norm.beta
            h = act(h)
    return h


def _hedge_step(policy, batch, spec, forward, monkeypatch):
    """Loss, parameter gradients and running statistics after one hedge
    step at the paper batch, with MLP.forward replaced by forward."""
    monkeypatch.setattr(MLP, "forward", forward)
    price = Tensor(np.array([2.0]), requires_grad=True)
    params = policy.net.parameters() + [price]
    loss = _terminal_error_graph(policy, price, batch, spec)
    loss.backward()
    stats = [a for norm in policy.net.norms if norm is not None
             for a in (norm.running_mean, norm.running_var)]
    return float(loss), [p.grad for p in params], stats


def test_fused_hedge_step_matches_composed_graph(monkeypatch):
    market = HestonParams(s0=100.0, v0=0.04, mu=0.0, kappa=0.9, theta=0.04,
                          sigma_vol=0.2, rho=0.0, lam=0.0, rate=0.0)
    mesh = TimeMesh.uniform(1.0 / 12.0, 22)
    spec = HedgingSpec(market=market, strike=100.0, mesh=mesh)
    policy = HedgePolicy.create(spec, hidden=(20, 20), rng=derive_rng(32, "init"))
    batch = simulate_heston(market, mesh, 512, derive_rng(32, "batch"))
    twin = HedgePolicy(net=MLP.from_dict(policy.net.to_dict()), inputs=policy.inputs,
                       s0=policy.s0, maturity=policy.maturity)
    fused = MLP.forward
    want = _hedge_step(twin, batch, spec, _composed_forward, monkeypatch)
    got = _hedge_step(policy, batch, spec, fused, monkeypatch)
    assert MLP.forward is fused
    assert got[0] == pytest.approx(want[0], rel=1e-12)
    # relative to the largest gradient entry: the bias feeding a batch norm
    # has gradient 0 in exact arithmetic, so both sides carry only rounding
    scale = max(np.max(np.abs(w)) for w in want[1])
    for g, w in zip(got[1], want[1]):
        assert np.max(np.abs(g - w)) <= 1e-12 * scale
    assert len(got[2]) == len(want[2]) == 4
    for g, w in zip(got[2], want[2]):
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


@pytest.mark.parametrize("train", [True, False])
def test_fused_forward_matches_composed_graph(train):
    rng = np.random.default_rng(33)
    net = MLP([3, 6, 5, 2], activation="tanh", batch_norm=[True, False], rng=rng)
    net.forward(rng.normal(size=(12, 3)), train=True)  # move the running statistics
    x = Tensor(rng.normal(size=(12, 3)), requires_grad=True)
    weights = rng.normal(size=(12, 2))
    results = []
    for forward in (_composed_forward, MLP.forward):
        for t in net.parameters() + [x]:
            t.zero_grad()
        loss = (forward(net, x, train) * weights).sum()
        loss.backward()
        results.append((float(loss), [t.grad.copy() for t in net.parameters() + [x]]))
    assert results[1][0] == pytest.approx(results[0][0], rel=1e-12)
    for g, w in zip(results[1][1], results[0][1]):
        assert np.allclose(g, w, rtol=1e-12, atol=1e-14)


# ----------------------------------------------------------------------
# graph lifetime


def test_mlp_loss_graph_is_freed_without_the_cyclic_collector():
    rng = np.random.default_rng(34)
    net = MLP([2, 6, 6, 1], batch_norm=True, rng=rng)
    x = rng.normal(size=(16, 2))
    gc.collect()
    gc.disable()
    try:
        out = net.forward(x, train=True)
        node = weakref.ref(out)
        loss = (out * out).mean()
        del out
        loss.backward()
        assert node() is not None  # the loss still holds its graph
        del loss
        assert node() is None
    finally:
        gc.enable()
