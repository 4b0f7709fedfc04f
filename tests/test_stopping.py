"""Relaxed stopping algebra, boundary rules, and their evaluators.

The core identities are exact: stopped mass sums to one, an indicator-
valued relaxation equals the sharp first-crossing value, and degenerate
boundaries (always stop, never stop) have closed-form prices.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from derm_lab.errors import ContractError, DimensionError, MeasureError
from derm_lab.markets import GbmParams, TimeMesh, simulate_gbm
from derm_lab.nn import MLP
from derm_lab.nn.tensor import Tensor, gradcheck
from derm_lab.nn.train import TrainConfig
from derm_lab.oracles import bs_put_price
from derm_lab import stopping
from derm_lab.rng import derive_rng
from derm_lab.stopping import (BoundaryNet, StoppingSpec, boundary_grid_rows,
                               evaluate_price, payoff_max_call, payoff_put,
                               sharp_evaluate, train_boundary, _first_crossing,
                               _per_date, _relaxed_value_graph, _relaxed_value_node,
                               _stop_weights)

PUT_MARKET = GbmParams(s0=40.0, rate=0.06, sigma=0.4)
PUT_MESH = TimeMesh.uniform(1.0, 10)


def put_spec(eps=2.0, g="linear"):
    return StoppingSpec(payoff_kind="put", strike=40.0, rate=0.06,
                        mesh=PUT_MESH, eps=eps, g_kind=g)


def put_boundary(rng_seed=0, **kwargs):
    return BoundaryNet.create("put", 1, 40.0, 1.0, hidden=(8, 8),
                              rng=derive_rng(rng_seed, "b"), **kwargs)


def pin_level(boundary, level):
    """Surgery: zero the last layer so the net outputs a constant level."""
    boundary.net.weights[-1].data[:] = 0.0
    boundary.net.biases[-1].data[:] = level / boundary.out_scale
    return boundary


# ----------------------------------------------------------------------
# payoffs and spec plumbing


def test_payoff_values():
    assert payoff_max_call(np.array([[90.0, 105.0]]), 100.0)[0] == 5.0
    assert payoff_max_call(np.array([[80.0, 90.0]]), 100.0)[0] == 0.0
    assert payoff_put(np.array([[35.0]]), 40.0)[0] == 5.0
    assert payoff_put(np.array([[45.0]]), 40.0)[0] == 0.0


def test_orientation_signs():
    assert put_spec().orientation == 1.0
    mc = StoppingSpec(payoff_kind="max_call", strike=100.0, rate=0.05,
                      mesh=TimeMesh.uniform(3.0, 9))
    assert mc.orientation == -1.0


def test_relaxation_profiles_hit_endpoints():
    for g in ("linear", "scaled-sigmoid"):
        spec = put_spec(g=g)
        x = np.array([-1.0, 0.0, 1.0])
        y = spec.g(x)
        assert y[0] == pytest.approx(0.0, abs=1e-12)
        assert y[1] == pytest.approx(0.5, abs=1e-12)
        assert y[2] == pytest.approx(1.0, abs=1e-12)
        fine = spec.g(np.linspace(-1.0, 1.0, 101))
        assert np.all(np.diff(fine) > 0.0)


def test_spec_validation_and_hash():
    with pytest.raises(ContractError):
        StoppingSpec(payoff_kind="chooser", strike=40.0, rate=0.06, mesh=PUT_MESH)
    with pytest.raises(ContractError):
        put_spec(eps=0.0)
    a, b = put_spec(), put_spec()
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != put_spec(eps=3.0).content_hash()


# ----------------------------------------------------------------------
# relaxed stopping algebra


def test_xi_recursion_example():
    # stopped mass before date k: xi_0 = 0, xi_{k+1} = xi_k + p_k (1 - xi_k);
    # a unit payoff at date k alone has relaxed value p_k (1 - xi_k)
    p = Tensor(np.array([[0.5], [0.5], [1.0]]))
    mass = [float(_relaxed_value_node(p, np.eye(3)[:, [k]])) for k in range(3)]
    xi = np.concatenate([[0.0], np.cumsum(mass)[:-1]])
    assert np.allclose(xi, [0.0, 0.5, 0.75], atol=1e-15)


@given(st.integers(0, 2 ** 32 - 1))
def test_stopping_mass_exhausts(seed):
    # with p_N = 1, sum_k p_k prod_{j<k} (1 - p_j) == 1 exactly: the relaxed
    # value of a unit payoff at every date is 1
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.0, 1.0, size=(6, 7))
    value = _relaxed_value_node(Tensor(p), np.ones((6, 7)))
    assert abs(float(value) - 1.0) < 1e-12


def test_fuzzy_probs_structure():
    batch = simulate_gbm(PUT_MARKET, PUT_MESH, 64, derive_rng(0, "f"))
    spec, boundary = put_spec(), put_boundary()
    phi = np.stack([boundary.level(t, batch.prices[:, k, :])
                    for k, t in enumerate(spec.mesh.times)])
    p = spec.stop_probs(phi, _per_date(spec.alpha, batch))
    assert p.shape == (11, 64)
    assert np.all((p >= 0.0) & (p <= 1.0))
    assert 0.0 < p.mean() < 1.0


def test_indicator_relaxation_equals_sharp_value():
    # putting the whole stopping mass at the first crossing reproduces the
    # sharp evaluator exactly, path by path
    spec = put_spec()
    boundary = put_boundary()
    batch = simulate_gbm(PUT_MARKET, PUT_MESH, 512, derive_rng(2, "s"))
    tau = _first_crossing(boundary, batch, spec)
    p = np.zeros((512, 11))
    p[np.arange(512), tau] = 1.0
    p[:, -1] = 1.0
    sharp = sharp_evaluate(boundary, batch, spec)
    value = _relaxed_value_node(Tensor(p.T), _stop_weights(batch, spec))
    assert float(value) == pytest.approx(sharp.price, abs=1e-12)


# ----------------------------------------------------------------------
# the fused relaxed-value node


def _direct_relaxed_value(p, w):
    """mean_paths sum_k p_k prod_{j<k} (1 - p_j) w_k, time-major, p_N = 1."""
    p = p.copy()
    p[-1] = 1.0
    surv = np.vstack([np.ones((1, p.shape[1])), np.cumprod(1.0 - p[:-1], axis=0)])
    return float((p * surv * w).sum(axis=0).mean())


def test_fused_node_gradcheck_with_saturated_probs():
    rng = np.random.default_rng(14)
    p = rng.uniform(0.0, 1.0, size=(6, 5))
    # exact 0 and 1 before maturity: the gap clips on both sides
    p[0, 0] = p[1, 1] = p[3, 4] = 0.0
    p[0, 1] = p[2, 2] = p[4, 3] = 1.0
    p[:5, 0] = 1.0  # a path whose mass is spent at once
    w = rng.uniform(0.0, 5.0, size=(6, 5))
    t = Tensor(p, requires_grad=True)
    value = _relaxed_value_node(t, w)
    assert float(value) == pytest.approx(_direct_relaxed_value(p, w), rel=1e-14)
    value.backward()
    assert np.all(np.isfinite(t.grad))
    assert np.all(t.grad[-1] == 0.0)  # p_N is pinned to 1, not read
    assert gradcheck(lambda ts: _relaxed_value_node(ts[0], w), [t]) < 1e-8


def _per_row_reference_graph(boundary, batch, spec):
    """The composed graph the fused node replaced: one net row per
    (date, path) and one chain of Tensor ops per date."""
    times = spec.mesh.times
    n1, m = times.size, batch.n_paths
    feats = np.concatenate([boundary.features(t, batch.prices[:, k, :])
                            for k, t in enumerate(times)])
    phi = (boundary.net.forward(feats, train=True) * boundary.out_scale).reshape(n1, m)
    alpha = np.stack([spec.alpha(batch.prices[:, k, :]) for k in range(n1)])
    disc = spec.discounts()
    weights = np.stack([disc[k] * spec.payoff(batch.prices[:, k, :]) for k in range(n1)])
    p2d = spec.g((((phi - alpha) * spec.orientation) * (1.0 / spec.eps)).clip(-1.0, 1.0))
    one_minus_xi = Tensor(np.ones(m))
    acc = None
    for k in range(n1):
        p_k = p2d[k] if k < n1 - 1 else Tensor(np.ones(m))
        term = p_k * one_minus_xi * weights[k]
        acc = term if acc is None else acc + term
        if k < n1 - 1:
            one_minus_xi = one_minus_xi * (1.0 - p_k)
    return acc.mean()


def _value_and_grads(graph, boundary, batch, spec):
    boundary.net.zero_grad()
    value = graph(boundary, batch, spec)
    value.backward()
    return float(value), [p.grad.copy() for p in boundary.net.parameters()]


@pytest.mark.parametrize("case", ["put-linear", "put-scaled-sigmoid", "max_call"])
def test_fused_graph_matches_per_row_reference(case):
    if case == "max_call":
        spec, boundary = maxcall_setup()
        market = GbmParams(s0=[90.0, 90.0], rate=0.05, sigma=0.2, div=0.1)
    else:
        spec, boundary, market = put_spec(g=case[4:]), put_boundary(), PUT_MARKET
    batch = simulate_gbm(market, spec.mesh, 256, derive_rng(13, "fused"))
    want, want_grads = _value_and_grads(_per_row_reference_graph, boundary, batch, spec)
    got, got_grads = _value_and_grads(_relaxed_value_graph, boundary, batch, spec)
    assert got == pytest.approx(want, rel=1e-12)
    for g, w in zip(got_grads, want_grads):
        scale = np.max(np.abs(w))
        assert scale > 0.0
        assert np.max(np.abs(g - w)) <= 1e-12 * scale


def test_relaxed_value_graph_is_freed_without_the_cyclic_collector():
    spec, boundary = maxcall_setup()
    market = GbmParams(s0=[90.0, 90.0], rate=0.05, sigma=0.2, div=0.1)
    batch = simulate_gbm(market, spec.mesh, 64, derive_rng(17, "gc"))
    gc.collect()
    gc.disable()
    try:
        value = _relaxed_value_graph(boundary, batch, spec)
        node = weakref.ref(value)
        loss = -value
        del value
        loss.backward()
        assert node() is not None  # the loss still holds its graph
        del loss
        assert node() is None
    finally:
        gc.enable()


def test_put_boundary_runs_one_row_per_date():
    boundary = put_boundary()
    assert boundary.time_only
    batch = simulate_gbm(PUT_MARKET, PUT_MESH, 64, derive_rng(15, "rows"))
    assert boundary.features_batch(batch).shape == (11, 1)
    s = batch.prices[:, 4, :]
    per_row = boundary.net.forward_eval(boundary.features(0.4, s))[:, 0] * boundary.out_scale
    assert np.array_equal(boundary.level(0.4, s), per_row)
    # per-path boundaries, and batch norm (its running variance counts
    # rows), keep one row per (date, path)
    spec, mc = maxcall_setup()
    assert not mc.time_only
    mc_batch = simulate_gbm(GbmParams(s0=[90.0, 90.0], rate=0.05, sigma=0.2),
                            spec.mesh, 64, derive_rng(15, "mc"))
    assert mc.features_batch(mc_batch).shape == (10 * 64, 3)
    bn = BoundaryNet(net=MLP([1, 4, 1], batch_norm=True), kind="put",
                     maturity=1.0, out_scale=40.0, n_assets=1)
    assert not bn.time_only
    assert bn.features_batch(batch).shape == (11 * 64, 1)


# ----------------------------------------------------------------------
# degenerate boundaries have known prices


def _per_path_first_crossing(boundary, batch, spec):
    """First crossing read off the full (date, path) gap matrix, with one
    net row per (date, path) and no blocks."""
    times = spec.mesh.times
    gaps = np.stack([
        spec.orientation * (boundary.net.forward_eval(boundary.features(t, s))[:, 0]
                            * boundary.out_scale - spec.alpha(s))
        for t, s in ((times[k], batch.prices[:, k, :]) for k in range(times.size - 1))])
    hit = gaps >= 0.0
    return np.where(hit.any(axis=0), hit.argmax(axis=0), times.size - 1)


@pytest.mark.parametrize("block", [None, 97])
@pytest.mark.parametrize("kind", ["put", "max_call"])
def test_blocked_first_crossing_matches_per_path_reference(kind, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(stopping, "_CROSSING_BLOCK", block)
    if kind == "put":
        spec, boundary, market = put_spec(), put_boundary(), PUT_MARKET
        assert boundary.time_only
    else:
        spec, boundary = maxcall_setup()
        market = GbmParams(s0=[110.0, 110.0], rate=0.05, sigma=0.2, div=0.1)
    m = 5000  # not a multiple of either block size
    batch = simulate_gbm(market, spec.mesh, m, derive_rng(16, "blocks"))
    tau = _first_crossing(boundary, batch, spec)
    want = _per_path_first_crossing(boundary, batch, spec)
    assert np.array_equal(tau, want)
    # the check means something: paths stop early, late and never
    n = spec.mesh.times.size - 1
    assert 0 < np.count_nonzero(tau < n) < m
    assert np.unique(tau[tau < n]).size > 2


def test_always_stop_put_pays_intrinsic():
    market = GbmParams(s0=35.0, rate=0.06, sigma=0.4)
    boundary = pin_level(put_boundary(), 1000.0)  # level far above any price
    batch = simulate_gbm(market, PUT_MESH, 256, derive_rng(3, "d"))
    est = sharp_evaluate(boundary, batch, put_spec())
    assert est.price == pytest.approx(5.0, abs=1e-12)
    assert est.std_error == pytest.approx(0.0, abs=1e-12)


def test_boundary_tie_stops():
    market = GbmParams(s0=35.0, rate=0.06, sigma=0.4)
    boundary = pin_level(put_boundary(), 35.0)  # exactly at the spot
    batch = simulate_gbm(market, PUT_MESH, 64, derive_rng(4, "d"))
    tau = _first_crossing(boundary, batch, put_spec())
    assert np.all(tau == 0)


def test_never_stop_put_is_european():
    boundary = pin_level(put_boundary(), -10.0)
    batch = simulate_gbm(PUT_MARKET, PUT_MESH, 1 << 16, derive_rng(5, "d"))
    est = sharp_evaluate(boundary, batch, put_spec())
    # never crossing means maturity payoff: the European put
    want = bs_put_price(40.0, 40.0, 0.06, 0.4, 1.0)
    assert abs(est.price - want) < 3.0 * est.std_error
    # and exactly the discounted terminal payoff mean of this batch
    terminal = np.exp(-0.06) * np.maximum(40.0 - batch.prices[:, -1, 0], 0.0)
    assert est.price == pytest.approx(terminal.mean(), abs=1e-12)


def test_always_stop_max_call_pays_initial_intrinsic():
    mesh = TimeMesh.uniform(3.0, 9)
    spec = StoppingSpec(payoff_kind="max_call", strike=100.0, rate=0.05, mesh=mesh)
    market = GbmParams(s0=[105.0, 95.0], rate=0.05, sigma=0.2, div=0.1)
    boundary = BoundaryNet.create("max_call", 2, 100.0, 3.0, hidden=(8, 8),
                                  rng=derive_rng(6, "d"))
    pin_level(boundary, 0.0)  # level 0: max(s) >= 0 everywhere, stop at once
    batch = simulate_gbm(market, mesh, 128, derive_rng(7, "d"))
    est = sharp_evaluate(boundary, batch, spec)
    assert est.price == pytest.approx(5.0, abs=1e-12)


def test_any_boundary_value_is_a_lower_bound():
    # 5.318444 is the fine-grid finite-difference American value
    boundary = put_boundary()  # untrained
    spec = put_spec()
    est = evaluate_price(boundary, PUT_MARKET, spec, n_paths=1 << 16, seed=11)
    assert est.price <= 5.318444 + 3.0 * est.std_error


def test_sharp_evaluate_rejects_tilted():
    batch = simulate_gbm(PUT_MARKET, PUT_MESH, 32, derive_rng(8, "d"),
                         drift_tilt=-0.014)
    with pytest.raises(MeasureError):
        sharp_evaluate(put_boundary(), batch, put_spec())


def test_evaluate_price_deterministic():
    boundary = put_boundary()
    spec = put_spec()
    a = evaluate_price(boundary, PUT_MARKET, spec, n_paths=5000, seed=9)
    b = evaluate_price(boundary, PUT_MARKET, spec, n_paths=5000, seed=9)
    c = evaluate_price(boundary, PUT_MARKET, spec, n_paths=5000, seed=10)
    assert (a.price, a.std_error) == (b.price, b.std_error)
    assert a.price != c.price
    assert a.n_paths == 5000


@pytest.mark.parametrize("s0", [35.3, 31.9])
@pytest.mark.parametrize("chunk_size", [1 << 17, 1000])
def test_evaluate_price_constant_payoff_has_no_error(s0, chunk_size):
    # always stop at t=0: every path pays K - s0, so the sample variance is 0
    market = GbmParams(s0=s0, rate=0.06, sigma=0.4)
    boundary = pin_level(put_boundary(), 1000.0)
    est = evaluate_price(boundary, market, put_spec(), n_paths=5000, seed=3,
                         chunk_size=chunk_size)
    assert est.price == pytest.approx(40.0 - s0, abs=1e-12)
    assert est.std_error <= 1e-15


def test_single_chunk_evaluate_price_is_sharp_evaluate():
    boundary, spec = put_boundary(), put_spec()
    est = evaluate_price(boundary, PUT_MARKET, spec, n_paths=3000, seed=21)
    batch = simulate_gbm(PUT_MARKET, spec.mesh, 3000, derive_rng(21, "eval", 0))
    assert est == sharp_evaluate(boundary, batch, spec)
    one = evaluate_price(boundary, PUT_MARKET, spec, n_paths=1, seed=21)
    assert np.isnan(one.std_error)


def test_chunked_evaluate_price_merges_moments():
    boundary, spec = put_boundary(), put_spec()
    est = evaluate_price(boundary, PUT_MARKET, spec, n_paths=3500, seed=22,
                         chunk_size=1000)
    values = []
    for i, m in enumerate((1000, 1000, 1000, 500)):
        batch = simulate_gbm(PUT_MARKET, spec.mesh, m, derive_rng(22, "eval", i))
        tau = _first_crossing(boundary, batch, spec)
        values.append(spec.discounts()[tau]
                      * spec.payoff(batch.prices[np.arange(m), tau, :]))
    values = np.concatenate(values)
    assert est.n_paths == 3500
    assert est.price == pytest.approx(values.mean(), rel=1e-13)
    assert est.std_error == pytest.approx(values.std(ddof=1) / np.sqrt(3500), rel=1e-12)


# ----------------------------------------------------------------------
# geometry checks


def maxcall_setup():
    mesh = TimeMesh.uniform(3.0, 9)
    spec = StoppingSpec(payoff_kind="max_call", strike=100.0, rate=0.05,
                        mesh=mesh, eps=5.0)
    boundary = BoundaryNet.create("max_call", 2, 100.0, 3.0, hidden=(8, 8),
                                  rng=derive_rng(12, "g"))
    return spec, boundary


def test_star_shape_holds_by_construction():
    # stop(t, s) implies stop(t, lambda s) for lambda >= 1: scaling moves
    # alpha = max(s) up and leaves the simplex coordinate s/max(s) alone
    spec, boundary = maxcall_setup()
    rng = derive_rng(0, "star")
    n_checked = 0
    for t in spec.mesh.times:
        s = spec.strike * np.exp(rng.normal(0.0, 0.35, size=(200, 2)))
        stopped = s[spec.orientation * (boundary.level(t, s) - spec.alpha(s)) >= 0.0]
        for lam in (1.5, 2.0, 10.0):
            scaled = lam * stopped
            gap = spec.orientation * (boundary.level(t, scaled) - spec.alpha(scaled))
            assert np.all(gap >= 0.0)
            n_checked += len(scaled)
    assert n_checked > 0


def test_boundary_grid_rows_shapes():
    spec, boundary = maxcall_setup()
    rows = boundary_grid_rows(boundary, spec, n_coord=5)
    # 10 dates x 2 axes x 5 coordinates
    assert len(rows) == 10 * 2 * 5
    assert all(len(r) == 4 for r in rows)
    put_rows = boundary_grid_rows(put_boundary(), put_spec())
    assert len(put_rows) == 11
    assert all(len(r) == 2 for r in put_rows)


def test_boundary_checkpoint_round_trip(tmp_path):
    spec, boundary = maxcall_setup()
    path = tmp_path / "b.json"
    boundary.save(path)
    again = BoundaryNet.load(path)
    s = np.array([[90.0, 100.0], [130.0, 80.0]])
    assert np.array_equal(boundary.level(1.0, s), again.level(1.0, s))


def test_boundary_create_validation():
    with pytest.raises(ContractError):
        BoundaryNet.create("chooser", 1, 40.0, 1.0)
    with pytest.raises(DimensionError):
        BoundaryNet.create("put", 2, 40.0, 1.0)


def test_put_features_are_time_only():
    b = put_boundary()
    f = b.features(0.5, np.array([[30.0], [50.0]]))
    assert f.shape == (2, 1)
    assert np.all(f == 0.5)


def test_max_call_features_normalised():
    spec, boundary = maxcall_setup()
    f = boundary.features(1.5, np.array([[90.0, 120.0]]))
    assert f.shape == (1, 3)
    assert f[0, 0] == 0.5
    assert np.allclose(f[0, 1:], [0.75, 1.0])


# ----------------------------------------------------------------------
# training smoke


def test_train_boundary_smoke_and_stats():
    spec = put_spec()
    boundary = put_boundary()
    before = boundary.level(0.5, np.array([[40.0]]))[0]
    config = TrainConfig(batch_size=64, iterations=25, learning_rate=1e-3, seed=0)
    report = train_boundary(spec, boundary, PUT_MARKET, config,
                            drift_tilt=-0.014, eps_final=1.0)
    assert report.iterations_run == 25
    assert report.stats["drift_tilt"] == -0.014
    assert report.stats["spec_hash"] == spec.content_hash()
    assert report.stats["eps_final"] == 1.0
    after = boundary.level(0.5, np.array([[40.0]]))[0]
    assert after != before  # parameters moved


def test_train_boundary_rejects_bad_eps_final():
    config = TrainConfig(batch_size=8, iterations=2)
    with pytest.raises(ContractError):
        train_boundary(put_spec(), put_boundary(), PUT_MARKET, config,
                       eps_final=-1.0)
