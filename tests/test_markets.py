"""Meshes, model parameter validation, and the two simulators.

The money tests are distributional: discounted dividend-adjusted prices
must be martingales, the tilt must shift log drift by exactly its stated
amount, and the degenerate Heston model must reproduce GBM.
"""

import numpy as np
import pytest
from scipy import stats

from derm_lab.errors import ContractError, DimensionError, MeasureError, ModelError
from derm_lab.markets import (GbmParams, HestonParams, PathBatch, TimeMesh,
                              simulate_gbm, simulate_heston)
from derm_lab.rng import derive_rng


# ----------------------------------------------------------------------
# meshes


def test_uniform_mesh():
    mesh = TimeMesh.uniform(2.0, 4)
    assert np.allclose(mesh.times, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert mesh.maturity == 2.0
    assert mesh.n_steps == 4
    assert np.allclose(mesh.dt, 0.5)


def test_geometric_mesh_refines_toward_maturity():
    mesh = TimeMesh.geometric(1.0, 50, shrink=0.05)
    dt = mesh.dt
    assert mesh.times[0] == 0.0
    assert mesh.times[-1] == 1.0
    assert mesh.n_steps == 50
    assert np.all(np.diff(dt) < 0.0)  # strictly decreasing steps
    assert np.isclose(dt[-1] / dt[0], 0.05)


def test_geometric_mesh_shrink_one_is_uniform():
    a = TimeMesh.geometric(1.0, 10, shrink=1.0)
    b = TimeMesh.uniform(1.0, 10)
    assert np.allclose(a.times, b.times)


def test_mesh_validation():
    with pytest.raises(ContractError):
        TimeMesh(np.array([0.0]))
    with pytest.raises(ContractError):
        TimeMesh(np.array([0.1, 0.5]))
    with pytest.raises(ContractError):
        TimeMesh(np.array([0.0, 0.5, 0.5]))
    with pytest.raises(ContractError):
        TimeMesh.uniform(-1.0, 5)
    with pytest.raises(ContractError):
        TimeMesh.geometric(1.0, 5, shrink=0.0)


# ----------------------------------------------------------------------
# parameters


def test_gbm_params_broadcast_scalars():
    p = GbmParams(s0=[90.0, 95.0], rate=0.05, sigma=0.2, div=0.1)
    assert p.n_assets == 2
    assert np.array_equal(p.sigma, [0.2, 0.2])
    assert np.array_equal(p.div, [0.1, 0.1])
    assert np.array_equal(p.corr, np.eye(2))


def test_gbm_params_validation():
    with pytest.raises(ModelError):
        GbmParams(s0=-1.0, rate=0.0, sigma=0.2)
    with pytest.raises(ModelError):
        GbmParams(s0=1.0, rate=0.0, sigma=-0.2)
    with pytest.raises(DimensionError):
        GbmParams(s0=[1.0, 2.0], rate=0.0, sigma=0.2, corr=np.eye(3))
    with pytest.raises(ModelError):
        GbmParams(s0=[1.0, 2.0], rate=0.0, sigma=0.2,
                  corr=np.array([[1.0, 0.2], [0.3, 1.0]]))


def test_gbm_with_s0():
    p = GbmParams(s0=[90.0, 90.0], rate=0.05, sigma=0.2)
    q = p.with_s0(100.0)
    assert np.array_equal(q.s0, [100.0, 100.0])
    assert np.array_equal(p.s0, [90.0, 90.0])


def test_heston_params_validation_and_effective_values():
    p = HestonParams(s0=100.0, v0=0.04, mu=0.0, kappa=0.9, theta=0.04,
                     sigma_vol=0.2, lam=0.1)
    assert np.isclose(p.kappa_eff, 1.0)
    assert np.isclose(p.theta_eff, 0.9 * 0.04 / 1.0)
    assert p.feller_ok
    with pytest.raises(ModelError):
        HestonParams(s0=100.0, v0=0.04, mu=0.0, kappa=-0.1, theta=0.04, sigma_vol=0.2)
    with pytest.raises(ModelError):
        HestonParams(s0=100.0, v0=0.04, mu=0.0, kappa=0.9, theta=0.04,
                     sigma_vol=0.2, rho=-1.5)


# ----------------------------------------------------------------------
# path batches


def test_returns_are_simple_returns():
    prices = np.array([[[100.0], [110.0], [99.0]]])
    batch = PathBatch(prices=prices, mesh=TimeMesh.uniform(1.0, 2))
    assert np.allclose(batch.returns[0, 0, 0], 0.1)
    assert np.allclose(batch.returns[0, 1, 0], (99.0 - 110.0) / 110.0)


def test_prices_returns_round_trip():
    rng = np.random.default_rng(0)
    mesh = TimeMesh.uniform(1.0, 5)
    batch = simulate_gbm(GbmParams(s0=[50.0, 80.0], rate=0.02, sigma=0.3),
                         mesh, 64, rng)
    rebuilt = batch.prices[:, :1, :] * np.cumprod(1.0 + batch.returns, axis=1)
    assert np.allclose(rebuilt, batch.prices[:, 1:, :], rtol=1e-14)


def test_measure_tags():
    mesh = TimeMesh.uniform(1.0, 3)
    p = GbmParams(s0=100.0, rate=0.05, sigma=0.2)
    rn = simulate_gbm(p, mesh, 8, derive_rng(0, "a"))
    tilted = simulate_gbm(p, mesh, 8, derive_rng(0, "a"), drift_tilt=-0.014)
    assert not rn.tilted
    assert tilted.tilted and tilted.drift_tilt == -0.014
    rn.require_risk_neutral("test")
    with pytest.raises(MeasureError):
        tilted.require_risk_neutral("test")
    with pytest.raises(ContractError):
        PathBatch(prices=rn.prices, mesh=mesh, measure="risk-neutral",
                  drift_tilt=0.01)


# ----------------------------------------------------------------------
# GBM distribution


def test_gbm_martingale_property():
    # e^{-(r - q) t} S_t has constant expectation s0, checked at 3 MC SE
    mesh = TimeMesh.uniform(2.0, 8)
    p = GbmParams(s0=100.0, rate=0.05, sigma=0.3, div=0.02)
    batch = simulate_gbm(p, mesh, 1 << 16, derive_rng(1, "mart"))
    for k, t in enumerate(mesh.times):
        disc = np.exp(-(0.05 - 0.02) * t) * batch.prices[:, k, 0]
        se = disc.std(ddof=1) / np.sqrt(batch.n_paths)
        assert abs(disc.mean() - 100.0) < 3.0 * se + 1e-9


def test_gbm_log_moments():
    mesh = TimeMesh.uniform(1.0, 1)
    p = GbmParams(s0=100.0, rate=0.05, sigma=0.25, div=0.1)
    batch = simulate_gbm(p, mesh, 1 << 16, derive_rng(2, "mom"))
    logs = np.log(batch.prices[:, -1, 0] / 100.0)
    drift = 0.05 - 0.1 - 0.5 * 0.25 ** 2
    assert abs(logs.mean() - drift) < 3.0 * 0.25 / np.sqrt(batch.n_paths)
    assert abs(logs.std(ddof=1) - 0.25) < 0.005


def test_gbm_correlation_realised():
    corr = np.array([[1.0, 0.9], [0.9, 1.0]])
    p = GbmParams(s0=[100.0, 100.0], rate=0.0, sigma=0.2, corr=corr)
    batch = simulate_gbm(p, TimeMesh.uniform(1.0, 1), 1 << 15, derive_rng(3, "corr"))
    logs = np.log(batch.prices[:, -1, :] / 100.0)
    got = np.corrcoef(logs.T)[0, 1]
    assert abs(got - 0.9) < 0.01


def test_tilt_shifts_log_drift_exactly():
    # same generator seed: the tilted path is the risk-neutral path times
    # exp(tilt * t), asset by asset, path by path
    mesh = TimeMesh.geometric(1.0, 7, shrink=0.3)
    p = GbmParams(s0=[90.0, 110.0], rate=0.06, sigma=[0.2, 0.4])
    a = simulate_gbm(p, mesh, 32, derive_rng(4, "t"))
    b = simulate_gbm(p, mesh, 32, derive_rng(4, "t"), drift_tilt=-0.014)
    shift = np.log(b.prices) - np.log(a.prices)
    expect = -0.014 * mesh.times[None, :, None]
    assert np.allclose(shift, expect, atol=1e-12)


def test_gbm_zero_vol_is_deterministic():
    p = GbmParams(s0=100.0, rate=0.05, sigma=0.0)
    batch = simulate_gbm(p, TimeMesh.uniform(1.0, 4), 4, derive_rng(5, "z"))
    expect = 100.0 * np.exp(0.05 * np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    assert np.allclose(batch.prices[:, :, 0], expect[None, :])


def test_simulate_rejects_empty_batch():
    p = GbmParams(s0=100.0, rate=0.0, sigma=0.2)
    with pytest.raises(ContractError):
        simulate_gbm(p, TimeMesh.uniform(1.0, 2), 0, derive_rng(0))


# ----------------------------------------------------------------------
# Heston


def test_cir_variance_mean_reversion():
    # E[v_t] = theta + (v0 - theta) e^{-kappa t}; recover the variance from
    # realised squared log returns is noisy, so check the price-free part:
    # simulate with sigma_vol > 0 and compare terminal log-price variance
    # against the integrated expected variance at 3 SE
    p = HestonParams(s0=100.0, v0=0.09, mu=0.0, kappa=2.0, theta=0.04,
                     sigma_vol=0.3, rho=0.0)
    mesh = TimeMesh.uniform(1.0, 64)
    batch = simulate_heston(p, mesh, 1 << 15, derive_rng(6, "cir"))
    logs = np.log(batch.prices[:, -1, 0] / 100.0)
    t = mesh.times
    mean_v = 0.04 + (0.09 - 0.04) * np.exp(-2.0 * t)
    integrated = np.trapezoid(mean_v, t)
    # for rho=0, Var[log S_T] = E[int v dt] exactly
    sample_var = logs.var(ddof=1)
    se = sample_var * np.sqrt(2.0 / (batch.n_paths - 1))
    assert abs(sample_var - integrated) < 3.0 * se + 2e-3


def test_heston_degenerate_matches_gbm_distribution():
    # sigma_vol = 0 and v0 = theta freeze the variance: terminal log prices
    # must be distributed as GBM with sigma = sqrt(theta)
    hp = HestonParams(s0=100.0, v0=0.04, mu=0.01, kappa=0.9, theta=0.04,
                      sigma_vol=0.0, rho=0.0)
    mesh = TimeMesh.uniform(1.0, 22)
    h = simulate_heston(hp, mesh, 1 << 16, derive_rng(7, "ks"))
    g = simulate_gbm(GbmParams(s0=100.0, rate=0.01, sigma=0.2), mesh, 1 << 16,
                     derive_rng(8, "ks"))
    ks = stats.ks_2samp(np.log(h.prices[:, -1, 0]), np.log(g.prices[:, -1, 0]))
    assert ks.pvalue > 0.01


def test_heston_variance_stays_nonnegative_and_prices_finite():
    # violate Feller on purpose; full truncation must stay finite/positive
    p = HestonParams(s0=100.0, v0=0.001, mu=0.0, kappa=0.5, theta=0.01,
                     sigma_vol=1.0, rho=-0.7)
    with pytest.warns(UserWarning):
        batch = simulate_heston(p, TimeMesh.uniform(1.0, 50), 2048, derive_rng(9, "f"))
    assert np.all(np.isfinite(batch.prices))
    assert np.all(batch.prices > 0.0)


def test_heston_batch_is_risk_neutral_tagged():
    p = HestonParams(s0=100.0, v0=0.04, mu=0.0, kappa=0.9, theta=0.04, sigma_vol=0.2)
    batch = simulate_heston(p, TimeMesh.uniform(0.5, 11), 16, derive_rng(10, "m"))
    assert not batch.tilted
    assert batch.n_assets == 1


def test_heston_drift_off_the_rate_is_tilted():
    p = HestonParams(s0=100.0, v0=0.04, mu=0.07, kappa=0.9, theta=0.04,
                     sigma_vol=0.2, rate=0.02)
    batch = simulate_heston(p, TimeMesh.uniform(0.5, 11), 16, derive_rng(10, "m"))
    assert batch.tilted
    assert batch.drift_tilt == pytest.approx(0.05, abs=1e-15)
    with pytest.raises(MeasureError):
        batch.require_risk_neutral("test")
    same = HestonParams(s0=100.0, v0=0.04, mu=0.02, kappa=0.9, theta=0.04,
                        sigma_vol=0.2, rate=0.02)
    assert not simulate_heston(same, TimeMesh.uniform(0.5, 11), 16,
                               derive_rng(10, "m")).tilted
