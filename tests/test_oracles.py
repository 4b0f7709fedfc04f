"""Reference pricers, cross-checked against each other and pinned values.

Pinned numbers were produced by the independent methods in this package at
high resolution; closed-form identities (parity, degenerate limits) hold to
near machine precision.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from derm_lab.errors import ContractError, DomainError
from derm_lab.markets import GbmParams, HestonParams, TimeMesh
from derm_lab.oracles import (american_put_fd, binomial_american, bs_call_price,
                              bs_put_price, heston_call_price, heston_call_quote,
                              heston_put_price, lsm_price)
from derm_lab.rng import derive_rng

# shared single-asset test market: the American put study case
PUT = dict(s0=40.0, strike=40.0, rate=0.06, sigma=0.4, maturity=1.0)


# ----------------------------------------------------------------------
# Black-Scholes


def test_bs_known_value():
    # checked against an independent high-precision evaluation
    assert bs_put_price(40.0, 40.0, 0.06, 0.4, 1.0) == pytest.approx(
        5.05962313, abs=1e-7)


@given(s0=st.floats(10.0, 200.0), strike=st.floats(10.0, 200.0),
       rate=st.floats(-0.05, 0.15), sigma=st.floats(0.01, 1.0),
       maturity=st.floats(0.05, 5.0), div=st.floats(0.0, 0.15))
def test_put_call_parity(s0, strike, rate, sigma, maturity, div):
    call = bs_call_price(s0, strike, rate, sigma, maturity, div)
    put = bs_put_price(s0, strike, rate, sigma, maturity, div)
    lhs = call - put
    rhs = s0 * np.exp(-div * maturity) - strike * np.exp(-rate * maturity)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, s0, strike)


def test_bs_zero_maturity_is_intrinsic():
    assert bs_call_price(110.0, 100.0, 0.05, 0.2, 0.0) == 10.0
    assert bs_put_price(90.0, 100.0, 0.05, 0.2, 0.0) == 10.0


def test_bs_input_validation():
    with pytest.raises(DomainError):
        bs_call_price(-1.0, 100.0, 0.05, 0.2, 1.0)
    with pytest.raises(DomainError):
        bs_put_price(100.0, 100.0, 0.05, -0.2, 1.0)


# ----------------------------------------------------------------------
# binomial lattice


def test_binomial_american_put_pin():
    # 16000-step CRR value, frozen as a regression reference
    got = binomial_american(**PUT, n_steps=16000, kind="put")
    assert got == pytest.approx(5.318248, abs=2e-5)


def test_binomial_american_at_least_european():
    am = binomial_american(**PUT, n_steps=2000, kind="put")
    eu = bs_put_price(40.0, 40.0, 0.06, 0.4, 1.0)
    assert am > eu


def test_binomial_call_no_dividends_is_european():
    am = binomial_american(100.0, 100.0, 0.05, 0.2, 1.0, n_steps=4000, kind="call")
    eu = bs_call_price(100.0, 100.0, 0.05, 0.2, 1.0)
    assert am == pytest.approx(eu, abs=2e-3)


# ----------------------------------------------------------------------
# finite differences


def test_fd_american_put_pin():
    sol = american_put_fd(**PUT, n_space=500, n_time=800)
    assert sol.price == pytest.approx(5.318444, abs=5e-6)


def test_fd_matches_binomial():
    fd = american_put_fd(**PUT, n_space=500, n_time=800).price
    bino = binomial_american(**PUT, n_steps=16000, kind="put")
    assert abs(fd - bino) < 5e-4


def test_fd_bermudan_pin_geometric_dates():
    mesh = TimeMesh.geometric(1.0, 50, shrink=0.05)
    sol = american_put_fd(**PUT, n_space=500, n_time=800,
                          exercise_times=mesh.times[1:])
    assert sol.price == pytest.approx(5.311497, abs=1e-4)
    # Bermudan with fewer dates is worth no more than the American
    assert sol.price <= 5.318444 + 1e-6


def test_fd_boundary_shape():
    sol = american_put_fd(**PUT, n_space=400, n_time=400)
    assert sol.boundary_times[0] < sol.boundary_times[-1]
    levels = sol.boundary_levels
    assert np.all(levels <= 40.0)  # hits the strike exactly at maturity
    assert np.all(levels > 20.0)
    assert levels[np.argmin(sol.boundary_times)] < 35.0
    # boundary rises toward the strike at maturity
    assert sol.boundary_at(0.99) > sol.boundary_at(0.3)


def test_fd_value_curve_sane():
    sol = american_put_fd(**PUT, n_space=400, n_time=400)
    # price_at interpolates linearly in s, the solver in log s: they agree
    # to grid-resolution accuracy only
    assert sol.price_at(40.0) == pytest.approx(sol.price, abs=2e-3)
    v = sol.price_at(np.array([20.0, 40.0, 80.0]))
    assert v[0] > v[1] > v[2]
    assert v[0] >= 20.0 - 1e-9  # deep ITM: at least intrinsic
    with pytest.raises(ContractError):
        american_put_fd(**PUT, n_space=10, n_time=800)


# ----------------------------------------------------------------------
# Heston transform pricing


TABLE3 = HestonParams(s0=100.0, v0=0.04, mu=0.0, kappa=0.9, theta=0.04,
                      sigma_vol=0.2, rho=0.0, lam=0.0, rate=0.0)


def test_heston_study_quotes():
    # strike -> reference value computed from this transform method at high
    # quadrature resolution and cross-checked by Monte Carlo
    refs = {90.0: 10.076508, 100.0: 2.295405, 110.0: 0.128136}
    for strike, ref in refs.items():
        quote = heston_call_quote(TABLE3, strike, 1.0 / 12.0)
        assert quote.price == pytest.approx(ref, abs=1e-4)
        assert quote.error_estimate < 1e-5


def test_heston_parity():
    call = heston_call_price(TABLE3, 100.0, 0.5)
    put = heston_put_price(TABLE3, 100.0, 0.5)
    assert call - put == pytest.approx(100.0 - 100.0 * np.exp(0.0), abs=1e-8)


def test_heston_degenerate_is_black_scholes():
    p = HestonParams(s0=100.0, v0=0.04, mu=0.0, kappa=0.9, theta=0.04,
                     sigma_vol=0.0, rate=0.02)
    got = heston_call_price(p, 100.0, 1.0)
    want = bs_call_price(100.0, 100.0, 0.02, 0.2, 1.0)
    assert got == pytest.approx(want, abs=1e-8)


def test_heston_jump_intensity_folding():
    # lam folds into kappa_eff/theta_eff; passing the folded parameters
    # explicitly with lam=0 must give the same price
    p = HestonParams(s0=100.0, v0=0.04, mu=0.0, kappa=0.9, theta=0.04,
                     sigma_vol=0.2, lam=0.3)
    q = HestonParams(s0=100.0, v0=0.04, mu=0.0, kappa=p.kappa_eff,
                     theta=p.theta_eff, sigma_vol=0.2, lam=0.0)
    a = heston_call_price(p, 100.0, 0.5)
    b = heston_call_price(q, 100.0, 0.5)
    assert a == pytest.approx(b, abs=1e-10)


def test_heston_quadrature_refinement_converged():
    base = heston_call_price(TABLE3, 100.0, 1.0 / 12.0)
    fine = heston_call_price(TABLE3, 100.0, 1.0 / 12.0, u_max=400.0, limit=400)
    assert abs(base - fine) < 1e-7


# ----------------------------------------------------------------------
# Longstaff-Schwartz


def test_lsm_single_date_equals_plain_mc():
    # with only one exercise date there is nothing to regress: the price
    # must equal the discounted payoff mean of the pricing half
    params = GbmParams(s0=[90.0, 90.0], rate=0.05, sigma=0.2, div=0.1)
    mesh = TimeMesh.uniform(3.0, 1)
    res = lsm_price(params, 100.0, mesh, 4096, derive_rng(0, "lsm1"),
                    payoff_kind="max_call")
    from derm_lab.markets import simulate_gbm
    batch = simulate_gbm(params, mesh, 4096, derive_rng(0, "lsm1"))
    payoff = np.maximum(batch.prices[:, -1, :].max(axis=1) - 100.0, 0.0)
    want = float(np.exp(-0.05 * 3.0) * payoff[2048:].mean())
    assert res.price == pytest.approx(want, abs=1e-12)


def test_lsm_max_call_study_value():
    params = GbmParams(s0=[90.0, 90.0], rate=0.05, sigma=0.2, div=0.1)
    mesh = TimeMesh.uniform(3.0, 9)
    res = lsm_price(params, 100.0, mesh, 1 << 17, derive_rng(1, "lsm"),
                    payoff_kind="max_call")
    # true value about 8.07; the out-of-sample LSM rule is a lower bound
    assert 7.95 < res.price < 8.12
    assert res.std_error < 0.05
    assert res.n_pricing_paths == (1 << 16)


def test_lsm_put_near_fd():
    params = GbmParams(s0=40.0, rate=0.06, sigma=0.4)
    mesh = TimeMesh.geometric(1.0, 50, shrink=0.05)
    res = lsm_price(params, 40.0, mesh, 1 << 16, derive_rng(2, "lsmp"),
                    payoff_kind="put")
    assert abs(res.price - 5.3115) < 0.05


def test_lsm_validation():
    params = GbmParams(s0=40.0, rate=0.06, sigma=0.4)
    mesh = TimeMesh.uniform(1.0, 4)
    with pytest.raises(ContractError):
        lsm_price(params, 40.0, mesh, 100, derive_rng(0), payoff_kind="put")
    with pytest.raises(ContractError):
        lsm_price(params, 40.0, mesh, 4096, derive_rng(0), payoff_kind="put",
                  degree=0)
