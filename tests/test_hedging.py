"""Wealth recursion, hedging objectives, and the learnable-price trainer.

The rollout identities here are arithmetic facts (translation by the
riskless growth factor, zero-policy wealth stays put) and pin down the
exact self-financing convention: X_{k+1} = (1+r dt) X_k + pi (Z - r dt)
with pi a dollar position.
"""

import numpy as np
import pytest
from scipy import stats as sps

from derm_lab.errors import ContractError, RolloutError
from derm_lab.experiments import _write_csv
from derm_lab.hedging import (HedgePolicy, HedgeOutcome, HedgingSpec,
                              hedge_trace_rows, train_price_and_hedge,
                              train_pure_hedge, wealth_rollout)
from derm_lab.markets import HestonParams, PathBatch, TimeMesh, simulate_heston
from derm_lab.nn.train import TrainConfig
from derm_lab.oracles import bs_call_price, heston_call_price
from derm_lab.rng import derive_rng

# the variance-swap style study market: zero rates, flat variance curve
MARKET = HestonParams(s0=100.0, v0=0.04, mu=0.0, kappa=0.9, theta=0.04,
                      sigma_vol=0.2, rho=0.0, lam=0.0, rate=0.0)
MESH = TimeMesh.uniform(1.0 / 12.0, 22)


def make_spec(**kwargs):
    defaults = dict(market=MARKET, strike=100.0, mesh=MESH,
                    x0_mode="learnable")
    defaults.update(kwargs)
    return HedgingSpec(**defaults)


def constant_policy(spec, value):
    """Surgery: zero every layer, then bias the output to a constant."""
    policy = HedgePolicy.create(spec, hidden=(4,), batch_norm=False,
                                rng=derive_rng(0, "p"))
    for w in policy.net.weights:
        w.data[:] = 0.0
    for b in policy.net.biases:
        b.data[:] = 0.0
    policy.net.biases[-1].data[:] = value
    return policy


def heston_batch(n_paths, seed, market=MARKET, mesh=MESH):
    return simulate_heston(market, mesh, n_paths, derive_rng(seed, "paths"))


# ----------------------------------------------------------------------
# spec plumbing


def test_spec_validation():
    with pytest.raises(ContractError):
        make_spec(strike=-5.0)
    with pytest.raises(ContractError):
        make_spec(x0_mode="fixed")  # needs x0
    with pytest.raises(ContractError):
        make_spec(x0_mode="floating")
    with pytest.raises(ContractError):
        make_spec(policy_inputs="t_only")
    spec = make_spec()
    assert spec.rate == 0.0
    assert np.array_equal(spec.payoff(np.array([90.0, 105.0])), [0.0, 5.0])


def test_feature_encodings():
    spec = make_spec()
    pol = HedgePolicy.create(spec, rng=derive_rng(1, "p"))
    f = pol.features(MESH.times[11], np.array([110.0]), np.array([3.0]),
                     np.array([0.01]))
    assert f.shape == (1, 2)
    assert f[0, 0] == pytest.approx(0.5)
    assert f[0, 1] == pytest.approx(1.1)
    spec2 = make_spec(policy_inputs="t_x_z")
    pol2 = HedgePolicy.create(spec2, rng=derive_rng(1, "p"))
    f2 = pol2.features(0.05, np.array([110.0]), np.array([3.0]), np.array([0.01]))
    assert np.allclose(f2, [[0.05, 3.0, 0.01]])


# ----------------------------------------------------------------------
# wealth recursion identities


def test_single_step_wealth_update():
    mesh = TimeMesh.uniform(1.0, 1)
    market = HestonParams(s0=100.0, v0=0.04, mu=0.0, kappa=0.9, theta=0.04,
                          sigma_vol=0.2, rate=0.0)
    spec = HedgingSpec(market=market, strike=100.0, mesh=mesh,
                       x0_mode="fixed", x0=1.0)
    policy = constant_policy(spec, 2.0)
    prices = np.array([[[100.0], [110.0]]])
    batch = PathBatch(prices=prices, mesh=mesh)
    out = wealth_rollout(policy, 1.0, batch, spec)
    # X_1 = 1 + 2 * 0.1 with r = 0
    assert out.terminal_wealth[0] == pytest.approx(1.2, abs=1e-15)
    assert out.positions[0, 0] == pytest.approx(2.0)


def test_zero_policy_keeps_wealth_at_zero_rates():
    spec = make_spec()
    policy = constant_policy(spec, 0.0)
    batch = heston_batch(256, 2)
    out = wealth_rollout(policy, 7.5, batch, spec)
    assert np.all(out.wealth == 7.5)
    assert out.mse == pytest.approx(float(np.mean(out.payoff ** 2))
                                    - 2 * 7.5 * out.payoff.mean() + 7.5 ** 2,
                                    rel=1e-12)


def test_wealth_translation_by_riskless_growth():
    # with a wealth-blind policy, X_T(x0 + a) - X_T(x0) = a * prod(1 + r dt)
    market = HestonParams(s0=100.0, v0=0.04, mu=0.05, kappa=0.9, theta=0.04,
                          sigma_vol=0.2, rate=0.05)
    mesh = TimeMesh.uniform(0.5, 13)
    spec = HedgingSpec(market=market, strike=100.0, mesh=mesh,
                       x0_mode="learnable")
    policy = HedgePolicy.create(spec, rng=derive_rng(3, "p"))  # untrained
    batch = simulate_heston(market, mesh, 128, derive_rng(3, "b"))
    base = wealth_rollout(policy, 0.0, batch, spec)
    shifted = wealth_rollout(policy, 4.0, batch, spec)
    growth = float(np.prod(1.0 + 0.05 * np.diff(mesh.times)))
    diff = shifted.terminal_wealth - base.terminal_wealth
    assert np.allclose(diff, 4.0 * growth, rtol=0.0, atol=1e-12)
    # positions did not react to the wealth shift
    assert np.array_equal(base.positions, shifted.positions)


def test_error_variance_invariant_to_initial_wealth():
    # at r = 0 a wealth shift translates every error equally, so the
    # variance of the hedging error cannot depend on x0
    spec = make_spec()
    policy = HedgePolicy.create(spec, rng=derive_rng(4, "p"))
    batch = heston_batch(4096, 4)
    v = [wealth_rollout(policy, x0, batch, spec).error_variance
         for x0 in (0.0, 2.2954, 10.0)]
    assert abs(v[0] - v[1]) < 1e-10
    assert abs(v[0] - v[2]) < 1e-10


def test_rollout_flags_non_finite_wealth():
    spec = make_spec()
    policy = constant_policy(spec, 0.0)
    policy.net.biases[-1].data[:] = np.nan
    batch = heston_batch(8, 5)
    with pytest.raises(RolloutError) as exc:
        wealth_rollout(policy, 0.0, batch, spec)
    assert exc.value.path_index == 0


def test_rollout_rejects_wrong_mesh():
    spec = make_spec()
    policy = constant_policy(spec, 0.0)
    batch = simulate_heston(MARKET, TimeMesh.uniform(1.0 / 12.0, 11), 8,
                            derive_rng(6, "b"))
    with pytest.raises(ContractError):
        wealth_rollout(policy, 0.0, batch, spec)


# ----------------------------------------------------------------------
# against the delta-hedging benchmark


class DeltaHedge:
    """Black-Scholes dollar-delta rule for the degenerate constant-vol
    market; duck-types HedgePolicy for wealth_rollout."""

    def __init__(self, strike, maturity, sigma):
        self.strike = strike
        self.maturity = maturity
        self.sigma = sigma

    def position(self, t, s, x, z):
        tau = max(self.maturity - t, 1e-12)
        d1 = (np.log(s / self.strike) + 0.5 * self.sigma ** 2 * tau) \
            / (self.sigma * np.sqrt(tau))
        return sps.norm.cdf(d1) * s


def test_delta_hedge_beats_no_hedge_and_centers():
    # sigma_vol = 0 with v0 = theta freezes vol at 0.2: exact BS world
    market = HestonParams(s0=100.0, v0=0.04, mu=0.0, kappa=0.9, theta=0.04,
                          sigma_vol=0.0, rate=0.0)
    spec = HedgingSpec(market=market, strike=100.0, mesh=MESH,
                       x0_mode="learnable")
    batch = simulate_heston(market, MESH, 1 << 14, derive_rng(7, "b"))
    price = bs_call_price(100.0, 100.0, 0.0, 0.2, 1.0 / 12.0)
    hedged = wealth_rollout(DeltaHedge(100.0, 1.0 / 12.0, 0.2), price, batch, spec)
    bare = wealth_rollout(constant_policy(spec, 0.0), price, batch, spec)
    assert hedged.mse < 0.05 * bare.mse
    se = hedged.errors.std(ddof=1) / np.sqrt(batch.n_paths)
    assert abs(hedged.mean_error) < 4.0 * se


# ----------------------------------------------------------------------
# training


def test_frozen_policy_learns_payoff_mean():
    # against a zero position the optimal x0 is E[payoff]: the European
    # call value (r = 0), computed independently by transform quadrature
    spec = make_spec()
    config = TrainConfig(batch_size=512, iterations=1500, learning_rate=1e-2,
                         seed=0)
    report, _ = train_price_and_hedge(spec, config, freeze_policy=True)
    want = heston_call_price(MARKET, 100.0, 1.0 / 12.0)
    assert report.stats["learned_price"] == pytest.approx(want, abs=0.15)


def test_train_pure_hedge_reduces_mse():
    spec = make_spec(x0_mode="fixed", x0=2.2954)
    config = TrainConfig(batch_size=256, iterations=150, learning_rate=4e-3,
                         seed=1)
    report, policy = train_pure_hedge(spec, config)
    batch = heston_batch(8192, 8)
    trained = wealth_rollout(policy, 2.2954, batch, spec)
    bare = wealth_rollout(constant_policy(spec, 0.0), 2.2954, batch, spec)
    assert trained.mse < bare.mse
    assert report.stats["x0"] == 2.2954
    assert report.iterations_run == 150


def test_training_mode_guards():
    config = TrainConfig(batch_size=8, iterations=2)
    with pytest.raises(ContractError):
        train_pure_hedge(make_spec(), config)  # learnable spec
    with pytest.raises(ContractError):
        train_price_and_hedge(make_spec(x0_mode="fixed", x0=1.0), config)


# ----------------------------------------------------------------------
# artifacts


def test_hedge_trace_csv(tmp_path):
    spec = make_spec()
    policy = constant_policy(spec, 1.0)
    batch = heston_batch(6, 9)
    out = wealth_rollout(policy, 2.0, batch, spec)
    dest = _write_csv(tmp_path / "trace.csv", ["path_id", "time", "stock", "wealth", "position"],
                      hedge_trace_rows(out, batch))
    lines = dest.read_text().strip().split("\n")
    assert lines[0] == "path_id,time,stock,wealth,position"
    assert len(lines) == 1 + 6 * 23
    assert lines[23].endswith(",")  # maturity rows carry no position
    assert lines[24].startswith("1,0.0,100.0,2.0,1.0")
