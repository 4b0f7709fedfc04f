"""Two-period exponential-utility portfolio problem.

The closed form is simple enough to verify twice over: once against a
direct numerical optimization of the exact expected utility, once via the
simulation identities used by training.
"""

import json

import numpy as np
import pytest
from scipy import optimize

from derm_lab.errors import ContractError, DomainError, ModelError
from derm_lab.cli import EXIT_OK, main
from derm_lab.merton import (MertonSpec, certainty_equivalent,
                             closed_form_optimum, run_single_repeat,
                             simulate_periods, train_portfolio, utility_value)
from derm_lab.nn.net import MLP
from derm_lab.nn.train import TrainConfig
from derm_lab.rng import derive_rng


# ----------------------------------------------------------------------
# certainty equivalents and the closed form


def test_certainty_equivalent_values():
    assert certainty_equivalent(0.0) == 0.0
    assert certainty_equivalent(1.0 - np.exp(-1.0)) == pytest.approx(1.0, abs=1e-14)
    x = 0.37
    assert certainty_equivalent(1.0 - np.exp(-x)) == pytest.approx(x, abs=1e-12)
    with pytest.raises(DomainError):
        certainty_equivalent(1.0)


def test_defaults_d1():
    spec = MertonSpec.with_defaults(1)
    assert np.allclose(spec.mu1, [0.05])
    assert np.allclose(spec.sigma1, [[0.04]])
    a_star, v_star = closed_form_optimum(spec)
    assert a_star == pytest.approx([1.25])
    assert 0.0 < v_star < 1.0


def test_closed_form_against_direct_optimization():
    spec = MertonSpec.with_defaults(2)
    a_star, v_star = closed_form_optimum(spec)

    # exact expected utility of a constant position a:
    # E[1 - exp(-(1+r)X1 - a (Z2 - r))] with X1 = mean(Z1) - r
    c = 1.0 + spec.rate
    ones = np.ones(spec.d) / spec.d
    m1 = float(spec.mu1 @ ones) - spec.rate
    s1_sq = float(ones @ spec.sigma1 @ ones)

    def neg_value(a):
        mean_term = c * m1 + a @ (spec.mu2 - spec.rate)
        var_term = c * c * s1_sq + a @ spec.sigma2 @ a
        return -(1.0 - np.exp(-mean_term + 0.5 * var_term))

    res = optimize.minimize(neg_value, np.zeros(spec.d), method="Nelder-Mead",
                            options={"xatol": 1e-10, "fatol": 1e-14})
    assert np.allclose(res.x, a_star, atol=1e-5)
    assert -res.fun == pytest.approx(v_star, abs=1e-10)


def test_spec_validation():
    good = MertonSpec.with_defaults(3)
    with pytest.raises(ContractError):
        MertonSpec(d=3, mu1=good.mu1[:2], mu2=good.mu2, sigma1=good.sigma1,
                   sigma2=good.sigma2)
    bad_sym = good.sigma1.copy()
    bad_sym[0, 1] += 0.01
    with pytest.raises(ContractError):
        MertonSpec(d=3, mu1=good.mu1, mu2=good.mu2, sigma1=bad_sym,
                   sigma2=good.sigma2)
    not_spd = np.eye(3)
    not_spd[2, 2] = -1.0
    with pytest.raises(ModelError):
        MertonSpec(d=3, mu1=good.mu1, mu2=good.mu2, sigma1=not_spd,
                   sigma2=good.sigma2)
    with pytest.raises(ContractError):
        MertonSpec.with_defaults(3, n_data=2)
    with pytest.raises(ContractError):
        MertonSpec.with_defaults(3, regime="replay")


# ----------------------------------------------------------------------
# simulation identities


def test_simulated_moments_match_spec():
    spec = MertonSpec.with_defaults(4)
    z1, z2 = simulate_periods(spec, 1 << 16, derive_rng(0, "m"))
    assert z1.shape == z2.shape == (1 << 16, 4)
    assert np.allclose(z1.mean(axis=0), spec.mu1, atol=3.5 * 0.2 / 256.0)
    assert np.allclose(np.cov(z2.T), spec.sigma2, atol=0.002)


def test_utility_value_zero_position():
    # zero all layers: position a(z) = 0, so X2 = (1+r) (mean(Z1) - r)
    spec = MertonSpec.with_defaults(2)
    net = MLP([2, 4, 2], activation="relu", rng=derive_rng(1, "n"))
    for p in net.parameters():
        p.data[:] = 0.0
    z1 = np.array([[0.1, 0.3], [0.0, 0.0]])
    z2 = np.array([[0.5, 0.5], [0.5, 0.5]])
    got = utility_value(spec, net, z1, z2)
    want = 1.0 - np.mean(np.exp(-np.array([0.2, 0.0])))
    assert got == pytest.approx(want, abs=1e-14)


def test_utility_value_matches_manual_rollout():
    spec = MertonSpec.with_defaults(3)
    net = MLP([3, 5, 3], activation="relu", rng=derive_rng(2, "n"))
    z1, z2 = simulate_periods(spec, 64, derive_rng(2, "m"))
    a = net.forward_eval(z1)
    x2 = z1.mean(axis=1) + (z2 * a).sum(axis=1)  # rate = 0
    want = 1.0 - float(np.exp(-x2).mean())
    assert utility_value(spec, net, z1, z2) == pytest.approx(want, abs=1e-14)


# ----------------------------------------------------------------------
# training regimes


def tiny_config(iterations=300):
    return TrainConfig(batch_size=64, iterations=iterations, learning_rate=2e-3,
                       seed=0)


def test_fixed_dataset_restores_best_validation_params():
    spec = MertonSpec.with_defaults(4, n_data=256)
    net = MLP([4, 10, 4], activation="relu", rng=derive_rng(3, "n"))
    data = simulate_periods(spec, 256, derive_rng(3, "d"))
    stats = train_portfolio(spec, net, tiny_config(), derive_rng(3, "t"),
                            data=data)
    assert stats["iterations_run"] <= 300
    assert isinstance(stats["stopped_early"], bool)
    # trained position beats the zero position in-sample
    v_in = utility_value(spec, net, *data)
    zero = MLP([4, 10, 4], activation="relu", rng=derive_rng(3, "n"))
    for p in zero.parameters():
        p.data[:] = 0.0
    assert v_in > utility_value(spec, zero, *data)


def test_continual_regime_runs_full_budget():
    spec = MertonSpec.with_defaults(2, regime="continual-simulation")
    net = MLP([2, 6, 2], activation="relu", rng=derive_rng(4, "n"))
    stats = train_portfolio(spec, net, tiny_config(100), derive_rng(4, "t"),
                            data=None)
    assert stats["iterations_run"] == 100
    assert stats["stopped_early"] is False


def test_dataset_too_small_for_validation():
    spec = MertonSpec.with_defaults(2, n_data=4)
    net = MLP([2, 4, 2], activation="relu", rng=derive_rng(5, "n"))
    data = simulate_periods(spec, 2, derive_rng(5, "d"))
    with pytest.raises(ContractError):
        train_portfolio(spec, net, tiny_config(10), derive_rng(5, "t"),
                        data=data)


# ----------------------------------------------------------------------
# the in/out-of-sample gap


def test_repeat_is_deterministic():
    spec = MertonSpec.with_defaults(3, n_data=128)
    a = run_single_repeat(spec, (8,), tiny_config(120), root_seed=7, repeat=0,
                          n_eval=2048)
    b = run_single_repeat(spec, (8,), tiny_config(120), root_seed=7, repeat=0,
                          n_eval=2048)
    assert a == b
    c = run_single_repeat(spec, (8,), tiny_config(120), root_seed=7, repeat=1,
                          n_eval=2048)
    assert a != c


def test_in_sample_dominates_out_of_sample():
    # the fixed-dataset in/out gap: training data always looks better
    spec = MertonSpec.with_defaults(5, n_data=256)
    reports = [run_single_repeat(spec, (10, 10), tiny_config(), root_seed=11,
                                 repeat=r, n_eval=4096) for r in range(6)]
    gaps = [r.gap for r in reports]
    assert np.mean(gaps) > 0.0
    assert sum(g > 0.0 for g in gaps) >= 5  # allow one unlucky repeat
    assert all(r.v_in < 1.0 for r in reports)


def test_table_csv_layout(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dims": [2], "n_data": 128, "hidden": [6], "n_repeats": 2,
                               "n_eval": 1024, "train": {"batch_size": 64,
                                                         "iterations": 80}}))
    assert main(["merton", "--config", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_OK
    lines = (tmp_path / "run" / "table.csv").read_text().strip().split("\n")
    assert lines[0] == "dim,p_in_mean_pct,p_in_std_pct,gap_mean_pct,gap_std_pct"
    assert len(lines) == 2
    assert lines[1].startswith("2,")
