"""Quadratic hedging of a European call under stochastic volatility.

A single network maps (time, state) to the dollar amount held in the
stock; wealth compounds at the riskless rate and collects the position's
excess return each step:

    X_{t+1} = (1 + r dt) X_t + pi_t (Z_{t+1} - r dt),

with Z the per-step simple return of the stock.  The objective is the
expected squared terminal hedging error E[(X_T - phi(S_T))^2], either
for a fixed initial wealth (pure hedging) or jointly over the initial
wealth and the policy, in which case the optimised initial wealth is the
option price.

One network covers all time points (inputs are (t/T, S_t/S_0) by
default, or the raw recursion state (t, X_t, Z_t) as a config option),
so the time discretization can change without re-architecting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ContractError, DimensionError, RolloutError
from .markets import HestonParams, PathBatch, TimeMesh, simulate_heston
from .nn import MLP, Tensor, TrainConfig, TrainReport, train
from .rng import derive_rng

__all__ = [
    "HedgingSpec",
    "HedgePolicy",
    "HedgeOutcome",
    "wealth_rollout",
    "train_pure_hedge",
    "train_price_and_hedge",
    "hedge_trace_rows",
]

POLICY_INPUT_MODES = ("t_s", "t_x_z")


@dataclass(frozen=True)
class HedgingSpec:
    """Call-hedging problem: market, strike, trading dates, wealth mode."""

    market: HestonParams
    strike: float
    mesh: TimeMesh
    x0_mode: str = "learnable"  # "fixed" | "learnable"
    x0: float | None = None
    policy_inputs: str = "t_s"  # "t_s" | "t_x_z"

    def __post_init__(self):
        if self.strike <= 0.0:
            raise ContractError("strike must be positive")
        if self.x0_mode not in ("fixed", "learnable"):
            raise ContractError(f"unknown x0 mode {self.x0_mode!r}")
        if self.x0_mode == "fixed" and self.x0 is None:
            raise ContractError("fixed x0 mode needs an x0 value")
        if self.policy_inputs not in POLICY_INPUT_MODES:
            raise ContractError(f"unknown policy input mode {self.policy_inputs!r}")

    @property
    def rate(self) -> float:
        return self.market.rate

    def payoff(self, s_terminal: np.ndarray) -> np.ndarray:
        return np.maximum(np.asarray(s_terminal, dtype=np.float64) - self.strike, 0.0)


@dataclass
class HedgePolicy:
    """Dollar position in the stock as one network over all dates."""

    net: MLP
    inputs: str
    s0: float
    maturity: float

    @classmethod
    def create(cls, spec: HedgingSpec, hidden=(20, 20), activation: str = "relu",
               batch_norm: bool = True,
               rng: np.random.Generator | None = None) -> "HedgePolicy":
        in_dim = 2 if spec.policy_inputs == "t_s" else 3
        net = MLP([in_dim, *hidden, 1], activation=activation,
                  batch_norm=batch_norm, rng=rng)
        return cls(net=net, inputs=spec.policy_inputs, s0=spec.market.s0,
                   maturity=spec.mesh.maturity)

    def features(self, t: float, s: np.ndarray, x: np.ndarray,
                 z: np.ndarray) -> np.ndarray:
        """Numpy feature rows for one date (eval path)."""
        m = s.shape[0]
        if self.inputs == "t_s":
            return np.stack([np.full(m, t / self.maturity), s / self.s0], axis=1)
        return np.stack([np.full(m, t), x, z], axis=1)

    def position(self, t: float, s: np.ndarray, x: np.ndarray,
                 z: np.ndarray) -> np.ndarray:
        return self.net.forward_eval(self.features(t, s, x, z))[:, 0]


@dataclass(frozen=True)
class HedgeOutcome:
    """Full wealth/position record of one rollout plus error aggregates."""

    wealth: np.ndarray     # (m, N+1)
    positions: np.ndarray  # (m, N)
    payoff: np.ndarray     # (m,)

    @property
    def terminal_wealth(self) -> np.ndarray:
        return self.wealth[:, -1]

    @property
    def errors(self) -> np.ndarray:
        return self.terminal_wealth - self.payoff

    @property
    def mse(self) -> float:
        return float(np.mean(self.errors ** 2))

    @property
    def mean_error(self) -> float:
        return float(self.errors.mean())

    @property
    def error_variance(self) -> float:
        return float(self.errors.var(ddof=0))


def _check_batch(spec: HedgingSpec, batch: PathBatch) -> None:
    if batch.n_assets != 1:
        raise DimensionError("hedging covers a single underlying")
    if not np.array_equal(batch.mesh.times, spec.mesh.times):
        raise ContractError("batch mesh differs from spec mesh")


def wealth_rollout(policy: HedgePolicy, x0: float, batch: PathBatch,
                   spec: HedgingSpec) -> HedgeOutcome:
    """Exact wealth recursion per path from X_0 = x0; pure numpy."""
    _check_batch(spec, batch)
    m = batch.n_paths
    n = spec.mesh.n_steps
    times = spec.mesh.times
    r = spec.rate
    wealth = np.empty((m, n + 1))
    positions = np.empty((m, n))
    wealth[:, 0] = x0
    z_prev = np.zeros(m)  # no return observed before the first date
    for k in range(n):
        s_k = batch.prices[:, k, 0]
        pi = policy.position(float(times[k]), s_k, wealth[:, k], z_prev)
        dt = times[k + 1] - times[k]
        z = batch.returns[:, k, 0]
        wealth[:, k + 1] = (1.0 + r * dt) * wealth[:, k] + pi * (z - r * dt)
        positions[:, k] = pi
        if not np.all(np.isfinite(wealth[:, k + 1])):
            bad = int(np.nonzero(~np.isfinite(wealth[:, k + 1]))[0][0])
            raise RolloutError(f"non-finite wealth at step {k + 1}", path_index=bad)
        z_prev = z
    return HedgeOutcome(wealth=wealth, positions=positions,
                        payoff=spec.payoff(batch.prices[:, -1, 0]))


# ----------------------------------------------------------------------
# training graphs

_X_COLUMN = np.array([[0.0, 1.0, 0.0]])  # wealth slot of the (t, X, Z) encoding


def _terminal_error_graph(policy: HedgePolicy, x0, batch: PathBatch,
                          spec: HedgingSpec) -> Tensor:
    """Autodiff mean squared terminal hedging error.

    x0 is a float (fixed wealth) or a (1,) parameter tensor (learnable
    price); either way the recursion is the same graph.  The (t, S)
    encoding has no wealth feedback, so all positions come from a single
    time-major forward pass; the (t, X, Z) encoding must run step by step.
    """
    m = batch.n_paths
    n = spec.mesh.n_steps
    times = spec.mesh.times
    r = spec.rate

    if policy.inputs == "t_s":
        # no wealth feedback: one time-major forward gives every position,
        # and the recursion telescopes to
        #   X_T = x0 prod_j(1+r dt_j) + sum_k pi_k (Z_{k+1} - r dt_k) prod_{j>k}(1+r dt_j)
        dts = np.diff(times)
        growth = float(np.prod(1.0 + r * dts))
        after = np.append(np.cumprod((1.0 + r * dts)[::-1])[::-1][1:], 1.0)
        coeff = (batch.returns[:, :, 0].T - (r * dts)[:, None]) * after[:, None]
        feats = np.concatenate(
            [policy.features(float(times[k]), batch.prices[:, k, 0], None, None)
             for k in range(n)], axis=0)
        pi_all = policy.net.forward(feats, train=True).reshape(n, m)
        gains = (pi_all * coeff).sum(axis=0)
        if isinstance(x0, Tensor):
            x = x0 * np.full(m, growth) + gains
        else:
            x = gains + np.full(m, float(x0) * growth)
    else:
        if isinstance(x0, Tensor):
            x = x0 * np.ones(m)
        else:
            x = Tensor(np.full(m, float(x0)))
        z_prev = np.zeros(m)
        for k in range(n):
            t = float(times[k])
            dt = float(times[k + 1] - times[k])
            z = batch.returns[:, k, 0]
            const = np.stack([np.full(m, t), np.zeros(m), z_prev], axis=1)
            feats = x.reshape(m, 1) @ _X_COLUMN + const
            pi = policy.net.forward(feats, train=True).reshape(m)
            x = x * (1.0 + r * dt) + pi * (z - r * dt)
            z_prev = z
    err = x - spec.payoff(batch.prices[:, -1, 0])
    return (err * err).mean()


def _frozen_error_graph(x0: Tensor, batch: PathBatch, spec: HedgingSpec) -> Tensor:
    """Price-only objective with the policy pinned at zero."""
    m = batch.n_paths
    times = spec.mesh.times
    r = spec.rate
    growth = float(np.prod(1.0 + r * np.diff(times)))
    x = x0 * np.full(m, growth)
    err = x - spec.payoff(batch.prices[:, -1, 0])
    return (err * err).mean()


def train_pure_hedge(spec: HedgingSpec, config: TrainConfig,
                     policy: HedgePolicy | None = None) -> tuple[TrainReport, HedgePolicy]:
    """Minimize the hedging error at the spec's fixed initial wealth."""
    if spec.x0_mode != "fixed":
        raise ContractError("pure hedging needs a fixed initial wealth")
    if policy is None:
        policy = HedgePolicy.create(spec, rng=derive_rng(config.seed, "init"))

    def objective(it: int, rng: np.random.Generator) -> Tensor:
        batch = simulate_heston(spec.market, spec.mesh, config.batch_size, rng)
        return _terminal_error_graph(policy, spec.x0, batch, spec)

    report = train(objective, policy.net.parameters(), config)
    report.stats["x0"] = float(spec.x0)
    return report, policy


def train_price_and_hedge(spec: HedgingSpec, config: TrainConfig,
                          policy: HedgePolicy | None = None,
                          freeze_policy: bool = False) -> tuple[TrainReport, HedgePolicy]:
    """Joint minimization over the initial wealth and the policy.

    The optimised wealth parameter is the option price and is reported in
    TrainReport.stats["learned_price"].  freeze_policy trains the price
    alone against a zero position (then the optimum is the payoff mean).
    """
    if spec.x0_mode != "learnable":
        raise ContractError("price-and-hedge needs a learnable initial wealth")
    if policy is None:
        policy = HedgePolicy.create(spec, rng=derive_rng(config.seed, "init"))
    price = Tensor(np.array([spec.payoff(np.array([spec.market.s0]))[0]]),
                   requires_grad=True)

    def objective(it: int, rng: np.random.Generator) -> Tensor:
        batch = simulate_heston(spec.market, spec.mesh, config.batch_size, rng)
        if freeze_policy:
            return _frozen_error_graph(price, batch, spec)
        return _terminal_error_graph(policy, price, batch, spec)

    params = [price] if freeze_policy else policy.net.parameters() + [price]
    report = train(objective, params, config)
    report.stats["learned_price"] = float(price.data[0])
    return report, policy


def hedge_trace_rows(outcome: HedgeOutcome, batch: PathBatch) -> Iterator[tuple]:
    """(path_id, time, S_t, X_t, pi_t) rows of every path, one at a time so
    that thousands of paths are never held as Python rows; pi is empty at
    maturity."""
    times = batch.mesh.times.tolist()
    for i in range(batch.n_paths):
        yield from zip([i] * len(times), times, batch.prices[i, :, 0].tolist(),
                       outcome.wealth[i].tolist(), outcome.positions[i].tolist() + [""])
