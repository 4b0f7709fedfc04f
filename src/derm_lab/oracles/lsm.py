"""Regression Monte Carlo (least-squares) pricing of Bermudan payoffs.

Independent cross-check for the neural stopping rules: polynomial basis of
configurable total degree in the scaled asset prices, their maximum
coordinate and the payoff, regression on in-the-money paths only, and an
out-of-sample split so the reported price is not biased upward by
regression noise (fit the rule on one half of the paths, price on the
other half).
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from ..errors import ContractError
from ..markets import GbmParams, TimeMesh, simulate_gbm

__all__ = ["LsmResult", "lsm_price"]

log = logging.getLogger(__name__)

_RIDGE = 1e-8


@dataclass(frozen=True)
class LsmResult:
    price: float
    std_error: float
    n_pricing_paths: int
    in_sample_price: float
    n_regression_paths: int


def _payoff_fn(kind: str, strike: float):
    if kind == "max_call":
        return lambda s: np.maximum(s.max(axis=1) - strike, 0.0)
    if kind == "put":
        return lambda s: np.maximum(strike - s[:, 0], 0.0)
    raise ContractError(f"unknown payoff kind {kind!r}")


def _features(s: np.ndarray, strike: float, payoff, degree: int) -> np.ndarray:
    """Monomials of total degree <= degree in (s_i/K, max_i s_i/K, phi/K)."""
    x = s / strike
    m = x.max(axis=1, keepdims=True)
    g = (payoff(s) / strike)[:, None]
    base = np.concatenate([x, m, g], axis=1)
    cols = [np.ones((s.shape[0], 1))]
    k = base.shape[1]
    for deg in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(k), deg):
            prod = base[:, combo[0]].copy()
            for j in combo[1:]:
                prod *= base[:, j]
            cols.append(prod[:, None])
    return np.concatenate(cols, axis=1)


def _fit(x: np.ndarray, y: np.ndarray, fallbacks: list[int]) -> np.ndarray:
    beta, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank < x.shape[1]:
        # expected whenever max/payoff columns are affinely dependent on
        # the in-the-money set; count here, log once per pricing call
        fallbacks.append(rank)
        gram = x.T @ x + _RIDGE * np.eye(x.shape[1])
        beta = np.linalg.solve(gram, x.T @ y)
    return beta


def lsm_price(params: GbmParams, strike: float, mesh: TimeMesh, n_paths: int,
              rng: np.random.Generator, payoff_kind: str = "max_call",
              degree: int = 2) -> LsmResult:
    """Bermudan price with exercise on the mesh dates.

    Backward regression pass on the first half of the paths, forward
    replay of the fitted rule on the second half; the forward half's
    discounted cash flows give the reported price and standard error.
    """
    if n_paths < 1000:
        raise ContractError("LSM needs at least 1000 paths to be meaningful")
    if degree < 1:
        raise ContractError("basis degree must be >= 1")
    payoff = _payoff_fn(payoff_kind, strike)
    batch = simulate_gbm(params, mesh, n_paths, rng)
    batch.require_risk_neutral("LSM pricing")

    half = n_paths // 2
    disc = np.exp(-params.rate * mesh.times)
    n_dates = mesh.times.size

    # --- backward pass on the regression half -------------------------
    prices = batch.prices[:half]
    cash = payoff(prices[:, -1, :]) * disc[-1]  # time-0 units
    coefs: list[np.ndarray | None] = [None] * n_dates
    fallbacks: list[int] = []
    for k in range(n_dates - 2, 0, -1):
        s_k = prices[:, k, :]
        exercise = payoff(s_k)
        itm = exercise > 0.0
        if itm.sum() < 50:
            continue
        x = _features(s_k[itm], strike, payoff, degree)
        y = cash[itm] / disc[k]
        beta = _fit(x, y, fallbacks)
        coefs[k] = beta
        continuation = x @ beta
        stop = np.zeros(half, dtype=bool)
        stop[itm] = exercise[itm] >= continuation
        cash[stop] = exercise[stop] * disc[k]
    if fallbacks:
        log.warning("rank-deficient LSM regression at %d of %d dates "
                    "(min rank %d of %d columns); ridge fallback lambda=%g",
                    len(fallbacks), n_dates - 2, min(fallbacks),
                    x.shape[1], _RIDGE)
    in_sample = float(np.mean(cash))

    # --- forward pass on the pricing half ------------------------------
    prices = batch.prices[half:]
    m_eval = prices.shape[0]
    cash = payoff(prices[:, -1, :]) * disc[-1]
    stopped = np.zeros(m_eval, dtype=bool)
    for k in range(1, n_dates - 1):
        if coefs[k] is None:
            continue
        s_k = prices[:, k, :]
        exercise = payoff(s_k)
        candidate = (~stopped) & (exercise > 0.0)
        if not candidate.any():
            continue
        continuation = _features(s_k[candidate], strike, payoff, degree) @ coefs[k]
        stop = np.zeros(m_eval, dtype=bool)
        stop[candidate] = exercise[candidate] >= continuation
        cash[stop] = exercise[stop] * disc[k]
        stopped |= stop

    # exercise at t_0: one shared state, compare the means directly
    ex0 = payoff(prices[:, 0, :])[0]
    if ex0 >= cash.mean():
        cash[:] = ex0

    price = float(cash.mean())
    se = float(cash.std(ddof=1) / np.sqrt(m_eval))
    return LsmResult(price=price, std_error=se, n_pricing_paths=m_eval,
                     in_sample_price=in_sample, n_regression_paths=half)
