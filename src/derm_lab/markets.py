"""Market simulators and path containers.

Two models: correlated multi-asset geometric Brownian motion with
continuous dividend yields (stepped exactly in log space) and a Heston
stochastic-volatility model (full-truncation Euler).  Batches carry a
measure tag: training may run under a drift-tilted measure to push paths
into informative regions, while evaluation operations only accept
risk-neutral batches and raise MeasureError otherwise.

Time meshes are explicit non-uniform grids.  The geometric mesh
concentrates points near maturity, where early-exercise boundaries move
fastest.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ContractError, DimensionError, MeasureError, ModelError

__all__ = [
    "TimeMesh",
    "GbmParams",
    "HestonParams",
    "PathBatch",
    "simulate_gbm",
    "simulate_heston",
    "RISK_NEUTRAL",
    "TILTED",
]

RISK_NEUTRAL = "risk-neutral"
TILTED = "tilted"


# ----------------------------------------------------------------------
# time meshes


@dataclass(frozen=True)
class TimeMesh:
    """Strictly increasing grid 0 = t_0 < t_1 < ... < t_N = T."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        object.__setattr__(self, "times", t)
        if t.ndim != 1 or t.size < 2:
            raise ContractError("mesh needs at least two time points")
        if t[0] != 0.0:
            raise ContractError("mesh must start at 0")
        if np.any(np.diff(t) <= 0.0):
            raise ContractError("mesh times must be strictly increasing")

    @property
    def maturity(self) -> float:
        return float(self.times[-1])

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def dt(self) -> np.ndarray:
        return np.diff(self.times)

    @classmethod
    def uniform(cls, maturity: float, n_steps: int) -> "TimeMesh":
        if maturity <= 0.0 or n_steps < 1:
            raise ContractError("need maturity > 0 and n_steps >= 1")
        return cls(np.linspace(0.0, maturity, n_steps + 1))

    @classmethod
    def geometric(cls, maturity: float, n_steps: int, shrink: float = 0.05) -> "TimeMesh":
        """Steps decrease geometrically so the last is ``shrink`` times the
        first; refines the grid toward maturity."""
        if maturity <= 0.0 or n_steps < 1:
            raise ContractError("need maturity > 0 and n_steps >= 1")
        if not 0.0 < shrink <= 1.0:
            raise ContractError("shrink must lie in (0, 1]")
        if n_steps == 1 or shrink == 1.0:
            return cls.uniform(maturity, n_steps)
        q = shrink ** (1.0 / (n_steps - 1))
        steps = q ** np.arange(n_steps)
        steps *= maturity / steps.sum()
        times = np.concatenate([[0.0], np.cumsum(steps)])
        times[-1] = maturity
        return cls(times)


# ----------------------------------------------------------------------
# model parameters


def _corr_factor(corr: np.ndarray) -> np.ndarray:
    """Cholesky-like factor L with L L^T = corr; eigenvalue-clipped when the
    matrix is only semi-definite."""
    try:
        return np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(corr)
        if w.min() < -1e-10:
            raise ModelError(f"correlation matrix not PSD (min eigenvalue {w.min():.3e})")
        return v * np.sqrt(np.clip(w, 0.0, None))


@dataclass(frozen=True)
class GbmParams:
    """Multi-asset GBM: dS_i = S_i ((r - q_i) dt + sigma_i dW_i),
    d<W_i, W_j> = corr_ij dt."""

    s0: np.ndarray
    rate: float
    sigma: np.ndarray
    div: np.ndarray | None = None
    corr: np.ndarray | None = None

    def __post_init__(self):
        s0 = np.atleast_1d(np.asarray(self.s0, dtype=np.float64))
        sigma = np.broadcast_to(np.asarray(self.sigma, dtype=np.float64), s0.shape).copy()
        div = (np.zeros_like(s0) if self.div is None
               else np.broadcast_to(np.asarray(self.div, dtype=np.float64), s0.shape).copy())
        corr = np.eye(s0.size) if self.corr is None else np.asarray(self.corr, dtype=np.float64)
        object.__setattr__(self, "s0", s0)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "div", div)
        object.__setattr__(self, "corr", corr)
        if np.any(s0 <= 0.0):
            raise ModelError("initial prices must be positive")
        if np.any(sigma < 0.0):
            raise ModelError("volatilities must be non-negative")
        if corr.shape != (s0.size, s0.size):
            raise DimensionError(f"correlation shape {corr.shape} != ({s0.size}, {s0.size})")
        if not np.allclose(corr, corr.T, atol=1e-12) or not np.allclose(np.diag(corr), 1.0, atol=1e-12):
            raise ModelError("correlation must be symmetric with unit diagonal")
        object.__setattr__(self, "_factor", _corr_factor(corr))

    @property
    def n_assets(self) -> int:
        return self.s0.size

    def with_s0(self, s0) -> "GbmParams":
        return replace(self, s0=np.broadcast_to(np.asarray(s0, dtype=np.float64),
                                                self.s0.shape).copy())


@dataclass(frozen=True)
class HestonParams:
    """dS = S (mu dt + sqrt(v) dW_s), dv = (kappa (theta - v) - lam v) dt
    + sigma_vol sqrt(v) dW_v, d<W_s, W_v> = rho dt.

    lam is the variance risk-premium coefficient; pricing dynamics fold it
    into kappa_eff = kappa + lam, theta_eff = kappa theta / (kappa + lam).
    """

    s0: float
    v0: float
    mu: float
    kappa: float
    theta: float
    sigma_vol: float
    rho: float = 0.0
    lam: float = 0.0
    rate: float = 0.0

    def __post_init__(self):
        if self.s0 <= 0.0 or self.v0 < 0.0:
            raise ModelError("need s0 > 0 and v0 >= 0")
        if self.kappa < 0.0 or self.theta < 0.0 or self.sigma_vol < 0.0:
            raise ModelError("kappa, theta, sigma_vol must be non-negative")
        if not -1.0 <= self.rho <= 1.0:
            raise ModelError("rho must lie in [-1, 1]")
        if self.kappa + self.lam <= 0.0:
            raise ModelError("kappa + lam must be positive")

    @property
    def kappa_eff(self) -> float:
        return self.kappa + self.lam

    @property
    def theta_eff(self) -> float:
        return self.kappa * self.theta / (self.kappa + self.lam)

    @property
    def feller_ok(self) -> bool:
        return 2.0 * self.kappa_eff * self.theta_eff >= self.sigma_vol ** 2


# ----------------------------------------------------------------------
# path batches


@dataclass(frozen=True)
class PathBatch:
    """Simulated price paths on a mesh.

    prices has shape (n_paths, N+1, n_assets); returns are one-period
    simple returns Z_{t+1} = (S_{t+1} - S_t)/S_t with shape
    (n_paths, N, n_assets).  measure tags whether the batch was simulated
    risk-neutrally or under a drift tilt.
    """

    prices: np.ndarray
    mesh: TimeMesh
    measure: str = RISK_NEUTRAL
    drift_tilt: float = 0.0
    returns: np.ndarray = field(init=False)

    def __post_init__(self):
        p = np.asarray(self.prices, dtype=np.float64)
        if p.ndim != 3:
            raise DimensionError(f"prices must be (paths, times, assets), got {p.shape}")
        if p.shape[1] != self.mesh.times.size:
            raise DimensionError(f"{p.shape[1]} time points vs mesh {self.mesh.times.size}")
        if self.measure not in (RISK_NEUTRAL, TILTED):
            raise ContractError(f"unknown measure tag {self.measure!r}")
        if self.measure == RISK_NEUTRAL and self.drift_tilt != 0.0:
            raise ContractError("risk-neutral batch cannot carry a drift tilt")
        if not np.all(p > 0.0):
            raise ContractError("prices must be strictly positive")
        object.__setattr__(self, "prices", p)
        object.__setattr__(self, "returns", (p[:, 1:, :] - p[:, :-1, :]) / p[:, :-1, :])

    @property
    def n_paths(self) -> int:
        return self.prices.shape[0]

    @property
    def n_assets(self) -> int:
        return self.prices.shape[2]

    @property
    def tilted(self) -> bool:
        return self.measure == TILTED

    def require_risk_neutral(self, what: str) -> None:
        if self.tilted:
            raise MeasureError(f"{what} requires a risk-neutral batch, got a tilted one "
                               f"(drift tilt {self.drift_tilt:+g})")


# ----------------------------------------------------------------------
# simulators


def simulate_gbm(params: GbmParams, mesh: TimeMesh, n_paths: int,
                 rng: np.random.Generator, drift_tilt: float = 0.0,
                 antithetic: bool = False) -> PathBatch:
    """Exact GBM stepping in log space.

    drift_tilt shifts every asset's log drift by a constant (importance
    sampling for training); any nonzero tilt tags the batch as tilted.

    antithetic pairs each path with its sign-flipped shocks.  Marginals
    are unchanged but paths are no longer independent, so keep it to
    training batches: naive standard errors would be understated.
    """
    if n_paths <= 0:
        raise ContractError("n_paths must be positive")
    if antithetic and n_paths % 2 != 0:
        raise ContractError("antithetic batches need an even path count")
    d = params.n_assets
    dt = mesh.dt
    drift = params.rate - params.div + drift_tilt - 0.5 * params.sigma ** 2  # (d,)
    log_s = np.broadcast_to(np.log(params.s0), (n_paths, d)).copy()
    prices = np.empty((n_paths, mesh.times.size, d))
    prices[:, 0, :] = params.s0
    factor_t = params._factor.T
    for k, h in enumerate(dt):
        if antithetic:
            half = rng.standard_normal((n_paths // 2, d))
            z = np.concatenate([half, -half], axis=0) @ factor_t
        else:
            z = rng.standard_normal((n_paths, d)) @ factor_t
        log_s += drift * h + params.sigma * np.sqrt(h) * z
        prices[:, k + 1, :] = np.exp(log_s)
    measure = TILTED if drift_tilt != 0.0 else RISK_NEUTRAL
    return PathBatch(prices=prices, mesh=mesh, measure=measure, drift_tilt=drift_tilt)


def simulate_heston(params: HestonParams, mesh: TimeMesh, n_paths: int,
                    rng: np.random.Generator) -> PathBatch:
    """Full-truncation Euler: the variance enters drift and diffusion through
    v+ = max(v, 0); the stored variance is clamped at zero after each step.
    The stock is stepped in log space.  A stock drift mu other than the rate
    tags the batch as tilted, with drift_tilt = mu - rate."""
    if n_paths <= 0:
        raise ContractError("n_paths must be positive")
    if not params.feller_ok:
        warnings.warn("Feller condition 2*kappa_eff*theta_eff >= sigma_vol^2 violated; "
                      "variance paths will spend time at zero", stacklevel=2)
    dt = mesh.dt
    log_s = np.full(n_paths, np.log(params.s0))
    v = np.full(n_paths, params.v0)
    prices = np.empty((n_paths, mesh.times.size, 1))
    prices[:, 0, 0] = params.s0
    rho_bar = np.sqrt(1.0 - params.rho ** 2)
    for k, h in enumerate(dt):
        z_s = rng.standard_normal(n_paths)
        z_perp = rng.standard_normal(n_paths)
        z_v = params.rho * z_s + rho_bar * z_perp
        v_plus = np.maximum(v, 0.0)
        root = np.sqrt(v_plus * h)
        log_s += (params.mu - 0.5 * v_plus) * h + root * z_s
        v = v + (params.kappa * (params.theta - v_plus) - params.lam * v_plus) * h \
            + params.sigma_vol * root * z_v
        v = np.maximum(v, 0.0)
        prices[:, k + 1, 0] = np.exp(log_s)
    tilt = params.mu - params.rate
    measure = TILTED if tilt != 0.0 else RISK_NEUTRAL
    return PathBatch(prices=prices, mesh=mesh, measure=measure, drift_tilt=tilt)
