"""Two-period exponential-utility portfolio experiment.

The first period is uncontrolled: wealth starts at zero, an equal-weight
position earns X_1 = (Z_1 . 1)/d - r.  The second-period position a(Z_1)
is a network of the observed first-period returns, and the objective is
the expected exponential utility of terminal wealth

    v = E[1 - exp(-X_2)],    X_2 = (1+r) X_1 + a(Z_1) . (Z_2 - r 1).

With Gaussian second-period returns independent of Z_1 the optimum is
a* = Sigma^{-1}(mu - r 1), constant in Z_1, and v* is a Gaussian moment
computation.  Training on a fixed finite dataset over-performs this
optimum in sample and under-performs it out of sample; the gap between
the two (the overlearning effect) grows with the dimension.

Certainty equivalents report utilities in cash units: ce(v) = -ln(1-v),
the unique solution of 1 - e^{-ce} = v.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError, ModelError, TrainingError
from .nn import MLP, Tensor, TrainConfig, adam_step, AdamState, flatten_grads, flatten_params, scatter_params
from .rng import derive_rng

__all__ = [
    "MertonSpec",
    "UtilityReport",
    "certainty_equivalent",
    "closed_form_optimum",
    "simulate_periods",
    "utility_value",
    "train_portfolio",
    "run_single_repeat",
]

REGIMES = ("fixed-dataset", "continual-simulation")


@dataclass(frozen=True)
class MertonSpec:
    """Two-period market: Gaussian returns per period, independent across
    periods, constant rate."""

    d: int
    mu1: np.ndarray
    mu2: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray
    rate: float = 0.0
    n_data: int = 4096
    regime: str = "fixed-dataset"

    def __post_init__(self):
        if self.d < 1:
            raise ContractError("dimension must be >= 1")
        if self.regime not in REGIMES:
            raise ContractError(f"unknown regime {self.regime!r}")
        if self.n_data < 4:
            raise ContractError("dataset size must be >= 4")
        for name in ("mu1", "mu2"):
            v = np.asarray(getattr(self, name), dtype=np.float64)
            if v.shape != (self.d,):
                raise ContractError(f"{name} must have shape ({self.d},)")
            object.__setattr__(self, name, v)
        for name in ("sigma1", "sigma2"):
            s = np.asarray(getattr(self, name), dtype=np.float64)
            if s.shape != (self.d, self.d):
                raise ContractError(f"{name} must have shape ({self.d}, {self.d})")
            if not np.allclose(s, s.T, atol=1e-12):
                raise ContractError(f"{name} must be symmetric")
            try:
                np.linalg.cholesky(s)
            except np.linalg.LinAlgError:
                raise ModelError(f"{name} is not positive definite") from None
            object.__setattr__(self, name, s)

    @classmethod
    def with_defaults(cls, d: int, n_data: int = 4096,
                      regime: str = "fixed-dataset", rate: float = 0.0) -> "MertonSpec":
        """Declared default market: mildly heterogeneous means, equicorrelated
        covariance with unit-scaled diagonal 0.04."""
        i = np.arange(1, d + 1)
        mu = 0.03 + 0.02 * i / d
        raw = 0.7 * np.eye(d) + 0.3 * np.ones((d, d)) / d
        sigma = 0.04 * raw / (0.7 + 0.3 / d)
        return cls(d=d, mu1=mu, mu2=mu.copy(), sigma1=sigma, sigma2=sigma.copy(),
                   rate=rate, n_data=n_data, regime=regime)


def certainty_equivalent(v):
    """Cash equivalent of utility value v under U(x) = 1 - e^{-x}."""
    v = np.asarray(v, dtype=np.float64)
    if np.any(v >= 1.0):
        raise DomainError("utility value must be < 1")
    out = -np.log(1.0 - v)
    return float(out) if out.ndim == 0 else out


def closed_form_optimum(spec: MertonSpec) -> tuple[np.ndarray, float]:
    """(a*, v*): the optimal constant position and its utility value."""
    excess = spec.mu2 - spec.rate
    try:
        a_star = np.linalg.solve(spec.sigma2, excess)
    except np.linalg.LinAlgError:
        raise ModelError("second-period covariance is singular") from None
    c = 1.0 + spec.rate
    ones = np.ones(spec.d)
    m1 = float(spec.mu1 @ ones) / spec.d - spec.rate
    s1_sq = float(ones @ spec.sigma1 @ ones) / spec.d ** 2
    q = float(excess @ a_star)
    v_star = 1.0 - np.exp(-c * m1 + 0.5 * c * c * s1_sq - 0.5 * q)
    return a_star, float(v_star)


def simulate_periods(spec: MertonSpec, n: int,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw (Z_1, Z_2), each (n, d), independent across periods."""
    f1 = np.linalg.cholesky(spec.sigma1)
    f2 = np.linalg.cholesky(spec.sigma2)
    z1 = spec.mu1 + rng.standard_normal((n, spec.d)) @ f1.T
    z2 = spec.mu2 + rng.standard_normal((n, spec.d)) @ f2.T
    return z1, z2


def _first_period_wealth(spec: MertonSpec, z1: np.ndarray) -> np.ndarray:
    return z1.mean(axis=1) - spec.rate


def utility_value(spec: MertonSpec, net: MLP, z1: np.ndarray,
                  z2: np.ndarray) -> float:
    """v = E_n[1 - exp(-X_2)] with the network's feedback position."""
    x1 = _first_period_wealth(spec, z1)
    a = net.forward_eval(z1)
    x2 = (1.0 + spec.rate) * x1 + ((z2 - spec.rate) * a).sum(axis=1)
    return float(1.0 - np.mean(np.exp(-x2)))


def _loss_graph(spec: MertonSpec, net: MLP, z1: np.ndarray,
                z2: np.ndarray) -> Tensor:
    """mean exp(-X_2) = 1 - v as an autodiff scalar."""
    x1 = _first_period_wealth(spec, z1)
    a = net.forward(z1, train=True)
    gain = (a * (z2 - spec.rate)).sum(axis=1)
    x2 = gain + (1.0 + spec.rate) * x1
    return (-x2).exp().mean()


def _make_net(spec: MertonSpec, hidden, rng: np.random.Generator) -> MLP:
    return MLP([spec.d, *hidden, spec.d], activation="relu", rng=rng)


def train_portfolio(spec: MertonSpec, net: MLP, config: TrainConfig,
                    rng: np.random.Generator,
                    data: tuple[np.ndarray, np.ndarray] | None = None,
                    val_fraction: float = 0.1, val_every: int = 25,
                    patience: int = 8) -> dict:
    """Train the feedback position net; returns loop statistics.

    fixed-dataset regime (data given): minibatches resample the training
    rows; a held-out validation slice of the dataset is monitored and the
    parameters giving the best validation loss are restored at the end
    (the conservative stopping rule).  continual-simulation regime (data
    None): every batch is freshly simulated and the full iteration budget
    runs.
    """
    params = net.parameters()
    state = AdamState.init(sum(p.size for p in params), lr=config.learning_rate,
                           beta1=config.beta1, beta2=config.beta2,
                           eps=config.adam_eps)
    vec = flatten_params(params)

    if data is not None:
        z1, z2 = data
        n = z1.shape[0]
        n_val = max(int(round(val_fraction * n)), 2)
        n_train = n - n_val
        if n_train < 2:
            raise ContractError("dataset too small for a validation slice")
        z1_tr, z2_tr = z1[:n_train], z2[:n_train]
        z1_val, z2_val = z1[n_train:], z2[n_train:]
        best_val = np.inf
        best_vec = vec.copy()
        bad = 0
    else:
        f1 = np.linalg.cholesky(spec.sigma1)
        f2 = np.linalg.cholesky(spec.sigma2)
    iterations_run = 0
    stopped_early = False
    t0 = time.perf_counter()

    for it in range(config.iterations):
        if data is not None:
            idx = rng.integers(0, n_train, size=config.batch_size)
            b1, b2 = z1_tr[idx], z2_tr[idx]
        else:
            b1 = spec.mu1 + rng.standard_normal((config.batch_size, spec.d)) @ f1.T
            b2 = spec.mu2 + rng.standard_normal((config.batch_size, spec.d)) @ f2.T
        for p in params:
            p.zero_grad()
        loss = _loss_graph(spec, net, b1, b2)
        if not np.isfinite(loss.data):
            raise TrainingError("non-finite training loss", iteration=it)
        loss.backward()
        grad = flatten_grads(params)
        vec = adam_step(vec, grad, state)
        scatter_params(vec, params)
        iterations_run = it + 1

        if data is not None and (it + 1) % val_every == 0:
            val_loss = 1.0 - utility_value(spec, net, z1_val, z2_val)
            if val_loss < best_val - 1e-12:
                best_val = val_loss
                best_vec = vec.copy()
                bad = 0
            else:
                bad += 1
                if bad >= patience:
                    stopped_early = True
                    break

    if data is not None:
        scatter_params(best_vec, params)
    return {
        "iterations_run": iterations_run,
        "stopped_early": stopped_early,
        "wall_time": time.perf_counter() - t0,
    }


@dataclass(frozen=True)
class UtilityReport:
    """One repeat's in/out-of-sample utilities against the closed form."""

    v_in: float
    v_out: float
    ce_in: float
    ce_out: float
    v_star: float
    ce_star: float

    @property
    def p_in(self) -> float:
        return (self.ce_in - self.ce_star) / abs(self.ce_star)

    @property
    def p_out(self) -> float:
        return (self.ce_out - self.ce_star) / abs(self.ce_star)

    @property
    def gap(self) -> float:
        return self.p_in - self.p_out


def run_single_repeat(spec: MertonSpec, hidden, config: TrainConfig,
                      root_seed: int, repeat: int,
                      n_eval: int = 1 << 16) -> UtilityReport:
    """One independently seeded train/evaluate cycle."""
    net = _make_net(spec, hidden, derive_rng(root_seed, "init", repeat))
    train_rng = derive_rng(root_seed, "train", repeat)
    if spec.regime == "fixed-dataset":
        data = simulate_periods(spec, spec.n_data, derive_rng(root_seed, "data", repeat))
        train_portfolio(spec, net, config, train_rng, data=data)
        v_in = utility_value(spec, net, *data)
    else:
        train_portfolio(spec, net, config, train_rng, data=None)
        v_in = utility_value(spec, net,
                             *simulate_periods(spec, n_eval,
                                               derive_rng(root_seed, "data", repeat)))
    z_out = simulate_periods(spec, n_eval, derive_rng(root_seed, "eval", repeat))
    v_out = utility_value(spec, net, *z_out)
    _, v_star = closed_form_optimum(spec)
    return UtilityReport(v_in=v_in, v_out=v_out,
                         ce_in=certainty_equivalent(v_in),
                         ce_out=certainty_equivalent(v_out),
                         v_star=v_star, ce_star=certainty_equivalent(v_star))
