"""Neural free-boundary optimal stopping for American/Bermudan payoffs.

The stopping rule is a boundary function learned by a network: stop the
first time the scalar state statistic alpha(S_t) crosses the learned level
Phi(t, ...).  Training relaxes the indicator rule into stopping
probabilities p_t = g(d_t) with d_t the clipped, scaled distance to the
boundary (the fuzzy region has half-width eps), and maximises the
expected relaxed payoff, one autodiff node described below, by gradient
ascent.  Evaluation always uses the sharp first-crossing rule on fresh
risk-neutral paths.

Geometry per payoff:

- put (d = 1): alpha(s) = s, exercise region lies below the boundary, so
  the rule is  stop when Phi(t) - s >= 0.  The boundary net sees t/T only.
- max-call: alpha(s) = max_i s_i and the exercise region lies above the
  boundary F(t, s/m(s)) evaluated on the unit-max simplex, so the rule
  flips sign: stop when alpha - Phi >= 0.  Scaling s by lambda >= 1 moves
  alpha up and leaves the simplex coordinate unchanged, which makes the
  induced stopping region star-shaped by construction.

Both cases share one implementation through an orientation sign:
stop iff orientation * (Phi - alpha) >= 0, with ties stopping.

Because the put boundary depends on t alone, its net runs once per date,
on one row of t/T, in training and in evaluation alike, and Phi(t) is
broadcast over the paths.  The max-call rows differ per path and stay one
row per (date, path).

The relaxed value V = mean_paths sum_k p_k prod_{j<k} (1 - p_j) w_k, with
w_k = e^{-r t_k} phi(S_k) and p_N = 1, is one autodiff node.  Its forward
is the backward recursion C_N = w_N, C_k = p_k w_k + (1 - p_k) C_{k+1},
V = mean C_0; its backward is

    dV/dp_k = surv_k (w_k - C_{k+1}) / m,   surv_k = prod_{j<k} (1 - p_j),

which never divides by 1 - p: p = 1 before maturity occurs whenever the
gap clips.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ContractError, DimensionError
from .markets import GbmParams, PathBatch, TimeMesh, simulate_gbm
from .nn import MLP, Tensor, TrainConfig, TrainReport, train
from .rng import derive_rng

__all__ = [
    "payoff_put",
    "payoff_max_call",
    "StoppingSpec",
    "BoundaryNet",
    "PriceEstimate",
    "sharp_evaluate",
    "evaluate_price",
    "train_boundary",
    "boundary_grid_rows",
    "price_report",
]


# ----------------------------------------------------------------------
# payoffs


def payoff_put(s, strike: float):
    """(K - s)+ for a single-asset price (scalar, (m,) or (m,1) array)."""
    s = np.asarray(s, dtype=np.float64)
    if s.ndim == 2:
        if s.shape[1] != 1:
            raise DimensionError("put payoff is single-asset")
        s = s[:, 0]
    return np.maximum(strike - s, 0.0)


def payoff_max_call(s, strike: float):
    """(max_i s_i - K)+ for a price vector ((d,) or (m,d) array)."""
    s = np.asarray(s, dtype=np.float64)
    return np.maximum(s.max(axis=-1) - strike, 0.0)


# ----------------------------------------------------------------------
# spec


@dataclass(frozen=True)
class StoppingSpec:
    """Payoff, discounting, mesh and relaxation profile for one problem."""

    payoff_kind: str  # "put" | "max_call"
    strike: float
    rate: float
    mesh: TimeMesh
    eps: float = 0.1
    g_kind: str = "linear"  # "linear" | "scaled-sigmoid"

    def __post_init__(self):
        if self.payoff_kind not in ("put", "max_call"):
            raise ContractError(f"unknown payoff kind {self.payoff_kind!r}")
        if self.g_kind not in ("linear", "scaled-sigmoid"):
            raise ContractError(f"unknown relaxation profile {self.g_kind!r}")
        if self.strike <= 0.0:
            raise ContractError("strike must be positive")
        if self.eps <= 0.0:
            raise ContractError("fuzziness eps must be positive")

    @property
    def orientation(self) -> float:
        """Sign o such that the rule is: stop iff o * (Phi - alpha) >= 0."""
        return 1.0 if self.payoff_kind == "put" else -1.0

    def payoff(self, s: np.ndarray) -> np.ndarray:
        if self.payoff_kind == "put":
            return payoff_put(s, self.strike)
        return payoff_max_call(s, self.strike)

    def alpha(self, s: np.ndarray) -> np.ndarray:
        """Scalar state statistic compared against the boundary level."""
        s = np.asarray(s, dtype=np.float64)
        if self.payoff_kind == "put":
            if s.ndim != 2 or s.shape[1] != 1:
                raise DimensionError("put alpha expects (m, 1) prices")
            return s[:, 0]
        return s.max(axis=1)

    def discounts(self) -> np.ndarray:
        return np.exp(-self.rate * self.mesh.times)

    def g(self, x):
        """Relaxation profile on [-1, 1] -> [0, 1]; works on arrays and
        autodiff tensors alike."""
        if self.g_kind == "linear":
            return (x + 1.0) * 0.5
        k = 4.0
        lo = _sigmoid(-k)
        hi = _sigmoid(k)
        return (_sigmoid(x * k) - lo) * (1.0 / (hi - lo))

    def stop_probs(self, phi, alpha):
        """Relaxed stopping probabilities g(clip(o (Phi - alpha) / eps));
        phi may be an array or an autodiff tensor that broadcasts
        against alpha.  The relaxed value never reads date N: p_N = 1."""
        gap = (phi - alpha) * self.orientation
        return self.g((gap * (1.0 / self.eps)).clip(-1.0, 1.0))

    def to_dict(self) -> dict:
        return {
            "payoff_kind": self.payoff_kind,
            "strike": self.strike,
            "rate": self.rate,
            "mesh_times": self.mesh.times.tolist(),
            "eps": self.eps,
            "g_kind": self.g_kind,
        }

    def content_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _sigmoid(x):
    if isinstance(x, Tensor):
        return x.sigmoid()
    x = np.asarray(x, dtype=np.float64)
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


# ----------------------------------------------------------------------
# boundary network


_INIT_LEVEL_FACTOR = {"put": 0.8, "max_call": 1.3}
_LAST_LAYER_DAMP = 0.3


@dataclass
class BoundaryNet:
    """Boundary level Phi as a network of normalised time (and, for the
    max-call, the unit-max simplex coordinate s/m(s)).

    The raw network output is multiplied by out_scale (the strike) so a
    unit move of the optimiser moves the boundary at price scale.
    """

    net: MLP
    kind: str
    maturity: float
    out_scale: float
    n_assets: int

    @classmethod
    def create(cls, kind: str, n_assets: int, strike: float, maturity: float,
               hidden=(32, 32), activation: str = "tanh",
               init_level: float | None = None,
               rng: np.random.Generator | None = None) -> "BoundaryNet":
        if kind not in ("put", "max_call"):
            raise ContractError(f"unknown payoff kind {kind!r}")
        if kind == "put" and n_assets != 1:
            raise DimensionError("put boundary is single-asset")
        in_dim = 1 if kind == "put" else 1 + n_assets
        net = MLP([in_dim, *hidden, 1], activation=activation, rng=rng)
        # damp the initial wobble and park the level at a sane payoff scale
        net.weights[-1].data *= _LAST_LAYER_DAMP
        if init_level is None:
            init_level = _INIT_LEVEL_FACTOR[kind] * strike
        net.biases[-1].data[:] = init_level / strike
        return cls(net=net, kind=kind, maturity=maturity,
                   out_scale=strike, n_assets=n_assets)

    # -- feature encodings ---------------------------------------------

    @property
    def time_only(self) -> bool:
        """Phi depends on t alone (the put), so one net row per date stands
        for every path.  Batch norm rules it out: its running variance
        counts rows, so collapsing them would change what training records."""
        return self.kind == "put" and not any(self.net.bn_flags)

    def features(self, t: float, s: np.ndarray) -> np.ndarray:
        """Encode one time and a block of states (m, d)."""
        s = np.asarray(s, dtype=np.float64)
        m = s.shape[0]
        tau = np.full((m, 1), t / self.maturity)
        if self.kind == "put":
            return tau
        z = s / s.max(axis=1, keepdims=True)
        return np.concatenate([tau, z], axis=1)

    def features_batch(self, batch: PathBatch) -> np.ndarray:
        """Encode a whole batch time-major, so the net output reshapes to
        (N+1, m), or to (N+1, 1) when Phi depends on t alone and one row
        per date is encoded."""
        times = batch.mesh.times
        if self.time_only:
            return (times / self.maturity)[:, None]
        blocks = [self.features(t, batch.prices[:, k, :]) for k, t in enumerate(times)]
        return np.concatenate(blocks, axis=0)

    def level(self, t: float, s: np.ndarray) -> np.ndarray:
        """Boundary level Phi at one time for states (m, d); pure numpy."""
        if self.time_only:
            return np.full(len(s), self.time_level(t))
        return self.net.forward_eval(self.features(t, s))[:, 0] * self.out_scale

    def time_level(self, t: float) -> float:
        """Phi(t) of a time-only boundary (see time_only): one net row."""
        return self.net.forward_eval(np.array([[t / self.maturity]]))[0, 0] * self.out_scale

    # -- persistence -----------------------------------------------------

    def to_dict(self) -> dict:
        return {"kind": self.kind, "maturity": self.maturity,
                "out_scale": self.out_scale, "n_assets": self.n_assets,
                "net": self.net.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "BoundaryNet":
        return cls(net=MLP.from_dict(d["net"]), kind=d["kind"],
                   maturity=float(d["maturity"]), out_scale=float(d["out_scale"]),
                   n_assets=int(d["n_assets"]))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path) -> "BoundaryNet":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _check_compatible(boundary: BoundaryNet, spec: StoppingSpec, batch: PathBatch) -> None:
    if boundary.kind != spec.payoff_kind:
        raise ContractError(f"boundary kind {boundary.kind!r} != spec {spec.payoff_kind!r}")
    if batch.n_assets != boundary.n_assets:
        raise DimensionError(f"batch has {batch.n_assets} assets, boundary {boundary.n_assets}")
    if batch.mesh.times.shape != spec.mesh.times.shape or \
            not np.array_equal(batch.mesh.times, spec.mesh.times):
        raise ContractError("batch mesh differs from spec mesh")


# ----------------------------------------------------------------------
# relaxed stopping algebra


def _per_date(fn, batch: PathBatch) -> np.ndarray:
    """fn applied to each date's states, stacked time-major: (N+1, m)."""
    return np.stack([fn(batch.prices[:, k, :]) for k in range(batch.prices.shape[1])])


def _stop_weights(batch: PathBatch, spec: StoppingSpec) -> np.ndarray:
    """Discounted payoffs w_k = e^{-r t_k} phi(S_k), time-major (N+1, m)."""
    return spec.discounts()[:, None] * _per_date(spec.payoff, batch)


def _relaxed_value_node(p: Tensor, w: np.ndarray) -> Tensor:
    """V = mean_paths C_0 as one autodiff node over time-major p (N+1, m),
    with C_N = w_N and C_k = p_k w_k + (1 - p_k) C_{k+1}; row N of p is
    not read (p_N = 1).

    dV/dp_k = surv_k (w_k - C_{k+1}) / m with surv_k = prod_{j<k} (1 - p_j)
    for k < N, and 0 for row N.
    """
    n1, m = w.shape
    c = np.empty_like(w)
    c[-1] = w[-1]
    for k in range(n1 - 2, -1, -1):
        c[k] = p.data[k] * w[k] + (1.0 - p.data[k]) * c[k + 1]

    def backward(out: Tensor) -> None:
        surv = np.ones((n1 - 1, m))
        np.cumprod(1.0 - p.data[:-2], axis=0, out=surv[1:])
        grad = np.zeros_like(p.data)
        grad[:-1] = surv * (w[:-1] - c[1:]) * (out.grad / m)
        p._accumulate(grad, fresh=True)

    return Tensor._make(np.asarray(c[0].mean()), (p,), backward)


# ----------------------------------------------------------------------
# sharp evaluation


@dataclass(frozen=True)
class PriceEstimate:
    price: float
    std_error: float
    n_paths: int


# paths per block of the first-crossing scan: a block's per-date
# temporaries stay in cache instead of being faulted in afresh each date
_CROSSING_BLOCK = 4096


def _first_crossing(boundary: BoundaryNet, batch: PathBatch,
                    spec: StoppingSpec) -> np.ndarray:
    """Index of the first time with orientation * (Phi - alpha) >= 0;
    maturity if never crossed (ties stop).

    Paths are scanned in blocks of _CROSSING_BLOCK; within a block only
    the live paths are evaluated at each date.  A time-only boundary is
    evaluated once per date for all blocks."""
    times = spec.mesh.times
    n1 = times.size
    tau = np.full(batch.n_paths, n1 - 1, dtype=np.int64)
    levels = ([boundary.time_level(t) for t in times[:-1]]
              if boundary.time_only else None)
    for start in range(0, batch.n_paths, _CROSSING_BLOCK):
        prices = batch.prices[start:start + _CROSSING_BLOCK]
        tau_block = tau[start:start + _CROSSING_BLOCK]
        live = np.arange(prices.shape[0])
        for k in range(n1 - 1):
            s_k = prices[live, k, :]
            phi = boundary.level(times[k], s_k) if levels is None else levels[k]
            hit = spec.orientation * (phi - spec.alpha(s_k)) >= 0.0
            tau_block[live[hit]] = k
            live = live[~hit]
            if live.size == 0:
                break
    return tau


def _stopped_values(boundary: BoundaryNet, batch: PathBatch,
                    spec: StoppingSpec) -> np.ndarray:
    """Per-path discounted payoff at the first crossing."""
    tau = _first_crossing(boundary, batch, spec)
    s_tau = batch.prices[np.arange(batch.n_paths), tau, :]
    return spec.discounts()[tau] * spec.payoff(s_tau)


def _moments(values: np.ndarray) -> tuple[int, float, float]:
    """(count, mean, sum of squared deviations from the mean)."""
    mean = float(values.mean())
    dev = values - mean
    return values.size, mean, float((dev * dev).sum())


def _estimate(n: int, mean: float, m2: float) -> PriceEstimate:
    se = float(np.sqrt(m2 / (n - 1) / n)) if n > 1 else float("nan")
    return PriceEstimate(price=mean, std_error=se, n_paths=n)


def sharp_evaluate(boundary: BoundaryNet, batch: PathBatch,
                   spec: StoppingSpec) -> PriceEstimate:
    """First-crossing Monte Carlo value of the boundary rule."""
    _check_compatible(boundary, spec, batch)
    batch.require_risk_neutral("sharp evaluation")
    return _estimate(*_moments(_stopped_values(boundary, batch, spec)))


def evaluate_price(boundary: BoundaryNet, market: GbmParams, spec: StoppingSpec,
                   n_paths: int, seed: int, chunk_size: int = 1 << 17) -> PriceEstimate:
    """Sharp evaluation on freshly simulated risk-neutral paths, streamed
    in chunks so multi-million-path runs stay in memory.  Chunk moments
    merge by the pairwise update of Chan, Golub & LeVeque, which does not
    cancel when the payoff barely varies; one chunk gives exactly
    sharp_evaluate on the batch of derive_rng(seed, "eval", 0)."""
    if n_paths <= 0:
        raise ContractError("n_paths must be positive")
    n, mean, m2 = 0, 0.0, 0.0
    chunk_index = 0
    while n < n_paths:
        rng = derive_rng(seed, "eval", chunk_index)
        batch = simulate_gbm(market, spec.mesh, min(chunk_size, n_paths - n), rng)
        n_b, mean_b, m2_b = _moments(_stopped_values(boundary, batch, spec))
        total = n + n_b
        delta = mean_b - mean
        mean += delta * (n_b / total)
        m2 += m2_b + delta * delta * (n * n_b / total)
        n = total
        chunk_index += 1
    return _estimate(n, mean, m2)


# ----------------------------------------------------------------------
# training


def _relaxed_value_graph(boundary: BoundaryNet, batch: PathBatch,
                         spec: StoppingSpec, train_mode: bool = True) -> Tensor:
    """Autodiff relaxed value of the boundary rule on one batch.

    This is the one consumer allowed to read tilted batches: the tilt
    changes where gradients are collected, not the objective's form.
    """
    feats = boundary.features_batch(batch)
    phi = boundary.net.forward(feats, train=train_mode) * boundary.out_scale
    # (N+1, 1) for a time-only boundary, broadcast over paths; else (N+1, m)
    phi = phi.reshape(spec.mesh.times.size, -1)
    p = spec.stop_probs(phi, _per_date(spec.alpha, batch))
    return _relaxed_value_node(p, _stop_weights(batch, spec))


def train_boundary(spec: StoppingSpec, boundary: BoundaryNet, market: GbmParams,
                   config: TrainConfig, drift_tilt: float = 0.0,
                   eps_final: float | None = None) -> TrainReport:
    """Maximise the relaxed value by SGD on fresh batches (loss = -value).

    drift_tilt is applied to the training batches only; all reported
    prices must come from evaluate_price / sharp_evaluate on untilted
    paths.

    eps_final anneals the fuzzy half-width geometrically from spec.eps to
    eps_final across the iteration budget: a wide band early so most paths
    carry boundary gradient, a narrow band late so the trained boundary
    optimises an objective close to the sharp one.
    """
    if boundary.kind != spec.payoff_kind:
        raise ContractError(f"boundary kind {boundary.kind!r} != spec {spec.payoff_kind!r}")
    if market.n_assets != boundary.n_assets:
        raise DimensionError("market asset count differs from boundary")
    if eps_final is not None and eps_final <= 0.0:
        raise ContractError("eps_final must be positive")

    span = max(config.iterations - 1, 1)
    if eps_final is None or eps_final == spec.eps:
        def spec_at(it: int) -> StoppingSpec:
            return spec
    else:
        ratio = eps_final / spec.eps
        def spec_at(it: int) -> StoppingSpec:
            return replace(spec, eps=spec.eps * ratio ** (it / span))

    def objective(it: int, rng: np.random.Generator) -> Tensor:
        batch = simulate_gbm(market, spec.mesh, config.batch_size, rng,
                             drift_tilt=drift_tilt)
        return -_relaxed_value_graph(boundary, batch, spec_at(it))

    report = train(objective, boundary.net.parameters(), config)
    report.stats["drift_tilt"] = drift_tilt
    report.stats["spec_hash"] = spec.content_hash()
    if eps_final is not None:
        report.stats["eps_final"] = eps_final
    return report


# ----------------------------------------------------------------------
# exports


def boundary_grid_rows(boundary: BoundaryNet, spec: StoppingSpec,
                       n_coord: int = 21) -> list[tuple]:
    """(time, coordinate..., level) rows for plotting/export.

    put: one row per mesh date, no coordinate.  max-call d=2: simplex
    sweep (u, 1) and (1, u); higher d: per-axis sweeps with the other
    coordinates at 1.
    """
    rows: list[tuple] = []
    if boundary.kind == "put":
        for t in spec.mesh.times:
            rows.append((float(t), float(boundary.level(float(t), np.ones((1, 1)))[0])))
        return rows
    us = np.linspace(0.05, 1.0, n_coord)
    for t in spec.mesh.times:
        for axis in range(boundary.n_assets):
            pts = np.ones((n_coord, boundary.n_assets))
            pts[:, axis] = us
            levels = boundary.level(float(t), pts)
            for u, lev in zip(us, levels):
                coord = [1.0] * boundary.n_assets
                coord[axis] = float(u)
                rows.append((float(t), *coord, float(lev)))
    return rows


def price_report(estimate: PriceEstimate, spec: StoppingSpec, seed: int) -> dict:
    return {
        "price": estimate.price,
        "std_error": estimate.std_error,
        "n_paths": estimate.n_paths,
        "seed": seed,
        "spec_hash": spec.content_hash(),
    }
