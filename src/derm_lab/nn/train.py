"""Generic simulation-based training loop.

Every experiment in the package reduces to the same procedure: draw a
fresh batch, compute a scalar loss on the autodiff graph, backpropagate,
take one Adam step on the flat parameter vector.  train() owns that loop;
callers supply an objective closure that maps (iteration, rng) to a loss
Tensor and a list of trainable leaf tensors.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..errors import ContractError, DimensionError, TrainingError
from ..rng import derive_rng
from .optim import AdamState, adam_step
from .tensor import Tensor

__all__ = ["TrainConfig", "TrainReport", "train",
           "flatten_params", "flatten_grads", "scatter_params"]


@dataclass
class TrainConfig:
    batch_size: int
    iterations: int
    learning_rate: float = 1e-3
    lr_final: float | None = None  # geometric decay target; None = constant
    avg_tail: float = 0.0  # fraction of final iterates averaged into the result
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    stop_rule: str = "fixed"  # "fixed" | "plateau"
    plateau_rel_tol: float = 1e-4
    plateau_patience: int = 500

    def __post_init__(self):
        if self.batch_size <= 0 or self.iterations <= 0:
            raise ContractError("batch_size and iterations must be positive")
        if self.lr_final is not None and self.lr_final <= 0.0:
            raise ContractError("lr_final must be positive")
        if not 0.0 <= self.avg_tail <= 1.0:
            raise ContractError("avg_tail must lie in [0, 1]")
        if self.stop_rule not in ("fixed", "plateau"):
            raise ContractError(f"unknown stop_rule {self.stop_rule!r}")
        if self.stop_rule == "plateau" and self.avg_tail > 0.0:
            # the stop may come before the averaged tail starts
            raise ContractError("stop_rule 'plateau' needs avg_tail 0")


@dataclass
class TrainReport:
    losses: np.ndarray
    iterations_run: int
    final_params: np.ndarray
    seed: int
    wall_time: float
    stats: dict = field(default_factory=dict)


def flatten_params(params: Sequence[Tensor]) -> np.ndarray:
    if not params:
        return np.zeros(0)
    return np.concatenate([p.data.reshape(-1) for p in params])


def flatten_grads(params: Sequence[Tensor]) -> np.ndarray:
    parts = []
    for p in params:
        parts.append(np.zeros(p.size) if p.grad is None else p.grad.reshape(-1))
    return np.concatenate(parts) if parts else np.zeros(0)


def scatter_params(vec: np.ndarray, params: Sequence[Tensor]) -> None:
    total = sum(p.size for p in params)
    if vec.shape != (total,):
        raise DimensionError(f"expected vector of length {total}, got {vec.shape}")
    off = 0
    for p in params:
        p.data = vec[off:off + p.size].reshape(p.shape).copy()
        off += p.size


def train(objective: Callable[[int, np.random.Generator], Tensor],
          params: Sequence[Tensor],
          config: TrainConfig,
          rng: np.random.Generator | None = None) -> TrainReport:
    """Minimise E[objective] by stochastic gradient descent with Adam.

    objective(iteration, rng) must simulate a fresh batch and return the
    scalar loss Tensor.  params are updated in place each iteration.  All
    batch randomness flows through one generator derived from config.seed
    (or the one passed in), so runs are reproducible.
    """
    params = list(params)
    if not params:
        raise ContractError("no trainable parameters")
    if rng is None:
        rng = derive_rng(config.seed, "train")

    vec = flatten_params(params)
    state = AdamState.init(len(vec), lr=config.learning_rate, beta1=config.beta1,
                           beta2=config.beta2, eps=config.adam_eps)
    span = max(config.iterations - 1, 1)
    lr_ratio = None
    if config.lr_final is not None and config.lr_final != config.learning_rate:
        lr_ratio = config.lr_final / config.learning_rate
    losses: list[float] = []

    # Polyak tail averaging: SGD on a noisy objective keeps bouncing around
    # the optimum at a radius set by the learning rate; the mean of the late
    # iterates sits closer to it than the last one does.
    avg_from = config.iterations - int(round(config.avg_tail * config.iterations))
    avg_vec = np.zeros_like(vec)
    avg_count = 0

    ema = None
    best_ema = math.inf
    stale = 0

    t0 = time.perf_counter()
    iterations_run = 0
    for it in range(config.iterations):
        for p in params:
            p.zero_grad()
        loss = objective(it, rng)
        if not isinstance(loss, Tensor) or loss.size != 1:
            raise ContractError("objective must return a scalar Tensor")
        value = float(loss)
        if not math.isfinite(value):
            raise TrainingError("non-finite loss", iteration=it)
        loss.backward()
        grad = flatten_grads(params)
        if lr_ratio is not None:
            state.lr = config.learning_rate * lr_ratio ** (it / span)
        try:
            vec = adam_step(vec, grad, state)
        except TrainingError as err:
            raise TrainingError("non-finite gradient entries", iteration=it) from err
        scatter_params(vec, params)
        losses.append(value)
        iterations_run = it + 1
        if it >= avg_from:
            avg_vec += vec
            avg_count += 1

        if config.stop_rule == "plateau":
            ema = value if ema is None else 0.02 * value + 0.98 * ema
            if ema < best_ema - config.plateau_rel_tol * max(1.0, abs(best_ema)):
                best_ema = ema
                stale = 0
            else:
                stale += 1
                if stale >= config.plateau_patience:
                    break

    if avg_count > 0:
        vec = avg_vec / avg_count
        scatter_params(vec, params)

    return TrainReport(losses=np.asarray(losses), iterations_run=iterations_run,
                       final_params=vec.copy(), seed=config.seed,
                       wall_time=time.perf_counter() - t0)
