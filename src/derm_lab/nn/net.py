"""Feed-forward networks with optional per-hidden-layer batch normalisation.

Initialisation is Glorot-uniform weights with zero biases.  forward()
builds an autodiff graph of two or three nodes per hidden layer (the
affine map, batch norm if enabled, the activation); in train mode it also
updates the batch-norm running statistics.  forward_eval() is plain numpy,
a pure function of (parameters, running statistics, input).  Checkpoints
are JSON and round-trip bit-exactly because python floats serialise via
repr.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..errors import ContractError, DimensionError
from .tensor import Tensor, as_tensor

__all__ = ["MLP", "BatchNorm", "ACTIVATIONS"]


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


# tag -> (graph op, numpy op)
ACTIVATIONS = {
    "relu": (lambda t: t.relu(), lambda x: np.maximum(x, 0.0)),
    "tanh": (lambda t: t.tanh(), np.tanh),
    "sigmoid": (lambda t: t.sigmoid(), _sigmoid_np),
    "identity": (lambda t: t, lambda x: x),
}


class BatchNorm:
    """Batch normalisation over axis 0 with trainable scale and shift.

    Normalisation uses the biased batch variance; the running variance is
    updated with the unbiased estimate (standard convention).  forward()
    is one autodiff node.  In train mode its backward is the closed form
    of Ioffe & Szegedy (2015): with x_hat the normalised input, g the
    output gradient and inv = (var + eps)^-1/2,

        dx = gamma inv (g - mean(g) - x_hat mean(g x_hat)),

    the means taken over the batch.
    """

    def __init__(self, width: int, momentum: float = 0.1, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(width), requires_grad=True)
        self.beta = Tensor(np.zeros(width), requires_grad=True)
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)
        self.momentum = float(momentum)
        self.eps = float(eps)

    def forward(self, x: Tensor, train: bool) -> Tensor:
        """train=True normalises with the batch statistics and updates the
        running statistics; train=False uses the running statistics."""
        gamma, beta = self.gamma, self.beta
        m = x.shape[0]
        if train:
            mu = x.data.sum(axis=0) * (1.0 / m)
            x_hat = x.data - mu
            var = (x_hat * x_hat).sum(axis=0) * (1.0 / m)
            inv = (var + self.eps) ** -0.5
            x_hat *= inv

            unbiased = var * (m / (m - 1.0)) if m > 1 else var
            k = self.momentum
            self.running_mean = (1.0 - k) * self.running_mean + k * mu
            self.running_var = (1.0 - k) * self.running_var + k * unbiased
        else:
            inv = 1.0 / np.sqrt(self.running_var + self.eps)
            x_hat = (x.data - self.running_mean) * inv
        value = x_hat * gamma.data
        value += beta.data

        def backward(out: Tensor) -> None:
            g = out.grad
            g_beta = g.sum(axis=0)
            g_gamma = (g * x_hat).sum(axis=0)
            if x.requires_grad:
                if train:
                    gx = x_hat * (g_gamma * (-1.0 / m))
                    gx += g
                    gx -= g_beta * (1.0 / m)
                    gx *= gamma.data * inv
                else:
                    gx = g * (gamma.data * inv)
                x._accumulate(gx, fresh=True)
            if gamma.requires_grad:
                gamma._accumulate(g_gamma, fresh=True)
            if beta.requires_grad:
                beta._accumulate(g_beta, fresh=True)

        return Tensor._make(value, (x, gamma, beta), backward)

    def forward_eval(self, x: np.ndarray) -> np.ndarray:
        inv = 1.0 / np.sqrt(self.running_var + self.eps)
        return self.gamma.data * (x - self.running_mean) * inv + self.beta.data

    def parameters(self) -> list[Tensor]:
        return [self.gamma, self.beta]


class MLP:
    """Fully connected net: affine -> [batch norm] -> activation per hidden
    layer, linear output layer.

    batch_norm may be a bool (all hidden layers) or a sequence of bools,
    one per hidden layer.
    """

    def __init__(self, layer_sizes, activation: str = "relu",
                 batch_norm=False, rng: np.random.Generator | None = None):
        layer_sizes = [int(n) for n in layer_sizes]
        if len(layer_sizes) < 2 or any(n <= 0 for n in layer_sizes):
            raise ContractError(f"bad layer sizes {layer_sizes}")
        if activation not in ACTIVATIONS:
            raise ContractError(f"unknown activation {activation!r}, "
                                f"choose from {sorted(ACTIVATIONS)}")
        n_hidden = len(layer_sizes) - 2
        if isinstance(batch_norm, bool):
            bn_flags = [batch_norm] * n_hidden
        else:
            bn_flags = [bool(b) for b in batch_norm]
            if len(bn_flags) != n_hidden:
                raise ContractError(f"batch_norm needs {n_hidden} flags, got {len(bn_flags)}")
        if rng is None:
            rng = np.random.default_rng(0)

        self.layer_sizes = layer_sizes
        self.activation = activation
        self.bn_flags = bn_flags
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        self.norms: list[BatchNorm | None] = []
        for i, (fan_in, fan_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(Tensor(rng.uniform(-limit, limit, (fan_in, fan_out)),
                                       requires_grad=True))
            self.biases.append(Tensor(np.zeros(fan_out), requires_grad=True))
            is_hidden = i < len(layer_sizes) - 2
            self.norms.append(BatchNorm(fan_out) if (is_hidden and bn_flags[i]) else None)

    # ------------------------------------------------------------------

    def _check_input(self, x: np.ndarray) -> None:
        if x.ndim != 2:
            raise DimensionError(f"expected 2-D input (batch, features), got shape {x.shape}")
        if x.shape[1] != self.layer_sizes[0]:
            raise DimensionError(f"input width {x.shape[1]} != first layer {self.layer_sizes[0]}")

    def forward(self, x, train: bool = False) -> Tensor:
        """Graph-building forward pass.

        train=True uses batch statistics in the norm layers and updates the
        running statistics as a side effect; train=False uses the running
        statistics (but still builds a graph, e.g. for fine-tuning).
        """
        h = as_tensor(x)
        self._check_input(h.data)
        act = ACTIVATIONS[self.activation][0]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h.linear(w, b)
            if i < last:
                if self.norms[i] is not None:
                    h = self.norms[i].forward(h, train)
                h = act(h)
        return h

    def forward_eval(self, x: np.ndarray) -> np.ndarray:
        """Pure-numpy forward with running statistics; no graph."""
        x = np.asarray(x, dtype=np.float64)
        self._check_input(x)
        act = ACTIVATIONS[self.activation][1]
        last = len(self.weights) - 1
        h = x
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w.data + b.data
            if i < last:
                if self.norms[i] is not None:
                    h = self.norms[i].forward_eval(h)
                h = act(h)
        return h

    # ------------------------------------------------------------------
    # parameter bookkeeping (canonical order: per layer W, b, gamma, beta)

    def parameters(self) -> list[Tensor]:
        out: list[Tensor] = []
        for w, b, norm in zip(self.weights, self.biases, self.norms):
            out.extend([w, b])
            if norm is not None:
                out.extend(norm.parameters())
        return out

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def param_vector(self) -> np.ndarray:
        return np.concatenate([p.data.reshape(-1) for p in self.parameters()])

    def set_param_vector(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        total = sum(p.size for p in self.parameters())
        if vec.shape != (total,):
            raise DimensionError(f"expected parameter vector of length {total}, got {vec.shape}")
        off = 0
        for p in self.parameters():
            p.data = vec[off:off + p.size].reshape(p.shape).copy()
            off += p.size

    # ------------------------------------------------------------------
    # JSON checkpoints

    def to_dict(self) -> dict:
        norms = []
        for norm in self.norms:
            if norm is None:
                norms.append(None)
            else:
                norms.append({
                    "gamma": norm.gamma.data.tolist(),
                    "beta": norm.beta.data.tolist(),
                    "running_mean": norm.running_mean.tolist(),
                    "running_var": norm.running_var.tolist(),
                    "momentum": norm.momentum,
                    "eps": norm.eps,
                })
        return {
            "layer_sizes": self.layer_sizes,
            "activation": self.activation,
            "batch_norm": self.bn_flags,
            "weights": [w.data.tolist() for w in self.weights],
            "biases": [b.data.tolist() for b in self.biases],
            "norms": norms,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MLP":
        net = cls(d["layer_sizes"], activation=d["activation"], batch_norm=d["batch_norm"])
        for w, data in zip(net.weights, d["weights"]):
            w.data = np.asarray(data, dtype=np.float64)
        for b, data in zip(net.biases, d["biases"]):
            b.data = np.asarray(data, dtype=np.float64)
        for norm, nd in zip(net.norms, d["norms"]):
            if norm is None:
                continue
            norm.gamma.data = np.asarray(nd["gamma"], dtype=np.float64)
            norm.beta.data = np.asarray(nd["beta"], dtype=np.float64)
            norm.running_mean = np.asarray(nd["running_mean"], dtype=np.float64)
            norm.running_var = np.asarray(nd["running_var"], dtype=np.float64)
            norm.momentum = float(nd["momentum"])
            norm.eps = float(nd["eps"])
        return net

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path) -> "MLP":
        return cls.from_dict(json.loads(Path(path).read_text()))
