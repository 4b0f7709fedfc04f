"""Reverse-mode automatic differentiation on numpy arrays.

A Tensor wraps a float64 ndarray together with a gradient buffer and a
backward function.  Operations build a DAG; Tensor.backward() walks it once
in reverse topological order and accumulates gradients into every node
that requires them.  Broadcasting follows numpy rules; the backward pass
sums gradients back down to the original shapes.

Conventions that matter for training:

- "Scalar" means any size-1 Tensor, whatever its shape: (), (1,) and
  (1, 1) all qualify.  backward() may only be called on a scalar, and
  float() converts only a scalar (ContractError otherwise).
- Gradients accumulate across calls; zero them between iterations.
- relu has subgradient 0 at 0; clip passes gradient only strictly inside
  the interval.  Both choices are pinned by tests.
- The topological sort is iterative, so graphs with thousands of
  sequential steps (long time meshes) do not hit the recursion limit.

Memory conventions:

- Graphs are acyclic.  A node stores its backward function as
  ``_backward(out)``: it receives the node as its argument and closes
  over the node's parents only, and backward() calls
  ``node._backward(node)``.  Reference counting therefore frees a whole
  graph as soon as its loss is dropped, without the cyclic collector.
- ``_accumulate(g, fresh=True)`` takes ownership of ``g`` instead of
  copying it: the caller promises that ``g`` is a newly allocated array
  that nothing else refers to.  Broadcast views, parents' data and other
  nodes' gradients must go through the copying default.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import ContractError, DimensionError, DomainError

__all__ = ["Tensor", "as_tensor", "gradcheck"]


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if keep:
        grad = grad.sum(axis=keep, keepdims=True)
    return grad


class Tensor:
    # make numpy defer to our reflected operators instead of building
    # object arrays when the left operand is an ndarray
    __array_ufunc__ = None
    __array_priority__ = 1000

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable[[Tensor], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    # ------------------------------------------------------------------
    # plumbing

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __len__(self) -> int:
        return len(self.data)

    def __float__(self) -> float:
        if self.data.size != 1:
            raise ContractError("only a size-1 Tensor converts to float")
        return self.data.item()

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray, fresh: bool = False) -> None:
        if self.grad is None:
            if fresh and type(g) is np.ndarray and g.shape == self.data.shape:
                self.grad = g
                return
            # owned copy at full shape; g may be a broadcast view or scalar
            self.grad = np.empty_like(self.data)
            self.grad[...] = g
        else:
            self.grad += g

    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[["Tensor"], None]) -> "Tensor":
        """Build an op result; prune the graph where no parent needs grads."""
        live = tuple(p for p in parents if p.requires_grad)
        out = Tensor(data, requires_grad=bool(live))
        if live:
            out._parents = live
            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other

        def backward(out: "Tensor") -> None:
            if a.requires_grad:
                a._accumulate(_unbroadcast(out.grad, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(out.grad, b.shape))

        return Tensor._make(a.data + b.data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        a = self

        def backward(out: "Tensor") -> None:
            a._accumulate(-out.grad, fresh=True)

        return Tensor._make(-a.data, (a,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other

        def backward(out: "Tensor") -> None:
            if a.requires_grad:
                a._accumulate(_unbroadcast(out.grad * b.data, a.shape), fresh=True)
            if b.requires_grad:
                b._accumulate(_unbroadcast(out.grad * a.data, b.shape), fresh=True)

        return Tensor._make(a.data * b.data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other

        def backward(out: "Tensor") -> None:
            if a.requires_grad:
                a._accumulate(_unbroadcast(out.grad / b.data, a.shape), fresh=True)
            if b.requires_grad:
                b._accumulate(_unbroadcast(-out.grad * a.data / (b.data * b.data), b.shape),
                              fresh=True)

        return Tensor._make(a.data / b.data, (a, b), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise ContractError("Tensor ** exponent supports scalar exponents only")
        e = float(exponent)
        a = self

        def backward(out: "Tensor") -> None:
            a._accumulate(out.grad * e * a.data ** (e - 1.0), fresh=True)

        return Tensor._make(a.data ** e, (a,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other
        if a.ndim != 2 or b.ndim != 2:
            raise DimensionError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
        if a.shape[1] != b.shape[0]:
            raise DimensionError(f"matmul shapes {a.shape} @ {b.shape} do not align")

        def backward(out: "Tensor") -> None:
            if a.requires_grad:
                a._accumulate(out.grad @ b.data.T, fresh=True)
            if b.requires_grad:
                b._accumulate(a.data.T @ out.grad, fresh=True)

        return Tensor._make(a.data @ b.data, (a, b), backward)

    def linear(self, w, b) -> "Tensor":
        """x @ w + b as one node, for a (batch, in) input, an (in, out)
        weight and an (out,) bias."""
        x, w, b = self, as_tensor(w), as_tensor(b)
        if x.ndim != 2 or w.ndim != 2:
            raise DimensionError(f"linear expects 2-D operands, got {x.shape} @ {w.shape}")
        if x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
            raise DimensionError(f"linear shapes {x.shape} @ {w.shape} + {b.shape} do not align")

        def backward(out: "Tensor") -> None:
            g = out.grad
            if x.requires_grad:
                x._accumulate(g @ w.data.T, fresh=True)
            if w.requires_grad:
                w._accumulate(x.data.T @ g, fresh=True)
            if b.requires_grad:
                b._accumulate(g.sum(axis=0), fresh=True)

        value = x.data @ w.data
        value += b.data
        return Tensor._make(value, (x, w, b), backward)

    # ------------------------------------------------------------------
    # elementwise nonlinearities

    def exp(self) -> "Tensor":
        a = self
        value = np.exp(a.data)

        def backward(out: "Tensor") -> None:
            a._accumulate(out.grad * out.data, fresh=True)

        return Tensor._make(value, (a,), backward)

    def log(self) -> "Tensor":
        a = self
        if np.any(a.data <= 0.0):
            raise DomainError("log requires strictly positive entries")

        def backward(out: "Tensor") -> None:
            a._accumulate(out.grad / a.data, fresh=True)

        return Tensor._make(np.log(a.data), (a,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        a = self
        value = np.tanh(a.data)

        def backward(out: "Tensor") -> None:
            a._accumulate(out.grad * (1.0 - out.data * out.data), fresh=True)

        return Tensor._make(value, (a,), backward)

    def sigmoid(self) -> "Tensor":
        a = self
        # numerically stable on both tails
        value = np.where(a.data >= 0.0,
                         1.0 / (1.0 + np.exp(-np.abs(a.data))),
                         np.exp(-np.abs(a.data)) / (1.0 + np.exp(-np.abs(a.data))))

        def backward(out: "Tensor") -> None:
            a._accumulate(out.grad * out.data * (1.0 - out.data), fresh=True)

        return Tensor._make(value, (a,), backward)

    def relu(self) -> "Tensor":
        a = self
        mask = a.data > 0.0  # subgradient at 0 is 0

        def backward(out: "Tensor") -> None:
            a._accumulate(out.grad * mask, fresh=True)

        return Tensor._make(a.data * mask, (a,), backward)

    def clip(self, lo: float | None, hi: float | None) -> "Tensor":
        """Clamp to [lo, hi]; gradient flows only strictly inside."""
        a = self
        value = np.clip(a.data, lo, hi)
        mask = np.ones_like(a.data, dtype=bool)
        if lo is not None:
            mask &= a.data > lo
        if hi is not None:
            mask &= a.data < hi

        def backward(out: "Tensor") -> None:
            a._accumulate(out.grad * mask, fresh=True)

        return Tensor._make(value, (a,), backward)

    # ------------------------------------------------------------------
    # reductions and shape ops

    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        a = self
        value = a.data.sum(axis=axis, keepdims=keepdims)

        def backward(out: "Tensor") -> None:
            g = out.grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                g = np.expand_dims(g, tuple(ax % a.ndim for ax in axes))
            a._accumulate(np.broadcast_to(g, a.shape))

        return Tensor._make(value, (a,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.shape[ax] for ax in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        value = a.data.reshape(shape)

        def backward(out: "Tensor") -> None:
            a._accumulate(out.grad.reshape(a.shape))

        return Tensor._make(value, (a,), backward)

    def __getitem__(self, idx) -> "Tensor":
        a = self
        value = a.data[idx]

        def backward(out: "Tensor") -> None:
            g = np.zeros_like(a.data)
            np.add.at(g, idx, out.grad)
            a._accumulate(g, fresh=True)

        return Tensor._make(np.array(value, copy=True), (a,), backward)

    # ------------------------------------------------------------------
    # backward

    def backward(self) -> None:
        """Reverse-mode sweep from this scalar through the whole graph."""
        if self.data.size != 1:
            raise ContractError("backward() requires a scalar Tensor")
        if not self.requires_grad:
            raise ContractError("backward() on a Tensor with no graph attached")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def gradcheck(fn: Callable[[Sequence[Tensor]], Tensor],
              tensors: Iterable[Tensor],
              eps: float = 1e-6) -> float:
    """Max relative error between autodiff and central finite differences.

    ``fn`` must map the tensors to a scalar (size-1) loss.  The relative error is
    |g_ad - g_fd| / max(1, |g_ad|, |g_fd|), maximised over all entries.
    """
    tensors = list(tensors)
    for t in tensors:
        t.zero_grad()
    loss = fn(tensors)
    loss.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors]

    worst = 0.0
    for t, g_ad in zip(tensors, analytic):
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = float(fn(tensors))
            flat[i] = keep - eps
            lo = float(fn(tensors))
            flat[i] = keep
            g_fd = (hi - lo) / (2.0 * eps)
            g = g_ad.reshape(-1)[i]
            worst = max(worst, abs(g - g_fd) / max(1.0, abs(g), abs(g_fd)))
    return worst
