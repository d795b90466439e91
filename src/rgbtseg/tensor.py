"""Dense tensors with reverse-mode automatic differentiation.

Every value flowing through the model is a Tensor wrapping a float64 (or
float32) numpy array. Ops build an implicit graph through parent references;
calling ``backward()`` on a scalar walks the graph in reverse topological
order exactly once and deposits gradients on the leaf tensors that requested
them. The graph is released after backward. Binary ops compute an operand's
gradient only if that operand requires one, so frozen weights cost no
gradient arithmetic.

Non-finite results abort immediately with the name of the offending op so a
NaN can never silently poison a training run. Inside ``no_grad()`` ops record
no parents or backward closures and skip that per-op check; the caller checks
the final result once (``RgbtSegModel.predict`` does, and replays the forward
with the tape on to name the op).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from scipy import special

DEFAULT_DTYPE = np.float64


class ShapeError(ValueError):
    """Raised when operand shapes do not conform."""


class NumericError(FloatingPointError):
    """Raised when an op produces NaN or Inf from finite inputs."""


class GradCheckError(RuntimeError):
    """Raised on gradcheck precondition violations (bad eps, nondeterminism)."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Build no tape and skip the per-op finite check inside the block.

    The switch is process-wide, so the block must not overlap a taped forward
    in another thread.
    """
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _check_finite(data: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(data)):
        raise NumericError(f"non-finite value produced by op '{op}'")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the original (possibly broadcast) shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or DEFAULT_DTYPE)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._backward = None
        self._op = "leaf"

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents: tuple, backward, op: str) -> "Tensor":
        if _grad_enabled:
            _check_finite(data, op)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = parents
            out._backward = backward
        else:
            out._parents = ()
            out._backward = None
        out._op = op
        return out

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    # -- arithmetic -----------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other):
        other = Tensor._coerce(other)
        data = self.data + other.data

        def backward(g, acc):
            if self.requires_grad:
                acc(self, _unbroadcast(g, self.shape))
            if other.requires_grad:
                acc(other, _unbroadcast(g, other.shape))

        return Tensor._from_op(data, (self, other), backward, "add")

    __radd__ = __add__

    def __sub__(self, other):
        other = Tensor._coerce(other)
        data = self.data - other.data

        def backward(g, acc):
            if self.requires_grad:
                acc(self, _unbroadcast(g, self.shape))
            if other.requires_grad:
                acc(other, _unbroadcast(-g, other.shape))

        return Tensor._from_op(data, (self, other), backward, "sub")

    def __rsub__(self, other):
        return Tensor._coerce(other).__sub__(self)

    def __mul__(self, other):
        other = Tensor._coerce(other)
        data = self.data * other.data

        def backward(g, acc):
            if self.requires_grad:
                acc(self, _unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                acc(other, _unbroadcast(g * self.data, other.shape))

        return Tensor._from_op(data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor._coerce(other)
        data = self.data / other.data

        def backward(g, acc):
            if self.requires_grad:
                acc(self, _unbroadcast(g / other.data, self.shape))
            if other.requires_grad:
                acc(other, _unbroadcast(-g * self.data / (other.data ** 2), other.shape))

        return Tensor._from_op(data, (self, other), backward, "div")

    def __neg__(self):
        def backward(g, acc):
            acc(self, -g)

        return Tensor._from_op(-self.data, (self,), backward, "neg")

    def __pow__(self, exponent: float):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        data = self.data ** exponent

        def backward(g, acc):
            acc(self, g * exponent * self.data ** (exponent - 1))

        return Tensor._from_op(data, (self,), backward, "pow")

    def __matmul__(self, other):
        return matmul(self, other)

    # -- shape ops ------------------------------------------------------------

    def __getitem__(self, index):
        """numpy indexing (slices, Ellipsis, integer arrays); gradients of
        repeated indices accumulate."""
        shape = self.shape

        def backward(g, acc):
            full = np.zeros(shape, dtype=g.dtype)
            np.add.at(full, index, g)
            acc(self, full)

        return Tensor._from_op(np.asarray(self.data[index]), (self,), backward, "index")

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        data = self.data.reshape(shape)

        def backward(g, acc):
            acc(self, g.reshape(old))

        return Tensor._from_op(data, (self,), backward, "reshape")

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)

        def backward(g, acc):
            acc(self, g.transpose(inv))

        return Tensor._from_op(self.data.transpose(axes), (self,), backward, "transpose")

    def sum(self, axis=None, keepdims: bool = False):
        data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.shape

        def backward(g, acc):
            if axis is None:
                acc(self, np.broadcast_to(g, shape).copy())
            else:
                if not keepdims:
                    g = np.expand_dims(g, axis)
                acc(self, np.broadcast_to(g, shape).copy())

        return Tensor._from_op(np.asarray(data), (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            n = self.size
        elif isinstance(axis, tuple):
            n = int(np.prod([self.shape[a] for a in axis]))
        else:
            n = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- autodiff -------------------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from a scalar, populating leaf ``grad`` buffers.

        The op graph reachable from this tensor is released afterwards.
        """
        if self.size != 1:
            raise ShapeError(
                f"backward() requires a scalar loss, got shape {self.shape}"
            )
        order: list[Tensor] = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}

        def acc(t: Tensor, g: np.ndarray):
            if not t.requires_grad:
                return
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = g

        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                if not node.requires_grad:
                    continue
                # leaf with requires_grad: deposit the gradient
                if node.grad is None:
                    node.grad = np.array(g, dtype=node.data.dtype)
                else:
                    node.grad = node.grad + g
            else:
                node._backward(g, acc)
        # drop the tape
        for node in order:
            if node._backward is not None:
                node._parents = ()
                node._backward = None


# -- free functions -----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy ``matmul`` semantics (batched on leading dims)."""
    a = Tensor._coerce(a)
    b = Tensor._coerce(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims mismatch: {a.shape} vs {b.shape}")
    data = np.matmul(a.data, b.data)

    def backward(g, acc):
        if a.requires_grad:
            acc(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))
        if b.requires_grad:
            acc(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape))

    return Tensor._from_op(data, (a, b), backward, "matmul")


def exp(x: Tensor) -> Tensor:
    x = Tensor._coerce(x)
    data = np.exp(x.data)

    def backward(g, acc):
        acc(x, g * data)

    return Tensor._from_op(data, (x,), backward, "exp")


def log(x: Tensor) -> Tensor:
    x = Tensor._coerce(x)
    data = np.log(x.data)

    def backward(g, acc):
        acc(x, g / x.data)

    return Tensor._from_op(data, (x,), backward, "log")


def relu(x: Tensor) -> Tensor:
    x = Tensor._coerce(x)
    data = np.maximum(x.data, 0.0)

    def backward(g, acc):
        acc(x, g * (x.data > 0))

    return Tensor._from_op(data, (x,), backward, "relu")


def sigmoid(x: Tensor) -> Tensor:
    x = Tensor._coerce(x)
    data = special.expit(x.data)

    def backward(g, acc):
        acc(x, g * data * (1.0 - data))

    return Tensor._from_op(data, (x,), backward, "sigmoid")


_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    x = Tensor._coerce(x)
    cdf = 0.5 * (1.0 + special.erf(x.data / _SQRT2))
    data = x.data * cdf

    def backward(g, acc):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x.data ** 2)
        acc(x, g * (cdf + x.data * pdf))

    return Tensor._from_op(data, (x,), backward, "gelu")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (max-subtracted)."""
    x = Tensor._coerce(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g, acc):
        dot = (g * data).sum(axis=axis, keepdims=True)
        acc(x, data * (g - dot))

    return Tensor._from_op(data, (x,), backward, "softmax")


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [Tensor._coerce(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g, acc):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            acc(t, g[tuple(idx)])

    return Tensor._from_op(data, tuple(tensors), backward, "concat")
