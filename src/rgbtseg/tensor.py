"""Dense tensors with reverse-mode automatic differentiation.

Every value flowing through the model is a Tensor wrapping a float64 (or
float32) numpy array. Ops build an implicit graph through parent references;
calling ``backward()`` on a scalar walks the graph in reverse topological
order exactly once and deposits gradients on the leaf tensors that requested
them. The graph is released after backward. Ops compute an operand's gradient
only if that operand requires one, so frozen weights cost no gradient
arithmetic.

Besides the elementary ops there are fused nodes for the model's hot blocks:
``linear``, ``lora_linear``, ``layer_norm``, the multi-head ``attention``
core and the segmentation loss ``ce_dice``. Each is one tape node with a
hand-written backward that keeps only what that backward reads. Each layer
node's forward runs the same numpy ops in the same order as the elementary-op
composition it replaces, so the model's forward values are bitwise unchanged;
the loss node reduces over a class-major layout, so a loss value may differ
from that composition's by rounding.

By default every op checks its result and raises ``NumericError`` naming the
op on a NaN or Inf. Two switches skip that per-op check; the caller checks the
final result once and, on a non-finite value, replays the same ops with the
check on to name the op:

- inside ``no_grad()`` ops also record no parents or backward closures
  (``RgbtSegModel.predict``, and ``gradcheck`` for every evaluation of its
  function except the one it backpropagates);
- inside ``unchecked()`` the tape is kept, so ``backward()`` still works
  (``train.train``, which also checks every trainable gradient).

Backward closures are never checked per op.
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
_check_enabled = True


@contextmanager
def _mode(grad: bool, check: bool):
    """Turn the tape and/or the per-op finite check off inside the block; an
    inner block never turns either back on. The switches are process-wide, so
    the block must not overlap a forward in another thread."""
    global _grad_enabled, _check_enabled
    previous = _grad_enabled, _check_enabled
    _grad_enabled, _check_enabled = grad and _grad_enabled, check and _check_enabled
    try:
        yield
    finally:
        _grad_enabled, _check_enabled = previous


def no_grad():
    """Build no tape and skip the per-op finite check inside the block."""
    return _mode(grad=False, check=False)


def unchecked():
    """Keep the tape but skip the per-op finite check inside the block."""
    return _mode(grad=True, check=False)


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


def _selects_each_once(index) -> bool:
    """Whether ``index`` reads no element twice, so its gradient can be
    assigned instead of accumulated with the slow ``np.add.at``: every part is
    a slice, an int or ``Ellipsis``, except at most one 1-D array of distinct
    non-negative integers (a negative entry could alias a positive one)."""
    arrays = 0
    for part in index if isinstance(index, tuple) else (index,):
        if part is Ellipsis or isinstance(part, slice) or (
                isinstance(part, (int, np.integer)) and not isinstance(part, bool)):
            continue
        arr = np.asarray(part)
        arrays += 1
        if (arrays > 1 or arr.ndim != 1 or arr.dtype.kind not in "iu"
                or arr.size == 0 or arr.min() < 0
                or np.unique(arr).size != arr.size):
            return False
    return True


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
        if _check_enabled:
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
            if _selects_each_once(index):
                full[index] = g
            else:
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


# -- fused nodes --------------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w + b`` on the last axis: [..., d_in] -> [..., d_out]."""
    d_in, d_out = w.shape
    x2 = x.data.reshape(-1, d_in)
    data = np.matmul(x2, w.data)
    if b is not None:
        data = data + b.data

    def backward(g, acc):
        g = g.reshape(-1, d_out)
        if x.requires_grad:
            acc(x, np.matmul(g, w.data.T).reshape(x.shape))
        if w.requires_grad:
            acc(w, np.matmul(x2.T, g))
        if b is not None and b.requires_grad:
            acc(b, g.sum(axis=0))

    parents = (x, w) if b is None else (x, w, b)
    return Tensor._from_op(data.reshape(*x.shape[:-1], d_out), parents, backward,
                           "linear")


def lora_linear(x: Tensor, w0: Tensor, b0: Tensor | None, a: Tensor, b: Tensor,
                scale: float) -> Tensor:
    """``x @ w0 + scale * (x @ aᵀ) @ bᵀ + b0`` on the last axis: a projection
    with a rank-r update, ``a`` [r, d_in] and ``b`` [d_out, r]."""
    d_in, d_out = w0.shape
    x2 = x.data.reshape(-1, d_in)
    xa = np.matmul(x2, a.data.T)
    data = np.matmul(x2, w0.data) + np.matmul(xa, b.data.T) * scale
    if b0 is not None:
        data = data + b0.data

    def backward(g, acc):
        g = g.reshape(-1, d_out)
        gu = g * scale
        gxa = np.matmul(gu, b.data)
        if x.requires_grad:
            acc(x, (np.matmul(g, w0.data.T) + np.matmul(gxa, a.data)).reshape(x.shape))
        if w0.requires_grad:
            acc(w0, np.matmul(x2.T, g))
        if b0 is not None and b0.requires_grad:
            acc(b0, g.sum(axis=0))
        if a.requires_grad:
            acc(a, np.matmul(x2.T, gxa).T)
        if b.requires_grad:
            acc(b, np.matmul(xa.T, gu).T)

    parents = (x, w0, a, b) if b0 is None else (x, w0, b0, a, b)
    return Tensor._from_op(data.reshape(*x.shape[:-1], d_out), parents, backward,
                           "lora_linear")


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Normalise the last axis to zero mean and unit variance, then scale by
    ``gamma`` and shift by ``beta``."""
    d = x.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True) * (1.0 / d)
    centered = x.data - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) * (1.0 / d)
    inv = (var + eps) ** -0.5
    xhat = centered * inv
    data = xhat * gamma.data + beta.data

    def backward(g, acc):
        if x.requires_grad:
            gx = g * gamma.data
            acc(x, inv * (gx - gx.mean(axis=-1, keepdims=True)
                          - xhat * (gx * xhat).mean(axis=-1, keepdims=True)))
        if gamma.requires_grad:
            acc(gamma, (g * xhat).reshape(-1, d).sum(axis=0))
        if beta.requires_grad:
            acc(beta, g.reshape(-1, d).sum(axis=0))

    return Tensor._from_op(data, (x, gamma, beta), backward, "layer_norm")


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, scale: float) -> Tensor:
    """Multi-head ``softmax(q kᵀ · scale) v`` of projected queries [..., nq, d]
    and keys/values [..., nk, d]: the last axis splits into ``heads`` heads,
    which merge back in the output [..., nq, d]. Leading axes broadcast, so one
    unbatched query stack can attend over a batch."""

    def split(t):  # [..., n, d] -> [..., heads, n, d / heads]
        return np.swapaxes(t.reshape(*t.shape[:-1], heads, -1), -3, -2)

    def merge(t, like):  # [..., heads, n, d / heads] -> like.shape
        return np.swapaxes(t, -3, -2).reshape(like.shape)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scores = np.matmul(qh, np.swapaxes(kh, -1, -2)) * scale
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    out = np.swapaxes(np.matmul(attn, vh), -3, -2)
    data = out.reshape(*out.shape[:-2], -1)

    def backward(g, acc):
        go = split(g)
        if v.requires_grad:
            acc(v, merge(_unbroadcast(np.matmul(np.swapaxes(attn, -1, -2), go),
                                      vh.shape), v))
        if q.requires_grad or k.requires_grad:
            ga = np.matmul(go, np.swapaxes(vh, -1, -2))
            gs = attn * (ga - (ga * attn).sum(axis=-1, keepdims=True)) * scale
            if q.requires_grad:
                acc(q, merge(_unbroadcast(np.matmul(gs, kh), qh.shape), q))
            if k.requires_grad:
                acc(k, merge(_unbroadcast(np.matmul(np.swapaxes(gs, -1, -2), qh),
                                          kh.shape), k))

    return Tensor._from_op(data, (q, k, v), backward, "attention")


def ce_dice(logits: Tensor, onehot: np.ndarray, valid: np.ndarray,
            w_ce: float, w_dice: float, smooth: float) -> Tensor:
    """``w_ce * CE + w_dice * Dice`` of the logits [..., C] of S images of N
    pixels each, against class-major one-hot labels ``onehot`` [C, S, N] that
    are 0 wherever the 0/1 mask ``valid`` [S, N] is.

    Per image, CE is the mean over valid pixels of -log softmax(logits)[label]
    and Dice is 1 - the class mean of (2 I + smooth) / (U + smooth), where I
    and U sum p * onehot and p + onehot over the valid pixels. Both terms are
    then averaged over the S images; an image without valid pixels adds 0. A
    zero weight skips its term. The class axis runs first so that every class
    reduction is an elementwise op over [S, N] planes.
    """
    c = logits.shape[-1]
    s, n = valid.shape
    x = np.ascontiguousarray(np.moveaxis(logits.data.reshape(s, n, c), -1, 0))
    xmax = x.max(axis=0)
    e = np.exp(x - xmax)
    total = e.sum(axis=0)
    p = e / total
    n_valid = valid.sum(axis=-1)
    weight = (n_valid > 0) / s
    ce = dice = 0.0
    if w_ce:
        per_pixel = (np.log(total) + xmax - (x * onehot).sum(axis=0)) * valid
        ce = (per_pixel.sum(axis=-1) * (weight / np.maximum(n_valid, 1))).sum()
    if w_dice:
        pv = p * valid
        denom = pv.sum(axis=-1) + onehot.sum(axis=-1) + smooth
        coef = ((pv * onehot).sum(axis=-1) * 2.0 + smooth) / denom
        dice = ((1.0 - coef.mean(axis=0)) * weight).sum()
    data = np.asarray(w_ce * ce + w_dice * dice)

    def backward(g, acc):
        gx = np.zeros_like(x)
        if w_ce:
            gx += (p - onehot) * (valid * (w_ce * weight / np.maximum(n_valid, 1))[:, None])
        if w_dice:
            # d Dice / d p[c, s, n] at a valid pixel: -w_s (2 y - coef_cs) / (C denom_cs)
            gp = ((2.0 * onehot - coef[..., None])
                  * (-w_dice * weight / (c * denom))[..., None] * valid)
            gx += p * (gp - (gp * p).sum(axis=0))
        acc(logits, np.moveaxis(gx * g, 0, -1).reshape(logits.shape))

    return Tensor._from_op(data, (logits,), backward, "ce_dice")
