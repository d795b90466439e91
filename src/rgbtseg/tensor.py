"""Dense tensors with reverse-mode automatic differentiation.

Every value flowing through the model is a Tensor wrapping a float64 numpy
array. The tape links nodes, not values: an op whose result needs a gradient
gives it a small ``_Node`` that holds the nodes of the operands that need one,
the op's backward closure and the op's name. A leaf tensor that requires grad
is its own node; operands that need no gradient (frozen weights, constants)
are not linked at all. Each closure saves exactly the arrays and shapes its
backward reads, given which operands need a gradient: a frozen ``linear``
saves none of its input, and no closure keeps an operand Tensor. So an
intermediate array lives only as long as the caller or some backward still
needs it. One array is rebuilt instead of saved: ``attention`` keeps each
softmax row's maximum and sum, not its probability matrix, and its backward
recomputes the matrix from the saved head views with the forward's own ops in
the forward's order, so the matrix and every gradient are bitwise those of a
saved one. Calling ``backward()`` on a scalar walks the nodes in reverse
topological order exactly once, deposits gradients on the leaf tensors that
requested them, and releases each node's closure and parent links as soon as
that node has run.

The tape holds only the ops the model runs. Besides the elementary ones
(``+``, ``*``, indexing, ``reshape``, ``transpose``, ``sum``, ``matmul``,
``relu``, ``sigmoid``, ``gelu`` and ``concat``) there are fused nodes for the
model's hot blocks: ``linear``, ``lora_linear``, ``layer_norm``, the
multi-head ``attention`` core (also the decoder's one-head text
cross-attention) and the segmentation loss ``ce_dice``. Each is one tape node
with a hand-written backward. Each layer node's forward runs the same numpy
ops in the same order as the elementary-op composition it replaces, so the
model's forward values are bitwise unchanged; the loss node reduces over a
class-major layout, so a loss value may differ from that composition's by
rounding. In-place steps reuse buffers only where they swap the two operands
of one product or sum, which IEEE arithmetic leaves bitwise unchanged.

Every op needs only numpy; ``gelu`` is the tanh form of GELU, not the exact
erf form.

By default every op checks its result and raises ``NumericError`` naming the
op on a NaN or Inf. ``checked(fn)`` runs a forward without that per-op
check: it tests ``fn()``'s result once and, on a non-finite value, replays
``fn()`` with the check on to name the op. ``RgbtSegModel.predict``,
``gradcheck`` and ``train.train`` run every forward they keep through it.
Inside ``no_grad()`` ops record no nodes and skip the check too, so a value
computed there is checked only where it feeds a ``checked`` result.

Backward closures are never checked per op.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not conform."""


class NumericError(FloatingPointError):
    """Raised when an op produces NaN or Inf from finite inputs."""


class GradCheckError(RuntimeError):
    """Raised on gradcheck precondition violations (bad eps, nondeterminism),
    and by ``checked`` when a replay disagrees with the run it replays."""


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


def checked(fn, *, tape: bool = False) -> Tensor:
    """``fn()``, run without the per-op finite check and, unless ``tape`` is
    set, without a tape; its result is tested once. On a NaN or Inf ``fn()``
    runs again in the caller's mode, where the per-op check raises the
    ``NumericError`` that names the op producing the value. If the replay is
    finite, ``fn`` is not deterministic and ``GradCheckError`` is raised; if
    no op of the replay raises (a non-finite leaf, or a caller inside
    ``no_grad()``), ``NumericError`` is."""
    with _mode(grad=tape, check=False):
        out = fn()
    if np.isfinite(out.data).all():
        return out
    if np.isfinite(fn().data).all():
        run = "an unchecked" if tape else "a tape-free"
        raise GradCheckError(f"f is not deterministic: {run} evaluation is "
                             "non-finite, its taped replay finite")
    raise NumericError("non-finite value produced by no checked op")


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
                or arr.size == 0 or arr.min() < 0):
            return False
        arr = np.sort(arr)
        if (arr[1:] == arr[:-1]).any():
            return False
    return True


class _Node:
    """One op on the tape: the nodes of its operands that need a gradient, and
    ``_backward(g, acc)``, which passes the gradient ``g`` of the op's result
    on by calling ``acc(parent, grad)`` for each of them."""

    __slots__ = ("_parents", "_backward", "_op")

    def __init__(self, parents: tuple, backward, op: str):
        self._parents = parents
        self._backward = backward
        self._op = op


def _grad_node(t: "Tensor"):
    """The node that receives ``t``'s gradient: its op's node, ``t`` itself
    for a leaf that requires grad, or None when ``t`` needs no gradient."""
    if t._node is not None:
        return t._node
    return t if t.requires_grad else None


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents: tuple, backward, op: str) -> "Tensor":
        """The result of op ``op``. ``parents`` holds the operands' nodes, None
        for an operand that needs no gradient; the result gets a node only if
        the tape is on and some operand needs a gradient."""
        if _check_enabled:
            _check_finite(data, op)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        linked = tuple(p for p in parents if p is not None) if _grad_enabled else ()
        out.requires_grad = bool(linked)
        out._node = _Node(linked, backward, op) if linked else None
        return out

    @property
    def _parents(self) -> tuple:
        """The parent nodes of this tensor's op; () for a leaf."""
        return self._node._parents if self._node is not None else ()

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
        return self.data.item()

    def __repr__(self):
        op = self._node._op if self._node is not None else "leaf"
        return f"Tensor(shape={self.shape}, op={op}, requires_grad={self.requires_grad})"

    # -- arithmetic -----------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other):
        other = Tensor._coerce(other)
        data = self.data + other.data
        an, bn = _grad_node(self), _grad_node(other)
        a_shape, b_shape = self.shape, other.shape

        def backward(g, acc):
            if an is not None:
                acc(an, _unbroadcast(g, a_shape))
            if bn is not None:
                acc(bn, _unbroadcast(g, b_shape))

        return Tensor._from_op(data, (an, bn), backward, "add")

    __radd__ = __add__

    def __mul__(self, other):
        other = Tensor._coerce(other)
        data = self.data * other.data
        an, bn = _grad_node(self), _grad_node(other)
        a_shape, b_shape = self.shape, other.shape
        a_data = self.data if bn is not None else None
        b_data = other.data if an is not None else None

        def backward(g, acc):
            if an is not None:
                acc(an, _unbroadcast(g * b_data, a_shape))
            if bn is not None:
                acc(bn, _unbroadcast(g * a_data, b_shape))

        return Tensor._from_op(data, (an, bn), backward, "mul")

    __rmul__ = __mul__

    # -- shape ops ------------------------------------------------------------

    def __getitem__(self, index):
        """numpy indexing (slices, Ellipsis, integer arrays); gradients of
        repeated indices accumulate."""
        node = _grad_node(self)
        shape = self.shape

        def backward(g, acc):
            full = np.zeros(shape, dtype=g.dtype)
            if _selects_each_once(index):
                full[index] = g
            else:
                np.add.at(full, index, g)
            acc(node, full)

        return Tensor._from_op(np.asarray(self.data[index]), (node,), backward, "index")

    def reshape(self, *shape):
        node = _grad_node(self)
        old = self.shape
        data = self.data.reshape(shape)

        def backward(g, acc):
            acc(node, g.reshape(old))

        return Tensor._from_op(data, (node,), backward, "reshape")

    def transpose(self, *axes):
        node = _grad_node(self)
        inv = np.argsort(axes)

        def backward(g, acc):
            acc(node, g.transpose(inv))

        return Tensor._from_op(self.data.transpose(axes), (node,), backward, "transpose")

    def sum(self, axis=None, keepdims: bool = False):
        data = self.data.sum(axis=axis, keepdims=keepdims)
        node = _grad_node(self)
        shape = self.shape

        def backward(g, acc):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            acc(node, np.broadcast_to(g, shape).copy())

        return Tensor._from_op(np.asarray(data), (node,), backward, "sum")

    def mean(self, axis: int | None = None, keepdims: bool = False):
        n = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- autodiff -------------------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from a scalar, populating leaf ``grad`` buffers.

        Each node's closure and parent links are released as soon as that node
        has run, so what it saved is freed during the walk. A graph that
        reaches a node an earlier ``backward()`` released raises RuntimeError
        naming its op before any gradient is deposited: the gradient through
        it is gone.
        """
        if self.size != 1:
            raise ShapeError(
                f"backward() requires a scalar loss, got shape {self.shape}"
            )
        root = _grad_node(self)
        if root is None:
            return
        order: list = []
        visited = set()
        stack = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            if not isinstance(node, Tensor) and node._backward is None:
                raise RuntimeError(
                    f"backward through op '{node._op}' a second time: an earlier "
                    "backward() released it")
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(root): np.ones_like(self.data)}

        def acc(node, g: np.ndarray):
            key = id(node)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = g

        for node in reversed(order):
            g = grads.pop(id(node), None)
            if isinstance(node, Tensor):  # a leaf that requires grad
                if g is None:
                    continue
                if node.grad is None:
                    node.grad = np.array(g, dtype=node.data.dtype)
                else:
                    node.grad = node.grad + g
                continue
            backward = node._backward
            node._backward, node._parents = None, ()
            if g is not None:
                backward(g, acc)


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
    an, bn = _grad_node(a), _grad_node(b)
    a_shape, b_shape = a.shape, b.shape
    a_data = a.data if bn is not None else None
    b_data = b.data if an is not None else None

    def backward(g, acc):
        if an is not None:
            acc(an, _unbroadcast(np.matmul(g, np.swapaxes(b_data, -1, -2)), a_shape))
        if bn is not None:
            acc(bn, _unbroadcast(np.matmul(np.swapaxes(a_data, -1, -2), g), b_shape))

    return Tensor._from_op(data, (an, bn), backward, "matmul")


def relu(x: Tensor) -> Tensor:
    x = Tensor._coerce(x)
    node = _grad_node(x)
    data = np.maximum(x.data, 0.0)

    def backward(g, acc):
        # the result is positive exactly where the input is
        acc(node, g * (data > 0))

    return Tensor._from_op(data, (node,), backward, "relu")


def sigmoid(x: Tensor) -> Tensor:
    """``1 / (1 + exp(-x))``, evaluated through ``exp(-|x|)`` so that no
    input overflows; exactly 0 and 1 far out on either side."""
    x = Tensor._coerce(x)
    node = _grad_node(x)
    e = np.exp(-np.abs(x.data))
    r = 1.0 / (1.0 + e)
    data = np.where(x.data >= 0, r, e * r)

    def backward(g, acc):
        acc(node, g * data * (1.0 - data))

    return Tensor._from_op(data, (node,), backward, "sigmoid")


_GELU_K = float(np.sqrt(2.0 / np.pi))
_GELU_C = 0.044715
_GELU_HALF_K, _GELU_HALF_3KC = 0.5 * _GELU_K, 1.5 * _GELU_K * _GELU_C
# beyond this |x| the tanh argument exceeds 43 and tanh is ±1 to the last
# bit, so clipping there changes no value and keeps x³ finite
_GELU_CLIP = 10.0


def gelu(x: Tensor) -> Tensor:
    """Tanh-form GELU (Hendrycks & Gimpel, arXiv:1606.08415):
    ``0.5 x (1 + tanh(√(2/π) (x + 0.044715 x³)))``, not the exact erf form.
    The cube is taken by multiplies: numpy's float ``pow`` costs tens of
    times more per element. When the result will be linked, the forward also
    forms the derivative, so the tape keeps that one array and not the
    clipped input and the tanh it is formed from."""
    x = Tensor._coerce(x)
    node = _grad_node(x)
    u = np.clip(x.data, -_GELU_CLIP, _GELU_CLIP)
    t = u * u
    t *= u
    t *= _GELU_C
    t += u
    t *= _GELU_K
    np.tanh(t, out=t)
    dydx = None
    if node is not None and _grad_enabled:
        # d/dx = (1 + t) (1/2 + x (1 - t) √(2/π) (1 + 3·0.044715 x²) / 2); the
        # factored 1 - t² keeps its precision as |t| nears 1, and past the
        # clip 1 - t or 1 + t is 0 while u keeps x² finite
        dydx = 1.0 - t
        dydx *= u
        u *= u
        u *= _GELU_HALF_3KC
        u += _GELU_HALF_K
        dydx *= u
        dydx += 0.5
    t += 1.0
    data = 0.5 * x.data
    data *= t
    if dydx is not None:
        dydx *= t

    def backward(g, acc):
        acc(node, dydx * g)

    return Tensor._from_op(data, (node,), backward, "gelu")


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [Tensor._coerce(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    nodes = [_grad_node(t) for t in tensors]
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def backward(g, acc):
        for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if node is not None:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                acc(node, g[tuple(idx)])

    return Tensor._from_op(data, tuple(nodes), backward, "concat")


# -- fused nodes --------------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w + b`` on the last axis: [..., d_in] -> [..., d_out]."""
    d_in, d_out = w.shape
    x2 = x.data.reshape(-1, d_in)
    data = np.matmul(x2, w.data)
    if b is not None:
        data += b.data
    xn, wn = _grad_node(x), _grad_node(w)
    bn = None if b is None else _grad_node(b)
    x_shape = x.shape
    w_data = w.data if xn is not None else None
    x2 = x2 if wn is not None else None

    def backward(g, acc):
        g = g.reshape(-1, d_out)
        if xn is not None:
            acc(xn, np.matmul(g, w_data.T).reshape(x_shape))
        if wn is not None:
            acc(wn, np.matmul(x2.T, g))
        if bn is not None:
            acc(bn, g.sum(axis=0))

    return Tensor._from_op(data.reshape(*x_shape[:-1], d_out), (xn, wn, bn), backward,
                           "linear")


def lora_linear(x: Tensor, w0: Tensor, b0: Tensor, a: Tensor, b: Tensor) -> Tensor:
    """``x @ w0 + (x @ aᵀ) @ bᵀ + b0`` on the last axis: a projection with a
    rank-r update, ``a`` [r, d_in] and ``b`` [d_out, r]."""
    d_in, d_out = w0.shape
    x2 = x.data.reshape(-1, d_in)
    xa = np.matmul(x2, a.data.T)
    data = np.matmul(x2, w0.data)
    data += np.matmul(xa, b.data.T)
    data += b0.data
    xn, w0n, b0n, an, bn = map(_grad_node, (x, w0, b0, a, b))
    x_shape = x.shape
    w0_data = w0.data if xn is not None else None
    a_data = a.data if xn is not None else None
    b_data = b.data if xn is not None or an is not None else None
    x2 = x2 if w0n is not None or an is not None else None
    xa = xa if bn is not None else None

    def backward(g, acc):
        g = g.reshape(-1, d_out)
        if xn is not None or an is not None:
            gxa = np.matmul(g, b_data)
        if xn is not None:
            acc(xn, (np.matmul(g, w0_data.T) + np.matmul(gxa, a_data)).reshape(x_shape))
        if w0n is not None:
            acc(w0n, np.matmul(x2.T, g))
        if b0n is not None:
            acc(b0n, g.sum(axis=0))
        if an is not None:
            acc(an, np.matmul(x2.T, gxa).T)
        if bn is not None:
            acc(bn, np.matmul(xa.T, g).T)

    return Tensor._from_op(data.reshape(*x_shape[:-1], d_out), (xn, w0n, b0n, an, bn),
                           backward, "lora_linear")


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Normalise the last axis to zero mean and unit variance, then scale by
    ``gamma`` and shift by ``beta``."""
    d = x.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True) * (1.0 / d)
    xhat = x.data - mu
    var = (xhat * xhat).sum(axis=-1, keepdims=True) * (1.0 / d)
    inv = (var + eps) ** -0.5
    xhat *= inv
    data = xhat * gamma.data
    data += beta.data
    xn, gn, bn = _grad_node(x), _grad_node(gamma), _grad_node(beta)
    gamma_data = gamma.data if xn is not None else None
    inv = inv if xn is not None else None
    xhat = xhat if xn is not None or gn is not None else None

    def backward(g, acc):
        if xn is not None:
            gx = g * gamma_data
            mean_gx = gx.mean(axis=-1, keepdims=True)
            mean_gx_xhat = (gx * xhat).mean(axis=-1, keepdims=True)
            gx -= mean_gx
            gx -= xhat * mean_gx_xhat
            gx *= inv
            acc(xn, gx)
        if gn is not None:
            acc(gn, (g * xhat).reshape(-1, d).sum(axis=0))
        if bn is not None:
            acc(bn, g.reshape(-1, d).sum(axis=0))

    return Tensor._from_op(data, (xn, gn, bn), backward, "layer_norm")


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, scale: float) -> Tensor:
    """Multi-head ``softmax(q kᵀ · scale) v`` of projected queries [..., nq, d],
    keys [..., nk, d] and values [..., nk, d_v]; ``v`` may have its own width.
    The last axis of each splits into ``heads`` heads, which merge back in the
    output [..., nq, d_v]. The softmax subtracts each row's maximum first.
    Leading axes broadcast, so one unbatched query stack can attend over a
    batch.

    The tape keeps no probability matrix [..., heads, nq, nk], the largest
    array a training step's tape would otherwise hold, but only each row's
    maximum and sum [..., heads, nq, 1], as FlashAttention does (Dao et al.,
    arXiv:2205.14135). Backward rebuilds the matrix from the saved head views
    with the forward's own ops in the forward's order, so the matrix and
    every gradient are bitwise those of a saved one, at the cost of one more
    product of the head views."""

    def split(t):  # [..., n, d] -> [..., heads, n, d / heads]
        return np.swapaxes(t.reshape(*t.shape[:-1], heads, -1), -3, -2)

    def merge(t, shape):  # [..., heads, n, d / heads] -> shape
        return np.swapaxes(t, -3, -2).reshape(shape)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    attn = np.matmul(qh, np.swapaxes(kh, -1, -2))
    attn *= scale
    row_max = attn.max(axis=-1, keepdims=True)
    attn -= row_max
    np.exp(attn, out=attn)
    row_sum = attn.sum(axis=-1, keepdims=True)
    attn /= row_sum
    out = np.swapaxes(np.matmul(attn, vh), -3, -2)
    data = out.reshape(*out.shape[:-2], -1)
    qn, kn, vn = _grad_node(q), _grad_node(k), _grad_node(v)
    q_shape, k_shape, v_shape = q.shape, k.shape, v.shape
    qh_shape, kh_shape, vh_shape = qh.shape, kh.shape, vh.shape
    vh = vh if qn is not None or kn is not None else None

    def backward(g, acc):
        attn = np.matmul(qh, np.swapaxes(kh, -1, -2))
        attn *= scale
        attn -= row_max
        np.exp(attn, out=attn)
        attn /= row_sum
        go = split(g)
        if vn is not None:
            acc(vn, merge(_unbroadcast(np.matmul(np.swapaxes(attn, -1, -2), go),
                                       vh_shape), v_shape))
        if qn is not None or kn is not None:
            gs = np.matmul(go, np.swapaxes(vh, -1, -2))
            gs -= (gs * attn).sum(axis=-1, keepdims=True)
            gs *= attn
            del attn
            gs *= scale
            if qn is not None:
                acc(qn, merge(_unbroadcast(np.matmul(gs, kh), qh_shape), q_shape))
            if kn is not None:
                acc(kn, merge(_unbroadcast(np.matmul(np.swapaxes(gs, -1, -2), qh),
                                           kh_shape), k_shape))

    return Tensor._from_op(data, (qn, kn, vn), backward, "attention")


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

    ``onehot`` and ``valid`` may be ``bool``: numpy promotes them to exactly
    1.0 and 0.0, so the result is bitwise that of float masks, at an eighth of
    their bytes. Besides the saved probabilities ``p``, the forward holds at
    most one more [C, S, N] float array at a time: each product with a mask is
    taken in place once nothing else reads the array it overwrites.
    """
    c = logits.shape[-1]
    s, n = valid.shape
    # always a copy, even where the class-major view is contiguous (C = 1):
    # the CE term overwrites it
    x = np.array(np.moveaxis(logits.data.reshape(s, n, c), -1, 0), order="C")
    xmax = x.max(axis=0)
    p = x - xmax
    np.exp(p, out=p)
    total = p.sum(axis=0)
    p /= total
    n_valid = valid.sum(axis=-1)
    weight = (n_valid > 0) / s
    ce = dice = 0.0
    if w_ce:
        x *= onehot
        per_pixel = (np.log(total) + xmax - x.sum(axis=0)) * valid
        ce = (per_pixel.sum(axis=-1) * (weight / np.maximum(n_valid, 1))).sum()
    del x
    if w_dice:
        pv = p * valid
        denom = pv.sum(axis=-1) + onehot.sum(axis=-1) + smooth
        pv *= onehot
        coef = (pv.sum(axis=-1) * 2.0 + smooth) / denom
        del pv
        dice = ((1.0 - coef.mean(axis=0)) * weight).sum()
    data = np.asarray(w_ce * ce + w_dice * dice)
    node = _grad_node(logits)
    logits_shape = logits.shape

    def backward(g, acc):
        gx = np.zeros((c, s, n))
        if w_ce:
            gx += (p - onehot) * (valid * (w_ce * weight / np.maximum(n_valid, 1))[:, None])
        if w_dice:
            # d Dice / d p[c, s, n] at a valid pixel: -w_s (2 y - coef_cs) / (C denom_cs)
            gp = ((2.0 * onehot - coef[..., None])
                  * (-w_dice * weight / (c * denom))[..., None] * valid)
            gx += p * (gp - (gp * p).sum(axis=0))
        acc(node, np.moveaxis(gx * g, 0, -1).reshape(logits_shape))

    return Tensor._from_op(data, (node,), backward, "ce_dice")
