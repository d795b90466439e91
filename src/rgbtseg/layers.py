"""Neural building blocks: linear/1x1 conv, layer norm, attention, SE gating,
patch embedding, transformer blocks, 2x2 transposed conv, bilinear resize.

Layers register their parameters into a ParamRegistry at construction under a
hierarchical name prefix, all trainable: ``params.ledger_group`` decides what
the model freezes. ``PatchEmbed`` makes images into token sequences
[..., Hp·Wp, d]; only the layers that work on pixel positions
(``ConvTranspose2x2``, ``bilinear_resize``) take grids [..., H, W, d]. Every
layer takes any number of leading batch axes, and a call without one is the
zero-leading-axes case of the same code. No constructor re-checks its
dimensions: ``RunConfig.validate`` holds those rules, and the model runs it
before it builds a layer.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import tensor as T
from .lora import LoraLinear
from .params import ParamRegistry
from .tensor import ShapeError, Tensor


def tokens_to_grid(x: Tensor, h: int, w: int) -> Tensor:
    """Row-major tokens [..., h·w, d] as the grid [..., h, w, d]."""
    *lead, _, d = x.shape
    return x.reshape(*lead, h, w, d)


def _permute_trailing(x: Tensor, *axes: int) -> Tensor:
    """Permute the last ``len(axes)`` axes by ``axes``; leading axes stay."""
    lead = x.ndim - len(axes)
    return x.transpose(*range(lead), *(lead + a for a in axes))


class Linear:
    """Affine map on the last axis: y = x W + b. Also serves as a 1x1 conv."""

    def __init__(self, reg: ParamRegistry, name: str, d_in: int, d_out: int,
                 rng: np.random.Generator, init_gain: float = 1.0,
                 zero_init: bool = False):
        self.d_in, self.d_out = d_in, d_out
        if zero_init:
            w = np.zeros((d_in, d_out))
        else:
            w = rng.normal(0.0, init_gain / np.sqrt(d_in), size=(d_in, d_out))
        self.W = reg.register(f"{name}.W", Tensor(w))
        self.b = reg.register(f"{name}.b", Tensor(np.zeros(d_out)))

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.d_in:
            raise ShapeError(f"linear expects last dim {self.d_in}, got {x.shape}")
        return T.linear(x, self.W, self.b)


class LayerNorm:
    EPS = 1e-6

    def __init__(self, reg: ParamRegistry, name: str, d: int):
        self.gamma = reg.register(f"{name}.gamma", Tensor(np.ones(d)))
        self.beta = reg.register(f"{name}.beta", Tensor(np.zeros(d)))

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta, self.EPS)


class MultiHeadAttention:
    """Scaled dot-product attention with optional low-rank adapters on Q/V.

    ``lora_rank`` wraps the Q and V projections in LoraLinear;
    K and the output projection stay plain. Queries are [..., nq, d] and
    keys/values [..., nk, d]; the leading axes broadcast, so one unbatched
    query stack can attend over a batch.
    """

    def __init__(self, reg: ParamRegistry, name: str, d: int, heads: int,
                 rng: np.random.Generator, lora_rank: int | None = None):
        self.heads = heads
        self.scale = 1.0 / np.sqrt(d // heads)

        # Independent child generators per projection: base weights must not
        # depend on whether a sibling projection carries an adapter.
        rq, rk, rv, ro = rng.spawn(4)

        def proj(pname, sub):
            if lora_rank is not None:
                return LoraLinear(reg, f"{name}.{pname}", d, lora_rank, sub)
            return Linear(reg, f"{name}.{pname}", d, d, sub)

        self.q_proj = proj("q", rq)
        self.k_proj = Linear(reg, f"{name}.k", d, d, rk)
        self.v_proj = proj("v", rv)
        self.out_proj = Linear(reg, f"{name}.out", d, d, ro)

    def __call__(self, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        return self.out_proj(T.attention(self.q_proj(q), self.k_proj(k),
                                         self.v_proj(v), self.heads, self.scale))


class SEBlock:
    """Squeeze-and-excitation channel gating over a [..., n, d] token
    sequence; each sequence is squeezed over its own n tokens."""

    def __init__(self, reg: ParamRegistry, name: str, d: int, reduction: int,
                 rng: np.random.Generator, init_gain: float = 1.0):
        hidden = d // reduction
        self.fc1 = Linear(reg, f"{name}.fc1", d, hidden, rng, init_gain)
        self.fc2 = Linear(reg, f"{name}.fc2", hidden, d, rng, init_gain)

    def __call__(self, x: Tensor) -> Tensor:
        squeeze = x.mean(axis=-2, keepdims=True)
        return x * T.sigmoid(self.fc2(T.relu(self.fc1(squeeze))))


class PatchEmbed(Linear):
    """Non-overlapping patchify + linear projection: an image [..., H, W, c]
    to tokens [..., Hp·Wp, d], patch (i, j) at token i·Wp + j.

    Each p x p x c patch is flattened row-major (row, col, channel) before
    projection; checkpoint portability depends on this order.
    """

    def __init__(self, reg: ParamRegistry, name: str, patch: int, in_ch: int,
                 d: int, rng: np.random.Generator, init_gain: float = 1.0):
        super().__init__(reg, name, patch * patch * in_ch, d, rng, init_gain)
        self.patch = patch

    def __call__(self, img: Tensor) -> Tensor:
        *lead, h, w, c = img.shape
        p = self.patch
        if h < p or w < p:
            raise ShapeError(f"image {h}x{w} is smaller than patch size {p}")
        if h % p != 0 or w % p != 0:
            raise ShapeError(f"image {h}x{w} not divisible by patch size {p}")
        hp, wp = h // p, w // p
        x = _permute_trailing(img.reshape(*lead, hp, p, wp, p, c), 0, 2, 1, 3, 4)
        return super().__call__(x.reshape(*lead, hp * wp, p * p * c))


class Mlp:
    """Transformer feed-forward: linear(d -> mult*d) -> GELU -> linear(-> d)."""

    def __init__(self, reg: ParamRegistry, name: str, d: int,
                 rng: np.random.Generator, mult: int = 4):
        self.fc1 = Linear(reg, f"{name}.fc1", d, mult * d, rng)
        self.fc2 = Linear(reg, f"{name}.fc2", mult * d, d, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(T.gelu(self.fc1(x)))


class TransformerBlock:
    """Pre-norm residual block: x + MHA(LN(x)), then + MLP(LN(.))."""

    def __init__(self, reg: ParamRegistry, name: str, d: int, heads: int,
                 rng: np.random.Generator, lora_rank: int | None = None):
        ra, rm = rng.spawn(2)
        self.ln1 = LayerNorm(reg, f"{name}.ln1", d)
        self.attn = MultiHeadAttention(reg, f"{name}.attn", d, heads, ra, lora_rank)
        self.ln2 = LayerNorm(reg, f"{name}.ln2", d)
        self.mlp = Mlp(reg, f"{name}.mlp", d, rm)

    def __call__(self, x: Tensor) -> Tensor:
        h = self.ln1(x)
        x = x + self.attn(h, h, h)
        return x + self.mlp(self.ln2(x))


class ConvTranspose2x2:
    """Stride-2, kernel-2 transposed conv: [..., H, W, d_in] -> [..., 2H, 2W, d_out].

    Kernel equals stride, so each input pixel expands independently into a
    2x2 output block: a per-pixel linear map followed by a pixel shuffle.
    """

    def __init__(self, reg: ParamRegistry, name: str, d_in: int, d_out: int,
                 rng: np.random.Generator):
        self.d_in, self.d_out = d_in, d_out
        self.W = reg.register(f"{name}.W", Tensor(
            rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_in, 4 * d_out))))
        self.b = reg.register(f"{name}.b", Tensor(np.zeros(d_out)))

    def __call__(self, x: Tensor) -> Tensor:
        *lead, h, w, _ = x.shape
        y = T.linear(x, self.W).reshape(*lead, h, w, 2, 2, self.d_out)
        y = _permute_trailing(y, 0, 2, 1, 3, 4).reshape(*lead, 2 * h, 2 * w, self.d_out)
        return y + self.b


@lru_cache(maxsize=None)
def _resize_matrix(n_in: int, n_out: int) -> np.ndarray:
    """1-d bilinear interpolation matrix (align_corners=False, edge-clamped)."""
    m = np.zeros((n_out, n_in))
    for i in range(n_out):
        src = (i + 0.5) * n_in / n_out - 0.5
        lo = int(np.floor(src))
        frac = src - lo
        lo_c = min(max(lo, 0), n_in - 1)
        hi_c = min(max(lo + 1, 0), n_in - 1)
        m[i, lo_c] += 1.0 - frac
        m[i, hi_c] += frac
    return m


def bilinear_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Differentiable bilinear resize of a [..., H, W, C] tensor."""
    *lead, h, w, c = x.shape
    rh = Tensor(_resize_matrix(h, out_h))
    rw = Tensor(_resize_matrix(w, out_w))
    y = T.matmul(rh, x.reshape(*lead, h, w * c)).reshape(*lead, out_h, w, c)
    y = _permute_trailing(y, 1, 0, 2).reshape(*lead, w, out_h * c)
    y = T.matmul(rw, y).reshape(*lead, out_w, out_h, c)
    return _permute_trailing(y, 1, 0, 2)
