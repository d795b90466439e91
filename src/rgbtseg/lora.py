"""Low-rank adaptation of frozen linear projections: W = W0 + (alpha/r) * B A.

A is initialized N(0, 1/r), B starts at zero, so an adapted layer computes
exactly the frozen layer's function until the first optimizer step. The
adapter path is evaluated as two thin matmuls inside one fused tape node
(``tensor.lora_linear``); the dense W is never formed.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .params import ParamRegistry
from .tensor import ShapeError, Tensor


class LoraConfigError(ValueError):
    pass


class LoraLinear:
    """Frozen base projection with a trainable rank-r update on top.

    Weights are stored row-convention ([d_in, d_out], applied as x @ W), so
    the update term enters as x @ A^T @ B^T.
    """

    def __init__(self, reg: ParamRegistry, name: str, d: int, rank: int,
                 alpha: float | None, rng: np.random.Generator,
                 base_frozen: bool = True, bias: bool = True):
        if rank < 1 or rank >= d:
            raise LoraConfigError(f"rank must satisfy 1 <= r < d, got r={rank}, d={d}")
        self.d, self.rank = d, rank
        self.alpha = float(alpha) if alpha is not None else float(rank)
        self.scale = self.alpha / rank
        std = 1.0 / np.sqrt(d)
        self.W0 = reg.register(f"{name}.W0", Tensor(rng.normal(0.0, std, (d, d))),
                               frozen=base_frozen)
        self.b0 = None
        if bias:
            self.b0 = reg.register(f"{name}.b0", Tensor(np.zeros(d)), frozen=base_frozen)
        self.A = reg.register(f"{name}.lora.A",
                              Tensor(rng.normal(0.0, 1.0 / np.sqrt(rank), (rank, d))),
                              frozen=False)
        self.B = reg.register(f"{name}.lora.B", Tensor(np.zeros((d, rank))),
                              frozen=False)

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.d:
            raise ShapeError(f"lora layer expects last dim {self.d}, got {x.shape}")
        return T.lora_linear(x, self.W0, self.b0, self.A, self.B, self.scale)
