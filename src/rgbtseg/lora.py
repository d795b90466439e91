"""Low-rank adaptation of frozen linear projections: W = W0 + B A.

The update runs at alpha = r, so its scale alpha/r is 1: under Adam a larger
alpha acts much like a larger learning rate, and ``train.lr`` sets that.

A is initialized N(0, 1/r), B starts at zero, so an adapted layer computes
exactly the base layer's function until the first optimizer step. In the
model W0 and b0 are frozen: ``params.ledger_group`` claims only A and B. The
adapter path is evaluated as two thin matmuls inside one fused tape node
(``tensor.lora_linear``); the dense W is never formed.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .params import ParamRegistry
from .tensor import ShapeError, Tensor


class LoraLinear:
    """Base projection (W0, b0) with a rank-r update (A, B) on top.

    Weights are stored row-convention ([d_in, d_out], applied as x @ W), so
    the update term enters as x @ A^T @ B^T. ``rank`` lies in [1, d), as
    ``RunConfig.validate`` ensures.
    """

    def __init__(self, reg: ParamRegistry, name: str, d: int, rank: int,
                 rng: np.random.Generator):
        self.d = d
        std = 1.0 / np.sqrt(d)
        self.W0 = reg.register(f"{name}.W0", Tensor(rng.normal(0.0, std, (d, d))))
        self.b0 = reg.register(f"{name}.b0", Tensor(np.zeros(d)))
        self.A = reg.register(f"{name}.lora.A",
                              Tensor(rng.normal(0.0, 1.0 / np.sqrt(rank), (rank, d))))
        self.B = reg.register(f"{name}.lora.B", Tensor(np.zeros((d, rank))))

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.d:
            raise ShapeError(f"lora layer expects last dim {self.d}, got {x.shape}")
        return T.lora_linear(x, self.W0, self.b0, self.A, self.B)
