"""AdamW with decoupled weight decay over a parameter registry.

Optimizer state exists only for trainable entries; a gradient appearing on a
frozen parameter is a freeze violation and aborts the step.
"""

from __future__ import annotations

import numpy as np

from .params import ParamRegistry


class FreezeViolationError(RuntimeError):
    pass


# the moment decays and the denominator's floor of Adam (arXiv:1412.6980)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def check_frozen(registry: ParamRegistry) -> None:
    """Raise ``FreezeViolationError`` naming the first frozen parameter that
    holds a gradient."""
    for name, p in registry.frozen():
        if p.grad is not None:
            raise FreezeViolationError(f"gradient present on frozen parameter '{name}'")


class AdamW:
    def __init__(self, registry: ParamRegistry, lr: float, weight_decay: float):
        self.registry = registry
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self._moments: dict[str, tuple[np.ndarray, np.ndarray]] = {
            name: (np.zeros_like(p.data), np.zeros_like(p.data))
            for name, p in registry.trainable()
        }

    def step(self) -> None:
        check_frozen(self.registry)
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for name, p in self.registry.trainable():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m, v = self._moments[name]
            if self.weight_decay:
                p.data *= 1.0 - self.lr * self.weight_decay
            m[...] = BETA1 * m + (1.0 - BETA1) * g
            v[...] = BETA2 * v + (1.0 - BETA2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)

    def zero_grad(self) -> None:
        self.registry.zero_grad()
