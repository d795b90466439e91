"""AdamW: decoupled decay, freeze protection, convergence on a quadratic."""

import numpy as np
import pytest

from rgbtseg.optim import AdamW, FreezeViolationError
from rgbtseg.params import ParamRegistry
from rgbtseg.tensor import Tensor


def test_zero_grad_step_is_pure_decay():
    reg = ParamRegistry()
    p = reg.register("p", Tensor(np.array([1.0, -2.0, 0.5])))
    opt = AdamW(reg, lr=1e-3, weight_decay=0.1)
    before = p.data.copy()
    opt.step()
    assert np.abs(p.data - before * (1.0 - 1e-3 * 0.1)).max() <= 1e-15


def test_frozen_param_with_grad_raises():
    reg = ParamRegistry()
    p = reg.register("frozen_p", Tensor(np.ones(2)))
    reg.freeze("frozen_p")
    opt = AdamW(reg, lr=1e-3, weight_decay=0.0)
    p.grad = np.ones(2)
    with pytest.raises(FreezeViolationError):
        opt.step()


def test_frozen_param_never_moves():
    reg = ParamRegistry()
    frozen = reg.register("f", Tensor(np.array([3.0])))
    reg.freeze("f")
    live = reg.register("t", Tensor(np.array([3.0])))
    opt = AdamW(reg, lr=0.1, weight_decay=0.01)
    for _ in range(5):
        live.grad = np.array([1.0])
        opt.step()
    assert frozen.data[0] == 3.0
    assert live.data[0] != 3.0


def test_converges_on_quadratic():
    reg = ParamRegistry()
    x = reg.register("x", Tensor(np.array([5.0, -5.0])))
    opt = AdamW(reg, lr=0.1, weight_decay=0.0)
    for _ in range(300):
        x.grad = 2.0 * (x.data - np.array([1.0, 2.0]))
        opt.step()
    assert np.allclose(x.data, [1.0, 2.0], atol=1e-2)


def test_step_direction_uses_bias_correction():
    """First step moves by ~lr regardless of gradient magnitude."""
    reg = ParamRegistry()
    x = reg.register("x", Tensor(np.array([0.0])))
    opt = AdamW(reg, lr=0.01, weight_decay=0.0)
    x.grad = np.array([1e-3])
    opt.step()
    assert np.isclose(abs(x.data[0]), 0.01, rtol=1e-3)
