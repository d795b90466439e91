"""Low-rank adapters: init identity, scaling, rank checks, freezing."""

import numpy as np
import pytest

from rgbtseg.lora import LoraConfigError, LoraLinear
from rgbtseg.params import ParamRegistry
from rgbtseg.tensor import Tensor


def _make(rank=4, alpha=None, d=16, seed=0):
    reg = ParamRegistry()
    return LoraLinear(reg, "proj", d, rank, alpha, np.random.default_rng(seed)), reg


def test_b_starts_at_zero():
    layer, _ = _make()
    assert not layer.B.data.any()
    assert layer.A.data.any()


def test_identity_at_init(rng):
    layer, _ = _make()
    x = Tensor(rng.normal(size=(5, 16)))
    base_only = x.data @ layer.W0.data + layer.b0.data
    assert np.allclose(layer(x).data, base_only, atol=1e-15)


def test_alpha_over_rank_scaling(rng):
    a1, _ = _make(rank=4, alpha=4.0, seed=3)
    a2, _ = _make(rank=4, alpha=8.0, seed=3)
    a1.B.data = np.ones(a1.B.shape)
    a2.B.data = np.ones(a2.B.shape)
    x = Tensor(rng.normal(size=(3, 16)))
    update1 = a1(x).data - (x.data @ a1.W0.data + a1.b0.data)
    update2 = a2(x).data - (x.data @ a2.W0.data + a2.b0.data)
    assert np.allclose(update2, 2.0 * update1)


def test_rank_validation():
    with pytest.raises(LoraConfigError):
        _make(rank=0)
    with pytest.raises(LoraConfigError):
        _make(rank=16)


def test_param_registry_freezing():
    _, reg = _make()
    frozen = {n for n, (t, fr) in reg.items() if fr}
    trainable = {n for n, (t, fr) in reg.items() if not fr}
    assert frozen == {"proj.W0", "proj.b0"}
    assert trainable == {"proj.lora.A", "proj.lora.B"}

