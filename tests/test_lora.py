"""Low-rank adapters: init identity, scaling, freezing. The rank bounds are
the config's (``tests/test_config.py``, ``tests/test_cli.py``)."""

import numpy as np

from rgbtseg.lora import LoraLinear
from rgbtseg.model import RgbtSegModel
from rgbtseg.params import ParamRegistry
from rgbtseg.tensor import Tensor


def _make(rank=4, d=16, seed=0):
    reg = ParamRegistry()
    return LoraLinear(reg, "proj", d, rank, np.random.default_rng(seed)), reg


def test_b_starts_at_zero():
    layer, _ = _make()
    assert not layer.B.data.any()
    assert layer.A.data.any()


def test_identity_at_init(rng):
    layer, _ = _make()
    x = Tensor(rng.normal(size=(5, 16)))
    base_only = x.data @ layer.W0.data + layer.b0.data
    assert np.allclose(layer(x).data, base_only, atol=1e-15)


def test_the_update_is_b_a_at_scale_one(rng):
    """Adapters run at alpha = r: the update is (x Aᵀ) Bᵀ, unscaled."""
    layer, _ = _make(rank=4, seed=3)
    layer.B.data = rng.normal(size=layer.B.shape)
    x = Tensor(rng.normal(size=(3, 16)))
    update = layer(x).data - (x.data @ layer.W0.data + layer.b0.data)
    expected = (x.data @ layer.A.data.T) @ layer.B.data.T
    assert np.abs(update - expected).max() <= 1e-12 * np.abs(expected).max()


def test_param_registry_freezing(default_cfg):
    """In the model every adapted projection keeps its base frozen and trains
    its adapter."""
    reg = RgbtSegModel(default_cfg).registry
    adapted = {n[:-len(".W0")] for n, _ in reg.items() if n.endswith(".W0")}
    # q and v of 4 encoder blocks, and of 2 attentions in each of 2 decoder layers
    assert len(adapted) == 16
    for proj in adapted:
        assert reg.is_frozen(f"{proj}.W0") and reg.is_frozen(f"{proj}.b0")
        assert not reg.is_frozen(f"{proj}.lora.A")
        assert not reg.is_frozen(f"{proj}.lora.B")

