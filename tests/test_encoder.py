"""Dual-branch encoder: init identity, fusion on/off paths, determinism."""

import numpy as np
import pytest

from rgbtseg.config import RunConfig
from rgbtseg.model import RgbtSegModel
from rgbtseg.params import derive_rng
from rgbtseg.tensor import ShapeError, Tensor


def _encoder(**flags):
    """The encoder of a model, and the model's registry: the model decides
    which parameters are frozen."""
    cfg = RunConfig()
    for k, v in flags.items():
        setattr(cfg.model, k, v)
    model = RgbtSegModel(cfg)
    return model.encoder, model.registry


def test_output_grid_shape(rng):
    """The embedding of an 8x8 patch grid: 64 tokens of width d."""
    enc, _ = _encoder()
    out = enc.forward(Tensor(rng.uniform(size=(64, 64, 3))),
                      Tensor(rng.uniform(size=(64, 64, 1))))
    assert out.shape == (8 * 8, 64)


def test_thermal_independence_at_init(rng):
    enc, _ = _encoder()
    rgb = Tensor(rng.uniform(size=(64, 64, 3)))
    a = enc.forward(rgb, Tensor(rng.uniform(size=(64, 64, 1)))).data
    b = enc.forward(rgb, Tensor(rng.uniform(size=(64, 64, 1)))).data
    assert np.array_equal(a, b)


def test_dffm_conv_out_zero_init():
    enc, reg = _encoder()
    for i in range(4):
        name = f"encoder.dffm.{i}.conv_out.W"
        assert not reg.get(name).data.any()
        assert not reg.is_frozen(name)


def test_baseline_has_no_dffm_params():
    _, reg = _encoder(enable_dffm=False)
    assert not any(n.startswith("encoder.dffm") for n, _ in reg.items())


def test_baseline_depends_on_thermal(rng):
    """Without the zero-init fusion barrier, the token-concat baseline sees
    thermal from step zero (through frozen attention)."""
    enc, _ = _encoder(enable_dffm=False)
    rgb = Tensor(rng.uniform(size=(64, 64, 3)))
    a = enc.forward(rgb, Tensor(rng.uniform(size=(64, 64, 1)))).data
    b = enc.forward(rgb, Tensor(rng.uniform(size=(64, 64, 1)))).data
    assert a.shape == (8 * 8, 64)  # the RGB-position tokens only
    assert not np.array_equal(a, b)


def test_frozen_backbone_identical_across_fusion_configs():
    _, reg_full = _encoder()
    _, reg_base = _encoder(enable_dffm=False)
    for name, _ in reg_full.items():
        if not name.startswith("encoder.blocks"):
            continue
        assert reg_full.is_frozen(name) == reg_base.is_frozen(name)
        assert np.array_equal(reg_full.get(name).data,
                              reg_base.get(name).data), name


def test_misaligned_modalities_rejected(rng):
    enc, _ = _encoder()
    with pytest.raises(ShapeError):
        enc.forward(Tensor(rng.uniform(size=(64, 64, 3))),
                    Tensor(rng.uniform(size=(32, 32, 1))))


def test_derive_rng_is_stable():
    a = derive_rng(1234, "encoder.rgb_embed").normal(size=4)
    b = derive_rng(1234, "encoder.rgb_embed").normal(size=4)
    c = derive_rng(1234, "encoder.thermal_embed").normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
