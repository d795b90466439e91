"""The trainable set is decided once: the parameter ledger's groups are
exactly the model's trainable parameters, in every ablation config."""

from pathlib import Path

import numpy as np
import pytest

from rgbtseg.config import RunConfig
from rgbtseg.encoder import RgbtEncoder
from rgbtseg.model import RgbtSegModel
from rgbtseg.params import ParamRegistry, ledger_group, param_ledger
from rgbtseg.tensor import Tensor

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_the_ledger_groups_are_the_trainable_set(path):
    reg = RgbtSegModel(RunConfig.from_json_file(path)).registry
    frozen = {n for n, _ in reg.frozen()}
    assert frozen == {n for n, _ in reg.items() if ledger_group(n) is None}
    # the frozen backbone: the RGB embedding, the Fourier features, and every
    # encoder block and two-way layer weight outside the LoRA adapters
    assert frozen == {"prompt.fourier", "encoder.rgb_embed.W", "encoder.rgb_embed.b",
                      *(n for n, _ in reg.items()
                        if n.startswith(("encoder.blocks.", "decoder.twoway."))
                        and ".lora." not in n)}
    assert not any(t.requires_grad for _, t in reg.frozen())
    assert all(t.requires_grad for _, t in reg.trainable())
    ledger = param_ledger(reg)
    assert ledger.trainable_total == sum(t.size for _, t in reg.trainable())
    assert ledger.trainable_total == sum(ledger.groups.values())
    assert ledger.frozen_total == sum(t.size for _, t in reg.frozen())


def test_a_standalone_component_registers_every_parameter_as_trainable():
    cfg = RunConfig()
    reg = ParamRegistry()
    RgbtEncoder(reg, cfg.model, cfg.backbone_seed)
    assert reg.frozen() == []
    assert all(t.requires_grad for _, t in reg.trainable())


def test_freeze_turns_off_the_gradient_of_one_entry():
    reg = ParamRegistry()
    a = reg.register("a", Tensor(np.ones(2)))
    b = reg.register("b", Tensor(np.ones(3)))
    reg.freeze("a")
    assert reg.is_frozen("a") and not a.requires_grad
    assert not reg.is_frozen("b") and b.requires_grad
    assert [n for n, _ in reg.trainable()] == ["b"]
    assert [n for n, _ in reg.frozen()] == ["a"]
