"""The config's settable values, pinned by name: a new knob is a deliberate
edit here, and so is retiring one. ``RunConfig.validate`` is the one home of
the dimension rules: the values at its bounds are pinned here, and its
refusals in ``tests/test_cli.py``."""

from dataclasses import fields

import numpy as np
import pytest

from rgbtseg.config import ConfigValidationError, ModelConfig, RunConfig, TrainConfig
from rgbtseg.model import RgbtSegModel
from rgbtseg.prompts import ClassVocabulary

MODEL_FIELDS = ["d", "heads", "depth", "lora_rank", "d_t", "num_classes",
                "enable_dffm", "enable_decoder_lora", "enable_text"]
TRAIN_FIELDS = ["lr", "weight_decay", "lambda_dice", "steps", "batch", "seed"]
RUN_FIELDS = ["model", "train", "backbone_seed"]
# retired to constants; every config.json written before held these values
CONSTANTS = {"model": {"image_size": 64, "patch": 8, "decoder_layers": 2, "mask_tokens": 4,
                       "d_k": 32, "d_v": 32, "se_reduction": 4},
             "train": {"dice_smooth": 1.0, "ignore_label": 255}}


def test_the_config_holds_exactly_the_listed_fields():
    for cls, names in ((ModelConfig, MODEL_FIELDS), (TrainConfig, TRAIN_FIELDS),
                       (RunConfig, RUN_FIELDS)):
        assert [f.name for f in fields(cls)] == names, cls.__name__


@pytest.mark.parametrize("section, key, value", [
    (section, key, value) for section, keys in CONSTANTS.items()
    for key, value in keys.items()])
def test_a_retired_constant_loads_only_at_its_value(section, key, value):
    cfg = getattr(RunConfig(), section)
    assert getattr(type(cfg), key) == value
    with pytest.raises(AttributeError):  # read-only on an instance
        setattr(cfg, key, value)
    assert RunConfig.from_dict({section: {key: value}}) == RunConfig()
    with pytest.raises(ConfigValidationError) as e:
        RunConfig.from_dict({section: {key: value + 1}})
    assert str(e.value) == (f"{section}.{key} is retired; it loads only as {value}, "
                            f"got {value + 1!r}")


# each value at the edge of what the gate accepts
LEAST = {"d_4": {"model": {"d": 4, "lora_rank": 3}}, "heads_1": {"model": {"heads": 1}},
         "depth_1": {"model": {"depth": 1}}, "lora_rank_1": {"model": {"lora_rank": 1}},
         "lora_rank_63": {"model": {"lora_rank": 63}}, "d_t_1": {"model": {"d_t": 1}},
         "num_classes_1": {"model": {"num_classes": 1}},
         "weight_decay_0": {"train": {"weight_decay": 0}},
         "lambda_dice_0": {"train": {"lambda_dice": 0}}, "steps_0": {"train": {"steps": 0}},
         "batch_1": {"train": {"batch": 1}}, "backbone_seed_0": {"backbone_seed": 0}}


@pytest.mark.parametrize("doc", LEAST.values(), ids=list(LEAST))
def test_the_gate_loads_each_value_at_its_bound(doc):
    RunConfig.from_dict(doc)


def test_the_least_dimensions_the_gate_loads_build_and_run_a_model():
    """No layer re-checks a dimension, so the smallest model the gate lets
    through must build and predict."""
    cfg = RunConfig.from_dict({"model": {"d": 4, "heads": 1, "depth": 1, "lora_rank": 1,
                                         "d_t": 1, "num_classes": 1}})
    vocab = ClassVocabulary.from_names(["only"], 1)
    for enable_text in (True, False):
        cfg.model.enable_text = enable_text
        pred = RgbtSegModel(cfg).predict(np.zeros((8, 8, 3)), np.zeros((8, 8, 1)), vocab)
        assert pred.shape == (8, 8) and not pred.any()

