"""The config's settable values, pinned by name: a new knob is a deliberate
edit here, and so is retiring one."""

from dataclasses import fields

import pytest

from rgbtseg.config import ConfigValidationError, ModelConfig, RunConfig, TrainConfig

MODEL_FIELDS = ["d", "heads", "depth", "lora_rank", "d_t", "num_classes",
                "enable_dffm", "enable_decoder_lora", "enable_text"]
TRAIN_FIELDS = ["lr", "weight_decay", "lambda_dice", "ignore_label", "steps", "batch",
                "seed"]
RUN_FIELDS = ["model", "train", "backbone_seed"]
# retired to constants; every config.json written before held these values
CONSTANTS = {"model": {"image_size": 64, "patch": 8, "decoder_layers": 2, "mask_tokens": 4,
                       "d_k": 32, "d_v": 32, "se_reduction": 4},
             "train": {"dice_smooth": 1.0}}


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
