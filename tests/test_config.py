"""The config's settable values, pinned by name: a new knob is a deliberate
edit here, and so is retiring one."""

from dataclasses import fields

from rgbtseg.config import ModelConfig, RunConfig, TrainConfig

MODEL_FIELDS = ["image_size", "patch", "d", "heads", "depth", "lora_rank",
                "decoder_layers", "mask_tokens", "d_k", "d_v", "d_t", "se_reduction",
                "num_classes", "enable_dffm", "enable_decoder_lora", "enable_text"]
TRAIN_FIELDS = ["lr", "weight_decay", "lambda_dice", "dice_smooth", "ignore_label",
                "steps", "batch", "seed"]
RUN_FIELDS = ["model", "train", "backbone_seed"]


def test_the_config_holds_exactly_the_listed_fields():
    for cls, names in ((ModelConfig, MODEL_FIELDS), (TrainConfig, TRAIN_FIELDS),
                       (RunConfig, RUN_FIELDS)):
        assert [f.name for f in fields(cls)] == names, cls.__name__
