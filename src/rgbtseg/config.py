"""Run configuration: model dimensions, training hyperparameters, and the
ablation switches, with JSON round-trip and eager validation."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from typing import ClassVar


class ConfigValidationError(ValueError):
    pass


@dataclass(slots=True)
class ModelConfig:
    # Constants, not config fields: SAM's mask decoder has a fixed depth and
    # four mask tokens, and the DFFM and the text head a fixed shape around
    # it. ``image_size`` sizes only the synthetic data of ``verify`` and the
    # benchmark; the model takes images of any size whose sides are multiples
    # of ``patch``. The settable fields size the frozen backbone and the
    # adapters (whose trainable share is the paper's efficiency claim), match
    # a class-embedding file's width, and switch the ablations. The slots make
    # a constant read-only on an instance, so no model differs from the
    # config.json that ``to_json`` writes for it.
    image_size: ClassVar[int] = 64
    patch: ClassVar[int] = 8
    decoder_layers: ClassVar[int] = 2
    mask_tokens: ClassVar[int] = 4
    d_k: ClassVar[int] = 32
    d_v: ClassVar[int] = 32
    se_reduction: ClassVar[int] = 4
    d: int = 64
    heads: int = 4
    depth: int = 4
    lora_rank: int = 4
    d_t: int = 32
    num_classes: int = 4
    enable_dffm: bool = True
    enable_decoder_lora: bool = True
    enable_text: bool = True


@dataclass(slots=True)
class TrainConfig:
    # Constants, not config fields: no run tunes the Dice smoothing, and every
    # label map is an 8-bit PGM whose value 255 marks an ignored pixel.
    dice_smooth: ClassVar[float] = 1.0
    ignore_label: ClassVar[int] = 255
    lr: float = 5e-4
    weight_decay: float = 0.01
    lambda_dice: float = 1.0
    steps: int = 200
    batch: int = 4
    seed: int = 0


_KINDS = {
    "bool": lambda v: isinstance(v, bool),
    "int": lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
}


def _check_types(prefix: str, cfg) -> None:
    """Each bool, int or float field must hold its annotated type; a float
    field also takes an int, and a bool is neither an int nor a float. A float
    must be finite: JSON's ``NaN`` and ``Infinity`` pass every comparison
    check below and only fail mid-run."""
    for f in fields(cfg):
        kind = f.type  # annotations are strings here
        if kind not in _KINDS:
            continue
        value = getattr(cfg, f.name)
        if not _KINDS[kind](value):
            raise ConfigValidationError(
                f"{prefix}{f.name} must be {'an' if kind == 'int' else 'a'} "
                f"{kind}, got {value!r}")
        if kind == "float" and not math.isfinite(value):
            raise ConfigValidationError(
                f"{prefix}{f.name} must be finite, got {value!r}")


# Keys ``to_json`` wrote into every config.json before they were retired: the
# two below, at values that leave the computation as it is now (adapters at
# alpha = rank, W0 + B A, and a constant learning rate), and each ``ClassVar``
# constant of a section, which loads only at its value.
_RETIRED = {
    "model": {"lora_alpha": ("null or equal to lora_rank", lambda v, values: v is None or (
        _KINDS["float"](v) and v == values.get("lora_rank", ModelConfig().lora_rank)))},
    "train": {"cosine_lr": ("false", lambda v, values: v is False)},
}


def _load_section(section: str, cls, values: dict):
    """The ``cls`` of a config section's ``values``. A retired key is dropped
    at a value that leaves the computation as it is and refused at any other;
    any other key that is not a field is unknown."""
    names = {f.name for f in fields(cls)}
    values, unknown = dict(values), []
    for key in [k for k in values if k not in names]:
        value = values.pop(key)
        if key in _RETIRED[section]:
            allowed, keeps = _RETIRED[section][key]
            ok = keeps(value, values)
        elif cls.__annotations__.get(key, "").startswith("ClassVar"):
            allowed = getattr(cls, key)
            ok = _KINDS[type(allowed).__name__](value) and value == allowed
        else:
            unknown.append(key)
            continue
        if not ok:
            raise ConfigValidationError(
                f"{section}.{key} is retired; it loads only as {allowed}, got {value!r}")
    if unknown:
        raise ConfigValidationError(
            f"unknown keys in config section '{section}': {sorted(unknown)}")
    return cls(**values)


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    backbone_seed: int = 1234

    def validate(self) -> None:
        _check_types("", self)
        _check_types("model.", self.model)
        _check_types("train.", self.train)
        for k, v in (("backbone_seed", self.backbone_seed), ("train.seed", self.train.seed)):
            if v < 0:
                raise ConfigValidationError(f"{k} must be non-negative, got {v}")
        m = self.model
        for k in ("d", "heads", "depth", "lora_rank", "d_t", "num_classes"):
            if (v := getattr(m, k)) < 1:
                raise ConfigValidationError(f"{k} must be positive, got {v}")
        if m.d % m.heads != 0:
            raise ConfigValidationError(f"d {m.d} not divisible by heads {m.heads}")
        # also divides d by the DFFM's squeeze-excitation reduction, 4
        if m.d % 4 != 0:
            raise ConfigValidationError(f"d {m.d} must be divisible by 4 (upscaling)")
        if m.lora_rank >= m.d:  # the loop above holds 1 <= r
            raise ConfigValidationError(
                f"lora_rank must satisfy 1 <= r < d, got {m.lora_rank}")
        t = self.train
        for k, v, least in (("lr", t.lr, "positive"),
                            ("weight_decay", t.weight_decay, "non-negative"),
                            ("lambda_dice", t.lambda_dice, "non-negative")):
            if v < 0 or (v == 0 and least == "positive"):
                raise ConfigValidationError(
                    f"invalid training hyperparameter: train.{k} must be "
                    f"{least}, got {v!r}")
        if t.steps < 0 or t.batch < 1:
            raise ConfigValidationError("steps must be >= 0 and batch >= 1")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @staticmethod
    def from_dict(doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigValidationError(f"config must be an object, got {doc!r}")
        for section in ("model", "train"):
            if not isinstance(doc.get(section, {}), dict):
                raise ConfigValidationError(
                    f"config section '{section}' must be an object, "
                    f"got {doc[section]!r}")
        known = {"model", "train", "backbone_seed"}
        unknown = set(doc) - known
        if unknown:
            raise ConfigValidationError(f"unknown config keys: {sorted(unknown)}")
        sections = {section: _load_section(section, cls, doc.get(section, {}))
                    for section, cls in (("model", ModelConfig), ("train", TrainConfig))}
        cfg = RunConfig(**sections, backbone_seed=doc.get("backbone_seed", 1234))
        cfg.validate()
        return cfg

    @staticmethod
    def from_json_file(path) -> "RunConfig":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as e:
                raise ConfigValidationError(f"malformed config file: {e}") from e
        try:
            return RunConfig.from_dict(doc)
        except TypeError as e:
            raise ConfigValidationError(str(e)) from e
