"""Run configuration: model dimensions, training hyperparameters, and the
ablation switches, with JSON round-trip and eager validation."""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, field, fields


class ConfigValidationError(ValueError):
    pass


@dataclass
class ModelConfig:
    image_size: int = 64
    patch: int = 8
    d: int = 64
    heads: int = 4
    depth: int = 4
    lora_rank: int = 4
    lora_alpha: float | None = None  # None -> alpha = rank (scale 1)
    decoder_layers: int = 2
    mask_tokens: int = 4
    d_k: int = 32
    d_v: int = 32
    d_t: int = 32
    se_reduction: int = 4
    num_classes: int = 4
    enable_dffm: bool = True
    enable_decoder_lora: bool = True
    enable_text: bool = True


@dataclass
class TrainConfig:
    lr: float = 5e-4
    weight_decay: float = 0.01
    lambda_dice: float = 1.0
    dice_smooth: float = 1.0
    ignore_label: int = 255
    steps: int = 200
    batch: int = 4
    seed: int = 0
    cosine_lr: bool = False

    def check_ignore_label(self, num_classes: int) -> None:
        """Reject an ignore label that is one of the ``num_classes`` class
        indices: it would silently drop that class from the loss and metric."""
        if 0 <= self.ignore_label < num_classes:
            raise ConfigValidationError(
                f"ignore_label {self.ignore_label} is a class index; with "
                f"{num_classes} classes it must lie outside [0, {num_classes})")


_KINDS = {
    "bool": lambda v: isinstance(v, bool),
    "int": lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
}


def _check_types(prefix: str, cfg) -> None:
    """Each bool, int or float field must hold its annotated type; a float
    field also takes an int, and a bool is neither an int nor a float."""
    for f in fields(cfg):
        kind, _, optional = f.type.partition(" | ")  # annotations are strings here
        value = getattr(cfg, f.name)
        if kind not in _KINDS or (value is None and optional == "None"):
            continue
        if not _KINDS[kind](value):
            raise ConfigValidationError(
                f"{prefix}{f.name} must be {'an' if kind == 'int' else 'a'} "
                f"{kind}, got {value!r}")


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    backbone_seed: int = 1234

    def validate(self) -> None:
        _check_types("", self)
        _check_types("model.", self.model)
        _check_types("train.", self.train)
        m = self.model
        positive = {
            "image_size": m.image_size, "patch": m.patch, "d": m.d,
            "heads": m.heads, "depth": m.depth, "lora_rank": m.lora_rank,
            "decoder_layers": m.decoder_layers, "mask_tokens": m.mask_tokens,
            "d_k": m.d_k, "d_v": m.d_v, "d_t": m.d_t,
            "se_reduction": m.se_reduction, "num_classes": m.num_classes,
        }
        for k, v in positive.items():
            if v < 1:
                raise ConfigValidationError(f"{k} must be positive, got {v}")
        if m.image_size % m.patch != 0:
            raise ConfigValidationError(
                f"image_size {m.image_size} not divisible by patch {m.patch}")
        if m.d % m.heads != 0:
            raise ConfigValidationError(f"d {m.d} not divisible by heads {m.heads}")
        if m.d % 4 != 0:
            raise ConfigValidationError(f"d {m.d} must be divisible by 4 (upscaling)")
        if m.d % m.se_reduction != 0:
            raise ConfigValidationError(
                f"d {m.d} not divisible by se_reduction {m.se_reduction}")
        if not (1 <= m.lora_rank < m.d):
            raise ConfigValidationError(
                f"lora_rank must satisfy 1 <= r < d, got {m.lora_rank}")
        if m.lora_alpha is not None and m.lora_alpha <= 0:
            raise ConfigValidationError("lora_alpha must be positive")
        t = self.train
        if t.lr <= 0 or t.weight_decay < 0 or t.lambda_dice < 0 or t.dice_smooth <= 0:
            raise ConfigValidationError("invalid training hyperparameters")
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
        for section, cls in (("model", ModelConfig), ("train", TrainConfig)):
            unknown = set(doc.get(section, {})) - {f.name for f in fields(cls)}
            if unknown:
                raise ConfigValidationError(
                    f"unknown keys in config section '{section}': {sorted(unknown)}")
        cfg = RunConfig(
            model=ModelConfig(**doc.get("model", {})),
            train=TrainConfig(**doc.get("train", {})),
            backbone_seed=doc.get("backbone_seed", 1234),
        )
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
