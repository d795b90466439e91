"""The full segmentation model: encoder + prompt encoder + mask decoder over
one shared parameter registry. It freezes every parameter that
``params.ledger_group`` files under no group: the ledger is the trainable set.

``forward`` takes one image pair ([H, W, 3] and [H, W, 1]) or a batch of
equally sized pairs ([..., H, W, 3] and [..., H, W, 1], the same leading axes
on both); logits come back as [..., H, W, C]. One point prompt, if given, is
shared by every image of the batch.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .decoder import DecoderOutputs, MaskDecoder
from .encoder import RgbtEncoder
from .params import ParamRegistry, ledger_group
from .prompts import ClassVocabulary, PointPrompt, PromptEncoder
from .tensor import ShapeError, Tensor, checked


class RgbtSegModel:
    def __init__(self, cfg: RunConfig):
        cfg.validate()
        self.cfg = cfg
        self.registry = ParamRegistry()
        seed = cfg.backbone_seed
        self.encoder = RgbtEncoder(self.registry, cfg.model, seed)
        self.prompt_encoder = PromptEncoder(self.registry, cfg.model.d, seed)
        self.decoder = MaskDecoder(self.registry, cfg.model, self.prompt_encoder, seed)
        for name in [n for n, _ in self.registry.items() if ledger_group(n) is None]:
            self.registry.freeze(name)

    def forward(self, rgb, th, vocab: ClassVocabulary,
                points: PointPrompt | None = None) -> DecoderOutputs:
        rgb = rgb if isinstance(rgb, Tensor) else Tensor(rgb)
        th = th if isinstance(th, Tensor) else Tensor(th)
        if rgb.ndim < 3 or rgb.shape[-1] != 3:
            raise ShapeError(f"rgb must be [..., H, W, 3], got {rgb.shape}")
        if th.ndim < 3 or th.shape[-1] != 1:
            raise ShapeError(f"thermal must be [..., H, W, 1], got {th.shape}")
        stages = self.decoder.stages(vocab, points or PointPrompt([]), rgb.shape[-3:-1])
        x = self.encoder.forward(rgb, th)
        for _, stage in stages:
            x = stage(x)
        return DecoderOutputs(logits=x)

    def predict(self, rgb, th, vocab: ClassVocabulary,
                points: PointPrompt | None = None) -> np.ndarray:
        """Hard label map [..., H, W] (argmax over class logits), from one
        tape-free forward run through ``tensor.checked``."""
        logits = checked(lambda: self.forward(rgb, th, vocab, points).logits).data
        return np.argmax(logits, axis=-1).astype(np.int64)

    def state_dict(self):
        return self.registry.state_dict()

    def load_state(self, state) -> None:
        self.registry.load_state(state)
