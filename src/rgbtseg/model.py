"""The full segmentation model: encoder + prompt encoder + mask decoder over
one shared parameter registry.

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
from .params import ParamRegistry
from .prompts import ClassVocabulary, PointPrompt, PromptEncoder
from .tensor import NumericError, ShapeError, Tensor, no_grad


class RgbtSegModel:
    def __init__(self, cfg: RunConfig):
        cfg.validate()
        self.cfg = cfg
        self.registry = ParamRegistry()
        seed = cfg.backbone_seed
        self.encoder = RgbtEncoder(self.registry, cfg.model, seed)
        self.prompt_encoder = PromptEncoder(self.registry, cfg.model.d, seed)
        self.decoder = MaskDecoder(self.registry, cfg.model, self.prompt_encoder, seed)

    def forward(self, rgb, th, vocab: ClassVocabulary,
                points: PointPrompt | None = None) -> DecoderOutputs:
        rgb = rgb if isinstance(rgb, Tensor) else Tensor(rgb)
        th = th if isinstance(th, Tensor) else Tensor(th)
        if rgb.ndim < 3 or rgb.shape[-1] != 3:
            raise ShapeError(f"rgb must be [..., H, W, 3], got {rgb.shape}")
        if th.ndim < 3 or th.shape[-1] != 1:
            raise ShapeError(f"thermal must be [..., H, W, 1], got {th.shape}")
        h, w = rgb.shape[-3], rgb.shape[-2]
        e_en = self.encoder.forward(rgb, th)
        sparse = self.prompt_encoder.encode_points(points or PointPrompt([]), (h, w))
        return self.decoder.forward(e_en, vocab, sparse, (h, w))

    def predict(self, rgb, th, vocab: ClassVocabulary,
                points: PointPrompt | None = None) -> np.ndarray:
        """Hard label map [..., H, W] (argmax over class logits).

        The forward runs without a tape and its logits are checked once. On a
        non-finite value the same forward is replayed with the tape on, whose
        per-op check raises ``NumericError`` naming the op that produced it.
        """
        with no_grad():
            logits = self.forward(rgb, th, vocab, points).logits.data
        if not np.isfinite(logits).all():
            self.forward(rgb, th, vocab, points)
            # the replay is the same arithmetic and raises first; never
            # return labels taken from non-finite logits
            raise NumericError("non-finite value produced by the forward pass")
        return np.argmax(logits, axis=-1).astype(np.int64)

    def state_dict(self):
        return self.registry.state_dict()

    def load_state(self, state) -> None:
        self.registry.load_state(state)
