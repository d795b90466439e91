"""Dual-branch RGB-thermal image encoder.

A frozen RGB patch embedding and a trainable thermal patch embedding feed a
stack of N (fusion block, frozen transformer block with LoRA Q/V) pairs. Two
token sequences are threaded through the stack: the fusion stream, which
starts as the thermal embedding, and the backbone stream, which starts as the
RGB embedding. Each fusion block projects both streams through 1x1 convs, gates
the backbone stream with squeeze-and-excitation, and re-projects through a
zero-initialized output conv - so at initialization the encoder computes
exactly the frozen RGB-only backbone function, bitwise independent of the
thermal input.

With fusion disabled (ablation baseline) the two patch embedding sequences
are concatenated along the token axis and fed to the same frozen backbone;
the first (RGB-position) half of the output tokens forms the image embedding,
so thermal information reaches it only through the (frozen, low-rank-adapted)
attention - there is no dedicated trainable fusion path.

Images are [..., H, W, c] grids; from the patch embeddings to the output,
features are token sequences [..., Hp·Wp, d] that keep the images' leading
batch axes. "Frozen" describes the model, which freezes by name
(``params.ledger_group``); an encoder built alone has no frozen parameter.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .layers import Linear, PatchEmbed, SEBlock, TransformerBlock
from .params import ParamRegistry, derive_rng
from .tensor import ShapeError, Tensor


class DffmBlock:
    """Dynamic feature fusion: conv_out(conv_prev(f_dffm) + SE(conv_tb(f_tb))).

    All 1x1 convs act per token of the two streams' token sequences, and SE
    squeezes over the tokens. conv_out starts at exactly zero (weights and
    bias) so the block contributes nothing before training.
    """

    # Gain on the trainable fusion convs: the zero conv_out means the fusion
    # signal must grow from nothing, and a unit-scale init makes that slow;
    # a larger init keeps the thermal pathway trainable within short budgets.
    INIT_GAIN = 3.0

    def __init__(self, reg: ParamRegistry, name: str, d: int, se_reduction: int,
                 rng: np.random.Generator):
        r1, r2, r3 = rng.spawn(3)
        self.conv_prev = Linear(reg, f"{name}.conv_prev", d, d, r1, self.INIT_GAIN)
        self.conv_tb = Linear(reg, f"{name}.conv_tb", d, d, r2, self.INIT_GAIN)
        self.se = SEBlock(reg, f"{name}.se", d, se_reduction, r3, self.INIT_GAIN)
        self.conv_out = Linear(reg, f"{name}.conv_out", d, d, rng, zero_init=True)

    def __call__(self, f_dffm: Tensor, f_tb: Tensor) -> Tensor:
        return self.conv_out(self.conv_prev(f_dffm) + self.se(self.conv_tb(f_tb)))


class RgbtEncoder:
    """``stages`` lists the encoder: the patch embeddings, then one stage per
    block i (fusion block i and block i; for the baseline, block i on the
    concatenated tokens). ``forward`` folds the list."""

    def __init__(self, reg: ParamRegistry, cfg, seed: int):
        self.cfg = cfg
        d, p = cfg.d, cfg.patch
        self.rgb_embed = PatchEmbed(reg, "encoder.rgb_embed", p, 3, d,
                                    derive_rng(seed, "encoder.rgb_embed"))
        # The thermal embedding is the only trainable entry point for the
        # thermal modality; the same short-budget argument as DffmBlock's
        # gain applies, amplified because its signal must also pass conv_tb.
        self.thermal_embed = PatchEmbed(reg, "encoder.thermal_embed", p, 1, d,
                                        derive_rng(seed, "encoder.thermal_embed"),
                                        init_gain=4.0)
        self.blocks = [
            TransformerBlock(reg, f"encoder.blocks.{i}", d, cfg.heads,
                             derive_rng(seed, f"encoder.blocks.{i}"), cfg.lora_rank)
            for i in range(cfg.depth)
        ]
        if cfg.enable_dffm:
            self.dffm = [
                DffmBlock(reg, f"encoder.dffm.{i}", d, cfg.se_reduction,
                          derive_rng(seed, f"encoder.dffm.{i}"))
                for i in range(cfg.depth)
            ]

    def forward(self, rgb: Tensor, th: Tensor) -> Tensor:
        """Run the full encoder; returns the image embedding tokens [..., Hp·Wp, d]."""
        if rgb.shape[:-1] != th.shape[:-1]:
            raise ShapeError(f"rgb {rgb.shape[:-1]} and thermal {th.shape[:-1]} "
                             "differ in batch or pixel axes")
        x = (rgb, th)
        for _, stage in self.stages(rgb.shape[-3:-1]):
            x = stage(x)
        return x

    def stages(self, size: tuple[int, int]) -> list:
        """The encoder on images of pixel size ``size``: (the parameter-name
        prefixes the stage is first to read, a function from its input to the
        next stage's) from (rgb, thermal) to the image embedding tokens."""
        n = (size[0] // self.cfg.patch) * (size[1] // self.cfg.patch)
        last = len(self.blocks) - 1
        if self.cfg.enable_dffm:
            def embed(x):
                return self.thermal_embed(x[1]), self.rgb_embed(x[0])

            def stage(i, x):
                f_dffm, f_tb = x
                f_dffm = self.dffm[i](f_dffm, f_tb)
                f_tb = self.blocks[i](f_tb + f_dffm)
                return f_tb if i == last else (f_dffm, f_tb)
        else:
            def embed(x):
                return T.concat([self.rgb_embed(x[0]), self.thermal_embed(x[1])], axis=-2)

            def stage(i, tokens):  # the last keeps the RGB-position tokens
                out = self.blocks[i](tokens)
                return out if i < last else out[..., :n, :]
        # the baseline has no encoder.dffm parameters
        return [(("encoder.thermal_embed.", "encoder.rgb_embed."), embed),
                *[((f"encoder.dffm.{i}.", f"encoder.blocks.{i}."),
                   lambda x, i=i: stage(i, x)) for i in range(last + 1)]]
