"""Dual-branch RGB-thermal image encoder.

A frozen RGB patch embedding and a trainable thermal patch embedding feed a
stack of N (fusion block, frozen transformer block with LoRA Q/V) pairs. Two
patch grids are threaded through the stack: the fusion stream, which starts
as the thermal embedding, and the backbone stream, which starts as the RGB
embedding. Each fusion block projects both streams through 1x1 convs, gates
the backbone stream with squeeze-and-excitation, and re-projects through a
zero-initialized output conv - so at initialization the encoder computes
exactly the frozen RGB-only backbone function, bitwise independent of the
thermal input.

With fusion disabled (ablation baseline) the two patch embedding sequences
are concatenated along the token axis and fed to the same frozen backbone;
the first (RGB-position) half of the output tokens forms the image embedding,
so thermal information reaches it only through the (frozen, low-rank-adapted)
attention - there is no dedicated trainable fusion path.

Images are [..., H, W, c]; every grid and token sequence keeps the images'
leading batch axes.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .layers import (Linear, PatchEmbed, SEBlock, TransformerBlock,
                     grid_to_tokens, tokens_to_grid)
from .params import ParamRegistry, derive_rng
from .tensor import ShapeError, Tensor


class DffmBlock:
    """Dynamic feature fusion: conv_out(conv_prev(f_dffm) + SE(conv_tb(f_tb))).

    All 1x1 convs act on the patch grid. conv_out starts at exactly zero
    (weights and bias) so the block contributes nothing before training.
    """

    # Gain on the trainable fusion convs: the zero conv_out means the fusion
    # signal must grow from nothing, and a unit-scale init makes that slow;
    # a larger init keeps the thermal pathway trainable within short budgets.
    INIT_GAIN = 3.0

    def __init__(self, reg: ParamRegistry, name: str, d: int, se_reduction: int,
                 rng: np.random.Generator):
        r1, r2, r3 = rng.spawn(3)
        std = self.INIT_GAIN / np.sqrt(d)
        self.conv_prev = Linear(reg, f"{name}.conv_prev", d, d, r1, init_std=std)
        self.conv_tb = Linear(reg, f"{name}.conv_tb", d, d, r2, init_std=std)
        self.se = SEBlock(reg, f"{name}.se", d, se_reduction, r3,
                          init_gain=self.INIT_GAIN)
        self.conv_out = Linear(reg, f"{name}.conv_out", d, d, rng, zero_init=True)

    def __call__(self, f_dffm: Tensor, f_tb: Tensor) -> Tensor:
        return self.conv_out(self.conv_prev(f_dffm) + self.se(self.conv_tb(f_tb)))


class RgbtEncoder:
    """With fusion enabled, ``forward`` is the two patch embeddings followed
    by ``run_stages``, a loop over ``stage(i, f_dffm, f_tb)``: fusion block i,
    then transformer block i, returning both streams. ``run_stages`` can also
    start at stage k from the streams entering it, so a caller holding them
    re-runs only stages k and later."""

    def __init__(self, reg: ParamRegistry, cfg, seed: int):
        self.cfg = cfg
        d, p = cfg.d, cfg.patch
        self.rgb_embed = PatchEmbed(reg, "encoder.rgb_embed", p, 3, d,
                                    derive_rng(seed, "encoder.rgb_embed"), frozen=True)
        # The thermal embedding is the only trainable entry point for the
        # thermal modality; the same short-budget argument as DffmBlock's
        # gain applies, amplified because its signal must also pass conv_tb.
        self.thermal_embed = PatchEmbed(reg, "encoder.thermal_embed", p, 1, d,
                                        derive_rng(seed, "encoder.thermal_embed"),
                                        init_gain=4.0)
        self.blocks = [
            TransformerBlock(reg, f"encoder.blocks.{i}", d, cfg.heads,
                             derive_rng(seed, f"encoder.blocks.{i}"), frozen=True,
                             lora_rank=cfg.lora_rank, lora_alpha=cfg.lora_alpha)
            for i in range(cfg.depth)
        ]
        self.enable_dffm = cfg.enable_dffm
        if self.enable_dffm:
            self.dffm = [
                DffmBlock(reg, f"encoder.dffm.{i}", d, cfg.se_reduction,
                          derive_rng(seed, f"encoder.dffm.{i}"))
                for i in range(cfg.depth)
            ]

    def forward(self, rgb: Tensor, th: Tensor) -> Tensor:
        """Run the full encoder; returns the image embedding grid [..., Hp, Wp, d]."""
        if rgb.shape[:-1] != th.shape[:-1]:
            raise ShapeError(
                f"rgb {rgb.shape[:-1]} and thermal {th.shape[:-1]} differ in "
                "batch or pixel axes"
            )
        f_dffm = self.thermal_embed(th)
        f_tb = self.rgb_embed(rgb)

        if not self.enable_dffm:
            hp, wp, _ = f_tb.shape[-3:]
            tokens = T.concat([grid_to_tokens(f_tb), grid_to_tokens(f_dffm)], axis=-2)
            for block in self.blocks:
                tokens = block(tokens)
            return tokens_to_grid(tokens[..., :hp * wp, :], hp, wp)
        return self.run_stages(f_dffm, f_tb)

    def stage(self, i: int, f_dffm: Tensor, f_tb: Tensor) -> tuple[Tensor, Tensor]:
        """Fusion stage ``i``: fusion block i, then transformer block i on the
        fused backbone stream. Returns the two streams entering stage i + 1."""
        hp, wp, _ = f_tb.shape[-3:]
        f_dffm = self.dffm[i](f_dffm, f_tb)
        f_tb = tokens_to_grid(self.blocks[i](grid_to_tokens(f_tb + f_dffm)), hp, wp)
        return f_dffm, f_tb

    def run_stages(self, f_dffm: Tensor, f_tb: Tensor, start: int = 0) -> Tensor:
        """Fusion stages ``start``, ..., depth - 1 on the streams entering stage
        ``start``; returns the image embedding grid. ``forward`` enters at 0
        with the thermal and RGB patch embeddings."""
        for i in range(start, len(self.blocks)):
            f_dffm, f_tb = self.stage(i, f_dffm, f_tb)
        return f_tb
