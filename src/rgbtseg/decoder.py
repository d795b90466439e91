"""Dual-prompt mask decoder.

Assembles query tokens (iou token, mask tokens, sparse point embeddings) and
image features (embedding + dense no-mask embedding, plus a frozen positional
grid), refines both through a two-way transformer whose frozen attention
projections carry LoRA adapters, upscales the refined image features, aligns
them with class text embeddings through cross-attention, and scores every
pixel against the projected text embeddings.

Only the refined image features feed a head: the class-score path runs
entirely through the upscaled image features, and the refined tokens are
dropped after the last two-way layer. The text path runs in canonical
(name-sorted) class order and gathers the logits back into the caller's order
at the end. With the text path disabled a plain per-class linear head replaces
the similarity head (class-permutation equivariance then no longer applies).

Image-side tensors keep the encoder output's leading batch axes. The token
stack, the positional grid and the class text rows have none: they are shared
by every image of a batch and broadcast against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .layers import (ConvTranspose2x2, LayerNorm, Linear, Mlp,
                     MultiHeadAttention, bilinear_resize, grid_to_tokens,
                     tokens_to_grid)
from .params import ParamRegistry, derive_rng
from .prompts import ClassVocabulary, PromptEncoder
from .tensor import Tensor


@dataclass
class DecoderOutputs:
    logits: Tensor    # per-class scores at input resolution [..., H, W, C]


class TwoWayLayer:
    """One decoder layer: token self-attention, token->image cross-attention,
    token MLP, image->token cross-attention. Residual + layer norm after each
    stage; positional encodings are added to the image side of every
    cross-attention."""

    def __init__(self, reg: ParamRegistry, name: str, d: int, heads: int,
                 rng: np.random.Generator, lora_rank: int | None,
                 lora_alpha: float | None):
        r1, r2, r3, r4 = rng.spawn(4)
        self.self_attn = MultiHeadAttention(reg, f"{name}.self_attn", d, heads,
                                            r1, frozen=True,
                                            lora_rank=lora_rank, lora_alpha=lora_alpha)
        self.norm1 = LayerNorm(reg, f"{name}.norm1", d, frozen=True)
        self.cross_t2i = MultiHeadAttention(reg, f"{name}.cross_t2i", d, heads,
                                            r2, frozen=True,
                                            lora_rank=lora_rank, lora_alpha=lora_alpha)
        self.norm2 = LayerNorm(reg, f"{name}.norm2", d, frozen=True)
        self.mlp = Mlp(reg, f"{name}.mlp", d, r3, frozen=True, mult=2)
        self.norm3 = LayerNorm(reg, f"{name}.norm3", d, frozen=True)
        self.cross_i2t = MultiHeadAttention(reg, f"{name}.cross_i2t", d, heads,
                                            r4, frozen=True)
        self.norm4 = LayerNorm(reg, f"{name}.norm4", d, frozen=True)

    def __call__(self, tokens: Tensor, img: Tensor, pe: Tensor):
        tokens = self.norm1(tokens + self.self_attn(tokens, tokens, tokens))
        tokens = self.norm2(tokens + self.cross_t2i(tokens, img + pe, img))
        tokens = self.norm3(tokens + self.mlp(tokens))
        img = self.norm4(img + self.cross_i2t(img + pe, tokens, tokens))
        return tokens, img


class MaskDecoder:
    """``forward`` runs ``prelude`` (the token stack and the dense and
    positional embeddings), ``two_way_transformer``, then ``tail``:
    ``upscale_masks`` followed by ``classify`` (the text path,
    ``class_logits`` and the class-order gather). A caller holding the two-way
    grid or the upscaled features can enter at ``tail`` or ``classify`` and
    re-run only what follows."""

    def __init__(self, reg: ParamRegistry, cfg, prompt_encoder: PromptEncoder,
                 seed: int):
        self.cfg = cfg
        d = cfg.d
        self.d_m = d // 4

        rt = derive_rng(seed, "decoder.tokens")
        self.iou_token = reg.register("decoder.tokens.iou",
                                      Tensor(rt.normal(0.0, 0.02, (1, d))), frozen=False)
        self.mask_tokens = reg.register(
            "decoder.tokens.mask",
            Tensor(rt.normal(0.0, 0.02, (cfg.mask_tokens, d))), frozen=False)

        lora_rank = cfg.lora_rank if cfg.enable_decoder_lora else None
        self.layers = [
            TwoWayLayer(reg, f"decoder.twoway.{i}", d, cfg.heads,
                        derive_rng(seed, f"decoder.twoway.{i}"),
                        lora_rank, cfg.lora_alpha)
            for i in range(cfg.decoder_layers)
        ]

        ru = derive_rng(seed, "decoder.upscale")
        r1, r2 = ru.spawn(2)
        self.up1 = ConvTranspose2x2(reg, "decoder.upscale.1", d, d // 2, r1)
        self.up2 = ConvTranspose2x2(reg, "decoder.upscale.2", d // 2, self.d_m, r2)

        self.prompt_encoder = prompt_encoder
        self.enable_text = cfg.enable_text
        if self.enable_text:
            rtx = derive_rng(seed, "decoder.text_attn")
            # unit-norm text rows: std 1 keeps projected keys/values at unit
            # scale, so class scores start at O(1) instead of vanishing
            sq = 1.0 / np.sqrt(self.d_m)
            st = 1.0
            self.w_q = reg.register("decoder.text_attn.W_Q",
                                    Tensor(rtx.normal(0.0, sq, (self.d_m, cfg.d_k))),
                                    frozen=False)
            self.w_k = reg.register("decoder.text_attn.W_K",
                                    Tensor(rtx.normal(0.0, st, (cfg.d_t, cfg.d_k))),
                                    frozen=False)
            self.w_v = reg.register("decoder.text_attn.W_V",
                                    Tensor(rtx.normal(0.0, st, (cfg.d_t, cfg.d_v))),
                                    frozen=False)
            self.head = Linear(reg, "decoder.head", self.d_m + cfg.d_v, cfg.d_k,
                               derive_rng(seed, "decoder.head"))
        else:
            self.head = Linear(reg, "decoder.head", self.d_m, cfg.num_classes,
                               derive_rng(seed, "decoder.head"))

    # -- stages ----------------------------------------------------------------

    def two_way_transformer(self, e_s: Tensor, e_p: Tensor, e_t: Tensor):
        hp, wp, _ = e_s.shape[-3:]
        img = grid_to_tokens(e_s)
        pe = grid_to_tokens(e_p)
        tokens = e_t
        for layer in self.layers:
            tokens, img = layer(tokens, img, pe)
        return tokens_to_grid(img, hp, wp)

    def upscale_masks(self, e_m: Tensor) -> Tensor:
        return T.gelu(self.up2(T.gelu(self.up1(e_m))))

    def text_cross_attention(self, e_mask: Tensor, et: Tensor, keys: Tensor) -> Tensor:
        """Per-pixel attention over class text embeddings ``et`` [C, d_t] with
        keys ``keys`` = et W_K; weights softmax over the class axis, output is
        the attention-weighted value rows. The output has no class axis."""
        *lead, hu, wu, dm = e_mask.shape
        q = T.matmul(e_mask.reshape(-1, dm), self.w_q)
        v = T.matmul(et, self.w_v)
        attn = T.softmax(T.matmul(q, keys.transpose(1, 0)) * (1.0 / np.sqrt(self.cfg.d_k)),
                         axis=-1)
        return T.matmul(attn, v).reshape(*lead, hu, wu, self.cfg.d_v)

    def class_logits(self, e_mask: Tensor, f_text: Tensor | None, keys: Tensor | None,
                     out_size: tuple[int, int]) -> Tensor:
        """Per-class scores [..., H, W, C] at ``out_size``; with the text path
        the classes come in the row order of ``keys``."""
        if not self.enable_text:
            return bilinear_resize(self.head(e_mask), *out_size)
        feats = self.head(T.concat([e_mask, f_text], axis=-1))
        low = T.matmul(feats.reshape(-1, self.cfg.d_k), keys.transpose(1, 0))
        low = (low * (1.0 / np.sqrt(self.cfg.d_k))).reshape(*e_mask.shape[:-1],
                                                            keys.shape[0])
        return bilinear_resize(low, *out_size)

    def classify(self, e_mask: Tensor, vocab: ClassVocabulary,
                 out_size: tuple[int, int]) -> Tensor:
        """Logits [..., H, W, C] in ``vocab`` order from the upscaled mask
        features ``e_mask``: the text path (text cross-attention and
        ``class_logits``) or, without it, the per-class linear head."""
        if not self.enable_text:
            return self.class_logits(e_mask, None, None, out_size)
        # Run every class-axis matmul in canonical (name-sorted) order and
        # only reorder channels at the very end: BLAS kernels are not bitwise
        # permutation-equivariant, but a gather is exact, so permuting the
        # vocabulary permutes the logits bitwise.
        order = sorted(range(vocab.num_classes), key=vocab.names.__getitem__)
        et = Tensor(vocab.embeddings[order])
        keys = T.matmul(et, self.w_k)
        f_text = self.text_cross_attention(e_mask, et, keys)
        logits = self.class_logits(e_mask, f_text, keys, out_size)
        return logits[..., np.argsort(order)]

    def tail(self, e_m: Tensor, vocab: ClassVocabulary,
             out_size: tuple[int, int]) -> Tensor:
        """Logits from the two-way transformer's image grid ``e_m``:
        ``upscale_masks``, then ``classify``."""
        return self.classify(self.upscale_masks(e_m), vocab, out_size)

    # -- full pass ---------------------------------------------------------------

    def prelude(self, e_en: Tensor, sparse: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """The two-way transformer's inputs: image + dense embedding, the
        positional grid, and the [iou, mask..., sparse...] token stack."""
        hp, wp, _ = e_en.shape[-3:]
        e_s = e_en + self.prompt_encoder.dense
        e_p = self.prompt_encoder.positional_grid(hp, wp)
        e_t = T.concat([self.iou_token, self.mask_tokens, sparse], axis=0)
        return e_s, e_p, e_t

    def forward(self, e_en: Tensor, vocab: ClassVocabulary, sparse: Tensor,
                out_size: tuple[int, int]) -> DecoderOutputs:
        e_m = self.two_way_transformer(*self.prelude(e_en, sparse))
        return DecoderOutputs(logits=self.tail(e_m, vocab, out_size))
