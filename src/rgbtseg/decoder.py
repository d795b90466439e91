"""Dual-prompt mask decoder.

Assembles query tokens (iou token, mask tokens, sparse point embeddings) and
image features (embedding + dense no-mask embedding, plus a frozen positional
grid), refines both through a two-way transformer whose frozen attention
projections carry LoRA adapters, upscales the refined image features, aligns
them with class text embeddings through cross-attention, and scores every
pixel against the projected text embeddings.

The head W_h, b_h maps a pixel's features e and its text-attention output
f_text = softmax(e W_Q Kᵀ s) E_t W_V, with keys K = E_t W_K and s = 1/√d_k,
to d_k features, which are only ever scored against Kᵀ s. Both steps are
linear, so the text path runs in class space: the scores before the resize
are

    e (W_h[:d_m] Kᵀ s) + softmax(e W_Q Kᵀ s) (E_t W_V W_h[d_m:] Kᵀ s) + b_h Kᵀ s,

the same function as concatenating [e, f_text], applying the head and scoring
against Kᵀ s, computed as one linear map and one one-head attention whose
values are [C, C]. No per-pixel tensor is wider than the class count C.

Only the refined image features feed a head: the class-score path runs
entirely through the upscaled image features, and the refined tokens are
dropped after the last two-way layer. The text path runs in canonical
(name-sorted) class order and gathers the logits back into the caller's order
at the end. With the text path disabled a plain per-class linear head replaces
the similarity head (class-permutation equivariance then no longer applies).
"Frozen" describes the model, which freezes by name (``params.ledger_group``).

Image features are the encoder's tokens [..., Hp·Wp, d] up to the two-way
transformer's end, grids [..., H, W, ·] from upscaling on, and keep its leading
batch axes. The token stack, positional tokens and class text rows have none:
they are shared by every image of a batch and broadcast against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .layers import (ConvTranspose2x2, LayerNorm, Linear, Mlp,
                     MultiHeadAttention, bilinear_resize, tokens_to_grid)
from .params import ParamRegistry, derive_rng
from .prompts import ClassVocabulary, PointPrompt, PromptEncoder
from .tensor import ShapeError, Tensor


@dataclass
class DecoderOutputs:
    logits: Tensor    # per-class scores at input resolution [..., H, W, C]


class TwoWayLayer:
    """One decoder layer: token self-attention, token->image cross-attention,
    token MLP, image->token cross-attention. Residual + layer norm after each
    stage; positional encodings are added to the image side of every
    cross-attention."""

    def __init__(self, reg: ParamRegistry, name: str, d: int, heads: int,
                 rng: np.random.Generator, lora_rank: int | None):
        r1, r2, r3, r4 = rng.spawn(4)
        self.self_attn = MultiHeadAttention(reg, f"{name}.self_attn", d, heads,
                                            r1, lora_rank)
        self.norm1 = LayerNorm(reg, f"{name}.norm1", d)
        self.cross_t2i = MultiHeadAttention(reg, f"{name}.cross_t2i", d, heads,
                                            r2, lora_rank)
        self.norm2 = LayerNorm(reg, f"{name}.norm2", d)
        self.mlp = Mlp(reg, f"{name}.mlp", d, r3, mult=2)
        self.norm3 = LayerNorm(reg, f"{name}.norm3", d)
        self.cross_i2t = MultiHeadAttention(reg, f"{name}.cross_i2t", d, heads, r4)
        self.norm4 = LayerNorm(reg, f"{name}.norm4", d)

    def __call__(self, tokens: Tensor, img: Tensor, pe: Tensor):
        tokens = self.norm1(tokens + self.self_attn(tokens, tokens, tokens))
        tokens = self.norm2(tokens + self.cross_t2i(tokens, img + pe, img))
        tokens = self.norm3(tokens + self.mlp(tokens))
        img = self.norm4(img + self.cross_i2t(img + pe, tokens, tokens))
        return tokens, img


class MaskDecoder:
    """``stages`` lists the decoder: ``two_way_transformer`` on the encoder
    output (the stage encodes the point prompts itself), ``upscale_masks``, and
    ``classify`` on the upscaled features (the text path, ``class_logits`` and
    the class-order gather, or the text-free head)."""

    def __init__(self, reg: ParamRegistry, cfg, prompt_encoder: PromptEncoder,
                 seed: int):
        self.cfg = cfg
        d = cfg.d
        self.d_m = d // 4

        rt = derive_rng(seed, "decoder.tokens")
        self.iou_token = reg.register("decoder.tokens.iou",
                                      Tensor(rt.normal(0.0, 0.02, (1, d))))
        self.mask_tokens = reg.register(
            "decoder.tokens.mask", Tensor(rt.normal(0.0, 0.02, (cfg.mask_tokens, d))))

        lora_rank = cfg.lora_rank if cfg.enable_decoder_lora else None
        self.layers = [
            TwoWayLayer(reg, f"decoder.twoway.{i}", d, cfg.heads,
                        derive_rng(seed, f"decoder.twoway.{i}"), lora_rank)
            for i in range(cfg.decoder_layers)
        ]

        ru = derive_rng(seed, "decoder.upscale")
        r1, r2 = ru.spawn(2)
        self.up1 = ConvTranspose2x2(reg, "decoder.upscale.1", d, d // 2, r1)
        self.up2 = ConvTranspose2x2(reg, "decoder.upscale.2", d // 2, self.d_m, r2)

        self.prompt_encoder = prompt_encoder
        if cfg.enable_text:
            rtx = derive_rng(seed, "decoder.text_attn")
            # unit-norm text rows: std 1 keeps projected keys/values at unit
            # scale, so class scores start at O(1) instead of vanishing
            sq = 1.0 / np.sqrt(self.d_m)
            st = 1.0
            self.w_q = reg.register("decoder.text_attn.W_Q",
                                    Tensor(rtx.normal(0.0, sq, (self.d_m, cfg.d_k))))
            self.w_k = reg.register("decoder.text_attn.W_K",
                                    Tensor(rtx.normal(0.0, st, (cfg.d_t, cfg.d_k))))
            self.w_v = reg.register("decoder.text_attn.W_V",
                                    Tensor(rtx.normal(0.0, st, (cfg.d_t, cfg.d_v))))
            self.head = Linear(reg, "decoder.head", self.d_m + cfg.d_v, cfg.d_k,
                               derive_rng(seed, "decoder.head"))
        else:
            self.head = Linear(reg, "decoder.head", self.d_m, cfg.num_classes,
                               derive_rng(seed, "decoder.head"))

    # -- stages ----------------------------------------------------------------

    def two_way_transformer(self, e_en: Tensor, sparse: Tensor, grid) -> Tensor:
        """The refined image grid [..., Hp, Wp, d] for ``grid`` = (Hp, Wp): every
        layer refines the encoder's tokens ``e_en`` [..., Hp·Wp, d] plus the dense
        embedding, with positional tokens, against the [iou, mask..., sparse...]
        token stack, and the last layer's tokens are made into the grid."""
        hp, wp = grid
        img = e_en + self.prompt_encoder.dense
        pe = self.prompt_encoder.positional_grid(hp, wp)
        tokens = T.concat([self.iou_token, self.mask_tokens, sparse], axis=0)
        for layer in self.layers:
            tokens, img = layer(tokens, img, pe)
        return tokens_to_grid(img, hp, wp)

    def upscale_masks(self, e_m: Tensor) -> Tensor:
        return T.gelu(self.up2(T.gelu(self.up1(e_m))))

    def _score(self, rows: Tensor, keys: Tensor) -> Tensor:
        """``rows`` [n, d_k] scored against ``keys`` [C, d_k]: rows Kᵀ s."""
        return T.matmul(rows, keys.transpose(1, 0)) * (1.0 / np.sqrt(self.cfg.d_k))

    def text_cross_attention(self, e_mask: Tensor, et: Tensor, keys: Tensor) -> Tensor:
        """The text term softmax(e W_Q Kᵀ s) (E_t W_V W_h[d_m:] Kᵀ s) of the
        scores [..., Hu, Wu, C], from the class text rows ``et`` [C, d_t] and
        their keys ``keys`` = et W_K: one head of the fused ``attention`` node
        with the pixels as queries, the key rows K W_Qᵀ and [C, C] values."""
        *lead, hu, wu, dm = e_mask.shape
        values = T.matmul(T.matmul(et, self.w_v),
                          self._score(self.head.W[self.d_m:], keys))
        scores = T.attention(e_mask.reshape(-1, dm),
                             T.matmul(keys, self.w_q.transpose(1, 0)), values, 1,
                             1.0 / np.sqrt(self.cfg.d_k))
        return scores.reshape(*lead, hu, wu, keys.shape[0])

    def class_logits(self, e_mask: Tensor, text_scores: Tensor, keys: Tensor,
                     out_size: tuple[int, int]) -> Tensor:
        """Per-class scores [..., H, W, C] at ``out_size``: the image and bias
        terms e (W_h[:d_m] Kᵀ s) + b_h Kᵀ s as one ``linear``, plus the text
        term ``text_scores``; the classes come in the row order of ``keys``."""
        w = self._score(self.head.W[:self.d_m], keys)
        b = self._score(self.head.b.reshape(1, -1), keys).reshape(-1)
        return bilinear_resize(T.linear(e_mask, w, b) + text_scores, *out_size)

    def classify(self, e_mask: Tensor, vocab: ClassVocabulary,
                 out_size: tuple[int, int]) -> Tensor:
        """Logits [..., H, W, C] in ``vocab`` order from the upscaled mask
        features ``e_mask``: the text path (text cross-attention and
        ``class_logits``) or, without it, the per-class linear head."""
        if not self.cfg.enable_text:
            return bilinear_resize(self.head(e_mask), *out_size)
        # Run every class-axis matmul in canonical (name-sorted) order and
        # only reorder channels at the very end: BLAS kernels are not bitwise
        # permutation-equivariant, but a gather is exact, so permuting the
        # vocabulary permutes the logits bitwise.
        order = sorted(range(vocab.num_classes), key=vocab.names.__getitem__)
        et = Tensor(vocab.embeddings[order])
        keys = T.matmul(et, self.w_k)
        text_scores = self.text_cross_attention(e_mask, et, keys)
        logits = self.class_logits(e_mask, text_scores, keys, out_size)
        return logits[..., np.argsort(order)]

    def check_vocab(self, vocab: ClassVocabulary) -> None:
        """Refuse a vocabulary this decoder cannot score: embeddings not of
        width d_t or, for the text-free head, another class count."""
        if vocab.dim != self.cfg.d_t:
            raise ShapeError(f"class embedding dim {vocab.dim} does not match the "
                             f"model's d_t {self.cfg.d_t}")
        if not self.cfg.enable_text and vocab.num_classes != self.cfg.num_classes:
            raise ShapeError(f"{vocab.num_classes} classes do not match the "
                             f"text-free head's {self.cfg.num_classes}")

    def stages(self, vocab: ClassVocabulary, points: PointPrompt,
               size: tuple[int, int]) -> list:
        """The decoder as a list in the form of ``RgbtEncoder.stages``, from the
        encoder output to the logits [..., H, W, C] at ``size`` in ``vocab``
        order, once ``check_vocab`` passes. Each stage looks its method up when
        it runs."""
        self.check_vocab(vocab)
        grid = (size[0] // self.cfg.patch, size[1] // self.cfg.patch)
        return [(("decoder.twoway.", "decoder.tokens.", "prompt."),
                 lambda e: self.two_way_transformer(
                     e, self.prompt_encoder.encode_points(points, size), grid)),
                (("decoder.upscale.",), lambda e: self.upscale_masks(e)),
                (("decoder.text_attn.", "decoder.head."),
                 lambda e: self.classify(e, vocab, size))]
