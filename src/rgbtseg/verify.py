"""Gradient verification suite: every differentiable op against central
differences, plus the full encoder -> decoder -> loss composition.

The full-model check jitters the zero-initialized parameters (LoRA B, fusion
output convs) first; otherwise those paths would be checked at a point where
both analytic and numeric gradients vanish identically.

Its gradients come from one taped full forward. Its finite differences do
not re-run what a perturbed parameter cannot change: each stage's input (the
streams entering each fusion stage, the encoder output, the two-way grid, the
upscaled features) is computed once without a tape, and each picked
parameter gets a ``gradcheck`` evaluator that resumes the forward at the
first stage reading it. The stages before it compute exactly the cached
input, so the report is bitwise the report of a check that runs the full
forward for every evaluation.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import RunConfig
from .data import gen_synthetic
from .gradcheck import GradCheckReport, gradcheck
from .layers import (ConvTranspose2x2, LayerNorm, Linear, MultiHeadAttention,
                     PatchEmbed, SEBlock, TransformerBlock, bilinear_resize)
from .lora import LoraLinear
from .losses import cross_entropy, dice_loss, total_loss
from .model import RgbtSegModel
from .params import ParamRegistry
from .prompts import ClassVocabulary, PointPrompt
from .tensor import Tensor


def _rand(rng, *shape):
    return Tensor(rng.normal(size=shape))


def _scalarizer(rng, fn, probe: Tensor):
    """Wrap ``fn`` into a deterministic scalar function: project its output
    through one fixed random weighting (sampled once, using a probe input
    to learn the output shape)."""
    w = Tensor(rng.normal(size=fn(probe).shape))

    def f(t, *_):
        return (fn(t) * w).sum()

    return f


def op_checks(seed: int = 0, tol: float = 1e-4):
    """Yield (name, report) for each differentiable op on 3 random shapes."""
    rng = np.random.default_rng(seed)
    shapes = [(2, 3), (4, 4), (3, 5)]

    def check(name, f, *inputs, **kw):
        return name, gradcheck(f, list(inputs), tol=tol, **kw)

    for si, (m, n) in enumerate(shapes):
        k = m + 1
        a, b = _rand(rng, m, k), _rand(rng, k, n)
        yield check(f"matmul[{si}]",
                    lambda a, b, r=rng.normal(size=(m, n)): (T.matmul(a, b) * Tensor(r)).sum(),
                    a, b)
        x = _rand(rng, m, n)
        for op_name, op in [("softmax", lambda t: T.softmax(t, axis=-1)),
                            ("exp", T.exp), ("gelu", T.gelu),
                            ("sigmoid", T.sigmoid), ("tensor_mul", lambda t: t * t),
                            ("pow", lambda t: (t * t + 1.0) ** -0.5)]:
            yield check(f"{op_name}[{si}]",
                        lambda t, op=op, r=rng.normal(size=(m, n)): (op(t) * Tensor(r)).sum(),
                        Tensor(np.array(x.data)))
        pos = Tensor(np.abs(x.data) + 0.5)
        yield check(f"log[{si}]",
                    lambda t, r=rng.normal(size=(m, n)): (T.log(t) * Tensor(r)).sum(), pos)
        away = Tensor(x.data + 0.2 * np.sign(x.data))  # keep off the relu kink
        yield check(f"relu[{si}]",
                    lambda t, r=rng.normal(size=(m, n)): (T.relu(t) * Tensor(r)).sum(), away)
        yield check(f"sum_mean[{si}]",
                    lambda t: t.sum(axis=0).mean() + t.mean(axis=-1).sum(), x)
        yield check(
            f"reshape_transpose_concat[{si}]",
            lambda t, r=Tensor(rng.normal(size=(m, 2 * n))):
                (T.concat([t.reshape(n, m).transpose(1, 0), t], axis=1) * r).sum(),
            x)
        # a slice plus a repeated column: the gradients of repeats accumulate
        yield check(
            f"index[{si}]",
            lambda t, r=Tensor(rng.normal(size=(m - 1, 3))): (t[1:, [n - 1, 0, 0]] * r).sum(),
            x)

    # layer-level composites, one registry each
    for si, d in enumerate([8, 12, 16]):
        srng = np.random.default_rng(seed + 100 + si)

        def fresh():
            return ParamRegistry(), np.random.Generator(
                np.random.PCG64(seed + 200 + si))

        reg, lrng = fresh()
        ln = LayerNorm(reg, "ln", d)
        x = _rand(srng, 5, d)
        yield check(f"layer_norm[{si}]", _scalarizer(srng, ln, x), x,
                    ln.gamma, ln.beta)

        reg, lrng = fresh()
        mha = MultiHeadAttention(reg, "mha", d, 2, lrng)
        x = _rand(srng, 4, d)
        yield check(f"attention[{si}]",
                    _scalarizer(srng, lambda t: mha(t, t, t), x), x)

        reg, lrng = fresh()
        se = SEBlock(reg, "se", d, 4, lrng)
        g = _rand(srng, 3, 3, d)
        yield check(f"se_block[{si}]", _scalarizer(srng, se, g), g,
                    se.fc1.W, se.fc2.W)

        reg, lrng = fresh()
        pe = PatchEmbed(reg, "pe", 2, 1, d, lrng)
        img = _rand(srng, 4, 4, 1)
        yield check(f"patch_embed[{si}]", _scalarizer(srng, pe, img), img, pe.W)

        reg, lrng = fresh()
        blk = TransformerBlock(reg, "blk", d, 2, lrng, lora_rank=2)
        lora_b = reg.get("blk.attn.q.lora.B")
        lora_b.data[...] = srng.normal(0.0, 0.1, lora_b.shape)
        x = _rand(srng, 4, d)
        yield check(f"transformer_block[{si}]", _scalarizer(srng, blk, x),
                    x, lora_b, reg.get("blk.attn.q.lora.A"))

        reg, lrng = fresh()
        lora = LoraLinear(reg, "lora", d, 2, None, lrng, base_frozen=True)
        lora.B.data[...] = srng.normal(0.0, 0.1, lora.B.shape)
        x = _rand(srng, 3, d)
        yield check(f"lora_apply[{si}]", _scalarizer(srng, lora, x),
                    x, lora.A, lora.B)

        reg, lrng = fresh()
        up = ConvTranspose2x2(reg, "up", d, d // 2, lrng)
        g = _rand(srng, 2, 2, d)
        yield check(f"conv_transpose[{si}]", _scalarizer(srng, up, g),
                    g, up.W, up.b)

        g = _rand(srng, 3, 3, 2)
        yield check(f"bilinear_resize[{si}]",
                    _scalarizer(srng, lambda t: bilinear_resize(t, 6, 6), g), g)

        labels = srng.integers(0, 3, size=(3, 3))
        logits = _rand(srng, 3, 3, 3)
        yield check(f"cross_entropy[{si}]", lambda t: cross_entropy(t, labels), logits)
        yield check(f"dice_loss[{si}]", lambda t: dice_loss(t, labels), logits)

        reg, lrng = fresh()
        lin = Linear(reg, "lin", d, d // 2, lrng)
        x = _rand(srng, 2, 3, d)
        yield check(f"linear[{si}]", _scalarizer(srng, lin, x), x, lin.W, lin.b)

        # a batch of two with ignored pixels
        labels = srng.integers(0, 4, size=(2, 3, 3))
        labels[0, 0] = 255
        logits = _rand(srng, 2, 3, 3, 4)
        yield check(f"total_loss[{si}]", lambda t: total_loss(t, labels, 0.5), logits)


# the parameters the full-model check perturbs, in the order it checks them
ENCODER_PICKS = (
    "encoder.thermal_embed.W",
    "encoder.dffm.0.conv_out.W",
    "encoder.dffm.1.se.fc1.W",
    "encoder.dffm.2.conv_prev.W",
    "encoder.blocks.0.attn.q.lora.A",
    "encoder.blocks.3.attn.v.lora.B",
)
DECODER_PICKS = (
    "decoder.twoway.0.self_attn.q.lora.A",
    "decoder.twoway.1.cross_t2i.v.lora.B",
    "decoder.upscale.1.W",
    "decoder.upscale.2.b",
    "decoder.text_attn.W_Q",
    "decoder.text_attn.W_K",
    "decoder.text_attn.W_V",
    "decoder.head.W",
    "prompt.dense",
    "decoder.tokens.mask",
)


def full_model_setup(seed: int = 0):
    """The full-model check's point: the default model with its trainable
    parameters jittered, and one synthetic sample with a 4-class vocabulary.
    Returns (model, rgb, thermal, vocab, labels)."""
    cfg = RunConfig()
    cfg.validate()
    model = RgbtSegModel(cfg)
    rng = np.random.default_rng(seed)
    # move off the zero-init point so fusion and adapter paths carry gradient
    for name, p in model.registry.trainable():
        p.data += rng.normal(0.0, 0.02, p.shape)

    sample = gen_synthetic(1, (cfg.model.image_size,) * 2, seed=seed)[0]
    vocab = ClassVocabulary.from_names(["bg", "a", "b", "c"], cfg.model.d_t, seed)
    return model, Tensor(sample.rgb), Tensor(sample.thermal), vocab, sample.labels


def pick_start(name: str) -> str:
    """The stage at which the full-model check's finite differences of
    parameter ``name`` start: the first stage that reads it. "model" is the
    full forward, "encoder.<i>" fusion stage i, "decoder" the decoder on the
    encoder output, "tail" the upscaling on the two-way grid and "classify"
    the class head on the upscaled features."""
    kind, part, *rest = name.split(".")
    if kind == "encoder" and part in ("dffm", "blocks"):
        return f"encoder.{rest[0]}"
    return {
        "encoder.thermal_embed": "model",
        "decoder.twoway": "decoder",
        "decoder.tokens": "decoder",
        "prompt.dense": "decoder",
        "decoder.upscale": "tail",
        "decoder.text_attn": "classify",
        "decoder.head": "classify",
    }[f"{kind}.{part}"]


def stage_inputs(model: RgbtSegModel, rgb: Tensor, th: Tensor,
                 sparse: Tensor) -> dict:
    """The input of every stage ``pick_start`` names except "model", computed
    once without a tape at the model's current parameters: the two streams
    entering each fusion stage, the encoder output, the two-way grid and the
    upscaled mask features."""
    enc, dec = model.encoder, model.decoder
    x = {}
    with T.no_grad():
        streams = (enc.thermal_embed(th), enc.rgb_embed(rgb))
        for i in range(len(enc.blocks)):
            x[f"encoder.{i}"] = streams
            streams = enc.stage(i, *streams)
        x["decoder"] = streams[1]
        x["tail"] = dec.two_way_transformer(*dec.prelude(x["decoder"], sparse))
        x["classify"] = dec.upscale_masks(x["tail"])
    return x


def full_model_check(seed: int = 0, tol: float = 1e-4,
                     max_coords_per_input: int = 6) -> GradCheckReport:
    """End-to-end gradient check of total_loss through encoder and decoder.

    One ``gradcheck`` over ``ENCODER_PICKS + DECODER_PICKS``: the analytic
    gradients come from one taped full forward, and the finite differences
    of each pick resume the forward at ``pick_start(pick)`` from the stage
    inputs of ``stage_inputs``. No earlier stage reads the pick, so every
    resumed value is the full forward's, and the report equals, field for
    field, a check that runs the full forward for every evaluation.
    """
    model, rgb, th, vocab, labels = full_model_setup(seed)
    enc, dec = model.encoder, model.decoder
    size = rgb.shape[-3:-1]
    sparse = model.prompt_encoder.encode_points(PointPrompt([]), size)
    x = stage_inputs(model, rgb, th, sparse)

    def loss(logits):
        return total_loss(logits, labels)

    def decoded(e_en):
        return loss(dec.forward(e_en, vocab, sparse, size).logits)

    def from_stage(i):
        return lambda *_: decoded(enc.run_stages(*x[f"encoder.{i}"], start=i))

    evaluators = {
        "model": lambda *_: loss(model.forward(rgb, th, vocab).logits),
        **{f"encoder.{i}": from_stage(i) for i in range(len(enc.blocks))},
        "decoder": lambda *_: decoded(x["decoder"]),
        "tail": lambda *_: loss(dec.tail(x["tail"], vocab, size)),
        "classify": lambda *_: loss(dec.classify(x["classify"], vocab, size)),
    }

    picks = ENCODER_PICKS + DECODER_PICKS
    return gradcheck(evaluators["model"], [model.registry.get(n) for n in picks],
                     tol=tol, max_coords_per_input=max_coords_per_input,
                     rng=np.random.default_rng(seed + 1),
                     evaluators=[evaluators[pick_start(n)] for n in picks])


def run_suite(seed: int = 0, tol: float = 1e-4):
    """All checks; returns (results, all_passed)."""
    results = list(op_checks(seed, tol))
    results.append(("full_model", full_model_check(seed, tol)))
    return results, all(r.passed for _, r in results)
