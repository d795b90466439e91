"""Gradient verification suite: every differentiable op the model runs against
central differences, plus the full model and loss with two point prompts.

The full-model check jitters the zero-initialized parameters (LoRA B, fusion
output convs) first; otherwise those paths would be checked at a point where
both analytic and numeric gradients vanish identically.

Its gradients come from one taped full forward. Its finite differences do
not re-run what a perturbed parameter cannot change. ``loss_chain`` is the
model's stages on any config (``RgbtEncoder.stages``, then
``MaskDecoder.stages``, each tagged with the parameter prefixes it is first
to read) with the loss appended. Every stage's input is computed once without
a tape, and each picked parameter gets a ``gradcheck`` evaluator that resumes
the chain at the first stage reading it. The stages before it compute
exactly the cached input, so the report is bitwise the report of a check
that runs the full forward for every evaluation.

``run_suite`` runs the op checks in the caller and the full-model check in
two ``workers.Workers`` processes (``_serve``), one ``PARTS`` slice of
``PICKS`` each, and joins the two reports into the report of one check: each
part draws the coordinates a check of all the picks draws for its picks. In
process at one BLAS thread the op checks take about 300 ms and the parts 291
and 349 ms, so no process waits long for another; one worker with the whole
check (611 ms) would leave the caller idle for about 300 ms of every suite.
The caller builds no model, which keeps its memory at that of the op checks.
The op checks' products are too small for OpenBLAS to thread, while the
full-model check's 64x64x64 products would take every BLAS thread, so each
worker runs one. The workers persist until the interpreter exits, because
starting one means a fresh interpreter importing rgbtseg: only the first
suite in a process pays that, overlapped with the op checks. One BLAS thread
gives bitwise the results of the default count, so the report is that of the
in-process composition.
"""

from __future__ import annotations

import signal

import numpy as np

from . import tensor as T
from .config import RunConfig
from .data import gen_synthetic
from .gradcheck import GradCheckReport, draw_coords, gradcheck, join_reports
from .layers import (ConvTranspose2x2, LayerNorm, Linear, MultiHeadAttention,
                     PatchEmbed, SEBlock, TransformerBlock, bilinear_resize)
from .lora import LoraLinear
from .losses import cross_entropy, dice_loss, total_loss
from .model import RgbtSegModel
from .params import ParamRegistry
from .prompts import ClassVocabulary, PointPrompt
from .tensor import Tensor
from .workers import Workers


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

    def check(name, f, *inputs):
        return name, gradcheck(f, list(inputs), tol=tol)

    for si, (m, n) in enumerate(shapes):
        k = m + 1
        a, b = _rand(rng, m, k), _rand(rng, k, n)
        yield check(f"matmul[{si}]",
                    lambda a, b, r=rng.normal(size=(m, n)): (T.matmul(a, b) * Tensor(r)).sum(),
                    a, b)
        x = _rand(rng, m, n)
        # one output weighting per unary check: eight draws for four checks,
        # so that each seed's reports equal those of versions that also
        # checked softmax, exp, pow and log (draws 0, 1, 5 and 6)
        w = rng.normal(size=(8, m, n))
        for op_name, op, r in [("gelu", T.gelu, w[2]), ("sigmoid", T.sigmoid, w[3]),
                               ("tensor_mul", lambda t: t * t, w[4])]:
            yield check(f"{op_name}[{si}]",
                        lambda t, op=op, r=r: (op(t) * Tensor(r)).sum(),
                        Tensor(np.array(x.data)))
        away = Tensor(x.data + 0.2 * np.sign(x.data))  # keep off the relu kink
        yield check(f"relu[{si}]", lambda t, r=w[7]: (T.relu(t) * Tensor(r)).sum(), away)
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
        g = _rand(srng, 9, d)  # a 3x3 grid's tokens
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
        lora = LoraLinear(reg, "lora", d, 2, lrng)
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
PICKS = (
    "encoder.thermal_embed.W",
    "encoder.dffm.0.conv_out.W",
    "encoder.dffm.1.se.fc1.W",
    "encoder.dffm.2.conv_prev.W",
    "encoder.blocks.0.attn.q.lora.A",
    "encoder.blocks.3.attn.v.lora.B",
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
    "prompt.point_labels",
)
POINTS = PointPrompt([(10, 12, 1), (40, 40, 0)])  # both point_labels rows


def full_model_setup(seed: int = 0, cfg: RunConfig | None = None):
    """The full-model check's point: the model of ``cfg`` (the default config
    if None) with its trainable parameters jittered, and one synthetic sample
    with a 4-class vocabulary. Returns (model, rgb, thermal, vocab, labels)."""
    cfg = cfg or RunConfig()
    model = RgbtSegModel(cfg)
    rng = np.random.default_rng(seed)
    # move off the zero-init point so fusion and adapter paths carry gradient
    for name, p in model.registry.trainable():
        p.data += rng.normal(0.0, 0.02, p.shape)

    sample = gen_synthetic(1, (cfg.model.image_size,) * 2, seed=seed)[0]
    vocab = ClassVocabulary.from_names(["bg", "a", "b", "c"], cfg.model.d_t, seed)
    return model, Tensor(sample.rgb), Tensor(sample.thermal), vocab, sample.labels


def loss_chain(model: RgbtSegModel, vocab: ClassVocabulary, labels: np.ndarray,
               points: PointPrompt, size: tuple[int, int]) -> list:
    """The model's stages on images of pixel size ``size``, encoder then
    decoder, with ``total_loss`` appended to the last stage. Folding the chain
    from (rgb, thermal) computes the same ops as ``model.forward`` with
    ``points`` followed by ``total_loss``."""
    *chain, (prefixes, classify) = (model.encoder.stages(size)
                                    + model.decoder.stages(vocab, points, size))
    return [*chain, (prefixes, lambda x: total_loss(classify(x), labels))]


def full_model_check(seed: int = 0, tol: float = 1e-4, max_coords_per_input: int = 6,
                     cfg: RunConfig | None = None,
                     picks: slice = slice(None)) -> GradCheckReport:
    """End-to-end gradient check of total_loss through encoder and decoder, on
    the model of ``cfg`` (the default config if None), over the ``PICKS`` it
    trains. The analytic gradients come from one taped full forward. The
    finite differences of each pick resume ``loss_chain`` at the first stage
    whose prefixes match the pick, from that stage's input, computed once by
    folding the chain without a tape; picks of the first stage run
    ``model.forward`` itself. No earlier stage reads the pick, so the report
    equals, field for field, a check that runs the full forward for every
    evaluation.

    ``picks`` narrows the check to the trained picks in ``PICKS[picks]``, each
    at the coordinates the check of all ``PICKS`` draws for it. So
    ``join_reports`` of the checks of consecutive slices equals the check of
    their union."""
    model, rgb, th, vocab, labels = full_model_setup(seed, cfg)
    chain = loss_chain(model, vocab, labels, POINTS, rgb.shape[-3:-1])
    inputs = [(rgb, th)]
    with T.no_grad():
        for _, step in chain[:-1]:
            inputs.append(step(inputs[-1]))

    def resume(k):
        def evaluate(*_):
            x = inputs[k]
            for _, step in chain[k:]:
                x = step(x)
            return x
        return evaluate

    # one evaluator per stage, so gradcheck checks each against f once
    evaluators = [lambda *_: total_loss(model.forward(rgb, th, vocab, POINTS).logits,
                                        labels),
                  *map(resume, range(1, len(chain)))]
    trained = dict(model.registry.trainable())
    start, stop, _ = picks.indices(len(PICKS))
    rng = np.random.default_rng(seed + 1)
    for n in PICKS[:start]:  # the draws of the picks before the slice
        if n in trained:
            draw_coords(trained[n].size, max_coords_per_input, rng)
    names = [n for n in PICKS[start:stop] if n in trained]
    first = [next(k for k, (prefixes, _) in enumerate(chain) if n.startswith(prefixes))
             for n in names]
    return gradcheck(evaluators[0], [trained[n] for n in names],
                     tol=tol, max_coords_per_input=max_coords_per_input, rng=rng,
                     evaluators=[evaluators[k] for k in first])


# The full-model check's parts, one per worker: the thermal patch embedding
# and the three DFFM picks, then the rest. In process at one BLAS thread
# they take 291 and 349 ms; a split after 3 picks gave 240 and 400 ms, after
# 5 picks 350 and 285 ms. Each part repeats about 30 ms of set-up (the model,
# the taped forward and backward, the stage inputs).
PARTS = (slice(None, 4), slice(4, None))


def _serve(conn) -> None:
    """A full-model check worker: reply to each ``(seed, tol, part)`` with
    ``full_model_check(seed, tol, picks=part)`` or its exception, until EOF."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the caller's
    while True:
        try:
            seed, tol, part = conn.recv()
        except EOFError:
            return
        try:
            conn.send(full_model_check(seed, tol, picks=part))
        except Exception as e:
            conn.send(e)


_workers = Workers(_serve, len(PARTS), "full-model check")  # started by the first suite


def run_suite(seed: int = 0, tol: float = 1e-4):
    """All checks; returns (results, all_passed). The results are those of
    ``op_checks`` followed by ("full_model", ``full_model_check``), the latter
    joined from its ``PARTS``, each computed in a worker process while the
    caller runs the op checks. The caller builds no model.

    A worker that dies raises ChildProcessError, and the next call starts
    fresh ones; a worker's exception is raised here, the first part's first."""
    with _workers.exchange() as conns:
        for conn, part in zip(conns, PARTS):
            conn.send((seed, tol, part))
        results = list(op_checks(seed, tol))
        reports = [conn.recv() for conn in conns]
    for report in reports:
        if isinstance(report, Exception):
            raise report
    results.append(("full_model", join_reports(reports)))
    return results, all(r.passed for _, r in results)
