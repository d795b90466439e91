"""Mask decoder: LoRA init identity, output shapes, text path equivariance,
the class-space head against its feature-space composition, and the
vocabulary rule."""

import re
from pathlib import Path

import numpy as np
import pytest

from rgbtseg import tensor as T
from rgbtseg.config import RunConfig
from rgbtseg.data import CLASS_NAMES
from rgbtseg.layers import bilinear_resize
from rgbtseg.model import RgbtSegModel
from rgbtseg.prompts import ClassVocabulary, PointPrompt
from rgbtseg.tensor import ShapeError, Tensor
from rgbtseg.train import evaluate, train

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _model(**flags):
    cfg = RunConfig()
    for k, v in flags.items():
        setattr(cfg.model, k, v)
    return RgbtSegModel(cfg)


def _inputs(rng):
    return rng.uniform(size=(64, 64, 3)), rng.uniform(size=(64, 64, 1))


def test_decoder_lora_identity_at_init(rng, vocab):
    rgb, th = _inputs(rng)
    with_lora = _model().forward(rgb, th, vocab)
    without = _model(enable_decoder_lora=False).forward(rgb, th, vocab)
    assert np.array_equal(with_lora.logits.data, without.logits.data)


def test_logits_cover_image_and_classes(rng, vocab):
    rgb, th = _inputs(rng)
    out = _model().forward(rgb, th, vocab)
    assert out.logits.shape == (64, 64, vocab.num_classes)


def test_text_free_head_shape(rng, vocab):
    rgb, th = _inputs(rng)
    out = _model(enable_text=False).forward(rgb, th, vocab)
    assert out.logits.shape == (64, 64, 4)


def test_class_permutation_equivariance_bitwise(rng):
    rgb, th = _inputs(rng)
    model = _model()
    names = ["a", "b", "c", "d", "e"]
    vocab = ClassVocabulary.from_names(names, 32, seed=2)
    perm = np.array([4, 2, 0, 1, 3])
    permuted = ClassVocabulary([names[i] for i in perm],
                               vocab.embeddings[perm], 32)
    logits = model.forward(rgb, th, vocab).logits.data
    logits_p = model.forward(rgb, th, permuted).logits.data
    assert np.array_equal(logits[..., perm], logits_p)


def test_point_prompts_change_output(rng, vocab):
    rgb, th = _inputs(rng)
    model = _model()
    plain = model.forward(rgb, th, vocab).logits.data
    pointed = model.forward(rgb, th, vocab,
                            PointPrompt([(10.0, 12.0, 1)])).logits.data
    assert plain.shape == pointed.shape
    assert not np.array_equal(plain, pointed)


def test_forward_is_deterministic(rng, vocab):
    rgb, th = _inputs(rng)
    model = _model()
    a = model.forward(rgb, th, vocab).logits.data
    b = model.forward(rgb, th, vocab).logits.data
    assert np.array_equal(a, b)


def _feature_space_logits(dec, e, et, out_size):
    """The text path composed in feature space: each pixel attends over the
    classes with its query e W_Q, the head maps [e, f_text] to d_k features,
    and the features are scored against the keys et W_K."""
    *lead, hu, wu, dm = e.shape
    scale = 1.0 / np.sqrt(dec.cfg.d_k)
    keys = T.matmul(et, dec.w_k)
    q = T.matmul(e.reshape(-1, dm), dec.w_q)
    f_text = T.attention(q, keys, T.matmul(et, dec.w_v), 1, scale)
    feats = dec.head(T.concat([e, f_text.reshape(*lead, hu, wu, -1)], axis=-1))
    low = T.matmul(feats.reshape(-1, dec.cfg.d_k), keys.transpose(1, 0)) * scale
    return bilinear_resize(low.reshape(*lead, hu, wu, -1), *out_size)


def test_class_space_head_matches_the_feature_space_composition():
    rng = np.random.default_rng(7)
    dec = _model().decoder
    dec.head.b.data = rng.normal(0.0, 0.5, dec.head.b.shape)  # zero at init
    params = [dec.w_q, dec.w_k, dec.w_v, dec.head.W, dec.head.b]
    for c in (1, 4, 7):
        # names already in canonical order, so classify gathers nothing
        vocab = ClassVocabulary.from_names([f"class_{i}" for i in range(c)],
                                           dec.cfg.d_t, seed=c)
        for lead in ((), (2,)):
            e = Tensor(rng.normal(size=(*lead, 8, 8, dec.d_m)), requires_grad=True)
            g = Tensor(rng.normal(size=(*lead, 16, 16, c)))
            results = []
            for logits_fn in (
                    lambda: dec.classify(e, vocab, (16, 16)),
                    lambda: _feature_space_logits(dec, e, Tensor(vocab.embeddings),
                                                  (16, 16))):
                for t in [e, *params]:
                    t.grad = None
                logits = logits_fn()
                (logits * g).sum().backward()
                results.append([logits.data] + [t.grad for t in [e, *params]])
            for got, want in zip(*results):
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (c, lead)


@pytest.mark.parametrize("entry", ["predict", "train", "evaluate"])
def test_every_entry_point_refuses_a_vocabulary_the_decoder_cannot_score(
        tiny_dataset, entry):
    """``MaskDecoder.stages`` checks the vocabulary before any stage runs, so
    the library refuses what the CLI refuses, with the same message: the
    text-free head of the baseline scores exactly its 4 classes, and every
    model takes embeddings of width d_t only."""
    cfg = RunConfig.from_json_file(CONFIGS / "ablation_1_baseline.json")
    model = RgbtSegModel(cfg)
    before = {n: t.data.copy() for n, (t, _) in model.registry.items()}
    sample = tiny_dataset[0]
    run = {"predict": lambda v: model.predict(sample.rgb, sample.thermal, v),
           "train": lambda v: train(model, v, tiny_dataset, cfg.train),
           "evaluate": lambda v: evaluate(model, v, tiny_dataset)}[entry]
    for vocab, message in [
            (ClassVocabulary.from_names(CLASS_NAMES[:3], cfg.model.d_t),
             "3 classes do not match the text-free head's 4"),
            (ClassVocabulary.from_names(CLASS_NAMES, 16),
             f"class embedding dim 16 does not match the model's d_t {cfg.model.d_t}")]:
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            run(vocab)
    assert all(np.array_equal(t.data, before[n]) for n, (t, _) in model.registry.items())
