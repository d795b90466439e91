"""The leading batch axis: batched layers, model and losses agree with the
per-sample loop, gradients through batched layers are correct, and training
stacks each batch into one forward per image shape."""

import math
from pathlib import Path

import numpy as np
import pytest

from rgbtseg.config import RunConfig, TrainConfig
from rgbtseg.data import CLASS_NAMES, gen_synthetic
from rgbtseg.gradcheck import gradcheck
from rgbtseg.layers import (ConvTranspose2x2, MultiHeadAttention, PatchEmbed,
                            SEBlock, bilinear_resize)
from rgbtseg.losses import total_loss
from rgbtseg.model import RgbtSegModel
from rgbtseg.params import ParamRegistry
from rgbtseg.prompts import ClassVocabulary
from rgbtseg.tensor import ShapeError, Tensor
from rgbtseg.train import train

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _rel(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


def _model_and_vocab(config_name):
    cfg = RunConfig.from_json_file(CONFIGS / f"{config_name}.json")
    model = RgbtSegModel(cfg)
    # move off the zero-init point so every adapter and fusion path matters
    rng = np.random.default_rng(5)
    for _, p in model.registry.trainable():
        p.data += rng.normal(0.0, 0.05, p.shape)
    vocab = ClassVocabulary.from_names(CLASS_NAMES, cfg.model.d_t, cfg.backbone_seed)
    return model, vocab


def _trainable_grads(model):
    grads = {name: p.grad.copy() for name, p in model.registry.trainable()
             if p.grad is not None}
    for _, p in model.registry.trainable():
        p.grad = None
    return grads


@pytest.mark.parametrize("config_name", ["ablation_1_baseline", "ablation_4_dffm",
                                         "ablation_7_full"])
def test_batched_step_matches_per_sample_loop(config_name):
    model, vocab = _model_and_vocab(config_name)
    samples = gen_synthetic(3, (32, 32), seed=21)
    labels = np.stack([s.labels for s in samples])
    labels[1, :5] = 255  # images with different valid-pixel counts

    looped_logits, looped_loss = [], None
    for s, lab in zip(samples, labels):
        out = model.forward(s.rgb, s.thermal, vocab)
        looped_logits.append(out.logits.data)
        term = total_loss(out.logits, lab)
        looped_loss = term if looped_loss is None else looped_loss + term
    looped_loss = looped_loss * (1.0 / len(samples))
    looped_loss.backward()
    looped_grads = _trainable_grads(model)

    out = model.forward(np.stack([s.rgb for s in samples]),
                        np.stack([s.thermal for s in samples]), vocab)
    loss = total_loss(out.logits, labels)
    loss.backward()
    grads = _trainable_grads(model)

    assert out.logits.shape == (3, 32, 32, len(CLASS_NAMES))
    assert _rel(out.logits.data, np.stack(looped_logits)) <= 1e-12
    assert abs(loss.item() - looped_loss.item()) <= 1e-12 * abs(looped_loss.item())
    assert grads.keys() == looped_grads.keys()
    for name, g in grads.items():
        assert _rel(g, looped_grads[name]) <= 1e-10, name


def test_batched_logits_permute_bitwise_with_the_vocabulary():
    model, vocab = _model_and_vocab("ablation_7_full")
    samples = gen_synthetic(2, (32, 32), seed=22)
    rgb = np.stack([s.rgb for s in samples])
    th = np.stack([s.thermal for s in samples])
    perm = np.array([2, 0, 3, 1])
    permuted = ClassVocabulary([vocab.names[i] for i in perm],
                               vocab.embeddings[perm], vocab.dim)
    logits = model.forward(rgb, th, vocab).logits.data
    assert np.array_equal(logits[..., perm], model.forward(rgb, th, permuted).logits.data)


def test_all_ignored_image_adds_zero_and_warns():
    rng = np.random.default_rng(8)
    logits = Tensor(rng.normal(size=(3, 4, 4, 3)), requires_grad=True)
    labels = rng.integers(0, 3, (3, 4, 4))
    labels[1] = 255
    with pytest.warns(UserWarning, match="every pixel of an image is ignored"):
        loss = total_loss(logits, labels)
    with pytest.warns(UserWarning):
        per_image = [total_loss(Tensor(logits.data[i]), labels[i]).item()
                     for i in range(3)]
    assert per_image[1] == 0.0
    assert abs(loss.item() - np.mean(per_image)) <= 1e-12
    loss.backward()
    assert not logits.grad[1].any()
    assert logits.grad[0].any() and logits.grad[2].any()


def test_mixed_size_training_takes_finite_steps(monkeypatch):
    cfg = RunConfig()
    samples = (gen_synthetic(4, (64, 64), seed=4)
               + gen_synthetic(2, (32, 32), seed=5))
    vocab = ClassVocabulary.from_names(CLASS_NAMES, cfg.model.d_t, cfg.backbone_seed)
    model = RgbtSegModel(cfg)
    # the first step's loss is taken at the initial parameters: with the whole
    # dataset as the batch it is the mean of the per-sample losses
    per_sample = [total_loss(model.forward(s.rgb, s.thermal, vocab).logits,
                             s.labels).item() for s in samples]
    batches = []
    forward = RgbtSegModel.forward

    def recording_forward(self, rgb, th, *args, **kwargs):
        batches.append(rgb.shape)
        return forward(self, rgb, th, *args, **kwargs)

    monkeypatch.setattr(RgbtSegModel, "forward", recording_forward)
    history = train(model, vocab, samples, TrainConfig(steps=2, batch=6, seed=2))
    assert all(math.isfinite(r.loss) for r in history)
    assert abs(history[0].loss - np.mean(per_sample)) <= 1e-12 * np.mean(per_sample)
    # one stacked forward per image shape of a batch, never one per sample
    assert sorted(batches) == [(2, 32, 32, 3)] * 2 + [(4, 64, 64, 3)] * 2


def test_forward_rejects_mismatched_leading_dims():
    model = RgbtSegModel(RunConfig())
    vocab = ClassVocabulary.from_names(CLASS_NAMES, 32)
    for th_shape in [(3, 32, 32, 1), (32, 32, 1)]:
        with pytest.raises(ShapeError):
            model.forward(np.zeros((2, 32, 32, 3)), np.zeros(th_shape), vocab)


def test_se_block_squeezes_each_image_separately(rng):
    se = SEBlock(ParamRegistry(), "se", 8, 4, rng)
    x = rng.normal(size=(2, 5, 5, 8))
    batched = se(Tensor(x)).data
    for i in range(2):
        assert np.allclose(batched[i], se(Tensor(x[i])).data, rtol=0, atol=1e-13)


def _weighted(fn, shape, rng):
    """Scalar function: ``fn``'s output under one fixed random weighting."""
    w = Tensor(rng.normal(size=shape))
    return lambda *_: (fn() * w).sum()


def _check(f, *inputs):
    report = gradcheck(f, list(inputs), tol=1e-4)
    assert report.passed, report.max_rel_err


def test_gradcheck_batched_attention_with_shared_query(rng):
    mha = MultiHeadAttention(ParamRegistry(), "mha", 8, 2, rng)
    q = Tensor(rng.normal(size=(3, 8)))       # one query stack for the batch
    kv = Tensor(rng.normal(size=(2, 5, 8)))   # two images' keys and values
    _check(_weighted(lambda: mha(q, kv, kv), (2, 3, 8), rng), q, kv)


def test_gradcheck_batched_patch_embed(rng):
    pe = PatchEmbed(ParamRegistry(), "pe", 2, 1, 6, rng)
    img = Tensor(rng.normal(size=(2, 4, 4, 1)))
    _check(_weighted(lambda: pe(img), (2, 2, 2, 6), rng), img, pe.W, pe.b)


def test_gradcheck_batched_conv_transpose(rng):
    up = ConvTranspose2x2(ParamRegistry(), "up", 6, 3, rng)
    x = Tensor(rng.normal(size=(2, 2, 3, 6)))
    _check(_weighted(lambda: up(x), (2, 4, 6, 3), rng), x, up.W, up.b)


def test_gradcheck_batched_bilinear_resize(rng):
    x = Tensor(rng.normal(size=(2, 3, 3, 2)))
    _check(_weighted(lambda: bilinear_resize(x, 5, 6), (2, 5, 6, 2), rng), x)


def test_gradcheck_batched_se_block(rng):
    se = SEBlock(ParamRegistry(), "se", 8, 4, rng)
    x = Tensor(rng.normal(size=(2, 3, 3, 8)))
    _check(_weighted(lambda: se(x), (2, 3, 3, 8), rng), x, se.fc1.W, se.fc2.W)


def test_gradcheck_batched_total_loss(rng):
    logits = Tensor(rng.normal(size=(2, 3, 3, 3)))
    labels = rng.integers(0, 3, (2, 3, 3))
    labels[0, 0] = 255
    _check(lambda t: total_loss(t, labels, lambda_dice=0.5), logits)
