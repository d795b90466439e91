"""The inference path: ``predict`` runs one forward without a tape, returns the
same labels as the taped forward, and still names the op of a NaN."""

from pathlib import Path

import numpy as np
import pytest

from rgbtseg.config import RunConfig
from rgbtseg.data import CLASS_NAMES, gen_synthetic
from rgbtseg.model import RgbtSegModel
from rgbtseg.prompts import ClassVocabulary, PointPrompt
from rgbtseg.tensor import NumericError, Tensor, no_grad

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
POINTS = PointPrompt([(3.0, 4.0, 1), (20.0, 25.0, 0)])


def _model_and_vocab(config_name):
    cfg = RunConfig.from_json_file(CONFIGS / f"{config_name}.json")
    model = RgbtSegModel(cfg)
    # move off the zero-init point so every adapter and fusion path matters
    rng = np.random.default_rng(11)
    for _, p in model.registry.trainable():
        p.data += rng.normal(0.0, 0.05, p.shape)
    vocab = ClassVocabulary.from_names(CLASS_NAMES, cfg.model.d_t, cfg.backbone_seed)
    return model, vocab


def _images(batch):
    samples = gen_synthetic(2, (32, 32), seed=8)
    if batch:
        return (np.stack([s.rgb for s in samples]),
                np.stack([s.thermal for s in samples]))
    return samples[0].rgb, samples[0].thermal


def _tape_on():
    return (Tensor(1.0, requires_grad=True) * 2.0).requires_grad


@pytest.mark.parametrize("points", [None, POINTS], ids=["no_points", "two_points"])
@pytest.mark.parametrize("batch", [False, True], ids=["unbatched", "batched"])
@pytest.mark.parametrize("config_name", ["ablation_1_baseline",
                                         "ablation_3_decoder_lora_text",
                                         "ablation_7_full"])
def test_predict_equals_argmax_of_taped_forward(config_name, batch, points):
    model, vocab = _model_and_vocab(config_name)
    rgb, th = _images(batch)
    logits = model.forward(rgb, th, vocab, points).logits.data
    pred = model.predict(rgb, th, vocab, points)
    expected = np.argmax(logits, axis=-1).astype(np.int64)
    assert pred.dtype == expected.dtype and pred.shape == rgb.shape[:-1]
    assert np.array_equal(pred, expected)


def test_predict_leaves_no_gradient_and_restores_the_tape():
    model, vocab = _model_and_vocab("ablation_7_full")
    rgb, th = _images(False)
    model.predict(rgb, th, vocab, POINTS)
    assert all(p.grad is None for _, p in model.registry.trainable())
    assert _tape_on()
    assert model.forward(rgb, th, vocab).logits.requires_grad


def test_predict_calls_forward_once(monkeypatch):
    model, vocab = _model_and_vocab("ablation_7_full")
    calls = []
    forward = RgbtSegModel.forward

    def recording_forward(self, *args, **kwargs):
        out = forward(self, *args, **kwargs)
        calls.append(out.logits)
        return out

    monkeypatch.setattr(RgbtSegModel, "forward", recording_forward)
    model.predict(*_images(False), vocab)
    # the tracer of the benchmark reads the logits of this one forward
    assert len(calls) == 1
    assert not calls[0].requires_grad and calls[0]._parents == ()


def test_nan_parameter_raises_the_op_of_the_taped_forward():
    model, vocab = _model_and_vocab("ablation_7_full")
    rgb, th = _images(False)
    param = next(p for n, p in model.registry.trainable() if n.startswith("encoder."))
    param.data.flat[0] = np.nan
    with pytest.raises(NumericError) as taped:
        model.forward(rgb, th, vocab)
    assert str(taped.value).startswith("non-finite value produced by op '")
    with pytest.raises(NumericError) as predicted:
        model.predict(rgb, th, vocab)
    assert str(predicted.value) == str(taped.value)
    assert _tape_on()


def test_no_grad_restores_after_exception_and_when_nested():
    with pytest.raises(RuntimeError):
        with no_grad():
            assert not _tape_on()
            raise RuntimeError("boom")
    assert _tape_on()
    with no_grad():
        with no_grad():
            assert not _tape_on()
        assert not _tape_on()
    assert _tape_on()


def test_no_grad_skips_the_per_op_finite_check():
    x = Tensor(np.array([1.0, 0.0]), requires_grad=True)
    with np.errstate(invalid="ignore"):
        with no_grad():
            out = x * np.inf
        assert not np.isfinite(out.data).any()
        with pytest.raises(NumericError, match="op 'mul'"):
            x * np.inf
