"""The full-model check splits its picks into an encoder group and a
decoder-side group that reuses one encoder output; the split must not change
the report."""

import numpy as np

from rgbtseg import verify
from rgbtseg.encoder import RgbtEncoder
from rgbtseg.gradcheck import gradcheck
from rgbtseg.losses import total_loss


def test_split_report_equals_one_check_of_the_full_forward():
    seed = 2
    report = verify.full_model_check(seed, max_coords_per_input=1)

    model, rgb, th, vocab, labels = verify.full_model_setup(seed)
    picks = verify.ENCODER_PICKS + verify.DECODER_PICKS
    reference = gradcheck(
        lambda *_: total_loss(model.forward(rgb, th, vocab).logits, labels),
        [model.registry.get(n) for n in picks], tol=1e-4,
        max_coords_per_input=1, rng=np.random.default_rng(seed + 1))

    assert len(report.per_input) == 16
    assert report == reference  # every field, bitwise


def test_decoder_side_picks_leave_the_encoder_output_unchanged():
    model, rgb, th, _, _ = verify.full_model_setup(0)
    before = model.encoder.forward(rgb, th).data
    rng = np.random.default_rng(1)
    for name in verify.DECODER_PICKS:
        p = model.registry.get(name)
        p.data[...] = rng.normal(size=p.shape)
        assert np.array_equal(model.encoder.forward(rgb, th).data, before), name


def test_encoder_runs_once_for_the_decoder_side_group(monkeypatch):
    calls = 0
    forward = RgbtEncoder.forward

    def counting(self, rgb, th):
        nonlocal calls
        calls += 1
        return forward(self, rgb, th)

    monkeypatch.setattr(RgbtEncoder, "forward", counting)
    verify.full_model_check(0, max_coords_per_input=6)
    # 6 encoder picks x 6 coords x 2 sides, the taped and the determinism
    # evaluation, and one for all decoder-side picks (194 with no split)
    assert calls == 6 * 6 * 2 + 2 + 1
