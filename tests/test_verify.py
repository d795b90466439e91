"""The full-model check resumes each pick's finite differences at the first
stage that reads the pick, from stage inputs computed once; that must not
change the report."""

import numpy as np

from rgbtseg import verify
from rgbtseg.decoder import TwoWayLayer
from rgbtseg.gradcheck import gradcheck
from rgbtseg.losses import total_loss
from rgbtseg.model import RgbtSegModel
from rgbtseg.prompts import PointPrompt


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


def _arrays(stage_input):
    return [t.data for t in (stage_input if isinstance(stage_input, tuple)
                             else (stage_input,))]


def test_decoder_side_picks_leave_the_encoder_output_unchanged():
    model, rgb, th, _, _ = verify.full_model_setup(0)
    sparse = model.prompt_encoder.encode_points(PointPrompt([]), rgb.shape[-3:-1])
    x = verify.stage_inputs(model, rgb, th, sparse)
    stages = list(x)
    rng = np.random.default_rng(1)
    for name in verify.ENCODER_PICKS + verify.DECODER_PICKS:
        p = model.registry.get(name)
        p.data[...] = rng.normal(size=p.shape)
        after = verify.stage_inputs(model, rgb, th, sparse)
        # the cached encoder output is the encoder's own
        assert np.array_equal(after["decoder"].data,
                              model.encoder.forward(rgb, th).data), name
        start = verify.pick_start(name)
        # "model" reads the images, which nothing computes
        upstream = [] if start == "model" else stages[:stages.index(start) + 1]
        if name in verify.DECODER_PICKS:
            assert "decoder" in upstream, name
        for key in upstream:
            for a, b in zip(_arrays(x[key]), _arrays(after[key])):
                assert np.array_equal(a, b), (name, key)
        x = after


def test_encoder_runs_once_for_the_decoder_side_group(monkeypatch):
    calls = {RgbtSegModel.forward: 0, TwoWayLayer.__call__: 0}

    def counting(fn):
        def counted(*args, **kwargs):
            calls[fn] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(RgbtSegModel, "forward", counting(RgbtSegModel.forward))
    monkeypatch.setattr(TwoWayLayer, "__call__", counting(TwoWayLayer.__call__))
    verify.full_model_check(0, max_coords_per_input=6)
    forwards, two_way = calls.values()
    # the taped and the determinism evaluation, and 6 coords x 2 sides for
    # encoder.thermal_embed.W, the one pick every stage reads
    assert forwards == 2 + 6 * 2
    # 2 layers per decoder pass: the full forwards; 60 finite differences and
    # 4 determinism evaluations resumed at fusion stages 0-3; 48 and 1 at the
    # decoder; one pass caching the two-way grid (392 before resumption)
    assert two_way == 2 * (forwards + 60 + 4 + 48 + 1 + 1)
