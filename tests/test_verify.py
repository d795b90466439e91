"""The suite checks the ops the model runs, and the full-model check resumes
each pick's finite differences at the first stage of ``verify.stage_chain``
that reads the pick, from stage inputs computed once; that must not change
the report."""

from pathlib import Path

import numpy as np
import pytest

from rgbtseg import tensor as T
from rgbtseg import verify
from rgbtseg.config import RunConfig
from rgbtseg.data import CLASS_NAMES, gen_synthetic
from rgbtseg.decoder import TwoWayLayer
from rgbtseg.gradcheck import gradcheck
from rgbtseg.losses import total_loss
from rgbtseg.model import RgbtSegModel
from rgbtseg.prompts import ClassVocabulary, PointPrompt
from rgbtseg.tensor import Tensor
from rgbtseg.train import train

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Every op the model records on the tape. An op the model starts to run must
# be added here and get a check in ``verify.op_checks``.
MODEL_OPS = {"add", "attention", "ce_dice", "concat", "gelu", "index", "layer_norm",
             "linear", "lora_linear", "matmul", "mul", "relu", "reshape", "sigmoid",
             "sum", "transpose"}


def test_the_model_runs_exactly_the_listed_ops(monkeypatch):
    ops = set()
    from_op = Tensor._from_op

    def recording(data, parents, backward, op):
        ops.add(op)
        return from_op(data, parents, backward, op)

    monkeypatch.setattr(Tensor, "_from_op", staticmethod(recording))
    # the baseline and the full model: between them every ablation switch
    # takes both values
    for config_name in ("ablation_1_baseline", "ablation_7_full"):
        cfg = RunConfig.from_json_file(CONFIGS / f"{config_name}.json")
        cfg.train.steps = 1
        model = RgbtSegModel(cfg)
        vocab = ClassVocabulary.from_names(CLASS_NAMES, cfg.model.d_t, cfg.backbone_seed)
        samples = gen_synthetic(cfg.train.batch, (32, 32), seed=5)
        train(model, vocab, samples, cfg.train)
        model.predict(samples[0].rgb, samples[0].thermal, vocab,
                      PointPrompt([(3.0, 4.0, 1), (20.0, 25.0, 0)]))
    assert ops == MODEL_OPS


def test_split_report_equals_one_check_of_the_full_forward():
    seed = 2
    report = verify.full_model_check(seed, max_coords_per_input=1)

    model, rgb, th, vocab, labels = verify.full_model_setup(seed)
    reference = gradcheck(
        lambda *_: total_loss(model.forward(rgb, th, vocab, verify.POINTS).logits,
                              labels),
        [model.registry.get(n) for n in verify.PICKS], tol=1e-4,
        max_coords_per_input=1, rng=np.random.default_rng(seed + 1))

    assert len(report.per_input) == 17
    assert report == reference  # every field, bitwise


def _fold(chain, rgb, th):
    """Every stage's input and the loss, computed without a tape."""
    xs = [(rgb, th)]
    with T.no_grad():
        for _, step in chain:
            xs.append(step(xs[-1]))
    return xs


def _arrays(x):
    return [t.data for t in (x if isinstance(x, tuple) else (x,))]


def test_each_trainable_parameter_is_first_read_by_one_stage():
    model, rgb, th, vocab, labels = verify.full_model_setup(0)
    chain = verify.stage_chain(model, rgb, th, vocab, labels, verify.POINTS)
    xs = _fold(chain, rgb, th)
    # folding the chain is the model's forward and loss, bitwise
    assert xs[-1].item() == total_loss(
        model.forward(rgb, th, vocab, verify.POINTS).logits, labels).item()
    rng = np.random.default_rng(1)
    for name, p in model.registry.trainable():
        stages = [k for k, (prefixes, _) in enumerate(chain) if name.startswith(prefixes)]
        assert len(stages) == 1, (name, stages)
        p.data += rng.normal(0.0, 0.1, p.shape)
        after = _fold(chain, rgb, th)
        # the inputs of the stage that first reads it and of every earlier one
        for k in range(stages[0] + 1):
            for a, b in zip(_arrays(xs[k]), _arrays(after[k])):
                assert np.array_equal(a, b), (name, k)
        xs = after


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
    # 4 determinism evaluations resumed at fusion stages 0-3; 60 and 1 at the
    # decoder; one pass caching the two-way grid (416 before resumption)
    assert two_way == 2 * (forwards + 60 + 4 + 60 + 1 + 1)


ABLATIONS = sorted(p.stem for p in CONFIGS.glob("ablation_[1-6]_*.json"))


def test_the_six_ablation_configs_are_listed():
    assert len(ABLATIONS) == 6


@pytest.mark.parametrize("config_name", ABLATIONS)
def test_an_ablation_passes_the_end_to_end_gradcheck(config_name):
    """A plain check of the model's forward and loss over the ``verify.PICKS``
    the config trains, at the full-model check's jittered point; the text-free
    configs train ``decoder.head.W`` as their class head."""
    cfg = RunConfig.from_json_file(CONFIGS / f"{config_name}.json")
    model, rgb, th, vocab, labels = verify.full_model_setup(0, cfg)
    trained = dict(model.registry.trainable())
    picks = [n for n in verify.PICKS if n in trained]
    report = gradcheck(
        lambda *_: total_loss(model.forward(rgb, th, vocab, verify.POINTS).logits,
                              labels),
        [trained[n] for n in picks], tol=1e-4, max_coords_per_input=4,
        rng=np.random.default_rng(1))
    assert report.passed, (picks[report.worst_input], report.max_rel_err)
    assert report.checked_coords == 4 * len(picks)
