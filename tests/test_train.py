"""The training step: one finite check per step, a replay that names the op or
the parameter, nothing moved by a failed step, and the tape-node budget."""

from pathlib import Path

import numpy as np
import pytest

from rgbtseg import tensor as T
from rgbtseg import train as train_mod
from rgbtseg.config import ConfigValidationError, RunConfig
from rgbtseg.data import CLASS_NAMES, gen_synthetic
from rgbtseg.losses import total_loss
from rgbtseg.model import RgbtSegModel
from rgbtseg.optim import AdamW
from rgbtseg.prompts import ClassVocabulary
from rgbtseg.tensor import NumericError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# The fused layer and loss nodes build 447 tape nodes for this step (1161
# with one node per elementary op).
TAPE_NODE_BUDGET = 500


def _setup(steps=3, config="ablation_7_full"):
    cfg = RunConfig.from_json_file(CONFIGS / f"{config}.json")
    cfg.train.steps = steps
    model = RgbtSegModel(cfg)
    vocab = ClassVocabulary.from_names(CLASS_NAMES, cfg.model.d_t, cfg.backbone_seed)
    return cfg, model, vocab, gen_synthetic(4, (32, 32), seed=5)


def _tape_nodes(root) -> int:
    seen, stack = set(), [root]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            stack.extend(t._parents)
    return len(seen)


def test_training_step_stays_within_the_tape_node_budget():
    cfg, model, vocab, _ = _setup()
    samples = gen_synthetic(4, (64, 64), seed=5)
    logits = model.forward(np.stack([s.rgb for s in samples]),
                           np.stack([s.thermal for s in samples]), vocab).logits
    loss = total_loss(logits, np.stack([s.labels for s in samples]),
                      cfg.train.lambda_dice, cfg.train.ignore_label, cfg.train.dice_smooth)
    assert _tape_nodes(loss) <= TAPE_NODE_BUDGET


def test_finite_steps_run_no_per_op_check(monkeypatch):
    cfg, model, vocab, samples = _setup(steps=2)
    calls = []
    monkeypatch.setattr(T, "_check_finite", lambda data, op: calls.append(op))
    train_mod.train(model, vocab, samples, cfg.train)
    assert calls == []


def test_nonfinite_gradient_names_the_parameter_and_moves_nothing(monkeypatch):
    cfg, model, vocab, samples = _setup(steps=3)
    target_name = "encoder.blocks.1.attn.v.lora.B"
    target = model.registry.get(target_name)
    optimizers, snapshot = [], {}

    class RecordingAdamW(AdamW):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            optimizers.append(self)

    def log_fn(rec):
        if rec.step == 1:  # poison the backward of the third step
            snapshot["params"] = {n: t.data.copy() for n, (t, _) in model.registry.items()}
            snapshot["moments"] = {n: (m.copy(), v.copy())
                                   for n, (m, v) in optimizers[0]._moments.items()}

    original = T.lora_linear

    def lora_linear(x, w0, b0, a, b, scale):
        out = original(x, w0, b0, a, b, scale)
        if b is target and snapshot:
            backward = out._backward

            def poisoned(g, acc):
                backward(g, lambda t, gt: acc(t, np.full_like(gt, np.inf)
                                              if t is target else gt))
            out._backward = poisoned
        return out

    monkeypatch.setattr(train_mod, "AdamW", RecordingAdamW)
    monkeypatch.setattr(T, "lora_linear", lora_linear)
    with pytest.raises(NumericError, match=f"parameter '{target_name}'"):
        train_mod.train(model, vocab, samples, cfg.train, log_fn)

    opt = optimizers[0]
    assert opt.t == 2
    for name, (t, _) in model.registry.items():
        assert t.data.tobytes() == snapshot["params"][name].tobytes(), name
        assert t.grad is None, name
    for name, (m, v) in opt._moments.items():
        m0, v0 = snapshot["moments"][name]
        assert m.tobytes() == m0.tobytes() and v.tobytes() == v0.tobytes(), name


def test_nonfinite_forward_names_the_op():
    cfg, model, vocab, samples = _setup(steps=1)
    model.registry.get("encoder.dffm.0.conv_prev.W").data[0, 0] = np.nan
    with pytest.raises(NumericError, match="produced by op 'linear'"):
        train_mod.train(model, vocab, samples, cfg.train)


def test_empty_training_set_is_rejected():
    cfg, model, vocab, _ = _setup()
    with pytest.raises(ValueError, match="no training samples"):
        train_mod.train(model, vocab, [], cfg.train)


@pytest.mark.parametrize("ignore", [0, 3])
def test_ignore_label_inside_the_class_range_is_rejected(ignore):
    cfg, model, vocab, samples = _setup()
    cfg.train.ignore_label = ignore
    with pytest.raises(ConfigValidationError, match=f"ignore_label {ignore}"):
        train_mod.train(model, vocab, samples, cfg.train)
