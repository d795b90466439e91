"""The training step: one finite check per step, a replay that names the op or
the parameter, nothing moved by a failed step, the tape-node, memory and
matmul budgets, and no numpy.ma import; the step workers' bits, death and
exit; and evaluation's overall row.

Tests that patch code a step runs patch it in this process only, so they
run the halves in turn here (``train._use_workers``)."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rgbtseg import metrics
from rgbtseg import tensor as T
from rgbtseg import train as train_mod
from rgbtseg.config import RunConfig, TrainConfig
from rgbtseg.data import CLASS_NAMES, gen_synthetic
from rgbtseg.losses import total_loss
from rgbtseg.model import RgbtSegModel
from rgbtseg.optim import AdamW, FreezeViolationError
from rgbtseg.prompts import ClassVocabulary
from rgbtseg.tensor import NumericError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# The fused layer and loss nodes link 287 tape nodes for this step; frozen
# weights and constants are not linked (426 nodes if they were). Image
# features stay token sequences from the patch embedding to the two-way
# decoder's end; a grid/token round trip around each layer would add 17.
TAPE_NODE_BUDGET = 295

# The tracemalloc peak of this step's forward and backward, in MiB: 13.1 when
# attention rebuilds its probabilities in backward and the loss holds bool
# masks and one [C, S, N] temporary; 16.6 when every attention node kept its
# probabilities and the loss its float masks; 22.9 with the class head in
# feature space and GELU saving its input and tanh; 38.8 when every
# intermediate array lived until backward ended.
STEP_PEAK_MIB_BUDGET = 14


# The np.matmul calls tensor.py issues for this step at batch 4, 64x64, and
# their FLOPs (2 per multiply-add), in the forward and loss and in all: the
# backward rebuilds the 11 linked attention nodes' scores with one product
# each (360 calls and 429,427,200 FLOPs when every node kept them). Both
# repeat exactly, so a change that adds a product or widens one fails here.
MATMUL_BUDGET = {"forward": (140, 191_090_176), "step": (371, 439_011_456)}


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


def _step_loss(cfg, model, vocab, samples):
    logits = model.forward(np.stack([s.rgb for s in samples]),
                           np.stack([s.thermal for s in samples]), vocab).logits
    return total_loss(logits, np.stack([s.labels for s in samples]), cfg.train.lambda_dice)


def test_training_step_stays_within_the_tape_node_budget():
    cfg, model, vocab, _ = _setup()
    loss = _step_loss(cfg, model, vocab, gen_synthetic(4, (64, 64), seed=5))
    assert _tape_nodes(loss) <= TAPE_NODE_BUDGET


def test_training_step_stays_within_the_memory_budget(traced_memory):
    cfg, model, vocab, _ = _setup()
    samples = gen_synthetic(4, (64, 64), seed=5)
    with traced_memory() as mem:
        _step_loss(cfg, model, vocab, samples).backward()
    assert mem.peak <= STEP_PEAK_MIB_BUDGET * 2**20, f"{mem.peak / 2**20:.1f} MiB"


class _CountingNumpy:
    """numpy, except that ``matmul`` counts its calls and FLOPs."""

    def __init__(self):
        self.calls = self.flops = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, *args, **kwargs):
        out = np.matmul(a, b, *args, **kwargs)
        self.calls += 1
        self.flops += 2 * out.size * np.shape(a)[-1]
        return out


def test_training_step_stays_within_the_matmul_budget(monkeypatch):
    cfg, model, vocab, _ = _setup()
    samples = gen_synthetic(4, (64, 64), seed=5)
    counter = _CountingNumpy()
    monkeypatch.setattr(T, "np", counter)
    loss = _step_loss(cfg, model, vocab, samples)
    counts = {"forward": (counter.calls, counter.flops)}
    loss.backward()
    counts["step"] = (counter.calls, counter.flops)
    for part, (calls, flops) in counts.items():
        budget_calls, budget_flops = MATMUL_BUDGET[part]
        assert calls <= budget_calls and flops <= budget_flops, (part, calls, flops)


def test_training_and_the_gradcheck_suite_do_not_import_numpy_ma():
    """numpy.ma costs 0.8 MB of RSS; numpy 2's ``np.unique`` imports it."""
    src = Path(T.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])}
    code = """
import sys
from rgbtseg import verify
from rgbtseg.config import RunConfig
from rgbtseg.data import CLASS_NAMES, gen_synthetic
from rgbtseg.model import RgbtSegModel
from rgbtseg.prompts import ClassVocabulary
from rgbtseg import train
cfg = RunConfig()
cfg.train.steps = 2
model = RgbtSegModel(cfg)
vocab = ClassVocabulary.from_names(CLASS_NAMES, cfg.model.d_t, cfg.backbone_seed)
train._use_workers = lambda: False  # the step runs here, where its imports show
train.train(model, vocab, gen_synthetic(4, (32, 32), seed=1), cfg.train)
verify.run_suite(0)
verify.full_model_check(0, max_coords_per_input=1)  # run_suite runs it in a worker
print("numpy.ma" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_finite_steps_run_no_per_op_check(monkeypatch):
    cfg, model, vocab, samples = _setup(steps=2)
    monkeypatch.setattr(train_mod, "_use_workers", lambda: False)
    calls = []
    monkeypatch.setattr(T, "_check_finite", lambda data, op: calls.append(op))
    train_mod.train(model, vocab, samples, cfg.train)
    assert calls == []


# a non-finite gradient, and a finite one whose square overflows, which would
# leave AdamW's second moment at inf
@pytest.mark.parametrize("fill, message", [
    (np.inf, "non-finite gradient on parameter"),
    (1e200, "gradient overflow on parameter"),
], ids=["inf", "1e200"])
def test_nonfinite_gradient_names_the_parameter_and_moves_nothing(monkeypatch, fill,
                                                                   message):
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

    def lora_linear(x, w0, b0, a, b):
        out = original(x, w0, b0, a, b)
        if b is target and snapshot:
            node = out._node
            backward = node._backward

            # a trainable leaf is its own tape node
            def poisoned(g, acc):
                backward(g, lambda t, gt: acc(t, np.full_like(gt, fill)
                                              if t is target else gt))
            node._backward = poisoned
        return out

    monkeypatch.setattr(train_mod, "AdamW", RecordingAdamW)
    monkeypatch.setattr(T, "lora_linear", lora_linear)
    monkeypatch.setattr(train_mod, "_use_workers", lambda: False)
    with pytest.raises(NumericError, match=f"^{message} '{target_name}'"):
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


def _params(model) -> dict[str, bytes]:
    return {name: t.data.tobytes() for name, (t, _) in model.registry.items()}


@pytest.mark.parametrize("mixed", [False, True], ids=["default", "mixed_size"])
def test_two_workers_and_the_halves_in_turn_give_bitwise_equal_parameters(monkeypatch,
                                                                          mixed):
    """A leaf takes one deposit per backward, so the second backward in turn
    adds the second half's gradient to the first's, which is the sum the
    caller forms from the workers' two. The workers run one BLAS thread and
    this process the default count. The mixed batch is four 64x64 and two
    32x32 images."""
    cfg = RunConfig()
    cfg.train.steps = 3
    samples = gen_synthetic(4, (64, 64), seed=4)
    if mixed:
        samples += gen_synthetic(2, (32, 32), seed=5)
        cfg.train.batch = len(samples)
    vocab = ClassVocabulary.from_names(CLASS_NAMES, cfg.model.d_t, cfg.backbone_seed)
    runs = []
    for workers in (True, False):
        monkeypatch.setattr(train_mod, "_use_workers", lambda w=workers: w)
        model = RgbtSegModel(cfg)
        history = train_mod.train(model, vocab, samples, cfg.train)
        runs.append(([(r.loss, r.miou) for r in history], _params(model)))
    assert not train_mod._workers.closed
    assert runs[0][0] == runs[1][0]
    differ = [name for name, data in runs[0][1].items() if runs[1][1][name] != data]
    assert not differ, f"first difference: {differ[0]}"


def test_a_gradient_on_a_frozen_parameter_fails_the_half():
    cfg, model, vocab, samples = _setup()
    name, frozen = model.registry.frozen()[0]
    frozen.requires_grad = True  # as if a layer had linked it
    with pytest.raises(FreezeViolationError, match=f"frozen parameter '{name}'"):
        train_mod._half_gradient(model, vocab, samples[:2], cfg.train)


def test_a_killed_worker_fails_one_train_call_and_the_next_starts_afresh(monkeypatch):
    """The call that finds a worker dead raises ChildProcessError, with the
    model as the last good step left it; the next call starts two new
    workers."""
    cfg, model, vocab, samples = _setup(steps=3)
    monkeypatch.setattr(train_mod, "_use_workers", lambda: True)
    pids, after_step_1 = [], {}

    def log_fn(rec):
        if rec.step == 1:
            after_step_1.update(_params(model))
            pids.extend(p.pid for p in train_mod._workers.procs)
            # the second worker, so that the first holds its half when the
            # death is found
            os.kill(pids[1], signal.SIGKILL)

    with pytest.raises(ChildProcessError,
                       match=r"^a training step worker process died \(exit code -9\)$"):
        train_mod.train(model, vocab, samples, cfg.train, log_fn)
    assert _params(model) == after_step_1
    assert all(t.grad is None for _, (t, _) in model.registry.items())
    assert len(train_mod.train(model, vocab, samples, cfg.train)) == cfg.train.steps
    assert {p.pid for p in train_mod._workers.procs}.isdisjoint(pids)


def test_no_worker_outlives_the_interpreter_also_after_log_fn_raised():
    """A log_fn that raises (as a benchmark's deadline does) leaves the
    workers usable: the second run steps on them until its log_fn raises
    too. They are gone once the interpreter has exited."""
    code = """
import json
from rgbtseg import train
from rgbtseg.config import RunConfig
from rgbtseg.data import CLASS_NAMES, gen_synthetic
from rgbtseg.model import RgbtSegModel
from rgbtseg.prompts import ClassVocabulary

class Stop(Exception):
    pass

def stop(rec):
    if rec.step == 1:
        raise Stop

train._use_workers = lambda: True
cfg = RunConfig()
cfg.train.steps = 3
model = RgbtSegModel(cfg)
vocab = ClassVocabulary.from_names(CLASS_NAMES, cfg.model.d_t, cfg.backbone_seed)
samples = gen_synthetic(4, (32, 32), seed=1)
pids = []
for _ in range(2):
    try:
        train.train(model, vocab, samples, cfg.train, stop)
    except Stop:
        pids.append([p.pid for p in train._workers.procs])
print(json.dumps(pids))
"""
    src = Path(T.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    pids = json.loads(proc.stdout)
    assert len(pids) == 2 and pids[0] == pids[1] and len(pids[0]) == 2
    for pid in pids[0]:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_empty_training_set_is_rejected():
    cfg, model, vocab, _ = _setup()
    with pytest.raises(ValueError, match="no training samples"):
        train_mod.train(model, vocab, [], cfg.train)


def test_evaluate_refuses_an_empty_sample_list():
    _, model, vocab, _ = _setup()
    with pytest.raises(ValueError, match="no samples to evaluate"):
        train_mod.evaluate(model, vocab, [])


def test_a_batch_whose_pixels_are_all_ignored_records_a_nan_miou_and_the_run_goes_on():
    cfg, model, vocab, samples = _setup(steps=2)
    cfg.train.batch = 2
    samples = samples[:2]
    for s in samples:
        s.labels[...] = cfg.train.ignore_label
    with pytest.warns(UserWarning, match="every pixel of an image is ignored"):
        history = train_mod.train(model, vocab, samples, cfg.train)
    assert [r.step for r in history] == [0, 1]
    assert all(r.loss == 0.0 and np.isnan(r.miou) for r in history)


def test_evaluate_refuses_a_split_tagged_overall_before_predicting(monkeypatch):
    """Its row would be overwritten by the row over every split."""
    _, model, vocab, _ = _setup()
    samples = [*gen_synthetic(2, (32, 32), seed=9, split="overall"),
               *gen_synthetic(3, (32, 32), seed=10, split="test")]
    predicted = []
    monkeypatch.setattr(RgbtSegModel, "predict", lambda *a, **k: predicted.append(a))
    with pytest.raises(ValueError, match="split tag 'overall' is reserved"):
        train_mod.evaluate(model, vocab, samples)
    assert predicted == []


def test_a_batch_whose_pixels_are_all_ignored_moves_no_parameter(monkeypatch):
    """Its gradient is zero, but AdamW's weight and moment decay would still
    move the parameters; the optimizer does not step at all."""
    cfg, model, vocab, samples = _setup(steps=2)
    cfg.train.batch = 2
    samples = samples[:2]
    for s in samples:
        s.labels[...] = cfg.train.ignore_label
    optimizers = []

    class RecordingAdamW(AdamW):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            optimizers.append(self)

    monkeypatch.setattr(train_mod, "AdamW", RecordingAdamW)
    before = {name: t.data.copy() for name, t in model.registry.trainable()}
    with pytest.warns(UserWarning, match="every pixel of an image is ignored"):
        train_mod.train(model, vocab, samples, cfg.train)
    assert optimizers[0].t == 0
    for name, t in model.registry.trainable():
        assert t.data.tobytes() == before[name].tobytes(), name


def test_evaluate_scores_a_split_with_no_labelled_pixel_as_nan():
    """Its row scores every class absent; the other rows are scored as if it
    were not there."""
    _, model, vocab, samples = _setup()
    ignored = samples[:2]
    for s in ignored:
        s.labels[...] = TrainConfig.ignore_label
    labelled = gen_synthetic(1, (32, 32), seed=9, split="test")
    results = train_mod.evaluate(model, vocab, [*ignored, *labelled])
    assert np.isnan(results["train"].per_class).all() and np.isnan(results["train"].miou)
    alone = train_mod.evaluate(model, vocab, labelled)["test"]
    for split in ("test", "overall"):
        assert np.array_equal(results[split].per_class, alone.per_class, equal_nan=True)
        assert results[split].miou == alone.miou and not np.isnan(alone.miou)


def test_evaluate_scores_the_overall_row_over_every_sample_once(monkeypatch):
    """The overall row sums the splits' integer counts: each image is counted
    once, and the row equals, bitwise, one accumulation over every sample."""
    _, model, vocab, samples = _setup()
    samples = [*samples, *gen_synthetic(2, (32, 32), seed=9, split="test")]
    calls, count = [], metrics.confusion_counts

    def counting(*args):
        calls.append(args)
        return count(*args)

    monkeypatch.setattr(metrics, "confusion_counts", counting)
    results = train_mod.evaluate(model, vocab, samples)
    assert len(calls) == len(samples)
    preds = np.stack([model.predict(s.rgb, s.thermal, vocab) for s in samples])
    labels = np.stack([s.labels for s in samples])
    assert {split: r.num_samples for split, r in results.items()} == {
        "train": 4, "test": 2, "overall": 6}
    overall = results["overall"]
    assert np.array_equal(overall.per_class,
                          metrics.iou_per_class(preds, labels, vocab.num_classes),
                          equal_nan=True)
