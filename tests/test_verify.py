"""The suite checks the ops the model runs, and the full-model check resumes
each pick's finite differences at the first stage of ``verify.loss_chain``
(the encoder's and the decoder's stages, then the loss) that reads the pick,
from stage inputs computed once; on every config that must not change the
report. ``run_suite`` computes the full-model check in two worker processes,
one part of the picks each, and must return the report of the in-process
composition."""

import functools
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rgbtseg import tensor as T
from rgbtseg import verify
from rgbtseg.config import RunConfig
from rgbtseg.data import CLASS_NAMES, gen_synthetic
from rgbtseg.decoder import TwoWayLayer
from rgbtseg.gradcheck import gradcheck, join_reports
from rgbtseg.losses import total_loss
from rgbtseg.model import RgbtSegModel
from rgbtseg.prompts import ClassVocabulary, PointPrompt
from rgbtseg.tensor import Tensor
from rgbtseg.train import train
from rgbtseg.workers import THREAD_VARS

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
    monkeypatch.setattr("rgbtseg.train._use_workers", lambda: False)  # ops run here
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


CONFIG_NAMES = sorted(p.stem for p in CONFIGS.glob("ablation_*.json"))
# how many of ``verify.PICKS`` each config trains
PICKED = dict(zip(CONFIG_NAMES, (9, 11, 14, 12, 15, 14, 17)))


@pytest.mark.parametrize("config_name", CONFIG_NAMES)
def test_split_report_equals_one_check_of_the_full_forward(config_name):
    seed = 2
    cfg = RunConfig.from_json_file(CONFIGS / f"{config_name}.json")
    report = verify.full_model_check(seed, max_coords_per_input=1, cfg=cfg)

    model, rgb, th, vocab, labels = verify.full_model_setup(seed, cfg)
    trained = dict(model.registry.trainable())
    reference = gradcheck(
        lambda *_: total_loss(model.forward(rgb, th, vocab, verify.POINTS).logits,
                              labels),
        [trained[n] for n in verify.PICKS if n in trained], tol=1e-4,
        max_coords_per_input=1, rng=np.random.default_rng(seed + 1))

    assert len(report.per_input) == PICKED[config_name]
    assert report == reference  # every field, bitwise


@functools.cache
def _one_check(config_name):
    cfg = RunConfig.from_json_file(CONFIGS / f"{config_name}.json")
    return verify.full_model_check(0, max_coords_per_input=1, cfg=cfg)


# the baseline trains 9 picks, so its parts also skip untrained ones
@pytest.mark.parametrize("config_name, split", [
    ("ablation_7_full", 1), ("ablation_7_full", 4), ("ablation_7_full", 8),
    ("ablation_7_full", 16), ("ablation_1_baseline", 6)])
def test_joined_halves_equal_one_check(config_name, split):
    cfg = RunConfig.from_json_file(CONFIGS / f"{config_name}.json")
    joined = join_reports([
        verify.full_model_check(0, max_coords_per_input=1, cfg=cfg, picks=part)
        for part in (slice(None, split), slice(split, None))])
    assert joined == _one_check(config_name)
    assert repr(joined) == repr(_one_check(config_name))


def _fold(chain, rgb, th):
    """Every stage's input and the loss, computed without a tape."""
    xs = [(rgb, th)]
    with T.no_grad():
        for _, step in chain:
            xs.append(step(xs[-1]))
    return xs


def _arrays(x):
    return [t.data for t in (x if isinstance(x, tuple) else (x,))]


# between them every ablation switch takes both values; the baseline's
# embedding stage concatenates the token sequences and its last stage slices
@pytest.mark.parametrize("config_name", ["ablation_1_baseline", "ablation_7_full"])
def test_each_trainable_parameter_is_first_read_by_one_stage(config_name):
    cfg = RunConfig.from_json_file(CONFIGS / f"{config_name}.json")
    model, rgb, th, vocab, labels = verify.full_model_setup(0, cfg)
    chain = verify.loss_chain(model, vocab, labels, verify.POINTS, rgb.shape[-3:-1])
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
    """The full-model check over the ``verify.PICKS`` the config trains; the
    text-free configs train ``decoder.head.W`` as their class head."""
    cfg = RunConfig.from_json_file(CONFIGS / f"{config_name}.json")
    trained = dict(RgbtSegModel(cfg).registry.trainable())
    picks = [n for n in verify.PICKS if n in trained]
    report = verify.full_model_check(0, cfg=cfg, max_coords_per_input=4)
    assert report.passed, (picks[report.worst_input], report.max_rel_err)
    assert report.checked_coords == 4 * len(picks)


def test_the_suite_equals_its_in_process_composition():
    results, passed = verify.run_suite(1)
    composed = list(verify.op_checks(1)) + [("full_model", verify.full_model_check(1))]
    assert repr(results) == repr(composed)
    assert passed


def _worker_pids() -> list:
    return sorted(p.pid for p in verify._workers.procs)


def test_the_caller_builds_no_model(monkeypatch):
    """The workers build the full-model check's models; the caller keeps only
    the op checks, so its memory stays theirs."""
    built = []
    init = RgbtSegModel.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RgbtSegModel, "__init__", counting)
    results, passed = verify.run_suite(0)
    assert passed and built == []
    # the default config trains every pick, so `rgbtseg gradcheck` names
    # the worst one by indexing PICKS
    assert len(results[-1][1].per_input) == len(verify.PICKS)


def test_the_first_suite_leaves_the_environment_and_exit_joins_the_worker():
    """One thread variable set to 2 and the others unset: both workers start
    with all three at 1, the caller's environment is as it was, and the
    workers are gone once the interpreter that started them has exited."""
    code = """
import json, os
from rgbtseg import verify
from rgbtseg.workers import THREAD_VARS
before = {k: os.environ.get(k) for k in THREAD_VARS}
results, passed = verify.run_suite(0)
after = {k: os.environ.get(k) for k in THREAD_VARS}
pids = sorted(p.pid for p in verify._workers.procs)
seen = []
for pid in pids:  # each worker's environment as it started
    with open(f"/proc/{pid}/environ", "rb") as f:
        env = dict(v.decode().split("=", 1) for v in f.read().split(b"\\0") if v)
    seen.append([env.get(k) for k in THREAD_VARS])
print(json.dumps([passed, before == after, seen, pids]))
"""
    src = Path(verify.__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(OPENBLAS_NUM_THREADS="2", PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    passed, unchanged, seen, pids = json.loads(proc.stdout)
    assert passed and unchanged and len(pids) == len(verify.PARTS)
    assert seen == [["1"] * 3] * len(pids)
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_a_killed_worker_fails_one_suite_and_the_next_starts_afresh():
    verify.run_suite(0)
    for i in range(len(verify.PARTS)):  # kill each worker in turn
        pids = _worker_pids()
        assert len(pids) == len(verify.PARTS)
        os.kill(pids[i], signal.SIGKILL)
        with pytest.raises(ChildProcessError,
                           match=r"^a full-model check worker process died \(exit code -9\)$"):
            verify.run_suite(0)
        assert verify.run_suite(0)[1]
        assert set(_worker_pids()).isdisjoint(pids)


def test_a_worker_replies_with_the_exception_of_its_check_and_serves_on():
    """A request the full-model check cannot run comes back as the exception
    it raised; the same workers then serve the next suite."""
    with verify._workers.exchange() as conns:
        for conn in conns:
            conn.send((0, 1e-4, None))  # None has no slice indices
        replies = [conn.recv() for conn in conns]
    assert all(isinstance(r, AttributeError) for r in replies), replies
    pids = _worker_pids()
    assert verify.run_suite(0)[1]
    assert _worker_pids() == pids
