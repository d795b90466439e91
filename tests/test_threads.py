"""Thread-count invariance: seeded training steps and a predict give bitwise
the same parameters and labels whatever number of threads BLAS runs. The
steps run their halves in turn in process, so that the BLAS threads are
this process's; the step workers' own bits are pinned in test_train.py."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

from rgbtseg import train as train_mod
from rgbtseg.config import RunConfig
from rgbtseg.data import CLASS_NAMES, gen_synthetic
from rgbtseg.model import RgbtSegModel
from rgbtseg.prompts import ClassVocabulary
from rgbtseg.workers import THREAD_VARS

LABELS = "predict labels"


def digests() -> dict[str, str]:
    """SHA-256 of every parameter after 3 seeded steps of the default config
    (batch 4, 64×64), and of the labels of one predict after them."""
    cfg = RunConfig()
    cfg.train.steps = 3
    model = RgbtSegModel(cfg)
    vocab = ClassVocabulary.from_names(CLASS_NAMES, cfg.model.d_t, cfg.backbone_seed)
    samples = gen_synthetic(8, (64, 64), seed=9)
    with mock.patch.object(train_mod, "_use_workers", lambda: False):
        train_mod.train(model, vocab, samples, cfg.train)
    out = {name: hashlib.sha256(t.data.tobytes()).hexdigest()
           for name, (t, _) in model.registry.items()}
    labels = model.predict(samples[0].rgb, samples[0].thermal, vocab)
    out[LABELS] = hashlib.sha256(labels.tobytes()).hexdigest()
    return out


def test_one_blas_thread_gives_the_parameters_and_labels_of_this_process():
    """The same run in a subprocess pinned to one BLAS thread matches this
    process, which runs the library's default thread count. On a 1-core host,
    or when this process is itself pinned to one thread, both runs use one
    thread and the test is trivially true."""
    here = Path(__file__).resolve().parent
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1"),
           "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here),
                                          os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, test_threads; print(json.dumps(test_threads.digests()))"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    pinned, ours = json.loads(proc.stdout), digests()
    assert pinned.keys() == ours.keys()
    differ = [name for name in ours if pinned[name] != ours[name]]
    assert not differ, f"first difference at one thread: {differ[0]}"
