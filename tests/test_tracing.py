"""The benchmark's tracer (``perfbench/tracing.py``) wraps ``rgbtseg`` entry
points by name. Each must resolve, and one model forward must open each
encoder and decoder span once, so a rename fails here and not in a traced
benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from rgbtseg.config import RunConfig
from rgbtseg.model import RgbtSegModel

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    tracing = _tracing()
    for module_name, path, _ in [*tracing.SPANS, *tracing.Tracer()._counting_wrappers()]:
        assert module_name.startswith("rgbtseg."), module_name
        target = importlib.import_module(module_name)
        for part in path.split("."):
            target = getattr(target, part)
        assert callable(target), (module_name, path)


def test_one_forward_opens_each_model_span_once(vocab):
    tracer = _tracing().Tracer()
    model = RgbtSegModel(RunConfig())
    rng = np.random.default_rng(0)
    rgb, th = rng.uniform(size=(32, 32, 3)), rng.uniform(size=(32, 32, 1))
    tracer.install()
    try:
        model.forward(rgb, th, vocab)
    finally:
        tracer.uninstall()
    names = [name for name, *_ in tracer.spans]
    for name in ("encoder.forward", "decoder.two_way", "decoder.upscale",
                 "decoder.text_attn", "decoder.class_logits"):
        assert names.count(name) == 1, (name, names)
    assert tracer.counts[0]["forward_evals"] == 1
