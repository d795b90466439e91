"""Shared fixtures: a small dataset, default configs and a tracemalloc probe
for the memory budgets."""

import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from rgbtseg.config import RunConfig
from rgbtseg.data import CLASS_NAMES, gen_synthetic
from rgbtseg.prompts import ClassVocabulary


@pytest.fixture(scope="session")
def default_cfg():
    cfg = RunConfig()
    cfg.validate()
    return cfg


@pytest.fixture(scope="session")
def vocab(default_cfg):
    return ClassVocabulary.from_names(CLASS_NAMES, default_cfg.model.d_t,
                                      default_cfg.backbone_seed)


@pytest.fixture(scope="session")
def tiny_dataset():
    return gen_synthetic(4, (64, 64), seed=7, split="train")


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture()
def traced_memory():
    """A context manager that traces Python allocations inside its block and,
    on exit, sets ``held`` (bytes allocated in the block and still held) and
    ``peak`` (the most bytes held at once) on the object it yields."""

    @contextmanager
    def trace():
        mem = SimpleNamespace(held=0, peak=0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            yield mem
            current, mem.peak = tracemalloc.get_traced_memory()
            mem.held = current - before
        finally:
            tracemalloc.stop()

    return trace
