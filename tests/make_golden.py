"""Regenerate ``tests/golden.json``, the bits ``test_golden.py`` pins.

For each config in ``configs/`` it records, after 6 seeded training steps
(48×48 images, batch 2) and one ``predict`` with ``verify.POINTS``:

- ``params``: the SHA-256 of every parameter;
- ``labels``: the SHA-256 of the predicted labels;
- ``losses`` and ``sums``: a float fingerprint, the loss of each step and
  the sum of the trainable parameters of each ledger group.

OpenBLAS picks its kernels for the CPU it runs on, and a kernel changes the
rounding of a product, so the digests hold for one numpy version and one
kernel only. The file is keyed by both; see ``host_key``.

    PYTHONPATH=src python tests/make_golden.py

Each regeneration is listed, with its cause, in CHANGES.md.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np

from rgbtseg.config import RunConfig
from rgbtseg.data import CLASS_NAMES, gen_synthetic
from rgbtseg.model import RgbtSegModel
from rgbtseg.params import ledger_group
from rgbtseg.prompts import ClassVocabulary
from rgbtseg.train import train
from rgbtseg.verify import POINTS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
STEPS, SIZE, BATCH = 6, 48, 2


def blas_core() -> str:
    """The name of the OpenBLAS kernel numpy's BLAS runs here (for example
    ``SkylakeX``), or ``unknown`` when numpy does not bundle OpenBLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes = ()
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def host_key() -> dict:
    return {"numpy": np.__version__, "blas_core": blas_core()}


def _sha256(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def run(config_name: str) -> dict:
    """The digests and the fingerprint of one config."""
    cfg = RunConfig.from_json_file(CONFIGS / f"{config_name}.json")
    cfg.train.steps, cfg.train.batch = STEPS, BATCH
    model = RgbtSegModel(cfg)
    vocab = ClassVocabulary.from_names(CLASS_NAMES, cfg.model.d_t, cfg.backbone_seed)
    samples = gen_synthetic(4, (SIZE, SIZE), seed=5)
    losses = [rec.loss for rec in train(model, vocab, samples, cfg.train)]
    labels = model.predict(samples[0].rgb, samples[0].thermal, vocab, POINTS)
    sums: dict[str, float] = {}
    for name, p in model.registry.trainable():
        group = ledger_group(name)
        sums[group] = sums.get(group, 0.0) + float(p.data.sum())
    return {
        "params": {name: _sha256(t.data) for name, (t, _) in model.registry.items()},
        "labels": _sha256(labels),
        "losses": losses,
        "sums": sums,
    }


def main() -> None:
    configs = {path.stem: run(path.stem) for path in sorted(CONFIGS.glob("*.json"))}
    doc = {"key": host_key(), "configs": configs}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {GOLDEN} for {doc['key']}")


if __name__ == "__main__":
    main()
