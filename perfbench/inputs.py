"""Inputs of one benchmark run, generated from the seed, and the fixture
checkpoint of the infer workloads.

run.py calls this in its own process, so that the orchestrating process
never holds numpy or a trained model and the workload processes it starts
later do not inherit its memory high-water mark. By hand:

    python3 perfbench/inputs.py --workload infer --seed 1 --work <dir> \
        --fixture <dir>
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from rgbtseg.checkpoint import save_checkpoint  # noqa: E402
from rgbtseg.config import RunConfig  # noqa: E402
from rgbtseg.data import CLASS_NAMES, gen_synthetic, save_dataset  # noqa: E402
from rgbtseg.model import RgbtSegModel  # noqa: E402
from rgbtseg.prompts import ClassVocabulary, save_text_embeddings  # noqa: E402
from rgbtseg.train import train  # noqa: E402

CONFIG = ROOT / "configs" / "ablation_7_full.json"
FIXTURE_DATA_SEED = 1000  # training images of the fixture checkpoint

# Per workload: images generated from the seed, their side length, class
# names added to the four trained ones, point prompts per image.
WORKLOADS = {
    "train": {"images": 64, "size": 64, "unseen": 0, "points": 0},
    "infer": {"images": 32, "size": 64, "unseen": 0, "points": 0},
    "infer-hires": {"images": 16, "size": 128, "unseen": 12, "points": 2},
}
UNSEEN_NAMES = ["person", "car", "bicycle", "road", "building", "tree", "sky",
                "fence", "pole", "sign", "curb", "guardrail"]


def build_fixture(final: Path) -> None:
    """Train the full config for its configured steps and save it to ``final``."""
    if (final / "checkpoint.tseg").is_file():
        return
    tmp = final.with_name(f"{final.name}.tmp{os.getpid()}")
    tmp.mkdir(parents=True, exist_ok=True)
    cfg = RunConfig.from_json_file(CONFIG)
    model = RgbtSegModel(cfg)
    vocab = ClassVocabulary.from_names(CLASS_NAMES, cfg.model.d_t, cfg.backbone_seed)
    samples = gen_synthetic(64, (cfg.model.image_size,) * 2, seed=FIXTURE_DATA_SEED)
    train(model, vocab, samples, cfg.train)
    save_checkpoint(model.state_dict(), tmp / "checkpoint.tseg")
    (tmp / "config.json").write_text(cfg.to_json())
    try:
        os.replace(tmp, final)
    except OSError:  # another run finished the same fixture first
        shutil.rmtree(tmp)


def write_inputs(work: Path, workload: str, seed: int) -> None:
    """The seed's dataset, class vocabulary and point prompts, under ``work``."""
    spec = WORKLOADS[workload]
    split = "train" if workload == "train" else "test"
    samples = gen_synthetic(spec["images"], (spec["size"],) * 2, seed=seed, split=split)
    save_dataset(samples, work / "data")
    cfg = RunConfig.from_json_file(CONFIG)
    names = CLASS_NAMES + UNSEEN_NAMES[:spec["unseen"]]
    save_text_embeddings(work / "classes.json", ClassVocabulary.from_names(
        names, cfg.model.d_t, cfg.backbone_seed))
    points = []
    for i, s in enumerate(samples):
        rng = np.random.default_rng([seed, i])
        pts = []
        for k in range(spec["points"]):
            label = 1 - k % 2  # foreground first, then background
            ys, xs = np.nonzero((s.labels != 0) if label else (s.labels == 0))
            j = rng.integers(len(ys))
            pts.append([int(xs[j]), int(ys[j]), label])
        points.append(pts)
    (work / "points.json").write_text(json.dumps(points))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--fixture", default=None)
    args = ap.parse_args(argv)
    if args.fixture is not None:
        build_fixture(Path(args.fixture))
    write_inputs(Path(args.work), args.workload, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
