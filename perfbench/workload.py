"""One workload process: set up, run operations for a fixed time, check every
output, and write the measurements to a JSON file.

run.py starts this process after writing the inputs into a work directory;
by hand (paths relative to the repository root):

    python3 perfbench/workload.py --workload infer --seed 1 --seconds 5 \
        --trace 0 --work <dir> --fixture <dir> --out result.json

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, imports, dataset load,
model build, and checkpoint and vocabulary load. With ``--setup-only`` the
process stops after set-up.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from rgbtseg import checkpoint, data, metrics, prompts, train  # noqa: E402
from rgbtseg.config import RunConfig  # noqa: E402
from rgbtseg.model import RgbtSegModel  # noqa: E402
from rgbtseg.tensor import NumericError  # noqa: E402
from rgbtseg.verify import run_suite  # noqa: E402
from tracing import TRAIN_STEP, Tracer  # noqa: E402

CONFIG = ROOT / "configs" / "ablation_7_full.json"
TRAIN_WARMUP_STEPS = 3   # the first steps pay one-time costs
LOSS_WINDOW = 10         # at most this many steps averaged at each end
GRAD_TOL = 1e-4

# Test mIoU floors of the fixture model over the seeded test pool. On seeds
# 0-29 the seed code scored 0.573-0.612 (infer) and 0.105-0.138 (infer-hires,
# where the 12 unseen class names take many pixels); an untrained model
# scores about 0.067 and 0.014.
MIOU_FLOOR = {"infer": 0.50, "infer-hires": 0.09}


class _Stop(Exception):
    """Raised from the training callback when the measuring time is up."""


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        blas_id = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_id,
            "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}}


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -- train ------------------------------------------------------------------------


def setup_train(args):
    cfg = RunConfig.from_json_file(CONFIG)
    cfg.train.seed = args.seed
    cfg.train.steps = 10 ** 9  # the deadline ends the run
    samples, names = data.load_dataset(Path(args.work) / "data")
    vocab = prompts.ClassVocabulary.from_names(names, cfg.model.d_t, cfg.backbone_seed)
    if vocab.num_classes != cfg.model.num_classes:
        raise SystemExit(f"dataset has {vocab.num_classes} classes, config expects "
                         f"{cfg.model.num_classes}")
    return {"cfg": cfg, "samples": samples, "vocab": vocab, "model": RgbtSegModel(cfg)}


def run_train(ctx, seconds: float, tracer: Tracer | None) -> dict:
    """Step latency is the gap between successive ``log_fn`` callbacks."""
    cfg, model = ctx["cfg"], ctx["model"]
    ends: list[float] = []
    losses: list[float] = []
    deadline = math.inf
    root = None

    def log_fn(rec):
        nonlocal deadline, root
        now = time.perf_counter()
        if tracer is not None:
            tracer.end(root)
        ends.append(now)
        losses.append(rec.loss)
        if len(ends) == TRAIN_WARMUP_STEPS:
            deadline = now + seconds
        if now >= deadline:
            raise _Stop
        if tracer is not None:
            root = tracer.begin_op(TRAIN_STEP)

    start = time.perf_counter()
    if tracer is not None:
        root = tracer.begin_op(TRAIN_STEP)
    aborted = None
    try:
        train.train(model, ctx["vocab"], ctx["samples"], cfg.train, log_fn)
    except _Stop:
        pass
    except NumericError as e:
        aborted = str(e)
        if tracer is not None:
            tracer.end(root)
    if tracer is not None:
        tracer.uninstall()

    gaps = np.diff([start] + ends)
    measured = gaps[TRAIN_WARMUP_STEPS:]
    finite = [math.isfinite(x) for x in losses]
    window = max(1, min(LOSS_WINDOW, len(losses) // 2))
    first, last = np.mean(losses[:window]), np.mean(losses[-window:])
    fresh = RgbtSegModel(cfg).registry
    frozen_equal = all(_bitwise_equal(p.data, fresh.get(name).data)
                       for name, p in model.registry.frozen())
    checks = {"loss_decreased": bool(last < first),
              "frozen_params_unchanged": frozen_equal,
              "no_numeric_abort": aborted is None}
    return {
        "latencies_s": measured.tolist(),
        "wall_s": float(measured.sum()),
        "items_per_op": cfg.train.batch,
        "ops": list(range(TRAIN_WARMUP_STEPS + 1, len(ends) + 1)),
        "attempted": len(losses) + len(checks),
        "failed": finite.count(False) + list(checks.values()).count(False),
        "checks": {**checks, "steps": len(losses), "nonfinite_losses": finite.count(False),
                   "loss_first_window": float(first), "loss_last_window": float(last),
                   "abort": aborted},
    }


# -- infer / infer-hires ----------------------------------------------------------


def setup_infer(args):
    fixture = Path(args.fixture)
    cfg = RunConfig.from_json_file(fixture / "config.json")
    pool, _ = data.load_dataset(Path(args.work) / "data")
    model = RgbtSegModel(cfg)
    model.load_state(checkpoint.load_checkpoint(fixture / "checkpoint.tseg"))
    vocab = prompts.load_text_embeddings(Path(args.work) / "classes.json")
    with open(Path(args.work) / "points.json") as fh:
        points = [prompts.PointPrompt([tuple(p) for p in pts]) for pts in json.load(fh)]
    return {"model": model, "pool": pool, "vocab": vocab, "points": points}


def _mask_ok(mask: np.ndarray, shape: tuple, num_classes: int) -> bool:
    return (mask.shape == shape and np.issubdtype(mask.dtype, np.integer)
            and mask.min() >= 0 and mask.max() < num_classes)


def run_infer(ctx, seconds: float, tracer: Tracer | None, workload: str,
              seed: int) -> dict:
    """One pass over the pool warms up and scores mIoU; then predicts cycle
    through the pool until the deadline, one image per operation."""
    model, pool, vocab, points = ctx["model"], ctx["pool"], ctx["vocab"], ctx["points"]
    c = vocab.num_classes

    def predict(i: int, v=vocab) -> np.ndarray:
        s = pool[i % len(pool)]
        return model.predict(s.rgb, s.thermal, v, points[i % len(pool)])

    def traced_predict(i: int) -> np.ndarray:
        root = tracer.begin_op("infer.image")
        try:
            mask = predict(i)
            tracer.count_tape(tracer.last_forward.logits)
            tracer.last_forward = None
            return mask
        finally:
            tracer.end(root)

    op = predict if tracer is None else traced_predict
    acc = metrics.IouAccumulator(c)
    bad_masks = 0
    for i, s in enumerate(pool):
        mask = op(i)
        bad_masks += not _mask_ok(mask, s.labels.shape, c)
        acc.update(mask, s.labels)

    latencies = []
    i = len(pool)
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        t = time.perf_counter()
        mask = op(i)
        done = time.perf_counter()
        latencies.append(done - t)
        bad_masks += not _mask_ok(mask, pool[i % len(pool)].labels.shape, c)
        i += 1
        if done >= deadline:
            break
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()

    # permuting the vocabulary must permute the labels bitwise
    perm = np.random.default_rng(seed).permutation(c)
    if c > 1 and np.array_equal(perm, np.arange(c)):
        perm = np.roll(perm, 1)
    permuted = prompts.ClassVocabulary([vocab.names[j] for j in perm],
                                       vocab.embeddings[perm], vocab.dim)
    permutation_ok = _bitwise_equal(predict(0, permuted), np.argsort(perm)[predict(0)])
    miou = acc.miou()
    checks = {"permutation_equivariant": permutation_ok,
              "miou_at_floor": miou >= MIOU_FLOOR[workload]}
    return {
        "latencies_s": latencies,
        "wall_s": wall,
        "items_per_op": 1,
        "ops": list(range(len(pool) + 1, i + 1)),
        "attempted": i + len(checks),
        "failed": bad_masks + list(checks.values()).count(False),
        "checks": {**checks, "images": i, "bad_masks": bad_masks, "miou": miou,
                   "miou_floor": MIOU_FLOOR[workload]},
    }


# -- gradcheck --------------------------------------------------------------------


def run_gradcheck(seconds: float, tracer: Tracer | None, seed: int) -> dict:
    latencies, worst, failed = [], 0.0, 0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        t = time.perf_counter()
        root = tracer.begin_op("gradcheck.suite") if tracer is not None else None
        try:
            results, passed = run_suite(seed, GRAD_TOL)
        finally:
            if tracer is not None:
                tracer.end(root)
        done = time.perf_counter()
        latencies.append(done - t)
        errs = [r.max_rel_err for _, r in results]
        worst = max([worst] + errs)
        failed += not (passed and max(errs) <= GRAD_TOL)
        if done >= deadline:
            break
    return {
        "latencies_s": latencies,
        "wall_s": time.perf_counter() - start,
        "items_per_op": 1,
        "ops": list(range(1, len(latencies) + 1)),
        "attempted": len(latencies),
        "failed": failed,
        "checks": {"suites": len(latencies), "checks_per_suite": len(results),
                   "worst_rel_err": worst, "tol": GRAD_TOL},
    }


# -- entry point ------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["train", "infer", "infer-hires", "gradcheck"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--t0", type=float, default=None)
    ap.add_argument("--work", default=None)
    ap.add_argument("--fixture", default=None)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None, help="write the traced spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    t0 = time.monotonic() if args.t0 is None else args.t0

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    if args.workload == "train":
        ctx = setup_train(args)
    elif args.workload in ("infer", "infer-hires"):
        ctx = setup_infer(args)
    else:
        ctx = None
    setup_s = time.monotonic() - t0

    if args.setup_only:
        result = {"setup_s": setup_s}
    else:
        if args.workload == "train":
            result = run_train(ctx, args.seconds, tracer)
        elif ctx is not None:
            result = run_infer(ctx, args.seconds, tracer, args.workload, args.seed)
        else:
            result = run_gradcheck(args.seconds, tracer, args.seed)
        result["setup_s"] = setup_s
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["env"] = environment()
        if tracer is not None:
            tracer.uninstall()
            result["per_layer"] = tracer.per_layer(set(result["ops"]))
            if args.spans:
                tracer.write(args.spans)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
