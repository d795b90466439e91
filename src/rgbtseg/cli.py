"""Command-line surface: data generation, training, evaluation, inference,
gradient verification, and the parameter ledger.

Exit codes: 0 success, 1 verification failure, 2 usage/validation error,
3 numeric abort (a NaN or Inf in a training step's loss or gradients, or in
the forward pass of infer or eval; the message names the op, or the parameter
when only its gradient is non-finite).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt_io
from .config import ModelConfig, RunConfig
from .data import CLASS_NAMES, gen_synthetic, load_dataset, save_dataset
from .losses import LabelError, valid_labels
from .model import RgbtSegModel
from .params import param_ledger
from .pnm import read_pgm, read_ppm, to_float, write_pgm, write_ppm
from .prompts import (ClassVocabulary, PointPrompt, load_text_embeddings,
                      save_text_embeddings)
from .tensor import NumericError
from .train import evaluate, train
from .verify import PICKS, run_suite

PALETTE = np.array([
    [0, 0, 0], [220, 60, 60], [60, 220, 60], [60, 60, 220],
    [220, 220, 60], [220, 60, 220], [60, 220, 220], [220, 220, 220],
], dtype=np.uint8)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ``UsageError``, so it ends in one line
    and exit 2 like every other malformed input, without the usage text."""

    def error(self, message):
        raise UsageError(message)


def _seed(text: str) -> int:
    """The argparse type of ``--seed``: numpy's generators take only
    non-negative integers."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _check_labels(samples, chosen, num_classes: int) -> None:
    """Refuse the first of ``chosen``, naming its index in the manifest
    ``samples``, that holds a label outside [0, num_classes) other than the
    ignore label: found later, it would end a run mid-way."""
    for s in chosen:
        try:
            valid_labels(s.labels, num_classes)
        except LabelError as e:
            raise UsageError(f"manifest sample {samples.index(s)}: {e}") from None


def _load_config(path: str | None) -> RunConfig:
    return RunConfig() if path is None else RunConfig.from_json_file(path)


def _resolve_vocab(classes_path, ckpt_path, class_names, cfg) -> ClassVocabulary:
    """The vocabulary of --classes, else the checkpoint's sibling classes.json,
    else ``class_names``, whose toy embeddings take the width d_t of ``cfg``."""
    if classes_path:
        return load_text_embeddings(classes_path)
    if ckpt_path and (Path(ckpt_path).parent / "classes.json").exists():
        return load_text_embeddings(Path(ckpt_path).parent / "classes.json")
    if class_names is None:
        raise UsageError("no class vocabulary available; pass --classes")
    return ClassVocabulary.from_names(class_names, cfg.model.d_t, cfg.backbone_seed)


def cmd_gen_data(args) -> int:
    if args.n < 1:
        raise UsageError(f"--n {args.n} must be at least 1")
    if args.size < 1 or args.size % ModelConfig.patch != 0:
        raise UsageError(f"--size {args.size} must be a positive multiple of the "
                         f"patch size {ModelConfig.patch}")
    samples = gen_synthetic(args.n, (args.size, args.size), args.seed,
                            split=args.split)
    manifest = save_dataset(samples, Path(args.out))
    total = args.n * args.size * args.size
    pixels = np.zeros(len(CLASS_NAMES), dtype=np.int64)
    for s in samples:
        pixels += np.bincount(s.labels.reshape(-1), minlength=len(CLASS_NAMES))
    print(f"wrote {args.n} samples to {manifest}")
    for name, count in zip(CLASS_NAMES, pixels):
        print(f"  {name:<14} {count:>10d} px  ({100.0 * count / total:.1f}%)")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    if args.steps is not None:
        cfg.train.steps = args.steps
    samples, class_names = load_dataset(args.data)
    if not samples:  # before anything is written to --out
        raise UsageError("no training samples")
    tagged = [s for s in samples if s.split == "train"]
    train_samples = tagged or samples
    vocab = _resolve_vocab(args.classes, None, class_names, cfg)
    cfg.model.num_classes = vocab.num_classes  # sizes the text-free head
    model = RgbtSegModel(cfg)
    model.decoder.check_vocab(vocab)
    _check_labels(samples, train_samples, vocab.num_classes)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "metrics.tsv", "w") as log:
        def log_fn(rec):
            log.write(f"{rec.step}\t{rec.loss:.6f}\t{rec.miou:.6f}\n")
            if rec.step % 20 == 0 or rec.step == cfg.train.steps - 1:
                print(f"step {rec.step:>5d}  loss {rec.loss:.4f}  miou {rec.miou:.4f}")

        if not tagged:  # only once no refusal can follow
            print("warning: no samples tagged 'train'; training on all samples",
                  file=sys.stderr)
        train(model, vocab, train_samples, cfg.train, log_fn)
    ckpt_io.save_checkpoint(model.state_dict(), out / "checkpoint.tseg")
    (out / "config.json").write_text(cfg.to_json())
    save_text_embeddings(out / "classes.json", vocab)
    print(f"checkpoint written to {out / 'checkpoint.tseg'}")
    return 0


def _load_model(ckpt_path, config_path) -> tuple[RgbtSegModel, RunConfig]:
    ckpt_path = Path(ckpt_path)
    if not ckpt_path.exists():
        raise UsageError(f"checkpoint not found: {ckpt_path}")
    if config_path is None:
        sibling = ckpt_path.parent / "config.json"
        config_path = sibling if sibling.exists() else None
    cfg = _load_config(config_path)
    model = RgbtSegModel(cfg)
    model.load_state(ckpt_io.load_checkpoint(ckpt_path))
    return model, cfg


def cmd_eval(args) -> int:
    model, cfg = _load_model(args.ckpt, args.config)
    manifest, class_names = load_dataset(args.data)
    vocab = _resolve_vocab(args.classes, args.ckpt, class_names, cfg)
    model.decoder.check_vocab(vocab)
    tagged = [s for s in manifest if s.split == args.split] if args.split else manifest
    samples = tagged or manifest
    _check_labels(manifest, samples, vocab.num_classes)
    results = evaluate(model, vocab, samples)

    name_w = max(len(n) for n in vocab.names)
    lines = [f"{'split':<10} " + " ".join(f"{n:>{name_w}}" for n in vocab.names)
             + "    mIoU"]
    doc = {}
    for split, res in results.items():
        cells = " ".join(
            f"{'  absent':>{name_w}}" if np.isnan(v) else f"{v:>{name_w}.4f}"
            for v in res.per_class)
        lines.append(f"{split:<10} {cells}  {res.miou:.4f}")
        doc[split] = {
            "per_class": {n: (None if np.isnan(v) else v)
                          for n, v in zip(vocab.names, res.per_class)},
            "miou": None if np.isnan(res.miou) else res.miou,
            "num_samples": res.num_samples,
        }
    # write first, so a failed write leaves no table on stdout
    Path(args.out).write_text(json.dumps(doc, indent=1))
    if not tagged:  # past every refusal; without --split, tagged is every sample
        print(f"warning: no samples tagged '{args.split}'; "
              "evaluating every sample", file=sys.stderr)
    print("\n".join(lines))
    return 0


def _parse_points(spec: str | None) -> PointPrompt:
    if not spec:
        return PointPrompt([])
    points = []
    for part in spec.split(";"):
        try:
            x, y, label = part.split(",")
            points.append((float(x), float(y), int(label)))
        except ValueError:
            raise UsageError(f"--points: '{part}' is not x,y,label") from None
    return PointPrompt(points)


def cmd_infer(args) -> int:
    model, cfg = _load_model(args.ckpt, args.config)
    vocab = _resolve_vocab(args.classes, args.ckpt, None, cfg)
    model.decoder.check_vocab(vocab)
    rgb = to_float(read_ppm(args.rgb))
    th = to_float(read_pgm(args.thermal))[:, :, None]
    pred = model.predict(rgb, th, vocab, _parse_points(args.points))
    write_pgm(args.out, pred.astype(np.uint8))
    print(f"mask written to {args.out}")
    if args.overlay:
        write_ppm(args.overlay, PALETTE[pred % len(PALETTE)])
        print(f"overlay written to {args.overlay}")
    return 0


def cmd_gradcheck(args) -> int:
    start = time.perf_counter()
    results, ok = run_suite(seed=args.seed)
    seconds = time.perf_counter() - start
    worst = max(results, key=lambda r: r[1].max_rel_err)
    for name, rep in results:
        status = "ok" if rep.passed else "FAIL"
        # the suite's default config trains every pick, so worst_input indexes PICKS
        at = f", worst at {PICKS[rep.worst_input]}" if name == "full_model" else ""
        print(f"{status:>4}  {name:<28} max_rel_err {rep.max_rel_err:.3e} "
              f"({rep.checked_coords} coords){at}")
    print(f"worst: {worst[0]} at {worst[1].max_rel_err:.3e}")
    print(f"suite wall time: {seconds:.2f} s")
    return 0 if ok else 1


def cmd_params(args) -> int:
    cfg = _load_config(args.config)
    model = RgbtSegModel(cfg)
    report = param_ledger(model.registry)
    for line in report.lines():
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="rgbtseg",
                description="RGB-thermal semantic segmentation at desk scale")
    p.add_argument("--print-config", action="store_true",
                   help="print the default config as JSON and exit")
    sub = p.add_subparsers(dest="command")

    g = sub.add_parser("gen-data", help="generate the synthetic RGB-T benchmark")
    g.add_argument("--out", required=True)
    g.add_argument("--n", type=int, default=64)
    g.add_argument("--size", type=int, default=64)
    g.add_argument("--seed", type=_seed, default=0)
    g.add_argument("--split", default="train")
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="train a model on a dataset manifest")
    t.add_argument("--config")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--classes")
    t.add_argument("--steps", type=int)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--split")
    e.add_argument("--config")
    e.add_argument("--classes")
    e.add_argument("--out", default="eval_results.json")
    e.set_defaults(fn=cmd_eval)

    i = sub.add_parser("infer", help="segment one RGB-thermal pair")
    i.add_argument("--ckpt", required=True)
    i.add_argument("--rgb", required=True)
    i.add_argument("--thermal", required=True)
    i.add_argument("--classes")
    i.add_argument("--points", help="x,y,label;x,y,label;...")
    i.add_argument("--out", required=True)
    i.add_argument("--overlay")
    i.add_argument("--config")
    i.set_defaults(fn=cmd_infer)

    v = sub.add_parser("gradcheck", help="run the gradient verification suite")
    v.add_argument("--seed", type=_seed, default=0)
    v.set_defaults(fn=cmd_gradcheck)

    pa = sub.add_parser("params", help="print the trainable-parameter ledger")
    pa.add_argument("--config")
    pa.set_defaults(fn=cmd_params)
    return p


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.print_config:
            print(RunConfig().to_json())
            return 0
        if not getattr(args, "fn", None):
            parser.print_help()
            return 2
        # the program checks every result it keeps for NaN and Inf itself, so
        # numpy's floating-point warnings would only precede its one-line abort;
        # a Python warning is one line, like the program's own
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.fn(args)
    except NumericError as e:
        print(f"numeric abort: {e}", file=sys.stderr)
        return 3
    except (UsageError, ckpt_io.CheckpointError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
