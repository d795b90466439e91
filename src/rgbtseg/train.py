"""Training loop and evaluation.

A training step stacks its batch into [B, H, W, ·] arrays and runs one
forward, one loss and one backward over them. Samples of different image
sizes cannot share a stack, so a batch is split into groups of equal shape;
each group's loss is weighted by its share of the batch, which keeps the
objective the mean of the per-sample losses.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .data import RgbtSample
from .losses import total_loss
from .metrics import IouAccumulator
from .model import RgbtSegModel
from .optim import AdamW
from .params import ParamRegistry
from .prompts import ClassVocabulary
from .tensor import NumericError, Tensor, unchecked

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@dataclass
class StepRecord:
    step: int
    loss: float
    miou: float


def _keep_freed_heap() -> None:
    """Keep freed memory in the heap for the next training step.

    By default glibc serves large arrays with fresh mmaps and trims the heap
    top, so each step gives its buffers back to the kernel and faults the
    same pages in again. Fixed thresholds (mmap above 64 MiB, trim above
    128 MiB) stop that. Not done at import, because inference does not need
    it: freeing the block a checkpoint is read into raises glibc's dynamic
    mmap threshold above a predict's arrays, so after a checkpoint load a
    64×64 predict takes 0 page faults (about 400 in a process that has loaded
    no checkpoint), and setting the thresholds before the load raised the
    peak RSS of loading a checkpoint and predicting from 44.3 to 46.1 MB.
    Skipped where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 64 << 20)
    mallopt(_M_TRIM_THRESHOLD, 128 << 20)


def _batch_loss(model: RgbtSegModel, vocab: ClassVocabulary,
                groups: list[list[RgbtSample]], cfg: TrainConfig,
                acc: IouAccumulator) -> Tensor:
    """The batch loss: one forward and loss per group of equally sized samples."""
    loss = None
    for group in groups:
        labels = np.stack([s.labels for s in group])
        out = model.forward(np.stack([s.rgb for s in group]),
                            np.stack([s.thermal for s in group]), vocab)
        term = total_loss(out.logits, labels, cfg.lambda_dice,
                          cfg.ignore_label, cfg.dice_smooth)
        term = term * (len(group) / cfg.batch)
        loss = term if loss is None else loss + term
        acc.update(np.argmax(out.logits.data, axis=-1), labels)
    return loss


def _gradient_error(registry: ParamRegistry) -> str | None:
    """The error for the first trainable parameter whose gradient is not
    finite or whose squared norm overflows, which would turn AdamW's second
    moment into inf and freeze the parameter; None when every gradient is
    usable. The squared norm is NaN or inf in both cases."""
    for name, p in registry.trainable():
        if p.grad is not None and not math.isfinite(np.vdot(p.grad, p.grad)):
            if np.isfinite(p.grad).all():
                return (f"gradient overflow on parameter '{name}': its squared "
                        "norm exceeds the float64 range")
            return f"non-finite gradient on parameter '{name}'"
    return None


def train(model: RgbtSegModel, vocab: ClassVocabulary, samples: list[RgbtSample],
          cfg: TrainConfig, log_fn=None) -> list[StepRecord]:
    """Seeded training run; returns one record per step (loss, batch mIoU).

    Batches are drawn by epoch-wise seeded shuffles. Each step runs its
    forward and backward without the per-op finite check, then checks the loss
    and every trainable gradient once, before the optimizer moves anything. On
    a non-finite value it clears the gradients and replays the step's forward
    with the per-op check on, which is exact because no parameter has moved:
    the replay raises ``NumericError`` naming the op that produced the value,
    and when the forward is finite and only a gradient is not (or its square
    overflows), the error names that parameter. Either way the parameters and
    the optimizer state are left as the previous step left them.

    Raises ``ValueError`` for an empty ``samples`` or an ignore label that is
    one of the vocabulary's class indices.
    """
    if not samples:
        raise ValueError("no training samples")
    cfg.check_ignore_label(vocab.num_classes)
    _keep_freed_heap()
    opt = AdamW(model.registry, lr=cfg.lr, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)
    order: list[int] = []
    history: list[StepRecord] = []
    num_classes = vocab.num_classes

    for step in range(cfg.steps):
        while len(order) < cfg.batch:
            order.extend(rng.permutation(len(samples)).tolist())
        idx, order = order[:cfg.batch], order[cfg.batch:]

        if cfg.cosine_lr:
            opt.lr = cfg.lr * 0.5 * (1.0 + math.cos(math.pi * step / max(1, cfg.steps)))

        by_shape: dict[tuple, list[RgbtSample]] = {}
        for i in idx:
            s = samples[i]
            by_shape.setdefault(s.shapes, []).append(s)
        groups = list(by_shape.values())

        acc = IouAccumulator(num_classes, cfg.ignore_label)
        opt.zero_grad()
        with unchecked():
            loss = _batch_loss(model, vocab, groups, cfg, acc)
            loss.backward()
        bad = _gradient_error(model.registry)
        if bad is not None or not np.isfinite(loss.data):
            opt.zero_grad()
            # the replay's per-op check raises at a non-finite forward value
            _batch_loss(model, vocab, groups, cfg,
                        IouAccumulator(num_classes, cfg.ignore_label))
            raise NumericError(bad)
        opt.step()
        opt.zero_grad()

        rec = StepRecord(step=step, loss=loss.item(), miou=acc.miou())
        history.append(rec)
        if log_fn is not None:
            log_fn(rec)
    return history


@dataclass
class SplitResult:
    split: str
    per_class: np.ndarray
    miou: float
    num_samples: int


def evaluate(model: RgbtSegModel, vocab: ClassVocabulary,
             samples: list[RgbtSample],
             ignore_label: int = 255) -> dict[str, SplitResult]:
    """Per-split metric tables; splits come from the samples' tags, plus an
    'overall' row aggregating everything."""
    accs: dict[str, IouAccumulator] = {}
    counts: dict[str, int] = {}
    overall = IouAccumulator(vocab.num_classes, ignore_label)
    n = 0
    for s in samples:
        pred = model.predict(s.rgb, s.thermal, vocab)
        labels = s.labels
        overall.update(pred, labels)
        n += 1
        acc = accs.setdefault(s.split, IouAccumulator(vocab.num_classes, ignore_label))
        acc.update(pred, labels)
        counts[s.split] = counts.get(s.split, 0) + 1
    results = {
        split: SplitResult(split, acc.iou(), acc.miou(), counts[split])
        for split, acc in accs.items()
    }
    results["overall"] = SplitResult("overall", overall.iou(), overall.miou(), n)
    return results
