"""Training loop and evaluation.

A training step stacks its batch into [B, H, W, ·] arrays and runs one
forward, one loss and one backward over them. Samples of different image
sizes cannot share a stack, so a batch is split into groups of equal shape;
each group's loss is weighted by its share of the batch, which keeps the
objective the mean of the per-sample losses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .data import RgbtSample
from .losses import total_loss
from .metrics import IouAccumulator
from .model import RgbtSegModel
from .optim import AdamW
from .prompts import ClassVocabulary


@dataclass
class StepRecord:
    step: int
    loss: float
    miou: float


def train(model: RgbtSegModel, vocab: ClassVocabulary, samples: list[RgbtSample],
          cfg: TrainConfig, log_fn=None) -> list[StepRecord]:
    """Seeded training run; returns one record per step (loss, batch mIoU).

    Batches are drawn by epoch-wise seeded shuffles. A NaN anywhere in the
    forward or backward pass raises NumericError and aborts the run.
    """
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

        groups: dict[tuple, list[RgbtSample]] = {}
        for i in idx:
            s = samples[i]
            groups.setdefault((s.rgb.shape, s.thermal.shape, s.labels.shape),
                              []).append(s)

        acc = IouAccumulator(num_classes, cfg.ignore_label)
        loss = None
        for group in groups.values():
            labels = np.stack([s.labels for s in group])
            out = model.forward(np.stack([s.rgb for s in group]),
                                np.stack([s.thermal for s in group]), vocab)
            term = total_loss(out.logits, labels, cfg.lambda_dice,
                              cfg.ignore_label, cfg.dice_smooth)
            term = term * (len(group) / cfg.batch)
            loss = term if loss is None else loss + term
            acc.update(np.argmax(out.logits.data, axis=-1), labels)
        opt.zero_grad()
        loss.backward()
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
             samples: list[RgbtSample], ignore_label: int = 255,
             include_absent: bool = False) -> dict[str, SplitResult]:
    """Per-split metric tables; splits come from the samples' tags, plus an
    'overall' row aggregating everything."""
    accs: dict[str, IouAccumulator] = {}
    counts: dict[str, int] = {}
    overall = IouAccumulator(vocab.num_classes, ignore_label)
    n = 0
    for s in samples:
        pred = model.predict(s.rgb, s.thermal, vocab)
        overall.update(pred, s.labels)
        n += 1
        acc = accs.setdefault(s.split, IouAccumulator(vocab.num_classes, ignore_label))
        acc.update(pred, s.labels)
        counts[s.split] = counts.get(s.split, 0) + 1
    results = {
        split: SplitResult(split, acc.iou(), acc.miou(include_absent), counts[split])
        for split, acc in accs.items()
    }
    results["overall"] = SplitResult("overall", overall.iou(),
                                     overall.miou(include_absent), n)
    return results
