"""Segmentation metrics: per-class IoU and mean IoU over label maps.

Classes whose union is empty (never predicted and never labeled) are marked
absent with NaN, not scored 0; mIoU averages over present classes only, and is
NaN when no class is present (every pixel ignored). Ground truth follows the
losses' label rule (``losses.valid_labels``): a label outside [0, C) that is
not ``TrainConfig.ignore_label`` raises LabelError.
"""

from __future__ import annotations

import math

import numpy as np

from .losses import valid_labels
from .tensor import ShapeError


def confusion_counts(pred: np.ndarray, gt: np.ndarray, num_classes: int) -> np.ndarray:
    """Per-class [TP, FP, FN] counts over non-ignored pixels, shape [C, 3]."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ShapeError(f"pred {pred.shape} vs gt {gt.shape}")
    valid, g = valid_labels(gt, num_classes)
    c = num_classes
    p = pred[valid]
    # row: ground truth; column: prediction, where C collects those outside
    # [0, C), which count only as a miss of their ground-truth class
    p = np.where((p >= 0) & (p < c), p, c)
    joint = np.bincount(g.astype(np.int64) * (c + 1) + p,
                        minlength=c * (c + 1)).reshape(c, c + 1)
    tp = joint.diagonal()
    return np.stack([tp, joint[:, :c].sum(axis=0) - tp, joint.sum(axis=1) - tp], axis=1)


def iou_from_counts(counts: np.ndarray) -> np.ndarray:
    union = counts.sum(axis=1).astype(np.float64)
    iou = np.full(counts.shape[0], np.nan)
    present = union > 0
    iou[present] = counts[present, 0] / union[present]
    return iou


def iou_per_class(pred: np.ndarray, gt: np.ndarray, num_classes: int) -> np.ndarray:
    """IoU_c = TP / (TP + FP + FN) per class; NaN marks an absent class."""
    return iou_from_counts(confusion_counts(pred, gt, num_classes))


def miou(per_class: np.ndarray) -> float:
    """Mean IoU over the present classes; absent (NaN) classes are excluded,
    and with no class present the mean is NaN."""
    per_class = np.asarray(per_class, dtype=np.float64)
    present = ~np.isnan(per_class)
    return float(per_class[present].mean()) if present.any() else math.nan


class IouAccumulator:
    """Running per-class confusion over many samples (one per split tag)."""

    def __init__(self, num_classes: int):
        self.num_classes = num_classes
        self.counts = np.zeros((num_classes, 3), dtype=np.int64)

    def update(self, pred: np.ndarray, gt: np.ndarray) -> None:
        self.counts += confusion_counts(pred, gt, self.num_classes)

    def iou(self) -> np.ndarray:
        return iou_from_counts(self.counts)

    def miou(self) -> float:
        return miou(self.iou())
