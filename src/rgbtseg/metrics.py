"""Segmentation metrics: per-class IoU and mean IoU over label maps.

Classes whose union is empty (never predicted and never labeled) are marked
absent with NaN, not scored 0; the default mIoU policy averages over present
classes only. Ground truth follows the losses' label rule (``losses.valid_labels``):
a label outside [0, C) that is not the ignore label raises LabelError.
"""

from __future__ import annotations

import numpy as np

from .losses import valid_labels
from .tensor import ShapeError


class MetricError(ValueError):
    pass


def confusion_counts(pred: np.ndarray, gt: np.ndarray, num_classes: int,
                     ignore_label: int = 255) -> np.ndarray:
    """Per-class [TP, FP, FN] counts over non-ignored pixels, shape [C, 3]."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ShapeError(f"pred {pred.shape} vs gt {gt.shape}")
    valid, g = valid_labels(gt, num_classes, ignore_label)
    p = pred[valid]
    counts = np.zeros((num_classes, 3), dtype=np.int64)
    for c in range(num_classes):
        pc, gc = p == c, g == c
        counts[c, 0] = np.count_nonzero(pc & gc)
        counts[c, 1] = np.count_nonzero(pc & ~gc)
        counts[c, 2] = np.count_nonzero(~pc & gc)
    return counts


def iou_from_counts(counts: np.ndarray) -> np.ndarray:
    union = counts.sum(axis=1).astype(np.float64)
    iou = np.full(counts.shape[0], np.nan)
    present = union > 0
    iou[present] = counts[present, 0] / union[present]
    return iou


def iou_per_class(pred: np.ndarray, gt: np.ndarray, num_classes: int,
                  ignore_label: int = 255) -> np.ndarray:
    """IoU_c = TP / (TP + FP + FN) per class; NaN marks an absent class."""
    return iou_from_counts(confusion_counts(pred, gt, num_classes, ignore_label))


def miou(per_class: np.ndarray, include_absent: bool = False) -> float:
    """Mean IoU. Absent (NaN) classes are excluded by default; with
    ``include_absent`` they count as 0."""
    per_class = np.asarray(per_class, dtype=np.float64)
    if include_absent:
        return float(np.nan_to_num(per_class, nan=0.0).mean())
    present = ~np.isnan(per_class)
    if not present.any():
        raise MetricError("no class is present; mIoU undefined")
    return float(per_class[present].mean())


class IouAccumulator:
    """Running per-class confusion over many samples (one per split tag)."""

    def __init__(self, num_classes: int, ignore_label: int = 255):
        self.num_classes = num_classes
        self.ignore_label = ignore_label
        self.counts = np.zeros((num_classes, 3), dtype=np.int64)

    def update(self, pred: np.ndarray, gt: np.ndarray) -> None:
        self.counts += confusion_counts(pred, gt, self.num_classes, self.ignore_label)

    def iou(self) -> np.ndarray:
        return iou_from_counts(self.counts)

    def miou(self) -> float:
        return miou(self.iou())
