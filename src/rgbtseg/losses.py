"""Segmentation losses: pixel-wise cross-entropy plus soft Dice overlap.

Logits are [..., H, W, C] and labels the matching integer maps [..., H, W].
Each label lies in [0, C) or equals ``TrainConfig.ignore_label`` (255), which
drops the pixel; ``valid_labels`` holds that rule for the losses and
``metrics``. Each image is normalised by its own valid-pixel count and the
result is the mean over the leading (batch) axes; an image whose pixels are
all ignored adds 0, and the call warns once. All three losses are weightings
of one fused node, ``tensor.ce_dice``, which computes the class softmax once
for both terms.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import tensor as T
from .config import TrainConfig
from .tensor import ShapeError, Tensor


class LabelError(ValueError):
    pass


def valid_labels(labels: np.ndarray, num_classes: int):
    """The mask of pixels not labelled ``TrainConfig.ignore_label`` and the
    labels there, each of which must lie in [0, num_classes) (LabelError
    otherwise)."""
    ignore = TrainConfig.ignore_label
    valid = labels != ignore
    kept = labels[valid]
    if kept.size and (kept.min() < 0 or kept.max() >= num_classes):
        raise LabelError(
            f"labels must lie in [0, {num_classes}) or equal ignore={ignore}; "
            f"found {int(kept.min())}..{int(kept.max())}"
        )
    return valid, kept


def _loss(logits: Tensor, labels: np.ndarray, w_ce: float, w_dice: float) -> Tensor:
    """``w_ce * CE + w_dice * Dice`` over one check and encoding of the labels,
    the Dice term smoothed by ``TrainConfig.dice_smooth``."""
    if logits.ndim < 3:
        raise ShapeError(f"logits must be [..., H, W, C], got {logits.shape}")
    *_, h, w, c = logits.shape
    labels = np.asarray(labels)
    if labels.shape != logits.shape[:-1]:
        raise ShapeError(f"labels {labels.shape} do not match logits {logits.shape[:-1]}")
    labels = labels.reshape(-1, h * w)
    valid, _ = valid_labels(labels, c)
    n_valid = valid.sum(axis=-1)
    if not n_valid.all():
        warnings.warn("every pixel of an image is ignored; its loss is defined as 0")
    if not n_valid.any():
        return Tensor(0.0)
    onehot = (labels == np.arange(c)[:, None, None]) & valid
    return T.ce_dice(logits, onehot, valid, w_ce, w_dice, TrainConfig.dice_smooth)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Per image, the mean over non-ignored pixels of -log softmax(logits)[label];
    then the mean over images."""
    return _loss(logits, labels, 1.0, 0.0)


def dice_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """1 - mean over classes of the soft Dice coefficient, per image; then
    the mean over images.

    Probabilities come from softmax over the class axis; ignored pixels are
    excluded from every sum. Classes absent from both prediction mass and
    labels score smooth/smooth = 1, with smooth ``TrainConfig.dice_smooth``.
    """
    return _loss(logits, labels, 0.0, 1.0)


def total_loss(logits: Tensor, labels: np.ndarray, lambda_dice: float = 1.0) -> Tensor:
    """cross_entropy + lambda_dice * dice_loss as one tape node."""
    return _loss(logits, labels, 1.0, lambda_dice)
