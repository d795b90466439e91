"""Segmentation losses: pixel-wise cross-entropy plus soft Dice overlap.

Logits are [..., H, W, C] and labels the matching integer maps [..., H, W].
Each label lies in [0, C) or equals the ignore label (default 255), which drops
the pixel; ``valid_labels`` holds that rule for the losses and ``metrics``. Each
image is normalised by its own valid-pixel count and the result is the mean
over the leading (batch) axes; an image whose pixels are all ignored adds 0,
and the call warns once. ``total_loss`` (CE + lambda * Dice) prepares the
labels once for both terms.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor


class LabelError(ValueError):
    pass


def valid_labels(labels: np.ndarray, num_classes: int, ignore_label: int):
    """The mask of pixels not labelled ``ignore_label`` and the labels there,
    each of which must lie in [0, num_classes) (LabelError otherwise)."""
    valid = labels != ignore_label
    kept = labels[valid]
    if kept.size and (kept.min() < 0 or kept.max() >= num_classes):
        raise LabelError(
            f"labels must lie in [0, {num_classes}) or equal ignore={ignore_label}; "
            f"found {int(kept.min())}..{int(kept.max())}"
        )
    return valid, kept


class _Prepared(NamedTuple):
    x: Tensor            # logits as [S, H*W, C] over the S images
    onehot: Tensor       # one-hot labels [S, H*W, C], zero rows at ignored pixels
    mask: Tensor         # 1 at valid pixels, 0 at ignored ones, [S, H*W, 1]
    n_valid: np.ndarray  # valid-pixel count per image [S]
    weight: np.ndarray   # each image's weight in the batch mean [S]


def _prepare(logits: Tensor, labels: np.ndarray, ignore_label: int) -> _Prepared | None:
    """Check and encode the labels of one loss call. An image whose pixels are
    all ignored gets weight 0 (and the call warns); None when every image is."""
    if logits.ndim < 3:
        raise ShapeError(f"logits must be [..., H, W, C], got {logits.shape}")
    *_, h, w, c = logits.shape
    labels = np.asarray(labels)
    if labels.shape != logits.shape[:-1]:
        raise ShapeError(f"labels {labels.shape} do not match logits {logits.shape[:-1]}")
    valid, kept = valid_labels(labels.reshape(-1, h * w), c, ignore_label)
    n_valid = valid.sum(axis=-1)
    if not n_valid.all():
        warnings.warn("every pixel of an image is ignored; its loss is defined as 0")
    if not n_valid.any():
        return None
    onehot = np.zeros((*valid.shape, c))
    onehot[(*np.nonzero(valid), kept)] = 1.0
    return _Prepared(logits.reshape(-1, h * w, c), Tensor(onehot),
                     Tensor(valid[..., None].astype(float)), n_valid,
                     (n_valid > 0) / n_valid.size)


def _cross_entropy(p: _Prepared) -> Tensor:
    xmax = Tensor(p.x.data.max(axis=-1, keepdims=True))
    lse = T.log(T.exp(p.x - xmax).sum(axis=-1, keepdims=True)) + xmax
    picked = (p.x * p.onehot).sum(axis=-1, keepdims=True)
    per_pixel = (lse - picked) * p.mask
    scale = p.weight / np.maximum(p.n_valid, 1)
    return (per_pixel.sum(axis=(-2, -1)) * Tensor(scale)).sum()


def _dice(p: _Prepared, smooth: float) -> Tensor:
    probs = T.softmax(p.x, axis=-1) * p.mask
    inter = (probs * p.onehot).sum(axis=-2)
    denom = probs.sum(axis=-2) + p.onehot.sum(axis=-2)
    dice = (inter * 2.0 + smooth) / (denom + smooth)
    return ((1.0 - dice.mean(axis=-1)) * Tensor(p.weight)).sum()


def cross_entropy(logits: Tensor, labels: np.ndarray,
                  ignore_label: int = 255) -> Tensor:
    """Per image, the mean over non-ignored pixels of -log softmax(logits)[label];
    then the mean over images."""
    p = _prepare(logits, labels, ignore_label)
    return Tensor(0.0) if p is None else _cross_entropy(p)


def dice_loss(logits: Tensor, labels: np.ndarray, ignore_label: int = 255,
              smooth: float = 1.0) -> Tensor:
    """1 - mean over classes of the soft Dice coefficient, per image; then
    the mean over images.

    Probabilities come from softmax over the class axis; ignored pixels are
    excluded from every sum. Classes absent from both prediction mass and
    labels score smooth/smooth = 1.
    """
    p = _prepare(logits, labels, ignore_label)
    return Tensor(0.0) if p is None else _dice(p, smooth)


def total_loss(logits: Tensor, labels: np.ndarray, lambda_dice: float = 1.0,
               ignore_label: int = 255, smooth: float = 1.0) -> Tensor:
    """cross_entropy + lambda_dice * dice_loss over one preparation of the labels."""
    p = _prepare(logits, labels, ignore_label)
    if p is None:
        return Tensor(0.0)
    if lambda_dice == 0.0:
        return _cross_entropy(p)
    return _cross_entropy(p) + _dice(p, smooth) * lambda_dice
