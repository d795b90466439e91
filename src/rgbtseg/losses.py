"""Segmentation losses: pixel-wise cross-entropy plus soft Dice overlap.

Logits are [..., H, W, C] and labels the matching integer maps [..., H, W].
The ignore label (default 255) drops pixels from both losses. Each image is
normalised by its own valid-pixel count and the result is the mean over the
leading (batch) axes, so a batch's loss equals the mean of its images'
losses; an image whose pixels are all ignored contributes 0 and warns. The
combined objective is CE + lambda * Dice.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor


class LabelError(ValueError):
    pass


def _flatten_and_mask(logits: Tensor, labels: np.ndarray, ignore_label: int):
    """Logits as [S, H*W, C] over the S images, the one-hot labels, the valid
    mask [S, H*W] and each image's valid-pixel count [S]."""
    if logits.ndim < 3:
        raise ShapeError(f"logits must be [..., H, W, C], got {logits.shape}")
    *_, h, w, c = logits.shape
    labels = np.asarray(labels)
    if labels.shape != logits.shape[:-1]:
        raise ShapeError(f"labels {labels.shape} do not match logits {logits.shape[:-1]}")
    flat_labels = labels.reshape(-1, h * w)
    valid = flat_labels != ignore_label
    bad = flat_labels[valid]
    if bad.size and (bad.min() < 0 or bad.max() >= c):
        raise LabelError(
            f"labels must lie in [0, {c}) or equal ignore={ignore_label}; "
            f"found {int(bad.min())}..{int(bad.max())}"
        )
    onehot = np.zeros((*flat_labels.shape, c))
    onehot[(*np.nonzero(valid), bad)] = 1.0
    return logits.reshape(-1, h * w, c), onehot, valid, valid.sum(axis=-1)


def _image_weights(n_valid: np.ndarray, loss: str) -> np.ndarray:
    """Each image's weight in the batch mean: 1/S, or 0 (with a warning) for
    an image whose pixels are all ignored."""
    if not n_valid.all():
        warnings.warn(f"{loss}: every pixel of an image is ignored; "
                      "its loss is defined as 0")
    return (n_valid > 0) / n_valid.size


def cross_entropy(logits: Tensor, labels: np.ndarray,
                  ignore_label: int = 255) -> Tensor:
    """Per image, the mean over non-ignored pixels of -log softmax(logits)[label];
    then the mean over images."""
    x, onehot, valid, n_valid = _flatten_and_mask(logits, labels, ignore_label)
    weight = _image_weights(n_valid, "cross_entropy")
    if not n_valid.any():
        return Tensor(0.0)
    xmax = Tensor(x.data.max(axis=-1, keepdims=True))
    lse = T.log(T.exp(x - xmax).sum(axis=-1, keepdims=True)) + xmax
    picked = (x * Tensor(onehot)).sum(axis=-1, keepdims=True)
    per_pixel = (lse - picked) * Tensor(valid[..., None].astype(float))
    scale = weight / np.maximum(n_valid, 1)
    return (per_pixel.sum(axis=(-2, -1)) * Tensor(scale)).sum()


def dice_loss(logits: Tensor, labels: np.ndarray, ignore_label: int = 255,
              smooth: float = 1.0) -> Tensor:
    """1 - mean over classes of the soft Dice coefficient, per image; then
    the mean over images.

    Probabilities come from softmax over the class axis; ignored pixels are
    excluded from every sum. Classes absent from both prediction mass and
    labels score smooth/smooth = 1.
    """
    x, onehot, valid, n_valid = _flatten_and_mask(logits, labels, ignore_label)
    weight = _image_weights(n_valid, "dice_loss")
    if not n_valid.any():
        return Tensor(0.0)
    mask = Tensor(valid[..., None].astype(float))
    p = T.softmax(x, axis=-1) * mask
    y = Tensor(onehot)
    inter = (p * y).sum(axis=-2)
    denom = p.sum(axis=-2) + y.sum(axis=-2)
    dice = (inter * 2.0 + smooth) / (denom + smooth)
    return ((1.0 - dice.mean(axis=-1)) * Tensor(weight)).sum()


def total_loss(logits: Tensor, labels: np.ndarray, lambda_dice: float = 1.0,
               ignore_label: int = 255, smooth: float = 1.0) -> Tensor:
    ce = cross_entropy(logits, labels, ignore_label)
    if lambda_dice == 0.0:
        return ce
    return ce + dice_loss(logits, labels, ignore_label, smooth) * lambda_dice
