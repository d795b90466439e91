"""IoU metrics: hand oracles, absent-class policy, streaming accumulator."""

import numpy as np
import pytest

from rgbtseg.losses import LabelError
from rgbtseg.metrics import (IouAccumulator, MetricError, confusion_counts,
                             iou_from_counts, iou_per_class, miou)


def test_hand_oracle():
    pred = np.array([[0, 0, 1, 1]])
    gt = np.array([[0, 1, 1, 1]])
    per_class = iou_per_class(pred, gt, 2)
    assert np.allclose(per_class, [1 / 2, 2 / 3])
    assert np.isclose(miou(per_class), (1 / 2 + 2 / 3) / 2)


def test_perfect_prediction():
    gt = np.random.default_rng(0).integers(0, 3, (8, 8))
    assert np.allclose(iou_per_class(gt, gt, 3), 1.0)


def test_swap_symmetry():
    rng = np.random.default_rng(1)
    pred = rng.integers(0, 4, (10, 10))
    gt = rng.integers(0, 4, (10, 10))
    forward = iou_per_class(pred, gt, 4)
    backward = iou_per_class(gt, pred, 4)
    assert np.array_equal(forward, backward, equal_nan=True)


def test_absent_class_policy():
    pred = np.array([[0, 1]])
    gt = np.array([[0, 1]])
    per_class = iou_per_class(pred, gt, 3)
    assert np.isnan(per_class[2])
    assert miou(per_class) == 1.0
    assert miou(per_class, include_absent=False) == 1.0


def test_no_present_classes_is_error():
    with pytest.raises(MetricError):
        miou(np.array([np.nan, np.nan]))


def test_ignore_label_excluded():
    pred = np.array([[0, 1, 1]])
    gt = np.array([[0, 255, 0]])
    counts = confusion_counts(pred, gt, 2)
    # ignored pixel contributes nothing anywhere
    assert counts.sum() == 3  # TP(0)=1, FN(0)=1, FP(1)=1


def test_accumulator_matches_pooled_computation():
    rng = np.random.default_rng(2)
    acc = IouAccumulator(3)
    preds, gts = [], []
    for _ in range(5):
        p = rng.integers(0, 3, (6, 6))
        g = rng.integers(0, 3, (6, 6))
        acc.update(p, g)
        preds.append(p)
        gts.append(g)
    pooled = iou_per_class(np.concatenate(preds), np.concatenate(gts), 3)
    assert np.allclose(acc.iou(), pooled, equal_nan=True)


def test_iou_from_counts_formula():
    counts = np.array([[3, 1, 2]])  # TP, FP, FN
    assert np.isclose(iou_from_counts(counts)[0], 3 / 6)


@pytest.mark.parametrize("bad", [3, -1])
def test_confusion_counts_rejects_out_of_range_labels(bad):
    pred = np.array([[0, 1, 2]])
    with pytest.raises(LabelError):
        confusion_counts(pred, np.array([[0, bad, 2]]), 3)
    counts = confusion_counts(pred, np.array([[0, 255, 2]]), 3)
    assert counts[:, 0].tolist() == [1, 0, 1]
