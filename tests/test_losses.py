"""Losses: analytic values, masking, and error behavior."""

import math

import numpy as np
import pytest

from rgbtseg.losses import LabelError, cross_entropy, dice_loss, total_loss
from rgbtseg.tensor import Tensor


def test_ce_uniform_equals_log_c():
    for c in (2, 4, 7):
        logits = Tensor(np.zeros((3, 3, c)))
        labels = np.random.default_rng(c).integers(0, c, (3, 3))
        assert abs(cross_entropy(logits, labels).item() - math.log(c)) <= 1e-12


def test_ce_decreases_with_correct_confidence():
    labels = np.array([[0, 1]])
    weak = np.zeros((1, 2, 2))
    strong = np.array([[[3.0, 0.0], [0.0, 3.0]]])
    assert (cross_entropy(Tensor(strong), labels).item()
            < cross_entropy(Tensor(weak), labels).item())


def test_ce_ignore_label_masks_pixels():
    logits = np.zeros((1, 3, 2))
    logits[0, 0] = [10.0, 0.0]
    labels = np.array([[1, 255, 255]])
    # only the first pixel counts, and it is badly wrong
    val = cross_entropy(Tensor(logits), labels).item()
    assert val > 9.0


def test_ce_rejects_out_of_range_labels():
    with pytest.raises(LabelError):
        cross_entropy(Tensor(np.zeros((1, 1, 3))), np.array([[5]]))


def test_dice_perfect_prediction_is_zero():
    labels = np.arange(16).reshape(4, 4) % 3
    logits = np.full((4, 4, 3), -1e4)
    logits[np.arange(4)[:, None], np.arange(4)[None, :], labels] = 1e4
    assert abs(dice_loss(Tensor(logits), labels).item()) <= 1e-12


def test_dice_worst_case_bounded():
    labels = np.zeros((2, 2), dtype=np.int64)
    logits = np.full((2, 2, 2), -1e4)
    logits[..., 1] = 1e4  # confidently wrong everywhere
    val = dice_loss(Tensor(logits), labels).item()
    assert 0.0 < val <= 1.0


def test_total_loss_composition():
    rng = np.random.default_rng(4)
    logits = Tensor(rng.normal(size=(4, 4, 3)))
    labels = rng.integers(0, 3, (4, 4))
    ce = cross_entropy(logits, labels).item()
    dl = dice_loss(logits, labels).item()
    combined = total_loss(logits, labels, lambda_dice=0.5).item()
    assert np.isclose(combined, ce + 0.5 * dl, atol=1e-12)


def test_losses_backpropagate():
    logits = Tensor(np.random.default_rng(5).normal(size=(2, 2, 3)),
                    requires_grad=True)
    labels = np.array([[0, 1], [2, 0]])
    total_loss(logits, labels).backward()
    assert logits.grad is not None
    assert logits.grad.shape == (2, 2, 3)


def test_total_loss_warns_once_for_an_all_ignored_image():
    rng = np.random.default_rng(6)
    labels = rng.integers(0, 3, (2, 4, 4))
    labels[0] = 255
    with pytest.warns(UserWarning) as record:
        total_loss(Tensor(rng.normal(size=(2, 4, 4, 3))), labels)
    assert len(record) == 1


@pytest.mark.parametrize("lead", [(), (3,)], ids=["unbatched", "batched"])
def test_total_loss_equals_its_terms_bitwise(lead):
    rng = np.random.default_rng(7)
    logits = Tensor(rng.normal(size=(*lead, 5, 6, 4)))
    labels = rng.integers(0, 4, (*lead, 5, 6))
    labels[..., 0, :] = 255
    separate = cross_entropy(logits, labels) + dice_loss(logits, labels) * 0.7
    assert total_loss(logits, labels, 0.7).item() == separate.item()
