"""Fused tape nodes against the elementary-op compositions they replace: the
forward is bitwise equal and the gradients agree to rounding."""

import numpy as np
import pytest

from rgbtseg import tensor as T
from rgbtseg.tensor import NumericError, Tensor


def _linear_ref(x, w, b):
    y = T.matmul(x.reshape(-1, w.shape[0]), w) + b
    return y.reshape(*x.shape[:-1], w.shape[1])


def _lora_ref(x, w0, b0, a, b, scale):
    flat = x.reshape(-1, w0.shape[0])
    update = T.matmul(T.matmul(flat, a.transpose(1, 0)), b.transpose(1, 0))
    return (T.matmul(flat, w0) + update * scale + b0).reshape(*x.shape[:-1], w0.shape[1])


def _layer_norm_ref(x, gamma, beta, eps):
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered * (var + eps) ** -0.5 * gamma + beta


def _attention_ref(q, k, v, heads, scale):
    def split(t):
        lead = t.ndim - 1
        return t.reshape(*t.shape[:-1], heads, -1).transpose(
            *range(lead - 1), lead, lead - 1, lead + 1)

    qh, kh, vh = split(q), split(k), split(v)
    lead = kh.ndim - 3
    kt = kh.transpose(*range(lead), lead, lead + 2, lead + 1)
    out = T.matmul(T.softmax(T.matmul(qh, kt) * scale, axis=-1), vh)
    lead = out.ndim - 3
    out = out.transpose(*range(lead), lead + 1, lead, lead + 2)
    return out.reshape(*out.shape[:-2], -1)


def _ce_dice_ref(logits, onehot, valid, w_ce, w_dice, smooth):
    """CE + Dice over [S, N, C] logits from elementary ops (class axis last)."""
    s, n = valid.shape
    x = logits.reshape(s, n, logits.shape[-1])
    y = Tensor(np.moveaxis(onehot, 0, -1))
    mask = Tensor(valid[..., None])
    n_valid = valid.sum(axis=-1)
    weight = (n_valid > 0) / s
    xmax = Tensor(x.data.max(axis=-1, keepdims=True))
    lse = T.log(T.exp(x - xmax).sum(axis=-1, keepdims=True)) + xmax
    per_pixel = (lse - (x * y).sum(axis=-1, keepdims=True)) * mask
    ce = (per_pixel.sum(axis=(-2, -1)) * Tensor(weight / np.maximum(n_valid, 1))).sum()
    probs = T.softmax(x, axis=-1) * mask
    coef = ((probs * y).sum(axis=-2) * 2.0 + smooth) / (
        probs.sum(axis=-2) + y.sum(axis=-2) + smooth)
    dice = ((1.0 - coef.mean(axis=-1)) * Tensor(weight)).sum()
    return ce * w_ce + dice * w_dice


def _grads(fn, inputs):
    for t in inputs:
        t.requires_grad, t.grad = True, None
    out = fn(*inputs)
    weights = np.random.default_rng(1).normal(size=out.shape)
    (out * Tensor(weights)).sum().backward()
    return out.data, [t.grad for t in inputs]


def _assert_matches(fused, ref, inputs, grad_rtol=1e-12):
    out, grads = _grads(fused, inputs)
    out_ref, grads_ref = _grads(ref, inputs)
    assert out.tobytes() == out_ref.tobytes()
    for g, g_ref in zip(grads, grads_ref):
        scale = max(1.0, float(np.abs(g_ref).max()))
        assert np.abs(g - g_ref).max() <= grad_rtol * scale


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["unbatched", "batched", "two_axes"])
def test_linear_matches_matmul_and_add(lead):
    rng = np.random.default_rng(0)
    x, w, b = (Tensor(rng.normal(size=s)) for s in [(*lead, 5, 6), (6, 4), (4,)])
    _assert_matches(T.linear, _linear_ref, [x, w, b])


def test_lora_linear_matches_three_matmuls_and_the_merged_weight():
    rng = np.random.default_rng(2)
    x, w0, b0, a, b = (Tensor(rng.normal(size=s))
                       for s in [(2, 5, 8), (8, 8), (8,), (3, 8), (8, 3)])
    _assert_matches(lambda *t: T.lora_linear(*t, 0.75),
                    lambda *t: _lora_ref(*t, 0.75), [x, w0, b0, a, b])
    merged = w0.data + 0.75 * (b.data @ a.data).T
    out = T.lora_linear(x, w0, b0, a, b, 0.75).data
    assert np.allclose(out, x.data @ merged + b0.data, atol=1e-12)


def test_layer_norm_matches_its_composition():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(2, 7, 16)) * 3.0 + 1.0)
    gamma, beta = Tensor(rng.normal(size=16)), Tensor(rng.normal(size=16))
    _assert_matches(lambda *t: T.layer_norm(*t, 1e-6),
                    lambda *t: _layer_norm_ref(*t, 1e-6), [x, gamma, beta])


@pytest.mark.parametrize("q_lead", [(3,), ()], ids=["batched", "shared_query"])
def test_attention_matches_its_composition(q_lead):
    rng = np.random.default_rng(4)
    q = Tensor(rng.normal(size=(*q_lead, 5, 8)))
    k, v = Tensor(rng.normal(size=(3, 6, 8))), Tensor(rng.normal(size=(3, 6, 8)))
    _assert_matches(lambda *t: T.attention(*t, 2, 0.5),
                    lambda *t: _attention_ref(*t, 2, 0.5), [q, k, v])


@pytest.mark.parametrize("w_ce, w_dice", [(1.0, 0.0), (0.0, 1.0), (1.0, 0.7)])
def test_ce_dice_matches_its_composition(w_ce, w_dice):
    rng = np.random.default_rng(5)
    logits = Tensor(rng.normal(size=(3, 4, 5, 4)) * 2.0)
    labels = rng.integers(0, 4, (3, 20))
    valid = np.ones((3, 20))
    valid[0, :7] = 0.0
    valid[2] = 0.0  # an image without valid pixels adds 0
    onehot = (labels == np.arange(4)[:, None, None]) * valid

    def fused(t):
        return T.ce_dice(t, onehot, valid, w_ce, w_dice, 1.0)

    def ref(t):
        return _ce_dice_ref(t, onehot, valid, w_ce, w_dice, 1.0)

    value, (grad,) = _grads(fused, [logits])
    value_ref, (grad_ref,) = _grads(ref, [logits])
    assert abs(value - value_ref) <= 1e-14
    assert np.abs(grad - grad_ref).max() <= 1e-15
    assert not grad[2].any()


def test_unchecked_keeps_the_tape_and_skips_the_per_op_check():
    x = Tensor(np.array([1.0, 0.0]), requires_grad=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        with T.unchecked():
            out = x / 0.0
            y = (x * 3.0).sum()
        assert not np.isfinite(out.data).any()
        y.backward()
        assert np.array_equal(x.grad, [3.0, 3.0])
        with pytest.raises(NumericError, match="op 'div'"):
            x / 0.0


def test_unchecked_restores_after_exception_and_nests_inside_no_grad():
    x = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(RuntimeError):
        with T.unchecked():
            raise RuntimeError("boom")
    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        T.log(-x)
    with T.no_grad():
        with T.unchecked():
            assert not (x * 2.0).requires_grad
    assert (x * 2.0).requires_grad
