"""Fused tape nodes against the elementary-op compositions they replace: the
forward is bitwise equal and the gradients agree to rounding. What the
attention and loss nodes keep for backward, and the attention gradients
against a node that keeps its probabilities, bit for bit."""

import numpy as np
import pytest

from ref_ops import div, exp, log, neg, pow, sub
from rgbtseg import tensor as T
from rgbtseg.losses import total_loss
from rgbtseg.tensor import NumericError, Tensor


def _linear_ref(x, w, b):
    y = T.matmul(x.reshape(-1, w.shape[0]), w) + b
    return y.reshape(*x.shape[:-1], w.shape[1])


def _lora_ref(x, w0, b0, a, b):
    flat = x.reshape(-1, w0.shape[0])
    update = T.matmul(T.matmul(flat, a.transpose(1, 0)), b.transpose(1, 0))
    return (T.matmul(flat, w0) + update + b0).reshape(*x.shape[:-1], w0.shape[1])


def _layer_norm_ref(x, gamma, beta, eps):
    centered = sub(x, x.mean(axis=-1, keepdims=True))
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered * pow(var + eps, -0.5) * gamma + beta


def _softmax_ref(x):
    """Softmax over the last axis, max-subtracted, from elementary ops."""
    e = exp(sub(x, Tensor(x.data.max(axis=-1, keepdims=True))))
    return div(e, e.sum(axis=-1, keepdims=True))


def _attention_ref(q, k, v, heads, scale):
    def split(t):
        lead = t.ndim - 1
        return t.reshape(*t.shape[:-1], heads, -1).transpose(
            *range(lead - 1), lead, lead - 1, lead + 1)

    qh, kh, vh = split(q), split(k), split(v)
    lead = kh.ndim - 3
    kt = kh.transpose(*range(lead), lead, lead + 2, lead + 1)
    out = T.matmul(_softmax_ref(T.matmul(qh, kt) * scale), vh)
    lead = out.ndim - 3
    out = out.transpose(*range(lead), lead + 1, lead, lead + 2)
    return out.reshape(*out.shape[:-2], -1)


def _attention_keeping_probabilities(q, k, v, heads, scale):
    """``T.attention`` with its probability matrix saved for backward instead
    of rebuilt there: the reference its gradients must equal bit for bit."""

    def split(t):
        return np.swapaxes(t.reshape(*t.shape[:-1], heads, -1), -3, -2)

    def merge(t, shape):
        return np.swapaxes(t, -3, -2).reshape(shape)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    attn = np.matmul(qh, np.swapaxes(kh, -1, -2))
    attn *= scale
    attn -= attn.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    out = np.swapaxes(np.matmul(attn, vh), -3, -2)
    nodes = [T._grad_node(t) for t in (q, k, v)]

    def backward(g, acc):
        go = split(g)
        acc(nodes[2], merge(T._unbroadcast(np.matmul(np.swapaxes(attn, -1, -2), go),
                                           vh.shape), v.shape))
        gs = np.matmul(go, np.swapaxes(vh, -1, -2))
        gs -= (gs * attn).sum(axis=-1, keepdims=True)
        gs *= attn
        gs *= scale
        acc(nodes[0], merge(T._unbroadcast(np.matmul(gs, kh), qh.shape), q.shape))
        acc(nodes[1], merge(T._unbroadcast(np.matmul(np.swapaxes(gs, -1, -2), qh),
                                           kh.shape), k.shape))

    return Tensor._from_op(out.reshape(*out.shape[:-2], -1), tuple(nodes), backward,
                           "attention")


# (q, k, v shapes, heads, scale) of the model's attention calls at batch 4 and
# unbatched, 64x64: encoder self-attention, the two-way decoder's token
# self-attention, token-to-image (one unbatched query stack over the batch)
# and image-to-token, and the one-head text cross-attention over all pixels
ATTENTION_CALLS = {
    "encoder": (((4, 64, 64), (4, 64, 64), (4, 64, 64)), 4, 0.25),
    "encoder_unbatched": (((64, 64), (64, 64), (64, 64)), 4, 0.25),
    "tokens": (((4, 5, 64), (4, 5, 64), (4, 5, 64)), 4, 0.25),
    "token_to_image": (((5, 64), (4, 64, 64), (4, 64, 64)), 4, 0.25),
    "image_to_token": (((4, 64, 64), (4, 5, 64), (4, 5, 64)), 4, 0.25),
    "text": (((4096, 16), (4, 16), (4, 4)), 1, 32 ** -0.5),
    "text_unbatched": (((1024, 16), (4, 16), (4, 4)), 1, 32 ** -0.5),
}


def _attention_inputs(shapes):
    rng = np.random.default_rng(8)
    return [Tensor(rng.normal(size=shape) * 2.0) for shape in shapes]


@pytest.mark.parametrize("call", ATTENTION_CALLS.values(), ids=ATTENTION_CALLS.keys())
def test_attention_keeps_no_probability_matrix(call):
    shapes, heads, scale = call
    q, k, v = _attention_inputs(shapes)
    for t in (q, k, v):
        t.requires_grad = True
    scores = np.broadcast_shapes(shapes[0][:-2], shapes[1][:-2]) + (
        heads, shapes[0][-2], shapes[1][-2])
    out = T.attention(q, k, v, heads, scale)
    saved = [c.cell_contents for c in out._node._backward.__closure__
             if isinstance(c.cell_contents, np.ndarray)]
    assert saved and all(arr.shape != scores for arr in saved)


@pytest.mark.parametrize("call", ATTENTION_CALLS.values(), ids=ATTENTION_CALLS.keys())
def test_attention_gradients_equal_a_node_keeping_its_probabilities(call):
    shapes, heads, scale = call
    inputs = _attention_inputs(shapes)
    out, grads = _grads(lambda *t: T.attention(*t, heads, scale), inputs)
    out_ref, grads_ref = _grads(lambda *t: _attention_keeping_probabilities(
        *t, heads, scale), inputs)
    assert out.tobytes() == out_ref.tobytes()
    for g, g_ref in zip(grads, grads_ref):
        assert g.tobytes() == g_ref.tobytes()


def _ce_dice_ref(logits, onehot, valid, w_ce, w_dice, smooth):
    """CE + Dice over [S, N, C] logits from elementary ops (class axis last)."""
    s, n = valid.shape
    x = logits.reshape(s, n, logits.shape[-1])
    y = Tensor(np.moveaxis(onehot, 0, -1))
    mask = Tensor(valid[..., None])
    n_valid = valid.sum(axis=-1)
    weight = (n_valid > 0) / s
    xmax = Tensor(x.data.max(axis=-1, keepdims=True))
    lse = log(exp(sub(x, xmax)).sum(axis=-1, keepdims=True)) + xmax
    per_pixel = sub(lse, (x * y).sum(axis=-1, keepdims=True)) * mask
    ce = (per_pixel.sum(axis=(-2, -1)) * Tensor(weight / np.maximum(n_valid, 1))).sum()
    probs = _softmax_ref(x) * mask
    coef = div((probs * y).sum(axis=-2) * 2.0 + smooth,
               probs.sum(axis=-2) + y.sum(axis=-2) + smooth)
    dice = (sub(1.0, coef.mean(axis=-1)) * Tensor(weight)).sum()
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
    _assert_matches(T.lora_linear, _lora_ref, [x, w0, b0, a, b])
    merged = w0.data + (b.data @ a.data).T
    out = T.lora_linear(x, w0, b0, a, b).data
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


def test_ce_dice_on_bool_masks_equals_float_masks_bitwise():
    rng = np.random.default_rng(6)
    logits = rng.normal(size=(2, 4, 5, 3)) * 2.0
    labels = rng.integers(0, 3, (2, 20))
    valid = rng.random((2, 20)) > 0.2
    onehot = (labels == np.arange(3)[:, None, None]) & valid
    results = []
    for masks in ((onehot, valid), (onehot.astype(float), valid.astype(float))):
        out, (grad,) = _grads(lambda t: T.ce_dice(t, *masks, 1.0, 0.7, 1.0),
                              [Tensor(logits)])
        results.append((out.tobytes(), grad.tobytes()))
    assert results[0] == results[1]


def test_the_loss_keeps_one_float_class_stack_and_forms_one_more(traced_memory):
    # many classes, so that the [S, N] planes weigh little against a stack
    c, s, h, w = 16, 4, 32, 32
    rng = np.random.default_rng(7)
    logits = Tensor(rng.normal(size=(s, h, w, c)), requires_grad=True)
    labels = rng.integers(0, c, (s, h, w))
    labels[0, :8] = 255
    stack_bytes = c * s * h * w * 8
    with traced_memory() as mem:
        loss = total_loss(logits, labels)
    saved = [cell.cell_contents for cell in loss._node._backward.__closure__
             if isinstance(cell.cell_contents, np.ndarray)
             and cell.cell_contents.shape == (c, s, h * w)]
    # the probabilities p, and the bool one-hot labels they are scored against
    assert sorted(arr.dtype.kind for arr in saved) == ["b", "f"]
    # p, the class-major logits or one masked product, and the bool masks and
    # [S, N] planes; 5.4 stacks when the masks were float and every masked
    # product a new array
    assert mem.peak <= 3 * stack_bytes, mem.peak / stack_bytes


def test_checked_keeps_the_tape_and_skips_the_per_op_check():
    x = Tensor(np.array([1.0, 0.0]), requires_grad=True)
    skipped = []

    def f():
        skipped.append(x * np.inf)
        return (x * 3.0).sum()

    with np.errstate(invalid="ignore"):
        y = T.checked(f, tape=True)
        assert not np.isfinite(skipped[0].data).any()
        y.backward()
        assert np.array_equal(x.grad, [3.0, 3.0])
        with pytest.raises(NumericError, match="op 'mul'"):
            x * np.inf


def test_checked_restores_after_exception_and_nests_inside_no_grad():
    x = Tensor(np.array([1.0]), requires_grad=True)

    def boom():
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        T.checked(boom, tape=True)
    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        log(neg(x))
    with T.no_grad():
        assert not T.checked(lambda: x * 2.0, tape=True).requires_grad
    assert (x * 2.0).requires_grad


def test_checked_returns_a_finite_result_as_is_from_one_run():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    runs = []

    def f():
        runs.append((T._grad_enabled, T._check_enabled, x * 2.0))
        return runs[-1][2]

    assert T.checked(f) is runs[0][2] and runs[0][:2] == (False, False)
    assert T.checked(f, tape=True) is runs[1][2] and runs[1][:2] == (True, False)
    assert len(runs) == 2


@pytest.mark.parametrize("scale, error, message", [
    (np.nan, NumericError, "non-finite value produced by op 'mul'"),
    (2.0, T.GradCheckError, "f is not deterministic: a tape-free evaluation is "
                            "non-finite, its taped replay finite"),
    (None, NumericError, "non-finite value produced by no checked op"),
], ids=["an_op_produces_it", "the_replay_is_finite", "no_op_produces_it"])
def test_checked_replays_a_nonfinite_result_once(scale, error, message):
    x = Tensor(np.array([1.0, 2.0]))
    runs = []

    def f():  # non-finite without the check; in the replay as ``scale`` says
        runs.append(T._check_enabled)
        if scale is None:
            return Tensor(np.array([np.nan]))
        return x * (np.nan if not T._check_enabled else scale)

    with np.errstate(invalid="ignore"), pytest.raises(error) as raised:
        T.checked(f)
    assert str(raised.value) == message
    assert runs == [False, True]
