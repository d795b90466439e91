"""Autodiff core: forward oracles, backward correctness on small graphs,
broadcasting, and error behavior; and the test-only ops of ``ref_ops``."""

import ast
import math
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import ref_ops
from rgbtseg import tensor as T
from rgbtseg.gradcheck import gradcheck
from rgbtseg.tensor import NumericError, ShapeError, Tensor


def test_add_mul_forward():
    a = Tensor(np.array([1.0, 2.0]))
    b = Tensor(np.array([3.0, 4.0]))
    assert np.array_equal((a + b).data, [4.0, 6.0])
    assert np.array_equal((a * b).data, [3.0, 8.0])


def test_scalar_chain_backward():
    x = Tensor(np.array(3.0), requires_grad=True)
    y = (x * x + 2.0 * x + 1.0)  # (x+1)^2, dy/dx = 2x+2 = 8
    y.backward()
    assert x.grad is not None
    assert np.allclose(x.grad, 8.0)


def test_broadcast_backward_unbroadcasts():
    a = Tensor(np.ones((3, 4)), requires_grad=True)
    b = Tensor(np.ones(4), requires_grad=True)
    (a + b).sum().backward()
    assert a.grad.shape == (3, 4)
    assert b.grad.shape == (4,)
    assert np.array_equal(b.grad, np.full(4, 3.0))


def test_matmul_forward_and_grad():
    rng = np.random.default_rng(1)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    out = T.matmul(a, b)
    assert np.allclose(out.data, a.data @ b.data)
    out.sum().backward()
    ones = np.ones((2, 4))
    assert np.allclose(a.grad, ones @ b.data.T)
    assert np.allclose(b.grad, a.data.T @ ones)


def test_batched_matmul_shape():
    a = Tensor(np.ones((5, 2, 3)))
    b = Tensor(np.ones((5, 3, 4)))
    assert T.matmul(a, b).shape == (5, 2, 4)


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))


def _attention_weights(q: np.ndarray, k: np.ndarray, scale: float) -> np.ndarray:
    """One-head attention softmax weights: with the identity as values, each
    output row is that query's weights over the keys."""
    return T.attention(Tensor(q), Tensor(k), Tensor(np.eye(len(k))), 1, scale).data


def test_softmax_rows_sum_to_one():
    # scores of about 1e3 must not overflow the attention softmax
    rng = np.random.default_rng(2)
    s = _attention_weights(rng.normal(size=(3, 4)), rng.normal(size=(7, 4)), 1e3)
    assert s.shape == (3, 7)
    assert np.isfinite(s).all() and (s >= 0).all()
    assert np.allclose(s.sum(axis=-1), 1.0)


def test_softmax_shift_invariance():
    # an extra feature, 1 on every query and 1000 on every key, adds 1000
    # to each score of a row alike; the attention weights must not move
    rng = np.random.default_rng(3)
    q, k = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
    a = _attention_weights(q, k, 1.0)
    b = _attention_weights(np.hstack([q, np.ones((4, 1))]),
                           np.hstack([k, np.full((5, 1), 1000.0)]), 1.0)
    assert np.allclose(a, b)


def test_unary_op_oracles():
    x = np.linspace(-2.0, 2.0, 9)
    t = Tensor(x)
    assert np.allclose(T.relu(t).data, np.maximum(x, 0.0))
    assert np.allclose(T.sigmoid(t).data, 1.0 / (1.0 + np.exp(-x)))


EXTREMES = [1e200, -1e200, 1e3, -1e3, 40.0, -40.0, 3.0, -3.0, 1e-8, -1e-8, 0.0]


def _value_and_slope(op, xs):
    """``op`` and its derivative at each of ``xs``, with every numpy warning
    (overflow, invalid) raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = Tensor(np.array(xs), requires_grad=True)
        y = op(x)
        y.sum().backward()
    assert np.isfinite(y.data).all() and np.isfinite(x.grad).all()
    return y.data, x.grad


def test_gelu_is_the_tanh_form_and_finite_at_extremes():
    k = math.sqrt(2.0 / math.pi)
    value, slope = _value_and_slope(T.gelu, EXTREMES)
    for x, got, dgot in zip(EXTREMES, value, slope):
        t = math.tanh(k * (x + 0.044715 * (x * x * x)))  # x³ = inf at 1e200: t = ±1
        ref = 0.5 * x * (1.0 + t)
        assert abs(got - ref) <= 4 * math.ulp(ref), x
        if abs(x) < 1e100:  # beyond, x² overflows and 0·inf is NaN in the reference
            dref = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * k * (1.0 + 3 * 0.044715 * x * x)
            assert math.isclose(dgot, dref, rel_tol=1e-12), x
    assert slope[0] == 1.0 and slope[1] == 0.0


def test_gelu_saves_only_its_derivative():
    rng = np.random.default_rng(4)
    xs = np.concatenate([rng.normal(0.0, 3.0, 64), EXTREMES])
    x = Tensor(xs, requires_grad=True)
    y = T.gelu(x)
    saved = [c.cell_contents for c in y._node._backward.__closure__
             if isinstance(c.cell_contents, np.ndarray)]
    assert len(saved) == 1
    g = rng.normal(size=xs.shape)
    (y * Tensor(g)).sum().backward()
    # reference: the derivative formed in backward from the clipped input u
    # and the tanh t
    u = np.clip(xs, -T._GELU_CLIP, T._GELU_CLIP)
    t = np.tanh((u * u * u * T._GELU_C + u) * T._GELU_K)
    half_dz = u * u * T._GELU_HALF_3KC + T._GELU_HALF_K
    assert np.array_equal(x.grad, ((1.0 - t) * u * half_dz + 0.5) * (1.0 + t) * g)


def test_sigmoid_saturates_exactly_without_overflow():
    value, _ = _value_and_slope(T.sigmoid, EXTREMES)
    for x, got in zip(EXTREMES, value):
        ref = (1.0 / (1.0 + math.exp(-x)) if x >= 0
               else math.exp(x) / (1.0 + math.exp(x)))
        assert abs(got - ref) <= 4 * math.ulp(ref), x
    assert value[2] == 1.0 and value[3] == 0.0  # sigmoid(±1e3)


def test_reshape_transpose_concat_round_trip():
    x = np.arange(24.0).reshape(2, 3, 4)
    t = Tensor(x)
    assert np.array_equal(t.reshape(6, 4).data, x.reshape(6, 4))
    assert np.array_equal(t.transpose(2, 0, 1).data, x.transpose(2, 0, 1))
    c = T.concat([Tensor(x), Tensor(x)], axis=0)
    assert c.shape == (4, 3, 4)


def test_mean_sum_keepdims():
    x = Tensor(np.arange(12.0).reshape(3, 4))
    assert x.sum().item() == 66.0
    assert np.array_equal(x.mean(axis=0, keepdims=True).data,
                          np.arange(12.0).reshape(3, 4).mean(0, keepdims=True))


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(Exception):
        (x * 2).backward()


def test_backward_releases_tape():
    x = Tensor(np.array(2.0), requires_grad=True)
    y = x * x
    y.backward()
    assert y._parents == ()


def test_backward_through_a_released_node_raises_naming_its_op():
    x = Tensor(np.ones(2), requires_grad=True)
    h = x * 2.0
    l1 = h.sum()
    l2 = (h * 3.0).sum()
    l1.backward()
    assert np.array_equal(x.grad, [2.0, 2.0])
    # the gradient through h is gone; none of l2's reaches x
    with pytest.raises(RuntimeError, match="op 'mul' a second time"):
        l2.backward()
    with pytest.raises(RuntimeError, match="op 'sum' a second time"):
        l1.backward()
    assert np.array_equal(x.grad, [2.0, 2.0])


def test_two_backwards_sharing_a_leaf_accumulate_into_its_grad():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    (x * 3.0).sum().backward()
    (x * x).sum().backward()
    assert np.array_equal(x.grad, [3.0 + 2.0, 3.0 - 4.0])


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s memory."""
    while a.base is not None:
        a = a.base
    return a


def test_frozen_linear_output_is_freed_when_the_caller_drops_it():
    rng = np.random.default_rng(0)
    bias = Tensor(rng.normal(size=5), requires_grad=True)
    y = T.linear(Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=(3, 5))))
    freed = weakref.ref(_owner(y.data))
    loss = (y + bias).sum()
    del y
    assert freed() is None
    loss.backward()
    assert np.array_equal(bias.grad, np.full(5, 4.0))


def test_trainable_linear_keeps_its_input_until_backward():
    rng = np.random.default_rng(1)
    w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    x = Tensor(rng.normal(size=(4, 3))) * 2.0
    x_data = x.data.copy()
    kept = weakref.ref(_owner(x.data))
    loss = T.linear(x, w).sum()
    del x
    assert kept() is not None
    loss.backward()
    assert kept() is None
    assert np.array_equal(w.grad, x_data.T @ np.ones((4, 5)))


def _every_op_loss(rng, params):
    """A loss through all of the model's ops; only ``params`` and the loss
    outlive the call."""
    w, w0, a, b, gamma, beta = params
    x = Tensor(rng.normal(size=(2, 5, 6)))
    h = T.gelu(T.linear(x, w)) + T.lora_linear(x, w0, Tensor(np.zeros(8)), a, b)
    h = T.attention(*[T.layer_norm(h, gamma, beta, 1e-6)] * 3, heads=2, scale=0.5)
    h = T.concat([T.relu(h), T.sigmoid(h)[:, ::-1]], axis=-1)
    h = T.matmul(h.reshape(10, 16), Tensor(rng.normal(size=(16, 3))))
    h = (h.transpose(1, 0) * 2.0).transpose(1, 0)
    onehot = np.eye(3)[rng.integers(0, 3, size=(2, 5))].transpose(2, 0, 1)
    return T.ce_dice(h.reshape(2, 5, 3), onehot, np.ones((2, 5)), 1.0, 0.5, 1.0) + h.sum()


def test_no_saved_array_survives_backward():
    rng = np.random.default_rng(2)
    params = [Tensor(rng.normal(size=s), requires_grad=True)
              for s in [(6, 8), (6, 8), (2, 6), (8, 2), (8,), (8,)]]
    params[1].requires_grad = False  # the frozen base weight of the LoRA projection
    loss = _every_op_loss(rng, params)
    held = {id(_owner(p.data)) for p in params}
    saved, ops, seen, stack = [], set(), set(), [loss._node]
    while stack:
        node = stack.pop()
        if isinstance(node, Tensor) or id(node) in seen:
            continue
        seen.add(id(node))
        ops.add(node._op)
        for cell in node._backward.__closure__ or ():
            value = cell.cell_contents
            # the only Tensors a closure holds are trainable leaves, which
            # are their own nodes
            assert not isinstance(value, Tensor) or any(
                value is p for p in node._parents), node._op
            if isinstance(value, np.ndarray) and id(_owner(value)) not in held:
                saved.append(weakref.ref(_owner(value)))
        stack.extend(node._parents)
    assert len(ops) == 16 and all(r() is not None for r in saved)
    loss.backward()
    assert [r() for r in saved if r() is not None] == []
    assert all(p.grad is not None for p in params if p.requires_grad)


def test_no_grad_deposited_on_constants():
    c = Tensor(np.ones(3))  # requires_grad False
    x = Tensor(np.ones(3), requires_grad=True)
    (c * x).sum().backward()
    assert c.grad is None
    assert np.array_equal(x.grad, np.ones(3))


def test_nan_raises_numeric_error():
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="op 'mul'"):
        Tensor(np.array([np.inf])) * 0.0


def test_only_the_tensor_module_refers_to_the_mode_switches():
    """``tensor.checked`` and ``no_grad`` are the one way to turn the tape or
    the per-op finite check off: no other module of the package names the
    switches or ``_mode`` in its code, so none can assign or open them."""
    switches = {"_grad_enabled", "_check_enabled", "_mode"}
    found = []
    for path in sorted(Path(T.__file__).parent.glob("*.py")):
        if path.name == "tensor.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in switches:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert not found


def test_reference_ops_match_numpy():
    a = Tensor(np.array([1.0, 2.0]))
    b = Tensor(np.array([3.0, 4.0]))
    assert np.array_equal(ref_ops.sub(a, b).data, [-2.0, -2.0])
    assert np.array_equal(ref_ops.sub(1.0, b).data, [-2.0, -3.0])
    assert np.allclose(ref_ops.div(a, b).data, [1 / 3, 0.5])
    assert np.array_equal(ref_ops.neg(a).data, [-1.0, -2.0])
    x = np.linspace(-2.0, 2.0, 9)
    assert np.allclose(ref_ops.exp(Tensor(x)).data, np.exp(x))
    pos = np.abs(x) + 0.5
    assert np.allclose(ref_ops.log(Tensor(pos)).data, np.log(pos))


def test_pow_grad():
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    ref_ops.pow(x, 3).sum().backward()
    assert np.allclose(x.grad, 3.0 * np.array([4.0, 9.0]))


# (op, number of operands) for each reference op; the last operand of div
# and log is kept at 0.5 or more, off the pole
REF_OP_CHECKS = {
    "sub": (ref_ops.sub, 2),
    "div": (ref_ops.div, 2),
    "neg": (ref_ops.neg, 1),
    "pow": (lambda a: ref_ops.pow(a * a + 1.0, -0.5), 1),
    "exp": (ref_ops.exp, 1),
    "log": (ref_ops.log, 1),
}


@pytest.mark.parametrize("name", list(REF_OP_CHECKS))
def test_reference_op_gradcheck(name):
    op, arity = REF_OP_CHECKS[name]
    rng = np.random.default_rng(0)
    for m, n in [(2, 3), (4, 4), (3, 5)]:  # the shapes of ``verify.op_checks``
        inputs = [rng.normal(size=(m, n)) for _ in range(arity)]
        if name in ("div", "log"):
            inputs[-1] = np.abs(inputs[-1]) + 0.5
        r = Tensor(rng.normal(size=(m, n)))
        report = gradcheck(lambda *t: (op(*t) * r).sum(),
                           [Tensor(x) for x in inputs], tol=1e-4)
        assert report.passed, (name, (m, n), report.max_rel_err)


def test_index_forward_matches_numpy():
    x = np.arange(24.0).reshape(2, 3, 4)
    t = Tensor(x)
    gather = (Ellipsis, np.array([3, 0, 3]))
    for index in (slice(1, None), gather, np.array([1, 1, 0])):
        assert np.array_equal(t[index].data, x[index])


def test_index_backward_accumulates_repeats():
    x = Tensor(np.arange(4.0), requires_grad=True)
    (x[np.array([0, 2, 0, 0])] * Tensor(np.array([1.0, 2.0, 3.0, 4.0]))).sum().backward()
    assert np.array_equal(x.grad, [8.0, 0.0, 2.0, 0.0])


@pytest.mark.parametrize("index", [
    (Ellipsis, np.array([2, 0, 3, 1])),
    (slice(None), slice(1, None, 2), 1),
    (1, slice(None), np.array([3, 1])),
    (Ellipsis, np.array([3, -1])),
    (Ellipsis, [0, 2, 0]),
], ids=["permutation", "basic", "int_and_array", "negative_alias", "repeat"])
def test_index_backward_equals_add_at(index):
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    r = rng.normal(size=x.data[index].shape)
    (x[index] * Tensor(r)).sum().backward()
    expected = np.zeros(x.shape)
    np.add.at(expected, index, r)
    assert np.array_equal(x.grad, expected)
