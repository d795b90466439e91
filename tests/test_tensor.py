"""Autodiff core: forward oracles, backward correctness on small graphs,
broadcasting, and error behavior."""

import numpy as np
import pytest

from rgbtseg import tensor as T
from rgbtseg.tensor import NumericError, ShapeError, Tensor


def test_add_mul_forward():
    a = Tensor(np.array([1.0, 2.0]))
    b = Tensor(np.array([3.0, 4.0]))
    assert np.array_equal((a + b).data, [4.0, 6.0])
    assert np.array_equal((a * b).data, [3.0, 8.0])
    assert np.array_equal((a - b).data, [-2.0, -2.0])
    assert np.allclose((a / b).data, [1 / 3, 0.5])


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


def test_softmax_rows_sum_to_one():
    x = Tensor(np.random.default_rng(2).normal(size=(3, 7)) * 50)
    s = T.softmax(x, axis=-1).data
    assert np.allclose(s.sum(axis=-1), 1.0)
    assert (s >= 0).all()


def test_softmax_shift_invariance():
    x = np.random.default_rng(3).normal(size=(4, 5))
    a = T.softmax(Tensor(x), axis=-1).data
    b = T.softmax(Tensor(x + 1000.0), axis=-1).data
    assert np.allclose(a, b)


def test_unary_op_oracles():
    x = np.linspace(-2.0, 2.0, 9)
    t = Tensor(x)
    assert np.allclose(T.exp(t).data, np.exp(x))
    assert np.allclose(T.relu(t).data, np.maximum(x, 0.0))
    assert np.allclose(T.sigmoid(t).data, 1.0 / (1.0 + np.exp(-x)))
    pos = Tensor(np.abs(x) + 0.5)
    assert np.allclose(T.log(pos).data, np.log(pos.data))


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


def test_no_grad_deposited_on_constants():
    c = Tensor(np.ones(3))  # requires_grad False
    x = Tensor(np.ones(3), requires_grad=True)
    (c * x).sum().backward()
    assert c.grad is None
    assert np.array_equal(x.grad, np.ones(3))


def test_nan_raises_numeric_error():
    with pytest.raises(NumericError):
        T.log(Tensor(np.array([-1.0])))


def test_pow_grad():
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    (x ** 3).sum().backward()
    assert np.allclose(x.grad, 3.0 * np.array([4.0, 9.0]))


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
