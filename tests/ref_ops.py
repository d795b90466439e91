"""Tape ops that only the tests use: subtraction, division, negation, scalar
power, exp and log, for reference compositions of the fused nodes and for
error-path tests. Each records one tape node under its own op name, saves only
what its backward reads and keeps the per-op finite check, like the ops of
``rgbtseg.tensor``.

Not collected by pytest (no ``test_`` prefix); import it as ``ref_ops``.
"""

import numpy as np

from rgbtseg.tensor import Tensor, _grad_node, _unbroadcast


def sub(a, b) -> Tensor:
    a, b = Tensor._coerce(a), Tensor._coerce(b)
    data = a.data - b.data
    an, bn = _grad_node(a), _grad_node(b)
    a_shape, b_shape = a.shape, b.shape

    def backward(g, acc):
        if an is not None:
            acc(an, _unbroadcast(g, a_shape))
        if bn is not None:
            acc(bn, _unbroadcast(-g, b_shape))

    return Tensor._from_op(data, (an, bn), backward, "sub")


def div(a, b) -> Tensor:
    a, b = Tensor._coerce(a), Tensor._coerce(b)
    data = a.data / b.data
    an, bn = _grad_node(a), _grad_node(b)
    a_shape, b_shape = a.shape, b.shape
    a_data = a.data if bn is not None else None
    b_data = b.data

    def backward(g, acc):
        if an is not None:
            acc(an, _unbroadcast(g / b_data, a_shape))
        if bn is not None:
            acc(bn, _unbroadcast(-g * a_data / (b_data ** 2), b_shape))

    return Tensor._from_op(data, (an, bn), backward, "div")


def neg(x) -> Tensor:
    x = Tensor._coerce(x)
    node = _grad_node(x)

    def backward(g, acc):
        acc(node, -g)

    return Tensor._from_op(-x.data, (node,), backward, "neg")


def pow(x, exponent: float) -> Tensor:
    if not isinstance(exponent, (int, float)):
        raise TypeError("only scalar exponents are supported")
    x = Tensor._coerce(x)
    node = _grad_node(x)
    x_data = x.data
    data = x_data ** exponent

    def backward(g, acc):
        acc(node, g * exponent * x_data ** (exponent - 1))

    return Tensor._from_op(data, (node,), backward, "pow")


def exp(x) -> Tensor:
    x = Tensor._coerce(x)
    node = _grad_node(x)
    data = np.exp(x.data)

    def backward(g, acc):
        acc(node, g * data)

    return Tensor._from_op(data, (node,), backward, "exp")


def log(x) -> Tensor:
    x = Tensor._coerce(x)
    node = _grad_node(x)
    x_data = x.data

    def backward(g, acc):
        acc(node, g / x_data)

    return Tensor._from_op(np.log(x_data), (node,), backward, "log")
