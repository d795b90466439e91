"""Tape ops that only the tests use: subtraction, division, negation, scalar
power, exp and log, for reference compositions of the fused nodes and for
error-path tests. Each records one tape node under its own op name and keeps
the per-op finite check, like the ops of ``rgbtseg.tensor``.

Not collected by pytest (no ``test_`` prefix); import it as ``ref_ops``.
"""

import numpy as np

from rgbtseg.tensor import Tensor, _unbroadcast


def sub(a, b) -> Tensor:
    a, b = Tensor._coerce(a), Tensor._coerce(b)
    data = a.data - b.data

    def backward(g, acc):
        if a.requires_grad:
            acc(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            acc(b, _unbroadcast(-g, b.shape))

    return Tensor._from_op(data, (a, b), backward, "sub")


def div(a, b) -> Tensor:
    a, b = Tensor._coerce(a), Tensor._coerce(b)
    data = a.data / b.data

    def backward(g, acc):
        if a.requires_grad:
            acc(a, _unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            acc(b, _unbroadcast(-g * a.data / (b.data ** 2), b.shape))

    return Tensor._from_op(data, (a, b), backward, "div")


def neg(x) -> Tensor:
    x = Tensor._coerce(x)

    def backward(g, acc):
        acc(x, -g)

    return Tensor._from_op(-x.data, (x,), backward, "neg")


def pow(x, exponent: float) -> Tensor:
    if not isinstance(exponent, (int, float)):
        raise TypeError("only scalar exponents are supported")
    x = Tensor._coerce(x)
    data = x.data ** exponent

    def backward(g, acc):
        acc(x, g * exponent * x.data ** (exponent - 1))

    return Tensor._from_op(data, (x,), backward, "pow")


def exp(x) -> Tensor:
    x = Tensor._coerce(x)
    data = np.exp(x.data)

    def backward(g, acc):
        acc(x, g * data)

    return Tensor._from_op(data, (x,), backward, "exp")


def log(x) -> Tensor:
    x = Tensor._coerce(x)
    data = np.log(x.data)

    def backward(g, acc):
        acc(x, g / x.data)

    return Tensor._from_op(data, (x,), backward, "log")
