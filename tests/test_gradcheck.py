"""Finite-difference checker: catches wrong gradients, validates its own
preconditions."""

import numpy as np
import pytest

from ref_ops import log, sub
from rgbtseg import tensor as T
from rgbtseg.gradcheck import gradcheck
from rgbtseg.tensor import GradCheckError, NumericError, Tensor


def test_passes_on_smooth_function():
    x = Tensor(np.random.default_rng(0).normal(size=(4, 4)))
    report = gradcheck(lambda t: (T.sigmoid(t) * t).sum(), x)
    assert report.passed
    assert report.max_rel_err <= 1e-4


def test_size_one_output_that_is_not_0d():
    x = Tensor(np.random.default_rng(1).normal(size=(3,)))
    report = gradcheck(lambda t: (t * t).sum().reshape(1, 1), x)
    assert report.passed


def test_catches_wrong_gradient():
    y = Tensor(np.random.default_rng(2).normal(size=(3,)))

    def wrong_grad(t):
        # value is sum(x^2) + const, but only the linear term is on the graph,
        # so the analytic gradient is 1 while the numeric one is 2x
        return sub(Tensor(t.data ** 2).sum() + t.sum(), Tensor(t.data).sum())

    report = gradcheck(wrong_grad, y, eps=1e-5)
    assert not report.passed


def test_eps_must_be_positive():
    with pytest.raises(GradCheckError):
        gradcheck(lambda t: t.sum(), Tensor(np.ones(2)), eps=0.0)


def test_nondeterministic_f_rejected():
    rng = np.random.default_rng(3)

    def noisy(t):
        return (t * Tensor(rng.normal(size=t.shape))).sum()

    with pytest.raises(GradCheckError):
        gradcheck(noisy, Tensor(np.ones(3)))


def test_restores_requires_grad_flag():
    x = Tensor(np.ones(2))
    assert not x.requires_grad
    gradcheck(lambda t: (t * t).sum(), x)
    assert not x.requires_grad


def test_nan_gradient_fails():
    x = Tensor(np.random.default_rng(4).normal(size=(3,)))

    def nan_grad(t):
        out = (t * t).sum()
        node = out._node
        if node is not None:  # only the taped evaluation has a tape node
            inner = node._backward
            node._backward = lambda g, acc: inner(g * np.nan, acc)
        return out

    report = gradcheck(nan_grad, x)
    assert not report.passed
    assert report.max_rel_err == np.inf


def test_f_runs_with_the_tape_once():
    modes = []

    def f(t):
        modes.append(T._grad_enabled)
        return (t * t).sum()

    report = gradcheck(f, Tensor(np.ones(3)))
    assert report.passed
    # one taped evaluation, the determinism re-evaluation, two per coordinate
    assert modes.count(True) == 1
    assert len(modes) == 2 + 2 * 3


def test_nonfinite_only_at_plus_eps_names_the_op():
    eps = 1e-5
    x = Tensor(np.zeros(2))

    def f(t):  # log(eps/2 - t) is finite at t = 0 and t = -eps, NaN at t = eps
        return log(sub(Tensor(np.full(2, eps / 2)), t)).sum()

    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError, match="non-finite value produced by op 'log'"):
            gradcheck(f, x, eps=eps)
    assert np.array_equal(x.data, np.zeros(2))


@pytest.mark.parametrize("tape_free_scale", [3.0, np.nan],
                         ids=["finite", "nonfinite"])
def test_f_differing_without_the_tape_rejected(tape_free_scale):
    def f(t):
        return (t * (2.0 if T._grad_enabled else tape_free_scale)).sum()

    with pytest.raises(GradCheckError, match="not deterministic"):
        gradcheck(f, Tensor(np.ones(3)))


def _counted(fn, calls, key):
    def counted(*args):
        calls[key] = calls.get(key, 0) + 1
        return fn(*args)
    return counted


def test_evaluator_i_runs_only_for_input_i():
    def f(a, b):
        return (a * a).sum() + (b * b * b).sum()

    calls = {}
    a, b = Tensor(np.ones(2)), Tensor(np.full(3, 0.5))
    report = gradcheck(_counted(f, calls, "f"), [a, b],
                       evaluators=[_counted(f, calls, "a"), _counted(f, calls, "b")])
    assert report.passed and report.checked_coords == 5
    # the taped evaluation uses f; each evaluator is checked once at the
    # starting point, then runs two evaluations per coordinate of its input
    assert calls == {"f": 1, "a": 1 + 2 * 2, "b": 1 + 2 * 3}


def test_evaluator_shared_by_inputs_is_checked_once():
    def f(a, b):
        return (a * b).sum()

    calls = {}
    ev = _counted(f, calls, "ev")
    gradcheck(f, [Tensor(np.ones(2)), Tensor(np.ones(2))], evaluators=[ev, ev])
    assert calls == {"ev": 1 + 2 * 4}


def test_evaluator_differing_from_f_at_the_start_rejected():
    def f(t):
        return (t * t).sum()

    with pytest.raises(GradCheckError, match="evaluator differs from f"):
        gradcheck(f, Tensor(np.ones(3)), evaluators=[lambda t: f(t) + 1e-12])


def test_evaluator_nonfinite_at_plus_eps_names_the_op():
    eps = 1e-5
    x = Tensor(np.zeros(2))

    def ev(t):  # finite at t = 0 and t = -eps, NaN at t = eps
        return log(sub(Tensor(np.full(2, eps / 2)), t)).sum()

    def f(t):  # the same value at t = 0, finite everywhere
        return (t * 0.0).sum() + float(np.log(eps / 2)) * 2

    assert ev(x).item() == f(x).item()
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError, match="non-finite value produced by op 'log'"):
            gradcheck(f, x, eps=eps, evaluators=[ev])
    assert np.array_equal(x.data, np.zeros(2))


def test_evaluator_list_of_the_wrong_length_rejected():
    def f(a, b):
        return (a * b).sum()

    with pytest.raises(GradCheckError, match="1 evaluators for 2 inputs"):
        gradcheck(f, [Tensor(np.ones(2)), Tensor(np.ones(2))], evaluators=[f])
