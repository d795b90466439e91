"""Finite-difference verification of reverse-mode gradients.

``gradcheck`` compares ``backward()`` gradients against central differences
(f(x+eps*e) - f(x-eps*e)) / (2*eps) per coordinate. For large inputs a seeded
subset of coordinates can be sampled to keep runtime bounded; the comparison
itself is unchanged.

Only the first evaluation of ``f`` builds a tape and checks every op for NaN
and Inf, because ``backward()`` runs on it. Every other evaluation (the
determinism re-evaluation and the two per coordinate) runs through
``tensor.checked`` without a tape. The determinism check compares such a
tape-free value with the taped one bitwise, so it also pins that the two
kinds of forward agree.

A caller that knows which part of ``f`` an input cannot influence passes one
evaluator per input: a function with ``f``'s value that skips that part, for
example by resuming a forward pass at the first stage reading the input from
stage inputs computed once. The finite differences of input i call evaluator
i; the taped evaluation and ``backward()`` still use ``f``. Each distinct
evaluator is evaluated once at the starting point and must equal the taped
value bitwise, so a shortcut that drifts from ``f`` raises ``GradCheckError``.

A non-finite analytic or numeric derivative scores an error of ``inf``, so
the check fails.

A check can be split over its inputs: check each part with ``rng`` advanced
past the earlier parts' ``draw_coords``, and ``join_reports`` builds from the
parts' reports the report of one check over all the inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .tensor import GradCheckError, Tensor, checked


@dataclass
class GradCheckReport:
    max_rel_err: float
    passed: bool
    tol: float
    checked_coords: int
    worst_input: int = 0
    per_input: list = field(default_factory=list)


def _report(per_input: list, checked_coords: int, tol: float) -> GradCheckReport:
    """The report of a check whose inputs scored ``per_input``: the worst
    input is the first with the largest error."""
    max_err = max(per_input, default=0.0)
    return GradCheckReport(
        max_rel_err=max_err,
        passed=max_err <= tol,
        tol=tol,
        checked_coords=checked_coords,
        worst_input=per_input.index(max_err) if per_input else 0,
        per_input=per_input,
    )


def join_reports(reports) -> GradCheckReport:
    """The report of one check over the inputs of ``reports``, in order, each
    at the coordinates its own check drew."""
    return _report([e for r in reports for e in r.per_input],
                   sum(r.checked_coords for r in reports), reports[0].tol)


def draw_coords(n: int, max_coords_per_input: int | None, rng: np.random.Generator):
    """The flat coordinates ``gradcheck`` checks of an input of ``n``
    elements: all of them, or ``max_coords_per_input`` drawn from ``rng``."""
    if max_coords_per_input is not None and n > max_coords_per_input:
        return rng.choice(n, size=max_coords_per_input, replace=False)
    return range(n)


def _rel_err(analytic: float, numeric: float) -> float:
    if not (math.isfinite(analytic) and math.isfinite(numeric)):
        return math.inf
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


def gradcheck(
    f,
    inputs,
    eps: float = 1e-5,
    tol: float = 1e-4,
    max_coords_per_input: int | None = None,
    rng: np.random.Generator | None = None,
    evaluators=None,
) -> GradCheckReport:
    """Check analytic gradients of scalar-valued ``f`` against central differences.

    ``inputs`` is a Tensor or a list of Tensors; each gets ``requires_grad``
    forced on for the duration of the check. ``f`` must be deterministic;
    a double-evaluation mismatch raises GradCheckError. A non-finite value of
    ``f`` at any evaluated point raises as ``tensor.checked`` says.

    ``evaluators``, if given, holds one function per input with ``f``'s
    signature; the finite differences of input i evaluate ``evaluators[i]``
    instead of ``f``. Each distinct evaluator must equal the taped ``f``
    bitwise at the starting point, or GradCheckError is raised.
    """
    if eps <= 0:
        raise GradCheckError(f"eps must be positive, got {eps}")
    if isinstance(inputs, Tensor):
        inputs = [inputs]
    if evaluators is None:
        evaluators = [f] * len(inputs)
    if len(evaluators) != len(inputs):
        raise GradCheckError(f"{len(evaluators)} evaluators for "
                             f"{len(inputs)} inputs")
    rng = rng or np.random.default_rng(0)

    saved_flags = [t.requires_grad for t in inputs]
    for t in inputs:
        t.requires_grad = True
        t.grad = None
    try:
        loss = f(*inputs)
        if not isinstance(loss, Tensor) or loss.size != 1:
            raise GradCheckError("f must return a scalar Tensor")
        for ev in dict.fromkeys(evaluators):  # each distinct evaluator once
            if checked(partial(ev, *inputs)).item() != loss.item():
                raise GradCheckError(
                    "f is not deterministic: repeated evaluation differs" if ev is f
                    else "an evaluator differs from f at the starting point")
        loss.backward()
        analytic = [
            np.zeros_like(t.data) if t.grad is None else np.array(t.grad)
            for t in inputs
        ]

        per_input = []
        n_checked = 0
        for i, (t, ev) in enumerate(zip(inputs, evaluators)):
            flat = t.data.reshape(-1)
            input_err = 0.0
            value = partial(ev, *inputs)
            for j in draw_coords(flat.size, max_coords_per_input, rng):
                orig = flat[j]
                try:
                    flat[j] = orig + eps
                    fp = checked(value).item()
                    flat[j] = orig - eps
                    fm = checked(value).item()
                finally:
                    flat[j] = orig
                numeric = (fp - fm) / (2.0 * eps)
                err = _rel_err(analytic[i].reshape(-1)[j], numeric)
                input_err = max(input_err, err)
                n_checked += 1
            per_input.append(input_err)
    finally:
        for t, flag in zip(inputs, saved_flags):
            t.requires_grad = flag
            t.grad = None
    return _report(per_input, n_checked, tol)
