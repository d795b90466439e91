"""Finite-difference verification of reverse-mode gradients.

``gradcheck`` compares ``backward()`` gradients against central differences
(f(x+eps*e) - f(x-eps*e)) / (2*eps) per coordinate. For large inputs a seeded
subset of coordinates can be sampled to keep runtime bounded; the comparison
itself is unchanged.

Only the first evaluation of ``f`` builds a tape and checks every op for NaN
and Inf, because ``backward()`` runs on it. Every other evaluation (the
determinism re-evaluation and the two per coordinate) runs under
``tensor.no_grad()`` and checks its scalar once; on a non-finite value it
replays ``f`` with the tape and the per-op check on, so the ``NumericError``
names the op. The determinism check compares a tape-free value with the taped
one bitwise, so it also pins that the two kinds of forward agree.

A caller that knows which part of ``f`` an input cannot influence passes one
evaluator per input: a function with ``f``'s value that skips that part, for
example by resuming a forward pass at the first stage reading the input from
stage inputs computed once. The finite differences of input i call evaluator
i; the taped evaluation and ``backward()`` still use ``f``. Each distinct
evaluator is evaluated once at the starting point and must equal the taped
value bitwise, so a shortcut that drifts from ``f`` raises ``GradCheckError``.

A non-finite analytic or numeric derivative scores an error of ``inf``, so
the check fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import GradCheckError, NumericError, Tensor, no_grad


@dataclass
class GradCheckReport:
    max_rel_err: float
    passed: bool
    tol: float
    checked_coords: int
    worst_input: int = 0
    per_input: list = field(default_factory=list)


def _rel_err(analytic: float, numeric: float) -> float:
    if not (math.isfinite(analytic) and math.isfinite(numeric)):
        return math.inf
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


def _value(f, inputs) -> float:
    """``f(*inputs)`` without a tape, as a finite float."""
    with no_grad():
        value = f(*inputs).item()
    if not math.isfinite(value):
        # the per-op check of the taped replay raises first and names the op
        if not math.isfinite(f(*inputs).item()):
            raise NumericError("non-finite value returned by f")
        raise GradCheckError("f is not deterministic: a tape-free evaluation "
                             "is non-finite, its taped replay finite")
    return value


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
    ``f`` at any evaluated point raises ``NumericError`` naming the op.

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
            if _value(ev, inputs) != loss.item():
                raise GradCheckError(
                    "f is not deterministic: repeated evaluation differs" if ev is f
                    else "an evaluator differs from f at the starting point")
        loss.backward()
        analytic = [
            np.zeros_like(t.data) if t.grad is None else np.array(t.grad)
            for t in inputs
        ]

        max_err = 0.0
        worst_input = 0
        per_input = []
        n_checked = 0
        for i, (t, ev) in enumerate(zip(inputs, evaluators)):
            flat = t.data.reshape(-1)
            n = flat.size
            if max_coords_per_input is not None and n > max_coords_per_input:
                coords = rng.choice(n, size=max_coords_per_input, replace=False)
            else:
                coords = range(n)
            input_err = 0.0
            for j in coords:
                orig = flat[j]
                try:
                    flat[j] = orig + eps
                    fp = _value(ev, inputs)
                    flat[j] = orig - eps
                    fm = _value(ev, inputs)
                finally:
                    flat[j] = orig
                numeric = (fp - fm) / (2.0 * eps)
                err = _rel_err(analytic[i].reshape(-1)[j], numeric)
                input_err = max(input_err, err)
                n_checked += 1
            per_input.append(input_err)
            if input_err > max_err:
                max_err = input_err
                worst_input = i
    finally:
        for t, flag in zip(inputs, saved_flags):
            t.requires_grad = flag
            t.grad = None

    return GradCheckReport(
        max_rel_err=max_err,
        passed=max_err <= tol,
        tol=tol,
        checked_coords=n_checked,
        worst_input=worst_input,
        per_input=per_input,
    )
