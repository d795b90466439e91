"""Span tracer and counters for the traced benchmark run.

The tracer wraps public entry points of ``rgbtseg`` from outside the package:
``install`` swaps each listed function or method for a wrapper that records a
span (name, operation id, parent span, start, end) and ``uninstall`` puts the
originals back. Spans stay in memory until ``write`` dumps them as JSON lines.

A layer's self time is its span's duration minus the durations of its direct
child spans. One operation (a training step, one predicted image, one
gradcheck suite) is a root span opened by the benchmark; every span and
counter recorded inside it carries the operation's id. Work done before the
first operation (imports, data and checkpoint load, model build) has id 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

SETUP_OP = 0

# (module, attribute path, span name). Spans here feed the per-layer metrics
# "<span name>_ms". `layers` and `lora` run inside the encoder and decoder
# spans and are attributed to them.
SPANS = [
    ("rgbtseg.tensor", "Tensor.backward", "tensor.backward"),
    ("rgbtseg.encoder", "RgbtEncoder.forward", "encoder.forward"),
    ("rgbtseg.decoder", "MaskDecoder.two_way_transformer", "decoder.two_way"),
    ("rgbtseg.decoder", "MaskDecoder.upscale_masks", "decoder.upscale"),
    ("rgbtseg.decoder", "MaskDecoder.text_cross_attention", "decoder.text_attn"),
    ("rgbtseg.decoder", "MaskDecoder.class_logits", "decoder.class_logits"),
    ("rgbtseg.prompts", "PromptEncoder.encode_points", "prompts.encode"),
    ("rgbtseg.prompts", "PromptEncoder.positional_grid", "prompts.encode"),
    ("rgbtseg.losses", "total_loss", "losses.total_loss"),
    ("rgbtseg.optim", "AdamW.step", "optim.step"),
    ("rgbtseg.metrics", "IouAccumulator.update", "metrics.update"),
    ("rgbtseg.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("rgbtseg.data", "load_dataset", "data.load"),
    ("rgbtseg.model", "RgbtSegModel.__init__", "model.build"),
    ("rgbtseg.verify", "op_checks", "verify.op_checks"),
    ("rgbtseg.verify", "full_model_check", "verify.full_model"),
]

# Spans reported per call rather than per operation: they belong to set-up.
SETUP_SPANS = ("checkpoint.load", "data.load", "model.build")

# Root span of a training step; its self time is step time no layer covers.
TRAIN_STEP = "train.step"

# Bookkeeping the tracer itself does inside an operation (the tape walk).
# It is a child span so it is subtracted from its parent's self time.
WALK = "tracing.walk"


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def count_tape_nodes(root) -> int:
    """Distinct tensors reachable from ``root`` through the tape's parent links."""
    seen = set()
    stack = [root]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.extend(t._parents)
    return len(seen)


def matmul_flops(a_shape: tuple, b_shape: tuple) -> int:
    """Forward FLOPs of one numpy-semantics matmul, from operand shapes."""
    batch = math.prod(_broadcast(a_shape[:-2], b_shape[:-2]))
    return 2 * batch * a_shape[-2] * a_shape[-1] * b_shape[-1]


def _shape(x) -> tuple:
    return np.shape(getattr(x, "data", x))


def _broadcast(a: tuple, b: tuple) -> tuple:
    n = max(len(a), len(b))
    a = (1,) * (n - len(a)) + a
    b = (1,) * (n - len(b)) + b
    return tuple(max(x, y) for x, y in zip(a, b))


class Tracer:
    def __init__(self):
        # each span: [name, op, parent index or -1, start_ns, end_ns]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = SETUP_OP
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.last_forward = None
        self._originals: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.op, parent, time.perf_counter_ns(), 0])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter_ns()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def begin_op(self, name: str) -> int:
        """Start the next operation and open its root span."""
        if self._stack:
            raise RuntimeError("an operation starts while spans are open")
        self.op += 1
        return self.begin(name)

    def count(self, key: str, n: int = 1) -> None:
        self.counts[self.op][key] += n

    def count_tape(self, root) -> None:
        idx = self.begin(WALK)
        try:
            self.count("tape_nodes", count_tape_nodes(root))
        finally:
            self.end(idx)

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                idx = tracer.begin(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer.end(idx)
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)
        return traced

    def _counting_wrappers(self):
        """(module, attribute path, wrapper factory) for the counters."""
        tracer = self

        def matmul(fn):
            @functools.wraps(fn)
            def counted(a, b):
                out = fn(a, b)
                tracer.count("matmul_calls")
                tracer.count("matmul_flops", matmul_flops(_shape(a), _shape(b)))
                return out
            return counted

        def backward(fn):
            @functools.wraps(fn)
            def counted(self_tensor):
                tracer.count_tape(self_tensor)
                return fn(self_tensor)
            return counted

        def forward(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                tracer.count("forward_evals")
                tracer.last_forward = out
                return out
            return counted

        def load_checkpoint(fn):
            @functools.wraps(fn)
            def counted(path):
                tracer.count("checkpoint_bytes", os.path.getsize(path))
                return fn(path)
            return counted

        return [
            ("rgbtseg.tensor", "matmul", matmul),
            ("rgbtseg.tensor", "Tensor.backward", backward),
            ("rgbtseg.model", "RgbtSegModel.forward", forward),
            ("rgbtseg.checkpoint", "load_checkpoint", load_checkpoint),
        ]

    def _patch(self, module_name: str, path: str, make_wrapper) -> None:
        owner, attr = _resolve(module_name, path)
        original = getattr(owner, attr)
        wrapped = make_wrapper(original)
        targets = [(owner, attr)]
        if inspect.ismodule(owner):
            # modules that imported the function by name hold their own binding
            targets += [(m, name) for m_name, m in list(sys.modules.items())
                        if m_name.startswith("rgbtseg.") and m is not owner
                        for name, value in vars(m).items() if value is original]
        for target, name in targets:
            self._originals.append((target, name, getattr(target, name)))
            setattr(target, name, wrapped)

    def install(self) -> None:
        """Wrap every listed entry point."""
        for module_name, path, make_wrapper in self._counting_wrappers():
            self._patch(module_name, path, make_wrapper)
        for module_name, path, name in SPANS:
            self._patch(module_name, path,
                        lambda fn, name=name: self._span_wrapper(name, fn))

    def uninstall(self) -> None:
        for target, name, original in reversed(self._originals):
            setattr(target, name, original)
        self._originals.clear()

    # -- results ----------------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        child = [0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, _, _, start, end), c in zip(self.spans, child)]

    def per_layer(self, ops: set[int]) -> dict[str, float]:
        """Per-layer metrics over the operations ``ops``.

        Span metrics are mean self time per operation, except set-up spans,
        which are mean self time per call. Counts are per operation, except
        checkpoint bytes, which are per set-up.
        """
        n_ops = max(1, len(ops))
        per_op: dict[str, int] = defaultdict(int)
        setup: dict[str, list[int]] = defaultdict(list)
        for (name, op, *_), self_ns in zip(self.spans, self.self_times_ns()):
            if name in SETUP_SPANS:
                setup[name].append(self_ns)
            elif op in ops:
                per_op[name] += self_ns
        counts: dict[str, int] = defaultdict(int)
        for op in ops:
            for key, n in self.counts.get(op, {}).items():
                counts[key] += n

        out = {}
        for name in dict.fromkeys(name for _, _, name in SPANS):
            if name in SETUP_SPANS:
                calls = setup.get(name, [])
                out[f"{name}_ms"] = sum(calls) / max(1, len(calls)) / 1e6
            else:
                out[f"{name}_ms"] = per_op.get(name, 0) / n_ops / 1e6
        out["train.unattributed_ms"] = per_op.get(TRAIN_STEP, 0) / n_ops / 1e6
        out["tensor.tape_nodes"] = counts["tape_nodes"] / n_ops
        out["tensor.matmul_calls"] = counts["matmul_calls"] / n_ops
        out["tensor.matmul_gflop"] = counts["matmul_flops"] / n_ops / 1e9
        out["gradcheck.forward_evals"] = counts["forward_evals"] / n_ops
        out["checkpoint.bytes"] = self.counts.get(SETUP_OP, {}).get("checkpoint_bytes", 0)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, op, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "op": op, "parent": parent,
                                     "start_ns": start, "end_ns": end}) + "\n")
