"""Training loop and evaluation.

A training step's gradient is the sum of two half-batch gradients, always
added in the same order: that of the batch's first ceil(B/2) samples, then
that of the rest. Within a half, samples of equal image size are stacked
into [n, H, W, ·] arrays and run as one forward and loss, weighted by their
share of the whole batch, which keeps the objective the mean of the
per-sample losses; each half then runs one backward.

Where the process may use two CPUs and is not itself a daemonic process,
the halves run at once in two persistent spawned workers with one BLAS
thread each (``_serve``); otherwise they run in turn in the caller. Both give
bitwise the same gradient: a leaf takes exactly one deposit per
``backward``, so the second backward in turn adds the second half's array to
the first's, which is the sum the caller forms from the workers' two. The
caller keeps the only optimizer and the only authoritative parameters. Each
step it sends each worker its half's samples and the flat trainable
parameters, and receives the half's loss, confusion counts and flat
gradient. The workers pay off only where two host cores are free to run
them; README's Training section has the measurements.
"""

from __future__ import annotations

import ctypes
import math
import os
import signal
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import TrainConfig
from .data import RgbtSample
from .losses import total_loss
from .metrics import IouAccumulator
from .model import RgbtSegModel
from .optim import AdamW, check_frozen
from .params import ParamRegistry
from .prompts import ClassVocabulary
from .tensor import NumericError, Tensor, checked
from .workers import Workers

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@dataclass
class StepRecord:
    step: int
    loss: float
    miou: float


def _keep_freed_heap() -> None:
    """Keep freed memory in the heap for the next training step.

    By default glibc serves large arrays with fresh mmaps and trims the heap
    top, so each step gives its buffers back to the kernel and faults the
    same pages in again. Fixed thresholds (mmap above 64 MiB, trim above
    128 MiB) stop that. Not done at import, because inference does not need
    it: freeing the block a checkpoint is read into raises glibc's dynamic
    mmap threshold above a predict's arrays, so after a checkpoint load a
    64×64 predict takes 0 page faults (about 400 in a process that has loaded
    no checkpoint), and setting the thresholds before the load raised the
    peak RSS of loading a checkpoint and predicting from 44.3 to 46.1 MB.
    Skipped where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 64 << 20)
    mallopt(_M_TRIM_THRESHOLD, 128 << 20)


def _batch_loss(model: RgbtSegModel, vocab: ClassVocabulary,
                groups: list[list[RgbtSample]], cfg: TrainConfig,
                acc: IouAccumulator) -> Tensor:
    """The loss of a half: one forward and loss per group of equally sized
    samples, each weighted by its share of the whole batch."""
    loss = None
    for group in groups:
        labels = np.stack([s.labels for s in group])
        out = model.forward(np.stack([s.rgb for s in group]),
                            np.stack([s.thermal for s in group]), vocab)
        term = total_loss(out.logits, labels, cfg.lambda_dice)
        term = term * (len(group) / cfg.batch)
        loss = term if loss is None else loss + term
        acc.update(np.argmax(out.logits.data, axis=-1), labels)
    return loss


def _half_gradient(model: RgbtSegModel, vocab: ClassVocabulary,
                   half: list[RgbtSample], cfg: TrainConfig) -> tuple[float, np.ndarray]:
    """Run a half's forward and loss through ``tensor.checked``, keeping the
    tape, and its backward, which adds the half's gradient to every leaf's
    ``grad``. Returns the half's loss and confusion counts. Raises
    ``FreezeViolationError`` if a frozen parameter received a gradient."""
    by_shape: dict[tuple, list[RgbtSample]] = {}
    for s in half:
        by_shape.setdefault(s.shapes, []).append(s)
    acc = IouAccumulator(vocab.num_classes)
    loss = checked(partial(_batch_loss, model, vocab, list(by_shape.values()), cfg, acc),
                   tape=True)
    loss.backward()
    check_frozen(model.registry)
    return loss.item(), acc.counts


def _views(flat: np.ndarray, tensors: list[Tensor]) -> list[np.ndarray]:
    """Consecutive views of ``flat``, each shaped as one of ``tensors``."""
    out, start = [], 0
    for t in tensors:
        out.append(flat[start:start + t.size].reshape(t.shape))
        start += t.size
    return out


def _serve(conn) -> None:
    """A step worker: serve the requests of ``_gradient_in_workers`` on
    ``conn`` until the caller closes it, keeping one model per config.

    ``("run", run_cfg, cfg, vocab, state, err)`` loads ``state`` into the
    model of ``run_cfg``, which checks every frozen digest, and sets numpy's
    error handling to ``err``; the reply is None or the exception. ``("step",
    half)``, followed by the flat trainable parameters, computes the half's
    gradient at them; the reply is (exception or None, loss, counts,
    warnings), followed, without an exception, by the flat gradient. The
    Python warnings of a step are recorded, to be issued by the caller."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the caller's
    _keep_freed_heap()
    models: dict[str, RgbtSegModel] = {}
    while True:
        try:
            request = conn.recv()
        except EOFError:
            return
        if request[0] == "run":
            _, run_cfg, cfg, vocab, state, err = request
            try:
                key = run_cfg.to_json()
                if key not in models:
                    models[key] = RgbtSegModel(run_cfg)
                model = models[key]
                model.load_state(state)
                np.seterr(**err)
            except Exception as e:
                conn.send(e)
                continue
            trainable = [p for _, p in model.registry.trainable()]
            params = np.empty(sum(p.size for p in trainable))
            grad = np.empty_like(params)
            param_views, grad_views = _views(params, trainable), _views(grad, trainable)
            conn.send(None)
            continue
        conn.recv_bytes_into(params)
        for p, view in zip(trainable, param_views):
            p.data[...] = view
        model.registry.zero_grad()
        error, loss, counts = None, None, None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                loss, counts = _half_gradient(model, vocab, request[1], cfg)
            except Exception as e:
                error = e
        conn.send((error, loss, counts,
                   [(w.message, w.category, w.filename, w.lineno) for w in caught]))
        if error is None:
            for p, view in zip(trainable, grad_views):
                view[...] = 0.0 if p.grad is None else p.grad
            conn.send_bytes(grad)


_workers: Workers | None = None  # the step workers, started by the first train that needs them

# where the workers' warnings are issued again, so that each is shown once
# as the "default" action shows a warning of the caller's own
_reissued: dict = {}


def _use_workers() -> bool:
    """Whether a step's halves run in the step workers: on at least two usable
    CPUs, in a process that may start processes (a daemonic one may not)."""
    import multiprocessing  # see Workers.__init__
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # no affinity masks here
        cpus = os.cpu_count() or 1
    return cpus >= 2 and not multiprocessing.current_process().daemon


def _gradient_in_turn(model: RgbtSegModel, vocab: ClassVocabulary, cfg: TrainConfig):
    """The step gradient in this process: each half's backward in turn."""
    return lambda halves: [_half_gradient(model, vocab, h, cfg) for h in halves]


def _gradient_in_workers(model: RgbtSegModel, vocab: ClassVocabulary, cfg: TrainConfig):
    """The step gradient from the step workers, one half each. The returned
    function sets each trainable parameter's ``grad`` to its part of the sum
    of the halves' flat gradients and returns each half's (loss, counts). A
    worker's exception is raised again here, after its half's warnings and
    those of the halves before it, as the halves in turn would raise it."""
    global _workers
    if _workers is None or _workers.closed:
        _workers = Workers(_serve, 2, "training step")
    trainable = [p for _, p in model.registry.trainable()]
    params = np.empty(sum(p.size for p in trainable))
    rows = np.empty((2, params.size))
    total = np.empty_like(params)
    total_views = _views(total, trainable)
    run = ("run", model.cfg, cfg, vocab, model.state_dict(), np.geterr())
    with _workers.exchange() as conns:
        for conn in conns:
            conn.send(run)
        errors = [conn.recv() for conn in conns]
    for error in errors:
        if error is not None:
            raise error

    def gradient(halves):
        np.concatenate([p.data.ravel() for p in trainable], out=params)
        with _workers.exchange() as conns:
            for conn, half in zip(conns, halves):
                conn.send(("step", half))
                conn.send_bytes(params)
            replies = []
            for conn, row in zip(conns, rows[:len(halves)]):
                replies.append(conn.recv())
                if replies[-1][0] is None:
                    conn.recv_bytes_into(row)
        for error, _, _, caught in replies:
            for message, category, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno,
                                       registry=_reissued)
            if error is not None:
                raise error
        if len(halves) == 2:
            np.add(rows[0], rows[1], out=total)
        else:
            total[...] = rows[0]
        for p, view in zip(trainable, total_views):
            p.grad = view
        return [(loss, counts) for _, loss, counts, _ in replies]

    return gradient


def _gradient_error(registry: ParamRegistry) -> str | None:
    """The error for the first trainable parameter whose gradient is not
    finite or whose squared norm overflows, which would turn AdamW's second
    moment into inf and freeze the parameter; None when every gradient is
    usable. The squared norm is NaN or inf in both cases."""
    for name, p in registry.trainable():
        if p.grad is not None and not math.isfinite(np.vdot(p.grad, p.grad)):
            if np.isfinite(p.grad).all():
                return (f"gradient overflow on parameter '{name}': its squared "
                        "norm exceeds the float64 range")
            return f"non-finite gradient on parameter '{name}'"
    return None


def train(model: RgbtSegModel, vocab: ClassVocabulary, samples: list[RgbtSample],
          cfg: TrainConfig, log_fn=None) -> list[StepRecord]:
    """Seeded training run; returns one record per step (the sum of the
    halves' losses, and the batch mIoU from their merged counts, NaN for a
    batch whose every pixel is ignored).

    Batches are drawn by epoch-wise seeded shuffles. Each half runs its
    forward and loss through ``tensor.checked``, keeping the tape, then
    backpropagates; every trainable gradient of the sum is checked once,
    before the optimizer moves anything: a gradient that is not finite, or
    whose square overflows, raises ``NumericError`` naming its parameter. On
    any abort the parameters and the optimizer state are left as the
    previous step left them. A batch with no labelled pixel has no loss to
    descend, so its step leaves them as they are too: AdamW's weight and
    moment decay do not run.

    Raises ``ValueError`` for an empty ``samples``, and
    ``ChildProcessError`` if a step worker dies; the next call starts new
    ones.
    """
    if not samples:
        raise ValueError("no training samples")
    _keep_freed_heap()
    opt = AdamW(model.registry, lr=cfg.lr, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)
    order: list[int] = []
    history: list[StepRecord] = []
    mid = math.ceil(cfg.batch / 2)
    make = _gradient_in_workers if cfg.steps and _use_workers() else _gradient_in_turn
    gradient = make(model, vocab, cfg)

    for step in range(cfg.steps):
        while len(order) < cfg.batch:
            order.extend(rng.permutation(len(samples)).tolist())
        idx, order = order[:cfg.batch], order[cfg.batch:]
        halves = [[samples[i] for i in part] for part in (idx[:mid], idx[mid:]) if part]

        opt.zero_grad()
        try:
            results = gradient(halves)
            bad = _gradient_error(model.registry)
            if bad is not None:
                raise NumericError(bad)
        except BaseException:
            opt.zero_grad()
            raise
        acc = IouAccumulator(vocab.num_classes)
        for _, counts in results:
            acc.counts += counts
        if acc.counts.any():  # else every pixel of the batch is ignored
            opt.step()
        opt.zero_grad()

        rec = StepRecord(step=step, loss=sum(loss for loss, _ in results), miou=acc.miou())
        history.append(rec)
        if log_fn is not None:
            log_fn(rec)
    return history


@dataclass
class SplitResult:
    split: str
    per_class: np.ndarray
    miou: float
    num_samples: int


def evaluate(model: RgbtSegModel, vocab: ClassVocabulary,
             samples: list[RgbtSample]) -> dict[str, SplitResult]:
    """Per-split metric tables; splits come from the samples' tags, plus an
    'overall' row aggregating everything, whose integer counts are the sum of
    the splits'. A split with no labelled pixel scores every class absent and
    an mIoU of NaN.

    Raises ``ValueError``, before the first predict, for an empty ``samples``
    or a sample tagged 'overall' (that row would overwrite its split's).
    """
    if not samples:
        raise ValueError("no samples to evaluate")
    if any(s.split == "overall" for s in samples):
        raise ValueError("split tag 'overall' is reserved for the row over all "
                         "splits; retag those samples")
    accs: dict[str, IouAccumulator] = {}
    counts: dict[str, int] = {}
    for s in samples:
        pred = model.predict(s.rgb, s.thermal, vocab)
        acc = accs.setdefault(s.split, IouAccumulator(vocab.num_classes))
        acc.update(pred, s.labels)
        counts[s.split] = counts.get(s.split, 0) + 1
    overall = IouAccumulator(vocab.num_classes)
    for acc in accs.values():
        overall.counts += acc.counts
    results = {
        split: SplitResult(split, acc.iou(), acc.miou(), counts[split])
        for split, acc in accs.items()
    }
    results["overall"] = SplitResult("overall", overall.iou(), overall.miou(),
                                     len(samples))
    return results
