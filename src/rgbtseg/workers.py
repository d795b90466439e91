"""Worker processes: the BLAS thread count they start with, and a persistent
set of spawned processes that each serve one end of a pipe.

A BLAS library reads ``THREAD_VARS`` when it loads, so a worker started
inside ``one_blas_thread`` runs one BLAS thread, while the process that
started it keeps its own count. One BLAS thread gives bitwise the results
of the default count (``tests/test_threads.py``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager

# the variables that set the thread count of the BLAS libraries numpy may load
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def one_blas_thread():
    """Set every ``THREAD_VARS`` variable to 1, then restore each, unsetting
    those that were unset. A BLAS library reads them when it loads, so this
    pins the processes started inside the block, not the running one."""
    saved = {k: os.environ.get(k) for k in THREAD_VARS}
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


class Workers:
    """``count`` spawned processes, each running ``target(conn)`` on its end
    of a duplex pipe. ``target`` must be importable by name, and should
    return when its ``conn.recv()`` raises EOFError. The workers are
    daemonic, so none outlives the interpreter, and start no processes.

    Talk to them only inside ``exchange``: it yields this process's end of
    each pipe, first starting the workers in ``one_blas_thread`` if there
    are none. A worker that dies there raises ``ChildProcessError`` naming
    ``what``; any exception that leaves the block ends every worker (a pipe
    may hold half a message), and the next exchange starts new ones."""

    def __init__(self, target, count: int, what: str):
        self.target, self.count, self.what = target, count, what
        self.procs, self.conns = [], []

    @contextmanager
    def exchange(self):
        if not self.procs:
            # imported here, not with the module: importing multiprocessing
            # adds about 1.3 MB of RSS to processes that start no worker (infer)
            import multiprocessing
            ctx = multiprocessing.get_context("spawn")
            procs, conns = [], []
            with one_blas_thread():
                for _ in range(self.count):
                    ours, theirs = ctx.Pipe()
                    proc = ctx.Process(target=self.target, args=(theirs,), daemon=True)
                    proc.start()
                    theirs.close()
                    procs.append(proc)
                    conns.append(ours)
            self.procs, self.conns = procs, conns  # a failed start leaves none
        try:
            yield self.conns
        except (EOFError, OSError) as e:
            from multiprocessing.connection import wait
            procs = self.procs
            ended = wait([p.sentinel for p in procs], timeout=1.0)
            self.close()  # joins them, so that each ended one has its exit code
            codes = [p.exitcode for p in procs if p.sentinel in ended]
            cause = f"exit code {codes[0]}" if codes else f"{type(e).__name__}: {e}"
            raise ChildProcessError(f"a {self.what} worker process died ({cause})") from None
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        for proc, conn in zip(self.procs, self.conns):
            proc.terminate()
            proc.join()
            conn.close()
        self.procs, self.conns = [], []
