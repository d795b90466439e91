"""rgbtseg benchmark: one workload, one seed, one run.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload train --seed 1 --seconds 35 --trace 0

Workloads: train, infer, infer-hires, gradcheck (see perfbench/README.md).
The run writes its inputs from ``--seed`` into ``.perfbench/``, starts the
workload in a child process (perfbench/workload.py), checks its outputs and
prints a table followed, as the last line, by one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of an untraced run. Set-up time
is the median over several fresh processes. ``--trace 1`` runs the workload
untraced and then traced for half the time each, and reports the per-layer
metrics of the traced half plus the tracing overhead.

Inputs and the fixture checkpoint of the infer workloads (trained once per
source version, about half a minute, cached under ``.perfbench/``) are made
by perfbench/inputs.py in a process of their own.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "ablation_7_full.json"
WORK = ROOT / ".perfbench"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("train", "infer", "infer-hires", "gradcheck")

# The workload-specific name each workload-neutral end-to-end metric stands
# for; the table prints it beside the metric.
WORKLOAD_NAMES = {
    "train": {"op_ms_p50": "step_ms_p50", "op_ms_p90": "step_ms_p90",
              "items_per_s": "train_samples_per_s"},
    "infer": {"op_ms_p50": "predict_ms_p50", "op_ms_p90": "predict_ms_p90",
              "items_per_s": "predict_images_per_s"},
    "gradcheck": {"op_ms_p50": "gradcheck_suite_s (x1000)"},
}
WORKLOAD_NAMES["infer-hires"] = WORKLOAD_NAMES["infer"]

# End-to-end metrics with a regression bound (BENCHMARK.json). The tail and
# throughput are printed too, but on a host whose speed drifts they spread
# too widely from run to run to gate a change on.
GATED = ("op_ms_p50", "setup_s", "peak_rss_mb")

SETUP_PROBES = 4       # extra processes that only set up, for setup_s
RUN_BUDGET_S = 170     # a run ends within this, fixture training aside
FIXTURE_BUDGET_S = 800


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def limit_blas_threads() -> int:
    """Cap every BLAS thread variable at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    n = nproc
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) >= 1:
            n = min(n, int(value))
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return nproc


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or None


def fixture_dir() -> Path:
    """Where the fixture checkpoint of this source version is cached."""
    h = hashlib.sha256()
    for path in sorted((SRC / "rgbtseg").glob("*.py")) + [CONFIG, HERE / "inputs.py"]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return WORK / f"fixture-{h.hexdigest()[:16]}"


# -- child processes --------------------------------------------------------------


def run_child(args: argparse.Namespace, work: Path, fixture_dir: Path | None,
              seconds: float, trace: int, deadline: float, tag: str,
              setup_only: bool = False, spans: Path | None = None) -> dict:
    out = work / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work", str(work), "--out", str(out)]
    if fixture_dir is not None:
        cmd += ["--fixture", str(fixture_dir)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before the workload started")
    cmd += ["--t0", repr(time.monotonic())]
    # subprocess.run kills and reaps the child on timeout or any exception
    proc = subprocess.run(cmd, cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def percentile(values: list[float], q: int) -> float:
    """Linear-interpolation percentile, as numpy's default."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setups: list[float], main: dict) -> dict:
    lat_ms = [x * 1000 for x in main["latencies_s"]]
    n = len(lat_ms)
    return {
        "op_ms_p50": (percentile(lat_ms, 50), "ms", n),
        "op_ms_p90": (percentile(lat_ms, 90), "ms", n),
        "items_per_s": (main["items_per_op"] * n / main["wall_s"], "1/s", n),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (main["peak_rss_mb"], "MB", 1),
    }


def per_layer(plain: dict, traced: dict) -> dict:
    units = {"tensor.tape_nodes": "count", "tensor.matmul_calls": "count",
             "tensor.matmul_gflop": "GFLOP", "checkpoint.bytes": "B",
             "gradcheck.forward_evals": "count"}
    n = len(traced["latencies_s"])
    metrics = {name: (value, units.get(name, "ms"), n)
               for name, value in traced["per_layer"].items()}
    overhead = (statistics.median(traced["latencies_s"]) /
                statistics.median(plain["latencies_s"]) - 1.0) * 100.0
    metrics["tracing.overhead_pct"] = (overhead, "%", n)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rgbtseg benchmark (one run)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")
    for path in (SRC / "rgbtseg" / "__init__.py", CONFIG):
        if not path.is_file():
            return fail(f"{path.relative_to(ROOT)} not found; "
                        "run from the root of an rgbtseg checkout")

    # a terminated run still kills and reaps its workload process (see run_child)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    nproc = limit_blas_threads()
    work = WORK / f"run-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    fixture = fixture_dir() if args.workload.startswith("infer") else None
    try:
        work.mkdir(parents=True)
        if args.workload != "gradcheck":
            cmd = [sys.executable, str(HERE / "inputs.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--work", str(work)]
            if fixture is not None:
                cmd += ["--fixture", str(fixture)]
            if subprocess.run(cmd, cwd=ROOT, timeout=FIXTURE_BUDGET_S).returncode != 0:
                raise RuntimeError("input generation failed")
        child = dict(args=args, work=work, fixture_dir=fixture,
                     deadline=time.monotonic() + RUN_BUDGET_S)
        if args.trace:
            half = args.seconds / 2
            plain = run_child(seconds=half, trace=0, tag="plain", **child)
            traced = run_child(seconds=half, trace=1, tag="traced",
                               spans=results / f"{label}.spans.jsonl", **child)
            children = [plain, traced]
            metrics = per_layer(plain, traced)
        else:
            setups = [run_child(seconds=args.seconds, trace=0, tag=f"setup{k}",
                                setup_only=True, **child)["setup_s"]
                      for k in range(SETUP_PROBES)]
            main_run = run_child(seconds=args.seconds, trace=0, tag="main", **child)
            setups.append(main_run["setup_s"])
            children = [main_run]
            metrics = end_to_end(setups, main_run)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {args.workload} run failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    env = {"nproc": nproc, **children[-1]["env"], "git_commit": git_commit()}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env,
              "checks": [c["checks"] for c in children],
              "metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in metrics.items()}}
    (results / f"{label}.json").write_text(json.dumps(record, indent=1))

    print(f"rgbtseg benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env))
    for c in children:
        print("checks " + json.dumps(c["checks"]))
    aliases = {} if args.trace else WORKLOAD_NAMES[args.workload]
    reported = metrics if args.trace else {k: metrics[k] for k in GATED}
    print(f"{'metric':<26} {'value':>14} {'unit':<6} {'samples':>7}")
    for name, (value, unit, n) in metrics.items():
        notes = [aliases[name]] if name in aliases else []
        if name not in reported:
            notes.append("not gated")
        note = f"  ({'; '.join(notes)})" if notes else ""
        print(f"{name:<26} {value:>14.6g} {unit:<6} {n:>7}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
