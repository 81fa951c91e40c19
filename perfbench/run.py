"""Run one benchmark workload of mstoplab and print its metrics.

    python3 perfbench/run.py --workload sample-mstop20 --seed 1 --seconds 30 --trace 0

Run from the repository root. The package is imported from ``src/`` next to
this directory. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` the workload runs with
per-layer tracing on and the object holds the per-layer metrics. Lines
before it describe the run: its environment, the tail percentile, the
quality figures and, when traced, the self-time split by layer. Checkpoints
go to a temporary directory in the repository root, removed at the end.

BLAS and OpenMP thread pools are pinned to one thread, because the model's
matrices are small and extra threads only add variance.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set-up repeats for at least SETUP_SECONDS, so that its median covers the
# machine's speed over seconds, not over the fraction of a second that one
# quick set-up takes (sample-mstop20's takes about 12 ms).
SETUP_SECONDS = 3.0
SETUP_MIN_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root: Path):
    """Commit of a git checkout at ``root``, read from .git; None elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, ValueError):
        blas = {"name": None, "version": None}
    thread_vars = {k: v for k, v in sorted(os.environ.items())
                   if "THREAD" in k and any(t in k for t in ("OMP", "BLAS", "MKL", "BLIS",
                                                             "VECLIB", "NUMEXPR", "GOTO"))}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_vars": thread_vars,
        "git_commit": git_commit(ROOT),
    }


def emit(**line):
    print(json.dumps(line), flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mstoplab" / "__init__.py").is_file():
        print(f"error: no mstoplab package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:          # before numpy loads its BLAS
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import numpy as np
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    emit(environment=environment(np))

    setup_times = []
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as scratch:
        workload = None
        while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_SECONDS:
            if workload is not None:     # each set-up starts from the same heap
                workload.close()
                workload = None
                gc.collect()
            t0 = time.perf_counter()
            workload = cls(args.seed, scratch)
            setup_times.append(time.perf_counter() - t0)
        try:
            try:                     # warm-up: first-call costs stay out of the timings
                workload.op(0)
            except Exception as err:   # the loop below counts failures
                print(f"warm-up failed: {type(err).__name__}: {err}", file=sys.stderr)
            tracer = tracing.Tracer() if args.trace else None
            if tracer is None:
                loop = workloads.run_loop(workload, args.seconds)
            else:
                with tracer:
                    loop = workloads.run_loop(workload, args.seconds)
        finally:
            workload.close()

    for err in loop.errors[:20]:
        print(f"failed: {err}", file=sys.stderr)
    quality = workload.quality(loop.quality_results) if loop.quality_results else {}
    lat = loop.latencies_ms
    tail_ms, tail_pct = tracing.tail(lat) if lat else (float("nan"), float("nan"))
    emit(workload=args.workload, seed=args.seed, ops=loop.attempted, unit=workload.unit,
         units=loop.units, instances=loop.instances, op_s=loop.op_s,
         latency_samples=len(lat), tail_percentile=tail_pct, quality=quality)

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_frac": (1.0 - loop.failed / loop.attempted, "frac"),
            "instances_per_s": (loop.instances / loop.op_s, "1/s"),
            "instance_ms_p50": (statistics.median(lat) if lat else float("nan"), "ms"),
            "instance_ms_tail": (tail_ms, "ms"),
            "prize_share": (quality.get("prize_share", float("nan")), "frac"),
        }
    else:
        metrics = tracer.metrics(loop.units)
        split = tracer.self_time_split(loop.op_s)
        emit(self_time_s=split, largest_self_time=next(iter(split)),
             forward_op_s=sum(tracer.op_forward_s.values()),
             backward_op_s=sum(tracer.op_backward_s.values()))
    correct = loop.failed == 0 and all(math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        # a figure that could not be measured (all operations failed) reads 0
        "metrics": {name: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
