"""Run-to-run spread of the benchmark's end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads eval-mstop10,sample-mstop20 --seeds 1-10

Runs ``perfbench/run.py`` once per workload and seed, one run at a time, and
prints, for every end-to-end metric, the median of the runs and the distance
between the first and third quartile as a share of the median, next to the
metric's bound from BENCHMARK.json. A spread above a third of its bound is
flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), [json.loads(line) for line in lines[:-1]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            result, info = run_once(workload, seed, seconds)
            run_info = next(line for line in info if "workload" in line)
            metrics = {name: m["value"] for name, m in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"tail=p{run_info['tail_percentile']:.0f} metrics={metrics}", flush=True)
            for name, value in metrics.items():
                values.setdefault(name, []).append(value)
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) >= 2 else (med, med, med)
            spread = (q3 - q1) / abs(med)
            ratio = spread / bounds[name]
            worst = max(worst, ratio)
            print(f"  {name:<18} median {med:<12.6g} spread {spread:7.2%}  "
                  f"bound {bounds[name]:<5} {'OVER A THIRD' if ratio > 1 / 3 else 'ok'}")
    print(f"largest spread / bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
