"""Tests of the benchmark itself.

Run from the repository root:  PYTHONPATH=src python3 -m pytest perfbench/tests
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402

# as run.py does; takes effect only when numpy is not loaded yet
for var in run.THREAD_VARS:
    os.environ[var] = "1"

import tracing  # noqa: E402
import workloads  # noqa: E402
from mstoplab import autodiff, model  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}

# Per-layer metrics that must be non-zero (layer exercised) or exactly zero
# (layer not on this workload's path) in a traced run.
EXERCISED = {
    "train-mstop20": ["autodiff.backward_s", "autodiff.backward_s.matmul",
                      "autodiff.tape_records_per_step", "model.encode_s", "model.decode_s",
                      "model.alive_row_frac", "optim.adam_s", "checkpoint.save_s",
                      "checkpoint.bytes", "training.reinforce_step_s.p50",
                      "training.reinforce_step_s.tail", "training.validate_s",
                      "instances.augment_s", "instances.apply_symmetry_s"],
    "sample-mstop20": ["model.encode_s", "model.encode_rows", "model.decode_s",
                       "model.decode_rows", "model.alive_row_frac", "env.feasible_mask_s",
                       "env.step_s", "inference.infer_s.sampling", "inference.trajectories",
                       "oracle.verify_s"],
    "eval-mstop10": ["oracle.solve_exact_s", "oracle.expansions", "oracle.tsili_s",
                     "oracle.verify_s", "env.replay_s", "env.replay_calls",
                     "instances.apply_symmetry_s", "inference.infer_s.greedy",
                     "inference.infer_s.perm", "inference.infer_s.perm-aug"],
}
UNEXERCISED = {
    "train-mstop20": ["oracle.solve_exact_s", "oracle.tsili_s", "env.replay_s",
                      "inference.trajectories"],
    "sample-mstop20": ["autodiff.backward_s", "autodiff.tape_records_per_step", "optim.adam_s",
                       "checkpoint.bytes", "instances.apply_symmetry_s", "oracle.tsili_s"],
    "eval-mstop10": ["autodiff.backward_s", "autodiff.backward_s.matmul", "optim.adam_s",
                     "checkpoint.save_s", "training.validate_s", "instances.augment_s"],
}


def _bindings():
    """Every function the tracer may replace, keyed by where it is bound."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "mstoplab" or name.startswith("mstoplab.")):
            for attr, value in vars(module).items():
                if callable(value):
                    out[(name, attr)] = value
    out.update({("OP_KINDS", k): v for k, v in autodiff.OP_KINDS.items()})
    out[("RouteDecoder", "step")] = model.RouteDecoder.step
    out[("Tape", "backward")] = autodiff.Tape.backward
    return out


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_tracer_restores_every_original():
    before = _bindings()
    with tracing.Tracer():
        during = _bindings()
        assert autodiff.forward is not before[("mstoplab.autodiff", "forward")]
        assert model.RouteDecoder.step is not before[("RouteDecoder", "step")]
    assert not _same(before, during)
    assert _same(before, _bindings())


def test_tracer_restores_after_an_error():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            1 / 0
    assert _same(before, _bindings())


def test_self_time_excludes_child_spans():
    clock = iter([0.0, 1.0, 3.0, 10.0]).__next__   # outer 0..10, inner 1..3
    tracer = tracing.Tracer(clock=clock)
    inner = tracer._span("inner", lambda: None)
    outer = tracer._span("outer", lambda: inner())
    outer()
    assert tracer.self_s == {"outer": 8.0, "inner": 2.0}


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    value, pct = tracing.tail(list(range(100)))
    assert value == 89 and sum(v > value for v in range(100)) == 10
    assert pct == pytest.approx(100 * 89 / 99)
    assert tracing.tail(list(range(11)))[0] == 0
    assert tracing.tail([3, 1, 2]) == (3, 100.0)


def test_per_layer_names_match_the_tracer():
    assert set(tracing.Tracer().metrics(1)) == PER_LAYER


def test_prediction_table_covers_every_per_layer_metric():
    readme = (BENCH / "README.md").read_text()
    kinds = "|".join(map(re.escape, tracing.OP_KINDS))
    strategies = "|".join(map(re.escape, tracing.STRATEGIES))
    for name in PER_LAYER:
        family = re.sub(rf"\.({kinds})$", ".<kind>", name)
        family = re.sub(rf"\.({strategies})$", ".<strategy>", family)
        family = re.sub(r"^env\.\w+_calls$", "env.*_calls", family)
        assert f"`{family}`" in readme, name


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_is_transparent(name, tmp_path, capsys):
    cls = workloads.WORKLOADS[name]
    runs = {}
    for traced in (False, True):
        work = cls(seed=3, scratch=str(tmp_path))
        try:
            work.op(0)                       # warm-up, as run.py does
            tracer = tracing.Tracer() if traced else None
            if tracer is None:
                loop = workloads.run_loop(work, 0.0)
            else:
                with tracer:
                    loop = workloads.run_loop(work, 0.0)
        finally:
            work.close()
        assert loop.failed == 0, loop.errors
        assert loop.attempted == cls.QUALITY_OPS
        runs[traced] = (work.quality(loop.quality_results), loop.op_s, tracer)
    (plain, plain_s, _), (traced_q, traced_s, tracer) = runs[False], runs[True]
    assert json.dumps(plain, sort_keys=True) == json.dumps(traced_q, sort_keys=True)
    assert all(math.isfinite(v) for v in plain.values())
    metrics = {k: v for k, (v, _) in tracer.metrics(loop.units).items()}
    for metric in EXERCISED[name]:
        assert metrics[metric] > 0, metric
    for metric in UNEXERCISED[name]:
        assert metrics[metric] == 0, metric
    with capsys.disabled():
        print(f"\n{name}: untraced {plain_s:.2f}s, traced {traced_s:.2f}s "
              f"tracing overhead {traced_s - plain_s:+.2f}s ({traced_s / plain_s - 1:+.1%})")


def test_result_line_matches_benchmark_json():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-mstop10", "--seed", "2",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not list(ROOT.glob(".bench_tmp*"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-mstop10", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
