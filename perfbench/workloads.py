"""The benchmark's three closed-loop workloads over mstoplab's public API.

Each workload has one caller that waits for every call before it makes the
next. A workload object is built from the seed (its set-up), warmed up once,
then driven by :func:`run_loop`, which calls ``op(i)`` for i = 0, 1, ...
until the time is up and at least ``QUALITY_OPS`` operations have completed.
Quality figures come from the first ``QUALITY_OPS`` operations only, so they
describe the same inputs however fast the program is.

Why these workloads (see README.md for the prediction table):

* ``train-mstop20`` is the only workload with a taped forward pass,
  ``Tape.backward`` and Adam; it also writes checkpoints and validates.
* ``sample-mstop20`` is one untaped forward pass at batch 1280 per instance,
  with no backward; the encoder, decoder and per-row environment dominate.
* ``eval-mstop10`` runs both oracles and three model strategies on tiny
  batches (1, 2 and 16 rows), where per-op Python overhead, replay and the
  symmetry transform dominate.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace

import numpy as np

from mstoplab import checkpoint, env, inference, instances, model, oracle, training

# The policy seed is fixed rather than taken from the workload seed: a random
# init decides how long trajectories are (with seed 1 every vehicle parks at
# once), which would make throughput follow the seed instead of the code.
POLICY_SEED = 0
MODEL = model.DdtmConfig()
SAMPLE_WIDTH = 1280
TSILI = oracle.TsiliParams(samples=1280)
OBJECTIVE_TOL = 1e-9
# Instance seeds of workload seed s start at s * SEED_STRIDE, so pools of
# different workload seeds never share an instance.
SEED_STRIDE = 1_000_000


class GateError(Exception):
    """An output of the program failed one of the benchmark's checks."""


@dataclass
class OpResult:
    instances: int                 # instances the operation completed
    latencies_ms: list             # per-instance latency, in ms
    units: int                     # closed-loop units (per-layer normalisation)
    objective: float               # quality figure of this operation
    share: float                   # objective / reachable prize
    extra: dict = field(default_factory=dict)


def reachable_prize(inst) -> float:
    """Prize of the customers some vehicle can visit and still return from:
    an upper bound on the optimum, read off the environment's own masks."""
    reach = np.zeros(inst.n, dtype=bool)
    for k in range(inst.k):
        order = (k,) + tuple(v for v in range(inst.k) if v != k)
        reach |= env.feasible_mask(env.reset(inst, order))[1:]
    return float(inst.prizes()[reach].sum())


def _share(objective, reach):
    return objective / reach if reach > 0 else math.nan


def _mean_share(results):
    """Mean prize share, leaving out instances where no prize is reachable."""
    shares = [r.share for r in results if not math.isnan(r.share)]
    return float(np.mean(shares)) if shares else math.nan


def _check_solution(inst, sol, what):
    report = oracle.verify(inst, sol)
    if not report.ok:
        raise GateError(f"{what}: {report.first_violation}")


# --- train-mstop20 -------------------------------------------------------------

class TrainWorkload:
    """Short ``training.train`` runs: mstop20, instance-aug baseline,
    B = 64 (8 raw instances x 8 symmetries), validation and checkpoints."""

    name = "train-mstop20"
    unit = "REINFORCE step"
    QUALITY_OPS = 4
    POOL = 2048
    EPOCHS = 2
    STEPS_PER_EPOCH = 5
    VALIDATION_SIZE = 32
    # Validation keeps TrainConfig's fixed held-out set (seed_data=0), as a
    # user's training runs would; the workload seed drives the training
    # instances and the rollouts. A held-out set drawn per seed would make
    # the quality figure follow 32 random instances instead of the training.
    CONFIG = training.TrainConfig(epochs=EPOCHS, steps_per_epoch=STEPS_PER_EPOCH, batch=64,
                                  baseline="instance-aug", validation_size=VALIDATION_SIZE,
                                  seed_data=0, seed_model=POLICY_SEED)

    def __init__(self, seed: int, scratch: str):
        self.base = seed * SEED_STRIDE
        self.gen_cfg = instances.GenConfig.preset("mstop20")
        self.pool = instances.generate_many(replace(self.gen_cfg, seed=self.base), self.POOL)
        self.val_reach = float(np.mean([reachable_prize(x) for x in training.validation_set(
            self.gen_cfg, self.VALIDATION_SIZE, self.CONFIG.seed_data)]))
        self.ckpt_dir = tempfile.mkdtemp(prefix="train-", dir=scratch)
        self.cursor = 0
        self.drawn = 0
        self.step_starts = []

    def close(self):
        shutil.rmtree(self.ckpt_dir, ignore_errors=True)

    def _sampler(self, rng):
        # train() draws raw_per_step instances at the start of every step
        if self.drawn % self.CONFIG.raw_per_step == 0:
            self.step_starts.append(time.perf_counter())
        self.drawn += 1
        inst = self.pool[self.cursor % len(self.pool)]
        self.cursor += 1
        return inst

    def op(self, i: int) -> OpResult:
        cfg = replace(self.CONFIG, seed_rollout=self.base + i)
        self.drawn = 0
        self.step_starts = []
        t0 = time.perf_counter()
        params, reports = training.train(None, MODEL, cfg, instance_sampler=self._sampler,
                                         gen_cfg=self.gen_cfg, checkpoint_dir=self.ckpt_dir)
        t1 = time.perf_counter()
        steps = len(self.step_starts)
        if steps != cfg.epochs * cfg.steps_per_epoch or len(reports) != cfg.epochs + 1:
            raise GateError(f"train ran {steps} steps and {len(reports)} reports")
        for r in reports:
            values = (r.train_reward, r.baseline_value, r.entropy, r.grad_norm, r.val_score)
            if not all(math.isfinite(v) for v in values):
                raise GateError(f"non-finite training figures in epoch {r.epoch}: {values}")
        saved, adam = checkpoint.load_checkpoint(os.path.join(self.ckpt_dir, "last.ckpt"))
        if adam is None or adam.step != steps or saved.keys() != params.arrays.keys() or any(
                not np.array_equal(saved[k], params.arrays[k]) for k in saved):
            raise GateError("last.ckpt does not hold the trained parameters")
        # a step's latency runs to the next step's start; the first step also
        # carries train()'s start-up, the last its final validation and writes
        edges = [t0] + self.step_starts[1:] + [t1]
        raw = cfg.raw_per_step
        latencies = [1000.0 * (b - a) / raw for a, b in zip(edges[:-1], edges[1:])]
        val = reports[-1].val_score
        return OpResult(instances=steps * raw, latencies_ms=latencies, units=steps,
                        objective=val, share=_share(val, self.val_reach))

    def quality(self, results) -> dict:
        return {"prize_share": _mean_share(results),
                "val_reward": float(np.mean([r.objective for r in results]))}


# --- sample-mstop20 ------------------------------------------------------------

class SampleWorkload:
    """``infer(strategy="sampling", sample_width=1280)`` on one mstop20
    instance at a time."""

    name = "sample-mstop20"
    unit = "instance"
    QUALITY_OPS = 25
    POOL = 64

    def __init__(self, seed: int, scratch: str):
        self.base = seed * SEED_STRIDE
        self.pool = instances.generate_many(
            instances.GenConfig.preset("mstop20", seed=self.base), self.POOL)
        self.reach = [reachable_prize(x) for x in self.pool]
        self.params = model.DdtmParameters.init(MODEL, seed=POLICY_SEED)

    def close(self):
        pass

    def op(self, i: int) -> OpResult:
        inst = self.pool[i % len(self.pool)]
        cfg = inference.InferConfig(strategy="sampling", sample_width=SAMPLE_WIDTH,
                                    seed=self.base + i)
        t0 = time.perf_counter()
        sol, census = inference.infer(inst, self.params, MODEL, cfg)
        latency = 1000.0 * (time.perf_counter() - t0)
        _check_solution(inst, sol, "sampling")
        if census.count != SAMPLE_WIDTH + 1 or sol.objective != census.rewards.max():
            raise GateError(f"sampling kept {sol.objective} of {census.count} trajectories")
        return OpResult(instances=1, latencies_ms=[latency], units=1, objective=sol.objective,
                        share=_share(sol.objective, self.reach[i % len(self.pool)]))

    def quality(self, results) -> dict:
        return {"prize_share": _mean_share(results),
                "mean_objective": float(np.mean([r.objective for r in results]))}


# --- eval-mstop10 --------------------------------------------------------------

class EvalWorkload:
    """Exact optimum, the tsili heuristic and the greedy, perm and perm-aug
    strategies on one mstop10 instance at a time."""

    name = "eval-mstop10"
    unit = "instance"
    QUALITY_OPS = 400
    POOL = 1024
    STRATEGIES = ("greedy", "perm", "perm-aug")

    def __init__(self, seed: int, scratch: str):
        self.base = seed * SEED_STRIDE
        self.pool = instances.generate_many(
            instances.GenConfig.preset("mstop10", seed=self.base), self.POOL)
        self.reach = [reachable_prize(x) for x in self.pool]
        self.params = model.DdtmParameters.init(MODEL, seed=POLICY_SEED)

    def close(self):
        pass

    def op(self, i: int) -> OpResult:
        inst = self.pool[i % len(self.pool)]
        t0 = time.perf_counter()
        exact = oracle.solve_exact(inst)
        sols = {"tsili": oracle.tsili_solve(inst, TSILI, seed=self.base + i)}
        for strategy in self.STRATEGIES:
            sols[strategy], _ = inference.infer(inst, self.params, MODEL,
                                                inference.InferConfig(strategy=strategy))
        latency = 1000.0 * (time.perf_counter() - t0)
        _check_solution(inst, exact, "exact")
        for label, sol in sols.items():
            _check_solution(inst, sol, label)
        g, p, pa = (sols[s].objective for s in self.STRATEGIES)
        if not g <= p <= pa:
            raise GateError(f"dominance violated: greedy/perm/perm-aug = {g}/{p}/{pa}")
        gaps = {}
        if exact.optimal:
            for label, sol in sols.items():
                if sol.objective > exact.objective + OBJECTIVE_TOL:
                    raise GateError(f"{label} objective {sol.objective} exceeds the optimum "
                                    f"{exact.objective}")
                if exact.objective > 0:
                    gaps[label] = 100.0 * (exact.objective - sol.objective) / exact.objective
        return OpResult(instances=1, latencies_ms=[latency], units=1, objective=pa,
                        share=_share(pa, self.reach[i % len(self.pool)]),
                        extra={"gaps": gaps, "budget_exhausted": int(not exact.optimal)})

    def quality(self, results) -> dict:
        out = {"prize_share": _mean_share(results),
               "mean_objective": float(np.mean([r.objective for r in results]))}
        for label in self.STRATEGIES + ("tsili",):
            gaps = [r.extra["gaps"][label] for r in results if label in r.extra["gaps"]]
            out[f"gap_pct.{label}"] = float(np.mean(gaps)) if gaps else None
        out["budget_exhausted"] = sum(r.extra["budget_exhausted"] for r in results)
        return out


WORKLOADS = {w.name: w for w in (TrainWorkload, SampleWorkload, EvalWorkload)}


# --- the closed loop -------------------------------------------------------------

@dataclass
class LoopResult:
    attempted: int = 0
    failed: int = 0
    instances: int = 0
    units: int = 0
    op_s: float = 0.0                # time spent inside operations
    latencies_ms: list = field(default_factory=list)
    quality_results: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def run_loop(workload, seconds: float) -> LoopResult:
    """Call ``workload.op`` until ``seconds`` have passed and at least
    ``QUALITY_OPS`` operations are done. A raised exception counts the
    operation as failed; the loop goes on with the next one."""
    res = LoopResult()
    t0 = time.perf_counter()
    i = 0
    while i < workload.QUALITY_OPS or time.perf_counter() - t0 < seconds:
        res.attempted += 1
        start = time.perf_counter()
        try:
            out = workload.op(i)
        except Exception as err:     # a failed operation is a result, not a crash
            out = None
            res.failed += 1
            res.errors.append(f"op {i}: {type(err).__name__}: {err}")
        res.op_s += time.perf_counter() - start
        if out is not None:
            res.instances += out.instances
            res.units += out.units
            res.latencies_ms.extend(out.latencies_ms)
            if i < workload.QUALITY_OPS:
                res.quality_results.append(out)
        i += 1
    return res
