"""Acceptance suite: one test per criterion, one PASS line each.

Run with:  pytest tests/test_acceptance.py -v -s

The training-based criteria share six desk-scale runs (3 seeds x 2 training
arms) built once per session in worker processes, one per usable CPU; the
whole suite takes about 8 minutes on one CPU core and about 4.5 on two.
"""

import dataclasses
import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest

from mstoplab import autodiff as ad
from mstoplab import model as mdl
from mstoplab.cli import main as cli_main
from mstoplab.inference import InferConfig, infer
from mstoplab.instances import GenConfig, apply_symmetry, augment, euclidean, generate
from mstoplab.model import DdtmConfig, DdtmParameters
from mstoplab.optim import AdamState
from mstoplab.oracle import brute_force_enum, solve_exact, verify
from mstoplab.training import (TrainConfig, reinforce_step, surrogate_loss, train)

from conftest import (attention_probe_cases, check_op_gradients, fd_gradient, forced_rollout, rel_err,
                      rollout_one)

TINY_GEN = GenConfig(n=6, k=2, t_max=1.5, prize_mode="constant", seed=0)
TINY_MODEL = DdtmConfig(d=32, heads=4, ff_dim=128, encoder_layers=2, decoder_layers=1)

ARMS = {
    "D": dict(baseline="instance-aug", alpha=0.01),
    "A": dict(baseline="greedy-rollout", alpha=0.0),
}


def tiny_train_config(arm: str, seed: int) -> TrainConfig:
    return TrainConfig(epochs=30, steps_per_epoch=50, batch=64,
                       validation_size=100, seed_data=seed, seed_model=seed,
                       seed_rollout=seed, **ARMS[arm])


def ok(criterion: int, message: str):
    print(f"\n[criterion {criterion}] PASS — {message}")


def _tiny_run(arm: str, seed: int) -> dict:
    """One fixture run, timed in the process that runs it."""
    t0 = time.perf_counter()
    params, reports = train(None, TINY_MODEL, tiny_train_config(arm, seed), gen_cfg=TINY_GEN)
    return {"params": params, "reports": reports, "seconds": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def tiny_runs():
    """3 seeds x {D: instance-aug + entropy, A: greedy rollout, alpha=0}.

    Each run is deterministic given its config, so the six run in up to six
    worker processes (one per usable CPU, each with one BLAS thread; serially
    on one CPU) with the results of a serial run."""
    arms, seeds = [arm for arm in ("D", "A") for _ in range(3)], [0, 1, 2] * 2
    workers = min(len(os.sched_getaffinity(0)), len(arms))
    if workers == 1:
        results = list(map(_tiny_run, arms, seeds))
    else:
        # Workers inherit the environment when spawned, before numpy loads its
        # BLAS: a BLAS thread per CPU in every worker oversubscribes the CPUs and
        # made the runs about five times slower. A RuntimeWarning fails a run in
        # a worker as it does under pytest.
        one_thread = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        with mock.patch.dict(os.environ, one_thread), \
                ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"),
                                    initializer=warnings.simplefilter, initargs=("error", RuntimeWarning)) as pool:
            results = list(pool.map(_tiny_run, arms, seeds))
    return {"D": results[:3], "A": results[3:]}


# -------------------------------------------------------------------------------

def test_criterion_1_oracle_equivalence():
    """Branch-and-bound equals exhaustive enumeration on 100 seeded instances
    for each of n = 4, 5, 6 (K = 2), objective equality exact."""
    t0 = time.perf_counter()
    checked = 0
    for n in (4, 5, 6):
        for i in range(100):
            inst = generate(GenConfig(n=n, k=2, t_max=1.5, seed=10_000 * n + i))
            a = solve_exact(inst)
            b = brute_force_enum(inst)
            assert a.optimal and b.optimal
            assert a.objective == b.objective, (n, i, a.objective, b.objective)
            checked += 1
    dt = time.perf_counter() - t0
    assert dt < 60.0
    ok(1, f"solve_exact == brute_force_enum on {checked} instances ({dt:.1f}s)")


def test_criterion_2_distribution_reproduction():
    """Mean exact optimum over 1,000 fresh n=10 instances per prize mode lands
    on the published reference values within sampling error."""
    t0 = time.perf_counter()
    stats = {}
    for mode, target, tol in (("constant", 5.35, 0.10), ("uniform", 2.88, 0.06)):
        total = 0.0
        for seed in range(1000):
            inst = generate(GenConfig(n=10, k=2, t_max=1.5, prize_mode=mode, seed=seed))
            sol = solve_exact(inst)
            assert sol.optimal
            total += sol.objective
        mean = total / 1000
        assert abs(mean - target) <= tol, (mode, mean, target, tol)
        stats[mode] = mean
    dt = time.perf_counter() - t0
    assert dt < 600.0
    ok(2, f"mean exact objective constant {stats['constant']:.3f} (5.35±0.10), "
          f"uniform {stats['uniform']:.3f} (2.88±0.06) ({dt:.1f}s)")


def test_criterion_3_gradient_suite(rng):
    """Central finite differences: every operation kind and the full policy
    loss (advantage-weighted log-probabilities plus the alpha-entropy term)
    match analytic gradients at relative error <= 1e-4, 100 probes each."""
    t0 = time.perf_counter()
    mask = np.where(rng.random((4, 6)) < 0.25, ad.NEG_INF, 0.0)
    mask[..., 0] = 0.0
    rm, rv = np.zeros(5), np.ones(5)
    kinds = [
        ("matmul", lambda l: ad.matmul(l[0], l[1]), [(3, 4, 5), (5, 6)], {}),
        ("matmul-t", lambda l: ad.matmul(l[0], l[1], transpose_b=True),
         [(2, 3, 5), (2, 4, 5)], {}),
        ("add", lambda l: ad.add(l[0], l[1]), [(3, 4), (4,)], {}),
        ("mul", lambda l: ad.mul(l[0], l[1]), [(3, 4), (3, 1)], {}),
        ("concat", lambda l: ad.concat([l[0], l[1]], axis=-1), [(3, 4), (3, 2)], {}),
        ("log_softmax", lambda l: ad.log_softmax(l[0], mask=mask), [(4, 6)],
         {"weight_filter": lambda w: np.where(mask < 0, 0.0, w)}),
        ("relu", lambda l: ad.relu(l[0]), [(5, 5)],
         {"input_filter": lambda a: [np.where(np.abs(x) < 0.05, 0.5, x) for x in a]}),
        ("tanh", lambda l: ad.tanh(l[0]), [(5, 5)], {}),
        ("exp", lambda l: ad.exp(l[0]), [(5, 5)], {}),
        ("sum", lambda l: ad.tsum(l[0], axis=1), [(3, 4, 5)], {}),
        ("batchnorm-train", lambda l: ad.batchnorm(l[0], rm, rv, training=True),
         [(6, 3, 5)], {}),
        ("batchnorm-eval", lambda l: ad.batchnorm(l[0], rm, rv, training=False),
         [(6, 3, 5)], {}),
        ("take-slice", lambda l: ad.take(l[0], (slice(None), np.array([0, 2, 2, 1]))),
         [(2, 5, 3)], {}),
        ("take-row", lambda l: ad.take(l[0], (np.arange(3)[:, None], np.array([[1], [0], [3]]))),
         [(3, 4, 5)], {}),
        ("take-scalar", lambda l: ad.take(l[0], (np.arange(4), np.array([1, 0, 4, 4]))),
         [(4, 5)], {}),
    ] + attention_probe_cases()
    covered = {name.split("-")[0] for name, _, _, _ in kinds}
    assert covered == set(ad.OP_KINDS), covered ^ set(ad.OP_KINDS)
    for name, builder, shapes, kw in kinds:
        check_op_gradients(builder, shapes, rng, probes=100, tol=1e-4, **kw)

    # full policy loss on a frozen trajectory batch (teacher forcing keeps the
    # action sequence, and therefore the loss landscape, smooth in theta)
    cfg = DdtmConfig(d=16, heads=2, ff_dim=32, encoder_layers=1, decoder_layers=1)
    params = DdtmParameters.init(cfg, seed=0)
    instances = []
    for raw_seed in (800, 801):
        inst = generate(GenConfig(n=4, k=2, t_max=1.5, prize_mode="uniform", seed=raw_seed))
        instances.extend(augment(inst))
    orders = [(0, 1)] * 8 + [(1, 0)] * 8
    seed_roll = mdl.rollout_states(instances, orders, params, cfg, rng=np.random.default_rng(0))
    actions = seed_roll.actions
    rewards = seed_roll.rewards.reshape(2, 8)
    advantages = (rewards - rewards.mean(axis=1, keepdims=True)).reshape(-1)
    alpha = 0.01

    def loss_parts():
        tape = ad.Tape()
        roll = forced_rollout(instances, orders, params, cfg, actions, tape=tape, bn_training=True)
        return tape, roll, surrogate_loss(roll, advantages, alpha)

    tape, roll, loss = loss_parts()
    grads = roll.binding.gradients(tape.backward(loss))
    names = sorted(params.trainable())
    worst = 0.0
    for _ in range(100):
        name = names[rng.integers(len(names))]
        arr = params[name]
        idx = int(rng.integers(arr.size))
        fd = fd_gradient(lambda: float(loss_parts()[2].values), arr, idx)
        worst = max(worst, rel_err(fd, grads[name].reshape(-1)[idx]))
    assert worst <= 1e-4, f"full-loss probe mismatch {worst:.3e}"
    dt = time.perf_counter() - t0
    assert dt < 120.0
    ok(3, f"all {len(covered)} op kinds ({len(kinds)} constructions) x 100 probes "
          f"+ 100 full-loss probes, "
          f"worst full-loss rel err {worst:.2e} ({dt:.1f}s)")


def test_criterion_4_augmentation_invariance(rng):
    """For 100 instances: (a) each symmetry preserves all pairwise distances
    within 1e-12, (b) the exact optimum is identical across all 8 copies
    within 1e-9, (c) replaying a trajectory on any copy repeats its reward."""
    t0 = time.perf_counter()
    policy = DdtmParameters.init(TINY_MODEL, seed=9)
    from mstoplab import env
    for i in range(100):
        inst = generate(GenConfig(n=6, k=2, t_max=1.5, prize_mode="uniform",
                                  seed=2_000_000 + i))
        refs = list(range(inst.n + inst.k + 1))
        base_obj = solve_exact(inst).objective
        traj = rollout_one(inst, (0, 1), policy, TINY_MODEL)
        for s in range(8):
            aug = apply_symmetry(inst, s)
            for a in refs:
                for b in refs[a + 1:]:
                    moved = euclidean(aug.point(a), aug.point(b))
                    assert abs(moved - euclidean(inst.point(a), inst.point(b))) <= 1e-12
            assert abs(solve_exact(aug).objective - base_obj) <= 1e-9
            assert env.replay([aug], [(0, 1)], [traj.actions])[0].reward == traj.reward
    dt = time.perf_counter() - t0
    ok(4, f"isometry (1e-12), exact-optimum (1e-9), and replay-reward "
          f"invariance on 100 instances x 8 maps ({dt:.1f}s)")


def test_criterion_5_inference_dominance(tiny_runs):
    """perm-aug >= perm >= greedy on every one of 200 instances, for random
    and for trained parameters; every emitted solution verifies."""
    t0 = time.perf_counter()
    random_params = DdtmParameters.init(TINY_MODEL, seed=123)
    trained_params = tiny_runs["D"][0]["params"]
    instances = [generate(GenConfig(n=6, k=2, t_max=1.5, prize_mode="uniform",
                                    seed=3_000_000 + i)) for i in range(150)]
    instances += [generate(GenConfig(n=5, k=3, t_max=2.0, prize_mode="constant",
                                     seed=3_100_000 + i)) for i in range(50)]
    checked = 0
    for params in (random_params, trained_params):
        for inst in instances:
            rewards = []
            for strategy in ("greedy", "perm", "perm-aug"):
                sol, _ = infer(inst, params, TINY_MODEL, InferConfig(strategy=strategy))
                assert verify(inst, sol).ok
                rewards.append(sol.objective)
            assert rewards[2] >= rewards[1] >= rewards[0], (inst.seed, rewards)
            checked += 1
    dt = time.perf_counter() - t0
    ok(5, f"dominance chain + verification on {checked} (instance, params) pairs ({dt:.1f}s)")


def test_criterion_6_training_signal(tiny_runs):
    """The desk-scale run must (a) strictly improve held-out greedy validation
    reward from epoch 0 to the final epoch and (b) reach a mean best-of-16
    (8 x 2!) optimality gap <= 25% vs exact on a 100-instance test set,
    all within the 30-minute budget."""
    run = tiny_runs["D"][0]
    reports = run["reports"]
    assert run["seconds"] < 1800.0
    val0, val_final = reports[0].val_score, reports[-1].val_score
    assert val_final > val0, (val0, val_final)

    gaps = []
    for i in range(100):
        inst = generate(GenConfig(n=6, k=2, t_max=1.5, prize_mode="uniform",
                                  seed=4_000_000 + i))
        ref = solve_exact(inst).objective
        sol, census = infer(inst, run["params"], TINY_MODEL, InferConfig(strategy="perm-aug"))
        assert census.count == 16
        gaps.append((ref - sol.objective) / ref if ref > 0 else 0.0)
    mean_gap = float(np.mean(gaps))
    assert mean_gap <= 0.25, mean_gap
    ok(6, f"validation {val0:.3f} -> {val_final:.3f}; mean x8N! gap vs exact "
          f"{100 * mean_gap:.1f}% <= 25% (trained in {run['seconds']:.0f}s)")


def test_criterion_7_ablation_direction(tiny_runs):
    """Across 3 seeds, median final validation of the instance-aug + entropy
    arm is at least the greedy-rollout arm's, and the augmented arm consumes
    exactly 1/8 the raw instances per epoch."""
    finals = {arm: [r["reports"][-1].val_score for r in tiny_runs[arm]]
              for arm in ("D", "A")}
    med_d, med_a = np.median(finals["D"]), np.median(finals["A"])
    assert med_d >= med_a, finals
    for run_d, run_a in zip(tiny_runs["D"], tiny_runs["A"]):
        for rep_d, rep_a in zip(run_d["reports"][1:], run_a["reports"][1:]):
            assert rep_d.raw_instances * 8 == rep_a.raw_instances
    ok(7, f"median final validation D {med_d:.3f} >= A {med_a:.3f} "
          f"(finals D={[round(v, 3) for v in finals['D']]}, "
          f"A={[round(v, 3) for v in finals['A']]}); raw-instance ratio exactly 1/8")


def test_criterion_8_null_gradient_sanity():
    """alpha = 0 with all-zero prizes: rewards, baselines, and advantages
    vanish, so ten optimizer steps leave every trainable array bit-identical."""
    cfg = dataclasses.replace(tiny_train_config("D", 0), alpha=0.0, batch=32)
    params = DdtmParameters.init(TINY_MODEL, seed=0)
    adam = AdamState(lr=cfg.lr)
    before = {k: params[k].tobytes() for k in params.trainable()}
    rng = np.random.default_rng(0)
    for step_i in range(10):
        raw = []
        for i in range(cfg.raw_per_step):
            inst = generate(GenConfig(n=6, k=2, t_max=1.5, prize_mode="uniform",
                                      seed=5_000_000 + step_i * 10 + i))
            raw.append(dataclasses.replace(
                inst, customers=tuple((c[0], c[1], 0.0) for c in inst.customers)))
        diag = reinforce_step(raw, [(0, 1)] * len(raw), params, adam, TINY_MODEL, cfg,
                              rollout_rng=rng)
        assert diag.grad_norm == 0.0 and diag.mean_reward == 0.0
    after = {k: params[k].tobytes() for k in params.trainable()}
    assert before == after
    ok(8, "10 zero-prize steps with alpha=0: zero gradients, parameters bit-identical")


def test_criterion_9_command_determinism(tmp_path):
    """Rerunning any command with the same configuration reproduces its
    metrics and results files byte for byte."""
    outputs = {}
    for tag in ("x", "y"):
        gen = tmp_path / f"gen_{tag}"
        assert cli_main(["generate", "--n", "5", "--k", "2", "--t-max", "1.5",
                         "--count", "10", "--seed", "21", "--out", str(gen)]) == 0
        solve = tmp_path / f"solve_{tag}"
        assert cli_main(["solve", "--dataset", str(gen / "dataset.jsonl"),
                         "--method", "exact", "--workers", "1", "--out", str(solve)]) == 0
        run = tmp_path / f"train_{tag}"
        assert cli_main(["train", "--n", "5", "--k", "2", "--t-max", "1.5",
                         "--epochs", "1", "--steps", "2", "--batch", "16",
                         "--val-size", "8", "--d", "16", "--heads", "2",
                         "--ff-dim", "32", "--enc-layers", "1", "--out", str(run)]) == 0
        ev = tmp_path / f"eval_{tag}"
        assert cli_main(["eval", "--dataset", str(gen / "dataset.jsonl"),
                         "--checkpoint", str(run / "best.ckpt"),
                         "--strategies", "greedy,perm,perm-aug", "--out", str(ev)]) == 0
        outputs[tag] = {
            "dataset": (gen / "dataset.jsonl").read_bytes(),
            "solve_results": (solve / "results.jsonl").read_bytes(),
            "metrics": (run / "metrics.csv").read_bytes(),
            "checkpoint": (run / "last.ckpt").read_bytes(),
            "eval_results": (ev / "results.csv").read_bytes(),
            "eval_summary": (ev / "summary.csv").read_bytes(),
        }
    mismatched = [k for k in outputs["x"] if outputs["x"][k] != outputs["y"][k]]
    assert not mismatched, mismatched
    ok(9, "generate/solve/train/eval reruns byte-identical "
          f"({', '.join(outputs['x'])})")
