"""Print one ``<name> <sha256>`` line per result component of the package.

Two source trees give the same lines exactly when their results are bit for
bit the same on this set, so a refactor that claims bit-identity is checked
by running this script under each tree and comparing the output:

    PYTHONPATH=src python3 tools/fingerprint.py > new.txt
    PYTHONPATH=<other tree>/src python3 tools/fingerprint.py > old.txt
    diff old.txt new.txt

Components:

  train.*      the parameters of a short training run on mstop10;
  infer.*      ``infer`` under every strategy on the seeds of acceptance
               criteria 3, 4 and 5 and on mstop10/mstop20 instances: the
               solution's routes and objective and the trajectory census
               (mstop sets under the trained parameters);
  tsili.*      ``tsili_solve``'s routes and objective at default parameters
               on the same criterion and mstop10/mstop20 instances, and at
               exponent 30 on an instance whose customer sits under a vehicle;
  sampled.*    an untaped sampled rollout's sums, mean step entropy and
               per-row trajectory log-probabilities;
  taped.*      64-row instance-aug training rollouts on a tape: actions,
               rewards, sums, loss, every gradient of the surrogate loss
               and the folded batch-norm statistics;
  cli.*        the files of criterion 9's generate/solve/train/eval runs,
               with the output directory removed from the manifests; the
               wall-clock ``timings`` sidecars are left out.

It uses only the package's public functions, so it runs unchanged under
older trees. A run takes a few seconds on one CPU core; set the BLAS thread
variables (``OPENBLAS_NUM_THREADS=1``) to compare trees on one machine.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import os
import sys
import tempfile

import numpy as np

from mstoplab import model as mdl
from mstoplab.autodiff import Tape
from mstoplab.cli import main as cli_main
from mstoplab.inference import STRATEGIES, InferConfig, infer
from mstoplab.instances import N_SYMMETRIES, GenConfig, Instance, augment, generate
from mstoplab.model import DdtmConfig, DdtmParameters
from mstoplab.oracle import TsiliParams, tsili_solve
from mstoplab.training import TrainConfig, surrogate_loss, train

TINY = DdtmConfig(d=32, heads=4, ff_dim=128, encoder_layers=2, decoder_layers=1)
SMALL = DdtmConfig(d=16, heads=2, ff_dim=32, encoder_layers=1, decoder_layers=1)


def digest(*parts) -> str:
    """sha256 over each part's dtype, shape and raw bytes (``repr`` for
    anything that is not an array or a number)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, (np.ndarray, np.generic, float, int)):
            a = np.asarray(part)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def trained_parameters():
    """A short, fast-learning training run on mstop10, so that greedy
    decoding visits customers rather than returning to the depot at once."""
    cfg = TrainConfig(epochs=1, steps_per_epoch=20, batch=32, lr=1e-2, validation_size=4)
    params, _ = train(None, TINY, cfg, gen_cfg=GenConfig.preset("mstop10"))
    return params


def instance_sets():
    """(name, instances) of each inference set."""
    crit3 = [generate(GenConfig(n=4, k=2, t_max=1.5, prize_mode="uniform", seed=s)) for s in (800, 801)]
    crit4 = [generate(GenConfig(n=6, k=2, t_max=1.5, prize_mode="uniform", seed=2_000_000 + i))
             for i in range(10)]
    crit5 = [generate(GenConfig(n=6, k=2, t_max=1.5, prize_mode="uniform", seed=3_000_000 + i))
             for i in range(10)]
    crit5 += [generate(GenConfig(n=5, k=3, t_max=2.0, prize_mode="constant", seed=3_100_000 + i))
              for i in range(5)]
    mstop10 = [generate(GenConfig.preset("mstop10", seed=900 + i)) for i in range(6)]
    mstop20 = [generate(GenConfig.preset("mstop20", seed=950 + i)) for i in range(6)]
    return [("crit3", crit3), ("crit4", crit4), ("crit5", crit5), ("mstop10", mstop10), ("mstop20", mstop20)]


def infer_sets(trained):
    """(name, instances, parameters, model config) of each inference set."""
    models = [(DdtmParameters.init(SMALL, seed=0), SMALL), (DdtmParameters.init(TINY, seed=9), TINY),
              (DdtmParameters.init(TINY, seed=123), TINY), (trained, TINY), (trained, TINY)]
    return [(name, instances, *model) for (name, instances), model in zip(instance_sets(), models)]


def infer_lines():
    trained = trained_parameters()
    yield "train.params", digest(*(trained[name] for name in sorted(trained.keys())))
    for name, instances, params, cfg in infer_sets(trained):
        for strategy in STRATEGIES:
            parts = []
            for inst in instances:
                sol, census = infer(inst, params, cfg,
                                    InferConfig(strategy=strategy, sample_width=64, seed=inst.seed))
                parts += [sol.routes, np.float64(sol.objective), census.rewards]
            yield f"infer.{name}.{strategy}", digest(*parts)


def tsili_lines():
    """The heuristic at 1,280 samples. Exponent 30 overflows the power on
    the second instance, whose customer sits under the vehicle."""
    for name, instances in instance_sets():
        parts = []
        for inst in instances:
            sol = tsili_solve(inst, TsiliParams(), seed=inst.seed)
            parts += [sol.routes, np.float64(sol.objective)]
        yield f"tsili.{name}", digest(*parts)
    steep = [generate(GenConfig(n=8, k=2, t_max=1.5, prize_mode="uniform", seed=61)),
             Instance(depot=(0.0, 0.0), customers=((0.5, 0.5, 1.0), (0.6, 0.5, 1.0)),
                      vehicles=((0.5, 0.5, 3.0),), t_max=3.0)]
    parts = []
    for seed, inst in enumerate(steep):
        sol = tsili_solve(inst, TsiliParams(exponent=30.0), seed=seed)
        parts += [sol.routes, np.float64(sol.objective)]
    yield "tsili.exponent30", digest(*parts)


def sampled_lines():
    inst = generate(GenConfig.preset("mstop20", seed=34))
    params = DdtmParameters.init(TINY, seed=3)
    roll = mdl.rollout_states([inst] * 120, [(0, 1)] * 120, params, TINY, rng=np.random.default_rng(9))
    yield "sampled.actions", digest(roll.actions, roll.rewards)
    yield "sampled.logp_sum", digest(roll.logp_sum.values)
    yield "sampled.entropy_sum", digest(roll.entropy_sum.values)
    yield "sampled.mean_step_entropy", digest(np.float64(roll.mean_step_entropy))
    yield "sampled.log_prob", digest(*(np.float64(roll.trajectory(i).log_prob) for i in range(120)))


def taped_lines():
    """64-row instance-aug rollouts with batch statistics, as one training
    step runs them, and the gradients of the surrogate loss."""
    for gen_cfg, seed in ((GenConfig.preset("mstop20", seed=60), 0),
                          (GenConfig.preset("mstop10", seed=61), 0),
                          (GenConfig(n=6, k=2, t_max=1.5, prize_mode="constant", seed=62), 0)):
        tag = f"taped.n{gen_cfg.n}"
        params = DdtmParameters.init(TINY, seed=seed)
        order_rng = np.random.default_rng(seed)
        instances, orders = [], []
        for i in range(8):
            inst = generate(dataclasses.replace(gen_cfg, seed=gen_cfg.seed * 100 + i))
            order = tuple(int(v) for v in order_rng.permutation(inst.k))
            instances += augment(inst)
            orders += [order] * N_SYMMETRIES
        tape, rng = Tape(), np.random.default_rng(100)
        roll = mdl.rollout_states(instances, orders, params, TINY, rng=rng, tape=tape, bn_training=True)
        per_instance = roll.rewards.reshape(-1, N_SYMMETRIES)
        advantages = (per_instance - per_instance.mean(axis=1, keepdims=True)).reshape(-1)
        loss = surrogate_loss(roll, advantages, alpha=0.01)
        grads = roll.binding.gradients(tape.backward(loss))
        yield f"{tag}.actions", digest(roll.actions, roll.rewards, rng.random(4))
        yield f"{tag}.logp_sum", digest(roll.logp_sum.values)
        yield f"{tag}.entropy_sum", digest(roll.entropy_sum.values)
        yield f"{tag}.mean_step_entropy", digest(np.float64(roll.mean_step_entropy))
        yield f"{tag}.loss", digest(loss.values)
        for name in sorted(grads):
            yield f"{tag}.grad.{name}", digest(grads[name])
        yield f"{tag}.bn_stats", digest(*(params[name] for name in sorted(params.stats)))


def cli_lines():
    """Criterion 9's commands, run once in a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        gen, solve, run, ev = (os.path.join(tmp, d) for d in ("gen", "solve", "train", "eval"))
        dataset = os.path.join(gen, "dataset.jsonl")
        commands = [
            ["generate", "--n", "5", "--k", "2", "--t-max", "1.5", "--count", "10", "--seed", "21",
             "--out", gen],
            ["solve", "--dataset", dataset, "--method", "exact", "--workers", "1", "--out", solve],
            ["train", "--n", "5", "--k", "2", "--t-max", "1.5", "--epochs", "1", "--steps", "2",
             "--batch", "16", "--val-size", "8", "--d", "16", "--heads", "2", "--ff-dim", "32",
             "--enc-layers", "1", "--out", run],
            ["eval", "--dataset", dataset, "--checkpoint", os.path.join(run, "best.ckpt"),
             "--strategies", "greedy,perm,perm-aug", "--out", ev],
        ]
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv)
            if code != 0:
                raise SystemExit(f"{argv[0]} exited {code}")
        for folder in (gen, solve, run, ev):
            for name in sorted(os.listdir(folder)):
                if name.startswith("timings"):
                    continue
                with open(os.path.join(folder, name), "rb") as fh:
                    data = fh.read()
                if name == "manifest.json":
                    data = data.replace(tmp.encode(), b"<tmp>")
                yield f"cli.{os.path.basename(folder)}.{name}", hashlib.sha256(data).hexdigest()


def main() -> int:
    for lines in (infer_lines, tsili_lines, sampled_lines, taped_lines, cli_lines):
        for name, value in lines():
            print(name, value)
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
