"""Decoding strategies: greedy, sampling, and vehicle-order / instance
augmentation with best-of selection.

Every strategy decodes one grid greedily: vehicle orders x symmetric copies,
order-major. Greedy is the identity order on the instance itself; perm takes
all K! orders; perm-aug also takes the eight symmetric copies of the
instance, the identity first, decodes on their transformed coordinates and
scores each row by replaying its actions on the original instance, so the
returned solution is always verified against the untransformed geometry. Sampling appends its sampled rows after
the grid's one greedy row.

So greedy is entry 0 of every census and perm's census is every eighth entry
of perm-aug's: the trajectory sets nest, and best-of rewards are monotone
across greedy -> perm -> perm-aug, deterministically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import env
from . import model as mdl
from .instances import Instance, N_SYMMETRIES, apply_symmetry
from .model import DdtmConfig, DdtmParameters
from .oracle import Solution, verify

STRATEGIES = ("greedy", "sampling", "perm", "perm-aug")


class InferenceError(Exception):
    pass


@dataclass(frozen=True)
class InferConfig:
    strategy: str = "greedy"
    sample_width: int = 1280
    seed: int = 0

    def validate(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got '{self.strategy}'")
        if self.strategy == "sampling" and self.sample_width < 1:
            raise ValueError("sample width must be at least 1")


@dataclass
class TrajectoryCensus:
    rewards: np.ndarray              # reward of every trajectory, in evaluation order

    @property
    def count(self):
        return len(self.rewards)


def infer(inst: Instance, params: DdtmParameters, cfg: DdtmConfig,
          infer_cfg: InferConfig) -> tuple:
    """Best solution under the chosen strategy, plus a census of all
    trajectories evaluated. Every returned solution is verified."""
    infer_cfg.validate()
    strategy = infer_cfg.strategy
    orders = (list(itertools.permutations(range(inst.k))) if strategy in ("perm", "perm-aug")
              else [tuple(range(inst.k))])
    copies = ([apply_symmetry(inst, s) for s in range(N_SYMMETRIES)] if strategy == "perm-aug"
              else [inst])
    grid = [p for p in orders for _ in copies]          # order-major: row i is copy i % len(copies)
    roll = mdl.rollout_states(copies * len(orders), grid, params, cfg)
    if len(copies) > 1:
        # decode ran on transformed coordinates; score on the original
        replayed = env.replay([inst] * len(grid), grid, roll.actions)
        rewards, trajectory = np.array([t.reward for t in replayed]), replayed.__getitem__
    else:
        rewards, trajectory = roll.rewards, roll.trajectory

    if strategy == "sampling":
        width = infer_cfg.sample_width
        sampled = mdl.rollout_states([inst] * width, grid * width, params, cfg,
                                     rng=np.random.default_rng(infer_cfg.seed))
        rewards = np.concatenate([rewards, sampled.rewards])
        trajectory = lambda i: roll.trajectory(i) if i < len(grid) else sampled.trajectory(i - len(grid))

    best = trajectory(int(np.argmax(rewards)))   # first best: ties keep the earlier entry
    solution = Solution(routes=best.routes, objective=best.reward, optimal=False)
    report = verify(inst, solution)
    if not report.ok:
        raise InferenceError(f"inference produced an invalid solution: {report.first_violation}")
    return solution, TrajectoryCensus(rewards=rewards)
