"""Decoding strategies: greedy, sampling, and vehicle-order / instance
augmentation with best-of selection.

The trajectory sets nest: greedy (identity order) is one of the vehicle-order
permutations, and each permutation is the identity-symmetry member of its
eight augmented variants. Best-of rewards are therefore monotone across
greedy -> perm -> perm-aug, deterministically. Augmented decoding runs the
model on the transformed coordinates, then replays the chosen actions on the
original instance, so the returned solution is always verified against the
untransformed geometry.
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
    strategy: str
    rewards: np.ndarray              # reward of every trajectory, in evaluation order

    @property
    def count(self):
        return len(self.rewards)


def infer(inst: Instance, params: DdtmParameters, cfg: DdtmConfig,
          infer_cfg: InferConfig) -> tuple:
    """Best solution under the chosen strategy, plus a census of all
    trajectories evaluated. Every returned solution is verified."""
    infer_cfg.validate()
    identity = tuple(range(inst.k))
    perms = list(itertools.permutations(range(inst.k)))

    # rewards in evaluation order, and the trajectory of entry i
    if infer_cfg.strategy == "greedy":
        roll = mdl.rollout_states([inst], [identity], params, cfg)
        rewards, trajectory = roll.rewards, roll.trajectory

    elif infer_cfg.strategy == "sampling":
        # the greedy trajectory comes first, so sampling never falls below greedy
        width = infer_cfg.sample_width
        roll = mdl.rollout_states([inst] * width, [identity] * width, params, cfg,
                                  rng=np.random.default_rng(infer_cfg.seed))
        greedy = mdl.rollout_states([inst], [identity], params, cfg)
        rewards = np.concatenate([greedy.rewards, roll.rewards])
        trajectory = lambda i: greedy.trajectory(0) if i == 0 else roll.trajectory(i - 1)

    elif infer_cfg.strategy == "perm":
        roll = mdl.rollout_states([inst] * len(perms), perms, params, cfg)
        rewards, trajectory = roll.rewards, roll.trajectory

    else:  # perm-aug
        symmetric = [apply_symmetry(inst, s) for s in range(N_SYMMETRIES)]
        variants = [(p, s) for p in perms for s in range(N_SYMMETRIES)]
        orders = [p for p, _ in variants]
        roll = mdl.rollout_states([symmetric[s] for _, s in variants], orders, params, cfg)
        # decode ran on transformed coordinates; score on the original
        replayed = env.replay([inst] * len(variants), orders, roll.actions)
        rewards, trajectory = np.array([t.reward for t in replayed]), replayed.__getitem__

    best = trajectory(int(np.argmax(rewards)))   # first best: ties keep the earlier entry
    census = TrajectoryCensus(strategy=infer_cfg.strategy, rewards=rewards)
    solution = Solution(routes=best.routes, objective=best.reward, optimal=False)
    report = verify(inst, solution)
    if not report.ok:
        raise InferenceError(f"inference produced an invalid solution: {report.first_violation}")
    return solution, census
