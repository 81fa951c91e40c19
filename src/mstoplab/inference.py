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
from dataclasses import dataclass, field

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
    include_greedy: bool = True      # union the greedy trajectory into the sampling pool

    def validate(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got '{self.strategy}'")
        if self.strategy == "sampling" and self.sample_width < 1:
            raise ValueError("sample width must be at least 1")


@dataclass
class TrajectoryCensus:
    strategy: str
    entries: list = field(default_factory=list)   # (label, reward) in evaluation order

    @property
    def count(self):
        return len(self.entries)

    @property
    def rewards(self):
        return np.array([r for _, r in self.entries])


def _greedy(instances, orders, params, cfg) -> mdl.BatchRollout:
    return mdl.rollout_states(instances, orders, params, cfg, mode="greedy")


def infer(inst: Instance, params: DdtmParameters, cfg: DdtmConfig,
          infer_cfg: InferConfig) -> tuple:
    """Best solution under the chosen strategy, plus a census of all
    trajectories evaluated. Every returned solution is verified."""
    infer_cfg.validate()
    identity = tuple(range(inst.k))
    perms = list(itertools.permutations(range(inst.k)))

    # labels and rewards in evaluation order, and the trajectory of entry i
    if infer_cfg.strategy == "greedy":
        roll = _greedy([inst], [identity], params, cfg)
        labels, rewards, trajectory = ["greedy"], roll.rewards, roll.trajectory

    elif infer_cfg.strategy == "sampling":
        width = infer_cfg.sample_width
        roll = mdl.rollout_states([inst] * width, [identity] * width, params, cfg,
                                  mode="sample", rng=np.random.default_rng(infer_cfg.seed))
        labels = [f"sample{i}" for i in range(width)]
        rewards, trajectory = roll.rewards, roll.trajectory
        if infer_cfg.include_greedy:
            greedy = _greedy([inst], [identity], params, cfg)
            labels = ["greedy"] + labels
            rewards = np.concatenate([greedy.rewards, rewards])
            trajectory = lambda i: greedy.trajectory(0) if i == 0 else roll.trajectory(i - 1)

    elif infer_cfg.strategy == "perm":
        roll = _greedy([inst] * len(perms), perms, params, cfg)
        labels, rewards, trajectory = [f"order={p}" for p in perms], roll.rewards, roll.trajectory

    else:  # perm-aug
        variants = [(p, s) for p in perms for s in range(N_SYMMETRIES)]
        orders = [p for p, _ in variants]
        roll = _greedy([apply_symmetry(inst, s) for _, s in variants], orders, params, cfg)
        # decode ran on transformed coordinates; score on the original
        replayed = env.replay([inst] * len(variants), orders, roll.actions)
        labels = [f"order={p} sym={s}" for p, s in variants]
        rewards, trajectory = [t.reward for t in replayed], replayed.__getitem__

    entries = [(label, float(r)) for label, r in zip(labels, rewards)]
    best = trajectory(int(np.argmax(rewards)))   # first best: ties keep the earlier entry
    census = TrajectoryCensus(strategy=infer_cfg.strategy, entries=entries)
    solution = Solution(routes=best.routes, objective=best.reward, optimal=False)
    report = verify(inst, solution)
    if not report.ok:
        raise InferenceError(f"inference produced an invalid solution: {report.first_violation}")
    return solution, census


def dominance_check(inst: Instance, params: DdtmParameters, cfg: DdtmConfig) -> tuple:
    """Best-of rewards for (greedy, perm, perm-aug); asserts the deterministic
    containment ordering reward(perm-aug) >= reward(perm) >= reward(greedy)."""
    greedy_sol, _ = infer(inst, params, cfg, InferConfig(strategy="greedy"))
    perm_sol, _ = infer(inst, params, cfg, InferConfig(strategy="perm"))
    aug_sol, _ = infer(inst, params, cfg, InferConfig(strategy="perm-aug"))
    rewards = (greedy_sol.objective, perm_sol.objective, aug_sol.objective)
    if not (rewards[2] >= rewards[1] >= rewards[0]):
        raise InferenceError(f"strategy dominance violated: greedy/perm/perm-aug = {rewards}")
    return rewards
