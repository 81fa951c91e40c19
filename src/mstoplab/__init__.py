"""mstoplab: a solver laboratory for the Multi-Start Team Orienteering Problem.

Vehicles start away from the depot with individual remaining-fuel budgets and
collect node prizes under per-route length limits. The package provides exact
and heuristic oracles, a transformer-style constructive policy trained with
REINFORCE (instance-augmentation baseline plus a maximum-entropy term), and
permutation/augmentation inference strategies, all on a small self-contained
reverse-mode autodiff core.
"""

__version__ = "0.1.0"

from .autodiff import Tape, Tensor, constant, forward
from .env import State, Trajectory, feasible_mask, replay, reset, step
from .inference import InferConfig, infer
from .instances import (GenConfig, Instance, augment, euclidean, generate,
                        generate_many, load_dataset, save_dataset)
from .model import DdtmConfig, DdtmParameters
from .optim import AdamState, adam_step
from .oracle import (Solution, TsiliParams, brute_force_enum, solve_exact,
                     tsili_solve, verify)
from .training import EpochReport, TrainConfig, reinforce_step, train

__all__ = [
    "Tape", "Tensor", "constant", "forward",
    "State", "Trajectory", "feasible_mask", "replay", "reset", "step",
    "InferConfig", "infer",
    "GenConfig", "Instance", "augment", "euclidean", "generate", "generate_many",
    "load_dataset", "save_dataset",
    "DdtmConfig", "DdtmParameters",
    "AdamState", "adam_step",
    "Solution", "TsiliParams", "brute_force_enum", "solve_exact", "tsili_solve", "verify",
    "EpochReport", "TrainConfig", "reinforce_step", "train",
]
