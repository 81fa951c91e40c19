"""REINFORCE training with interchangeable baselines and a max-entropy term.

The surrogate objective per step is

    loss = -(1/B_total) * sum_i [ (R_i - b_i) * logP_i  +  alpha * H_i ]

where ``logP_i`` is the trajectory log-probability, ``H_i`` the summed
per-step action entropies, and the advantage ``R_i - b_i`` is a constant (no
gradient flows through rewards or baselines). Baselines:

  batch-mean      b = mean reward of the whole batch;
  greedy-rollout  b_i = greedy decode of a frozen parameter copy on the same
                  instance and vehicle order (synced on validation improvement);
  instance-aug    b_i = mean reward over the eight symmetric copies of the
                  instance, all sharing one sampled vehicle order; per-instance
                  advantages then sum to zero exactly.

Instance-aug mode divides the per-step trajectory budget by the augmentation
factor when drawing raw instances, so every baseline consumes the same number
of trajectories per step while instance-aug needs 8x fewer raw instances.

Training instances are drawn on the fly; validation uses a fixed seeded
held-out set decoded greedily with the identity vehicle order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import model as mdl
from .autodiff import Tape
from .checkpoint import save_checkpoint
from .instances import N_SYMMETRIES, GenConfig, augment, generate
from .model import DdtmConfig, DdtmParameters
from .optim import AdamState, adam_step, clip_by_global_norm

BASELINES = ("batch-mean", "greedy-rollout", "instance-aug")


class TrainingError(Exception):
    pass


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    steps_per_epoch: int = 50
    batch: int = 64                  # trajectories per step (all baselines)
    alpha: float = 0.01
    baseline: str = "instance-aug"
    lr: float = 1e-4
    clip_norm: float = 1.0           # 0 disables clipping
    validation_size: int = 100
    seed_data: int = 0
    seed_model: int = 0
    seed_rollout: int = 0

    def validate(self):
        if self.baseline not in BASELINES:
            raise ValueError(f"baseline must be one of {BASELINES}, got '{self.baseline}'")
        if self.alpha < 0 or self.batch < 1 or self.epochs < 0 or self.steps_per_epoch < 1:
            raise ValueError(f"invalid training config: {self}")
        # each of these trains silently wrong: a negative clip factor makes Adam
        # climb the loss, and with no validation instances best.ckpt never moves
        if not self.lr > 0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")
        if not self.clip_norm >= 0:
            raise ValueError(f"clip norm must be >= 0 (0 disables clipping), got {self.clip_norm}")
        if self.validation_size < 1:
            raise ValueError(f"validation size must be at least 1, got {self.validation_size}")
        if self.batch % self.k_aug:
            raise ValueError(f"batch {self.batch} not divisible by augmentation factor {self.k_aug}")

    @property
    def k_aug(self) -> int:
        """Rollouts per raw instance: its symmetric copies under instance-aug."""
        return N_SYMMETRIES if self.baseline == "instance-aug" else 1

    @property
    def raw_per_step(self) -> int:
        return self.batch // self.k_aug


@dataclass(frozen=True)
class EpochReport:
    epoch: int
    train_reward: float
    baseline_value: float
    entropy: float
    grad_norm: float
    val_score: float
    raw_instances: int
    wall_time: float = 0.0           # informational; kept out of deterministic outputs


@dataclass
class StepDiagnostics:
    mean_reward: float
    mean_baseline: float
    mean_step_entropy: float
    grad_norm: float
    loss: float


def baseline_instance_aug(rewards: np.ndarray) -> np.ndarray:
    """Per-instance mean over the augmented rollouts; rewards is (B_raw, K_aug)."""
    rewards = np.asarray(rewards, dtype=np.float64)
    if rewards.ndim != 2:
        raise ValueError(f"expected rewards shaped (instances, augmentations), got {rewards.shape}")
    return rewards.mean(axis=1)


def baseline_batch_mean(rewards: np.ndarray) -> float:
    return float(np.mean(rewards))


def baseline_greedy_rollout(instances, orders, frozen_params: DdtmParameters, cfg: DdtmConfig) -> np.ndarray:
    """Greedy decode of the frozen policy on each instance (same vehicle order)."""
    roll = mdl.rollout_states(list(instances), list(orders), frozen_params, cfg)
    return roll.rewards


def surrogate_loss(roll: mdl.BatchRollout, advantages: np.ndarray, alpha: float):
    """Assemble the scalar surrogate on the rollout's tape."""
    total = roll.rewards.shape[0]
    weighted = ad.mul(roll.logp_sum, ad.constant(advantages))
    combined = ad.add(weighted, ad.mul(roll.entropy_sum, alpha))
    return ad.mul(ad.tsum(combined), -1.0 / total)


def reinforce_step(raw_instances, orders, params: DdtmParameters, adam: AdamState,
                   model_cfg: DdtmConfig, cfg: TrainConfig, *, rollout_rng,
                   frozen_params: DdtmParameters | None = None) -> StepDiagnostics:
    """One REINFORCE update from sampled rollouts of a raw-instance batch."""
    if cfg.baseline == "instance-aug":
        batch_instances, batch_orders = [], []
        for inst, order in zip(raw_instances, orders):
            batch_instances.extend(augment(inst))
            batch_orders.extend([order] * cfg.k_aug)
    else:
        batch_instances, batch_orders = list(raw_instances), list(orders)

    tape = Tape()
    try:
        roll = mdl.rollout_states(batch_instances, batch_orders, params, model_cfg,
                                  rng=rollout_rng, tape=tape, bn_training=True)
    except ad.NonFiniteError as err:
        where = "" if err.row is None else f" (raw instance {err.row // cfg.k_aug})"
        raise TrainingError(f"non-finite values during rollout: {err}{where}") from err
    rewards = roll.rewards
    if cfg.baseline == "instance-aug":
        per_instance = baseline_instance_aug(rewards.reshape(len(raw_instances), cfg.k_aug))
        baselines = np.repeat(per_instance, cfg.k_aug)
    elif cfg.baseline == "batch-mean":
        baselines = np.full_like(rewards, baseline_batch_mean(rewards))
    else:
        if frozen_params is None:
            raise TrainingError("greedy-rollout baseline needs frozen parameters")
        baselines = baseline_greedy_rollout(batch_instances, batch_orders, frozen_params, model_cfg)

    advantages = rewards - baselines
    loss = surrogate_loss(roll, advantages, cfg.alpha)
    if not np.isfinite(loss.values).all():
        raise TrainingError(
            f"non-finite loss (mean reward {rewards.mean():.6f}, mean baseline {baselines.mean():.6f})")
    grads = roll.binding.gradients(tape.backward(loss))
    norm = clip_by_global_norm(grads, cfg.clip_norm)
    adam_step(params.trainable(), grads, adam)
    return StepDiagnostics(
        mean_reward=float(rewards.mean()),
        mean_baseline=float(baselines.mean()),
        mean_step_entropy=roll.mean_step_entropy,
        grad_norm=norm,
        loss=float(loss.values),
    )


def default_sampler(gen_cfg: GenConfig):
    """On-the-fly instance stream: fresh seeds drawn from the data rng."""
    def sample(rng):
        return generate(replace(gen_cfg, seed=int(rng.integers(2 ** 62))))
    return sample


def validation_set(gen_cfg: GenConfig, size: int, seed_data: int):
    """Fixed held-out instances, disjoint from the training stream by seed route."""
    rng = np.random.default_rng([seed_data, 0x5EED])
    return [generate(replace(gen_cfg, seed=int(rng.integers(2 ** 62)))) for _ in range(size)]


def validate_greedy(params: DdtmParameters, model_cfg: DdtmConfig, instances) -> float:
    """Mean greedy-decode reward with the identity vehicle order."""
    if not instances:
        return 0.0
    orders = [tuple(range(inst.k)) for inst in instances]
    roll = mdl.rollout_states(list(instances), orders, params, model_cfg)
    return float(roll.rewards.mean())


def train(params: DdtmParameters | None, model_cfg: DdtmConfig, cfg: TrainConfig,
          gen_cfg: GenConfig, *, instance_sampler=None, checkpoint_dir=None, progress=None):
    """Run the full training loop; returns (params, [EpochReport]).

    ``gen_cfg`` fixes the validation set. ``instance_sampler`` is any callable
    (rng) -> Instance; when omitted it is built from ``gen_cfg``. Report 0
    carries the pre-training validation score of the initial parameters;
    epochs 1..E follow. Checkpoints ``best`` (by validation score) and
    ``last`` are written when a directory is given.
    """
    cfg.validate()
    model_cfg.validate()
    if instance_sampler is None:
        instance_sampler = default_sampler(gen_cfg)
    if params is None:
        params = DdtmParameters.init(model_cfg, seed=cfg.seed_model)
    if cfg.epochs == 0:
        return params, []
    val_instances = validation_set(gen_cfg, cfg.validation_size, cfg.seed_data)

    adam = AdamState(lr=cfg.lr)
    data_rng = np.random.default_rng(cfg.seed_data)
    rollout_rng = np.random.default_rng(cfg.seed_rollout)
    frozen = params.copy() if cfg.baseline == "greedy-rollout" else None

    val0 = validate_greedy(params, model_cfg, val_instances)
    baseline_val = val0
    best_val = val0
    reports = [EpochReport(epoch=0, train_reward=0.0, baseline_value=0.0, entropy=0.0,
                           grad_norm=0.0, val_score=val0, raw_instances=0)]
    if checkpoint_dir is not None:
        save_checkpoint(f"{checkpoint_dir}/best.ckpt", params.arrays, None)

    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        stats = []
        for _ in range(cfg.steps_per_epoch):
            raw = [instance_sampler(data_rng) for _ in range(cfg.raw_per_step)]
            orders = [tuple(int(v) for v in data_rng.permutation(raw[i].k))
                      for i in range(len(raw))]
            diag = reinforce_step(raw, orders, params, adam, model_cfg, cfg,
                                  rollout_rng=rollout_rng, frozen_params=frozen)
            stats.append(diag)
        val = validate_greedy(params, model_cfg, val_instances)
        if cfg.baseline == "greedy-rollout" and val > baseline_val:
            frozen = params.copy()
            baseline_val = val
        report = EpochReport(
            epoch=epoch,
            train_reward=float(np.mean([s.mean_reward for s in stats])),
            baseline_value=float(np.mean([s.mean_baseline for s in stats])),
            entropy=float(np.mean([s.mean_step_entropy for s in stats])),
            grad_norm=float(np.mean([s.grad_norm for s in stats])),
            val_score=val,
            raw_instances=cfg.steps_per_epoch * cfg.raw_per_step,
            wall_time=time.perf_counter() - t0,
        )
        reports.append(report)
        if checkpoint_dir is not None:
            save_checkpoint(f"{checkpoint_dir}/last.ckpt", params.arrays, adam)
            if val > best_val:
                save_checkpoint(f"{checkpoint_dir}/best.ckpt", params.arrays, None)
        if val > best_val:
            best_val = val
        if progress is not None:
            progress(report)
    return params, reports


def metrics_rows(reports) -> list:
    """Deterministic CSV rows (wall time intentionally excluded)."""
    header = "epoch,train_reward,baseline,entropy,grad_norm,val_score,raw_instances"
    rows = [header]
    for r in reports:
        rows.append(f"{r.epoch},{r.train_reward!r},{r.baseline_value!r},{r.entropy!r},"
                    f"{r.grad_norm!r},{r.val_score!r},{r.raw_instances}")
    return rows
