"""Train the policy at desk scale with the instance-augmentation baseline.

Eight symmetric copies of each instance are rolled out; their mean reward is
the per-instance baseline, so the model competes against itself across eight
views of the same graph while consuming 8x fewer raw instances. Takes about
half a minute on one core.

Run:  python3 demos/04_train_tiny.py
"""

import numpy as np

from mstoplab import DdtmConfig, GenConfig, TrainConfig, train
from mstoplab.inference import InferConfig, infer
from mstoplab.instances import generate
from mstoplab.oracle import solve_exact

gen = GenConfig(n=6, k=2, t_max=1.5, prize_mode="constant", seed=0)
model_cfg = DdtmConfig()
train_cfg = TrainConfig(epochs=10, steps_per_epoch=50, batch=64,
                        baseline="instance-aug", alpha=0.01, validation_size=100)

print(f"training: {train_cfg.epochs} epochs x {train_cfg.steps_per_epoch} steps x "
      f"{train_cfg.batch} trajectories ({train_cfg.raw_per_step} raw instances per step)")
params, reports = train(
    None, model_cfg, train_cfg, gen_cfg=gen,
    progress=lambda r: print(f"  epoch {r.epoch:2d}: train {r.train_reward:.3f}  "
                             f"val {r.val_score:.3f}  entropy {r.entropy:.3f}"))
print(f"validation reward went {reports[0].val_score:.3f} -> {reports[-1].val_score:.3f}")

print("\nhow close to optimal is the trained policy with best-of-16 inference?")
gaps = []
for seed in range(50):
    inst = generate(GenConfig(n=6, k=2, t_max=1.5, seed=10_000 + seed))
    ref = solve_exact(inst).objective
    sol, census = infer(inst, params, model_cfg, InferConfig(strategy="perm-aug"))
    gaps.append((ref - sol.objective) / ref if ref > 0 else 0.0)
print(f"  mean optimality gap over 50 fresh instances: {100 * np.mean(gaps):.1f}% "
      f"({census.count} trajectories per instance)")
