"""Generate MSTOP instances and tour the eight-fold square symmetry.

Run:  python3 demos/01_instances_and_symmetry.py
"""

import numpy as np

from mstoplab import GenConfig, augment, euclidean, generate

cfg = GenConfig.preset("mstop10", prize_mode="uniform", seed=42)
inst = generate(cfg)

print(f"instance: n={inst.n} customers, K={inst.k} vehicles, T_max={inst.t_max}")
print(f"depot at {inst.depot}")
for k, (x, y, fuel) in enumerate(inst.vehicles):
    back = euclidean(inst.depot, (x, y))
    print(f"  vehicle {k}: start ({x:.3f}, {y:.3f}), fuel {fuel:.3f} "
          f"(needs {back:.3f} just to reach the depot)")
print("first three customers (x, y, prize):")
for c in inst.customers[:3]:
    print(f"  ({c[0]:.3f}, {c[1]:.3f})  prize {c[2]:.3f}")

print("\nthe eight symmetric copies preserve every pairwise distance:")
copies = augment(inst)
refs = list(range(inst.n + inst.k + 1))
rng = np.random.default_rng(0)
for s, aug in enumerate(copies):
    errs = []
    for _ in range(200):
        i, j = rng.choice(refs, size=2, replace=False)
        moved = euclidean(aug.point(i), aug.point(j))
        errs.append(abs(moved - euclidean(inst.point(i), inst.point(j))))
    print(f"  symmetry {s}: depot -> {tuple(round(v, 3) for v in aug.depot)}, "
          f"max distance drift {max(errs):.2e}")

print("\nso a route that is optimal on any copy is optimal on all of them --")
print("that is what both the training baseline and the augmented inference exploit.")
