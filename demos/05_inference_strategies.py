"""Compare decoding strategies: greedy, sampling, vehicle-order permutation,
and the combined order x symmetry sweep.

The trajectory sets nest (greedy is one of the permutations; each permutation
is the identity member of its eight augmented variants), so best-of rewards
can only go up along the chain. Run:  python3 demos/05_inference_strategies.py
"""

import numpy as np

from mstoplab import DdtmConfig, DdtmParameters, GenConfig, generate
from mstoplab.inference import InferConfig, infer
from mstoplab.model import rollout_states
from mstoplab.oracle import solve_exact

cfg = DdtmConfig()
params = DdtmParameters.init(cfg, seed=1)   # untrained: strategies still nest

inst = generate(GenConfig(n=5, k=3, t_max=2.0, seed=8))
print(f"instance with K={inst.k} vehicles: 3! = 6 vehicle orders, 8 symmetries")
for strategy in ("greedy", "sampling", "perm", "perm-aug"):
    sol, census = infer(inst, params, cfg,
                        InferConfig(strategy=strategy, sample_width=48, seed=0))
    print(f"  {strategy:<9} best reward {sol.objective:.0f}  "
          f"({census.count:>2} trajectories)")
print(f"  exact     optimum     {solve_exact(inst).objective:.0f}")

print("\nthe dominance chain holds on every instance, trained or not:")
ok = 0
for seed in range(100):
    inst = generate(GenConfig(n=6, k=2, t_max=1.5, prize_mode="uniform", seed=seed))
    g, p, a = (infer(inst, params, cfg, InferConfig(strategy=s))[0].objective
               for s in ("greedy", "perm", "perm-aug"))
    ok += (a >= p >= g)
print(f"  perm-aug >= perm >= greedy on {ok}/100 instances")

print("\nwhy permutations matter: the two vehicle orders can find different tours,")
print("because the first vehicle commits to its whole route before the second starts:")
inst = generate(GenConfig(n=6, k=2, t_max=1.5, seed=4))
for order in ((0, 1), (1, 0)):
    traj = rollout_states([inst], [order], params, cfg).trajectory(0)
    print(f"  order {order}: reward {traj.reward:.0f}, routes {traj.routes}")
