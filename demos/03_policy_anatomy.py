"""Step through the constructive policy by hand: encode, decode, act.

Run:  python3 demos/03_policy_anatomy.py
"""

import numpy as np

from mstoplab import DdtmConfig, DdtmParameters, GenConfig, generate
from mstoplab import env
from mstoplab import model as mdl
from mstoplab.autodiff import NEG_INF

cfg = DdtmConfig()  # desk scale: d=32, 4 heads, 2 encoder layers, 1 decoder layer
params = DdtmParameters.init(cfg, seed=0)
inst = generate(GenConfig(n=6, k=2, t_max=1.5, seed=5))

state = env.reset(inst, (0, 1))
emb = mdl.encode_states(state, params, cfg)
print(f"encoder rows: {emb.rows.shape}  (depot + {inst.n} customers + {inst.k} vehicles, width {cfg.d})")
print(f"graph embedding: {emb.graph.shape}  (mean of the unmasked rows)")

dec = mdl.RouteDecoder(emb, params, cfg, state.orders[:, 0])   # each row's first vehicle
print("\ndecoding vehicle 0's route with an untrained network:")
while True:
    feas = env.feasible_mask(state)
    logp = dec.step(state.fuel, np.where(feas, 0.0, NEG_INF)[None])   # one row, masked
    probs = np.exp(logp.values[0])
    action = int(np.argmax(probs))
    line = "  ".join(f"{p:.3f}" if f else "  -  " for p, f in zip(probs, feas))
    print(f"  t_dec={dec.t_dec}  P(depot, customers...) = [{line}] -> action {action}")
    vehicle = state.orders[0, state.active_slot[0]]
    state = env.step(state, action)
    dec.advance(np.array([action]))
    if action == 0:
        print(f"  vehicle {vehicle} is done (fuel left {state.fuels[0, vehicle]:.3f})")
        break

print("\nfull greedy and sampled rollouts under both vehicle orders:")
for order in ((0, 1), (1, 0)):
    greedy = mdl.rollout_states([inst], [order], params, cfg).trajectory(0)
    sampled = mdl.rollout_states([inst], [order], params, cfg,
                                 rng=np.random.default_rng(11)).trajectory(0)
    print(f"  order {order}: greedy reward {greedy.reward:.0f} routes {greedy.routes}; "
          f"sampled reward {sampled.reward:.0f} (log-prob {sampled.log_prob:.2f})")
print("\nthe order matters: each vehicle finishes before the next starts, and the")
print("graph is re-encoded in between, so the two orders explore different tours.")
