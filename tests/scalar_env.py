"""Reference environment for differential tests: one instance, one row.

This is the environment's earlier scalar statement of the feasibility rule
and the transition, kept as the slow path that the batch environment in
``mstoplab.env`` is checked against. Fuel is deducted with ``math.hypot``, as
it was then.
"""

from dataclasses import dataclass, replace

import numpy as np

from mstoplab.env import EPS, EnvError, InfeasibleActionError
from mstoplab.instances import Instance, euclidean


@dataclass
class ScalarState:
    instance: Instance
    residual_prizes: np.ndarray      # (n,), zero iff visited
    positions: np.ndarray            # (K, 2)
    fuels: np.ndarray                # (K,)
    collected: np.ndarray            # (K,)
    done: np.ndarray                 # (K,) bool
    visited: np.ndarray              # (n,) bool
    order: tuple
    active_slot: int

    @property
    def terminal(self) -> bool:
        return self.active_slot >= len(self.order)


def reset(inst: Instance, order) -> ScalarState:
    return ScalarState(inst, inst.prizes().copy(), inst.node_xy()[inst.n + 1:].copy(), inst.fuels().copy(),
                       np.zeros(inst.k), np.zeros(inst.k, dtype=bool), np.zeros(inst.n, dtype=bool),
                       tuple(int(v) for v in order), 0)


def feasible_mask(state: ScalarState) -> np.ndarray:
    if state.terminal:
        raise EnvError("feasible_mask called on terminal state")
    inst = state.instance
    pos = state.positions[state.order[state.active_slot]]
    fuel = state.fuels[state.order[state.active_slot]]
    cxy = inst.customer_xy()
    to_cust = np.hypot(cxy[:, 0] - pos[0], cxy[:, 1] - pos[1])
    return np.concatenate([[True], (~state.visited) & (to_cust + inst.depot_legs() <= fuel + EPS)])


def step(state: ScalarState, action: int) -> ScalarState:
    mask = feasible_mask(state)
    if not 0 <= action < mask.size or not mask[action]:
        raise InfeasibleActionError(f"action {action} infeasible")
    k = state.order[state.active_slot]
    nxt = replace(state, residual_prizes=state.residual_prizes.copy(), positions=state.positions.copy(),
                  fuels=state.fuels.copy(), collected=state.collected.copy(), done=state.done.copy(),
                  visited=state.visited.copy())
    target = state.instance.point(action)
    nxt.fuels[k] -= euclidean(state.positions[k], target)
    nxt.positions[k] = target
    if action == 0:
        nxt.done[k] = True
        nxt.active_slot += 1
    else:
        nxt.collected[k] += state.residual_prizes[action - 1]
        nxt.residual_prizes[action - 1] = 0.0
        nxt.visited[action - 1] = True
    return nxt
