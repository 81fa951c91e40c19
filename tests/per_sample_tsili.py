"""Reference Tsiligirides heuristic for differential tests: one environment
row per sample.

This is the earlier statement of ``mstoplab.oracle.tsili_solve``, kept as the
slow path that the row-grouped heuristic is checked against. Every sample
holds its own row, so feasibility, desirability and the candidate order are
computed once per sample; the generator stream and the choice of the first
best sample are those of the package's heuristic.
"""

import numpy as np

from mstoplab import env
from mstoplab.oracle import _TINY, Solution, TsiliParams


def tsili_solve(inst, params=TsiliParams(), seed=0):
    params.validate()
    rng = np.random.default_rng(seed)
    s = params.samples
    c = min(params.candidates, inst.n)
    prizes = inst.prizes()
    state = env.reset([inst] * s, np.tile(np.arange(inst.k), (s, 1)))
    record = []                              # (s,) actions per step, -1 = row idle

    for _ in range(inst.k):
        open_rows = np.ones(s, dtype=bool)
        while open_rows.any():
            feas = env.feasible_mask(state, open_rows)[:, 1:]
            alive = feas.any(axis=1)
            actions = np.zeros(s, dtype=np.intp)   # no feasible customer: go home
            if alive.any():
                # only feasible customers are raised to the power: the visited
                # customer a vehicle stands on is at distance zero
                ratio = np.where(feas, prizes[None, :] / np.maximum(state.legs[:, 1:], _TINY), 0.0)
                with np.errstate(over="ignore"):
                    desir = ratio ** params.exponent
                order = np.argsort(-desir, axis=1, kind="stable")[:, :c]
                weights = np.take_along_axis(desir, order, axis=1)
                totals = weights.sum(axis=1, keepdims=True)
                huge = np.flatnonzero(~np.isfinite(totals[:, 0]))
                if huge.size:
                    # a feasible customer (almost) under the vehicle overflowed the
                    # power: these rows raise ratios relative to their largest instead
                    top = ratio[huge] / ratio[huge].max(axis=1, keepdims=True)
                    desir[huge] = top ** params.exponent
                    order[huge] = np.argsort(-desir[huge], axis=1, kind="stable")[:, :c]
                    weights[huge] = np.take_along_axis(desir[huge], order[huge], axis=1)
                    totals[huge] = weights[huge].sum(axis=1, keepdims=True)
                probs = np.divide(weights, totals, out=np.zeros_like(weights), where=totals > 0)
                pick_pos = env.sample_rows(probs, np.arange(s), rng)
                chosen = np.take_along_axis(order, pick_pos[:, None], axis=1)[:, 0]
                actions = np.where(alive, chosen + 1, 0)
            state = env.step(state, actions, open_rows)
            record.append(np.where(open_rows, actions, -1))
            open_rows &= actions != 0

    rewards = state.collected.sum(axis=1)
    best = int(np.argmax(rewards))
    traj = env.Trajectory.of_row(state.orders[best], np.stack(record)[:, best], rewards[best])
    return Solution(routes=traj.routes, objective=traj.reward, optimal=False)
