"""Exact and heuristic MSTOP solvers plus an independent solution verifier.

``solve_exact`` is a depth-first branch-and-bound over sequential route
construction: vehicles build their routes one at a time, customer by customer,
so subtours cannot form and the search tree ranges over exactly the feasible
route sets. The pruning bound (collected prize plus the prizes of all
customers still individually reachable by the active vehicle in its current
state or by any not-yet-started vehicle in its initial state) is admissible
because a vehicle's reach-and-return slack for a fixed customer never
increases as the route grows; a completed search is therefore exact.

``brute_force_enum`` is an independent exhaustive oracle for tiny instances,
used to cross-check the branch-and-bound in tests.

``tsili_solve`` is the Tsiligirides stochastic heuristic (Tsiligirides 1984),
the non-learned baseline: many samples build routes at once, and the best is
kept. Samples that share a partial route share one environment row, so the
environment and the candidate weights work once per distinct route; each
sample still draws its own number, so the result is that of one row per
sample.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import env
from .env import EPS
from .instances import Instance, euclidean

_TINY = 1e-12
EXACT_BUDGET = 10_000_000    # node expansions before solve_exact gives up on optimality


@dataclass(frozen=True)
class Solution:
    """K ordered customer routes (implicitly start_k -> ... -> depot)."""

    routes: tuple                # tuple of tuples of customer ids (1..n)
    objective: float
    optimal: bool
    expansions: int = 0


@dataclass(frozen=True)
class TsiliParams:
    samples: int = 1280
    exponent: float = 4.0
    candidates: int = 4

    def validate(self):
        if self.samples < 1 or self.exponent <= 0 or self.candidates < 1:
            raise ValueError(f"invalid heuristic parameters: {self}")


def _geometry(inst: Instance):
    """Plain-list inputs of the solvers: the environment's distances from
    every node reference to the depot and the customers, customer prizes,
    vehicle fuels, every node's leg to the depot, and each vehicle's start
    reference."""
    d = inst.legs().tolist()
    dret = [d[j][0] for j in range(inst.n + 1)]
    return d, inst.prizes().tolist(), inst.fuels().tolist(), dret, [inst.n + 1 + k for k in range(inst.k)]


def solve_exact(inst: Instance, budget: int = EXACT_BUDGET) -> Solution:
    """Optimal solution via branch-and-bound; ``optimal`` is False only when
    the node-expansion budget runs out (the best incumbent is still returned).
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    n, k_veh = inst.n, inst.k
    d, p, fuels, dret, start = _geometry(inst)

    # Static reachability of each customer from each vehicle's initial state,
    # then suffix unions: customers some vehicle AFTER slot k can still serve.
    static_reach = []
    for k in range(k_veh):
        row = d[start[k]]
        static_reach.append({j for j in range(1, n + 1) if row[j] + dret[j] <= fuels[k] + EPS})
    reach_later = [set() for _ in range(k_veh + 1)]
    for k in range(k_veh - 1, -1, -1):
        reach_later[k] = reach_later[k + 1] | static_reach[k + 1] if k + 1 < k_veh else set()

    best = {"obj": -1.0, "routes": None}
    counter = {"expansions": 0, "complete": True}
    route_stack = [[] for _ in range(k_veh)]

    def consider_candidate(collected):
        routes = tuple(tuple(r) for r in route_stack)
        if collected > best["obj"] + _TINY:
            best["obj"] = collected
            best["routes"] = routes
        elif abs(collected - best["obj"]) <= _TINY and routes < best["routes"]:
            best["routes"] = routes

    def dfs(k, pos, fuel, visited, collected):
        counter["expansions"] += 1
        if counter["expansions"] > budget:
            counter["complete"] = False
            return
        drow = d[pos]
        later = reach_later[k]
        bound = collected
        feasible = []
        for j in range(1, n + 1):
            if visited & (1 << j):
                continue
            if drow[j] + dret[j] <= fuel + EPS:
                bound += p[j - 1]
                feasible.append(j)
            elif j in later:
                bound += p[j - 1]
        if bound <= best["obj"] + _TINY:
            return
        feasible.sort(key=lambda j: (-p[j - 1] / max(drow[j], _TINY), j))
        route = route_stack[k]
        for j in feasible:
            route.append(j)
            dfs(k, j, fuel - drow[j], visited | (1 << j), collected + p[j - 1])
            route.pop()
            if not counter["complete"]:
                return
        # close this route: the vehicle heads to the depot unconditionally
        if k + 1 == k_veh:
            consider_candidate(collected)
        else:
            dfs(k + 1, start[k + 1], fuels[k + 1], visited, collected)

    dfs(0, start[0], fuels[0], 0, 0.0)
    if best["routes"] is None:               # bound pruned even the empty plan
        best["obj"] = 0.0
        best["routes"] = tuple(() for _ in range(k_veh))
    return Solution(routes=best["routes"], objective=max(best["obj"], 0.0),
                    optimal=counter["complete"], expansions=counter["expansions"])


def brute_force_enum(inst: Instance, max_n: int = 8) -> Solution:
    """Exhaustive optimum over all assignments of customers to vehicles and
    all visit orders; test oracle only (``n`` capped at ``max_n``).
    """
    n, k_veh = inst.n, inst.k
    if n > max_n:
        raise ValueError(f"brute force enumeration capped at n={max_n}, got n={n}")
    d, p, fuels, dret, start = _geometry(inst)

    # Held-Karp per vehicle: cheapest start -> subset -> depot walk length.
    n_subsets = 1 << n
    feasible = [[False] * n_subsets for _ in range(k_veh)]
    for k in range(k_veh):
        best_len = [math.inf] * n_subsets
        # dp[(subset, last)] = cheapest length covering subset, ending at last
        dp = {}
        for j in range(n):
            s = 1 << j
            dp[(s, j)] = d[start[k]][j + 1]
            best_len[s] = min(best_len[s], dp[(s, j)] + dret[j + 1])
        for subset in range(1, n_subsets):
            for j in range(n):
                if not subset & (1 << j) or (subset, j) not in dp:
                    continue
                base = dp[(subset, j)]
                for m in range(n):
                    if subset & (1 << m):
                        continue
                    s2 = subset | (1 << m)
                    cand = base + d[j + 1][m + 1]
                    if cand < dp.get((s2, m), math.inf):
                        dp[(s2, m)] = cand
                        best_len[s2] = min(best_len[s2], cand + dret[m + 1])
        f = fuels[k] + EPS
        feasible[k][0] = True                 # empty route is always feasible
        for subset in range(1, n_subsets):
            feasible[k][subset] = best_len[subset] <= f

    best_obj = -1.0
    best_assign = None
    for assign in itertools.product(range(k_veh + 1), repeat=n):
        subsets = [0] * k_veh
        obj = 0.0
        for j, who in enumerate(assign):
            if who < k_veh:
                subsets[who] |= 1 << j
                obj += p[j]
        if obj <= best_obj + _TINY:
            continue
        if all(feasible[k][subsets[k]] for k in range(k_veh)):
            best_obj = obj
            best_assign = subsets

    if best_assign is None:
        return Solution(routes=tuple(() for _ in range(k_veh)), objective=0.0, optimal=True)

    routes = []
    for k in range(k_veh):
        members = [j + 1 for j in range(n) if best_assign[k] & (1 << j)]
        best_route, best_len = (), math.inf
        for perm in itertools.permutations(members):
            length = d[start[k]][perm[0]] if perm else dret[0]
            for a, b in zip(perm[:-1], perm[1:]):
                length += d[a][b]
            if perm:
                length += dret[perm[-1]]
            if length < best_len:
                best_len = length
                best_route = perm
        routes.append(best_route)
    return Solution(routes=tuple(routes), objective=max(best_obj, 0.0), optimal=True)


@dataclass(frozen=True)
class Violation:
    constraint: str
    detail: str


@dataclass(frozen=True)
class FeasibilityReport:
    ok: bool
    violations: tuple
    objective_recomputed: float

    @property
    def first_violation(self):
        return self.violations[0] if self.violations else None


def verify(inst: Instance, sol: Solution) -> FeasibilityReport:
    """Check every solution invariant and recompute the objective independently.

    Violations are reported by constraint name; all checks run (nothing stops
    at the first failure).
    """
    violations = []
    if len(sol.routes) != inst.k:
        violations.append(Violation("route-count", f"expected {inst.k} routes, got {len(sol.routes)}"))
    seen = {}
    for k, route in enumerate(sol.routes):
        for c in route:
            if not (1 <= c <= inst.n):
                violations.append(Violation("node-range", f"route {k} visits unknown node {c}"))
            elif c in seen:
                violations.append(Violation("duplicate-visit", f"customer {c} in routes {seen[c]} and {k}"))
            else:
                seen[c] = k
    fuels = inst.fuels()
    for k, route in enumerate(sol.routes[:inst.k]):
        if not route:
            continue
        pts = [inst.point(inst.n + 1 + k)] + [inst.point(c) for c in route if 1 <= c <= inst.n] + [inst.depot]
        length = sum(euclidean(a, b) for a, b in zip(pts[:-1], pts[1:]))
        if length > fuels[k] + EPS:
            violations.append(Violation("fuel-budget", f"route {k} length {length:.12f} exceeds fuel {fuels[k]:.12f}"))
    prizes = inst.prizes()
    recomputed = float(sum(prizes[c - 1] for c in seen))
    if abs(recomputed - sol.objective) > 1e-9:
        violations.append(Violation("objective-mismatch",
                                    f"stated {sol.objective!r}, recomputed {recomputed!r}"))
    return FeasibilityReport(ok=not violations, violations=tuple(violations),
                             objective_recomputed=recomputed)


def tsili_solve(inst: Instance, params: TsiliParams = TsiliParams(), seed: int = 0) -> Solution:
    """Stochastic constructive heuristic: many parallel samples, keep the best.

    Each sample builds routes vehicle by vehicle (instance order). At every
    step the vehicle looks at the feasible customers (visit plus return to
    depot within fuel), ranks them by desirability (prize / distance)^exponent,
    and samples among the top ``candidates`` proportionally to desirability,
    with the row sampler of the policy's rollouts (``env.sample_rows``).
    Deterministic for a given seed.

    Samples that share a partial route share one environment row: ``group``
    maps each sample to its row, and feasibility and the candidate weights
    are worked out once per row. Each sample still draws its own number, so
    the draws and the result are those of one row per sample. After each
    step the rows are the distinct (row, action) pairs, and the state copies
    rows only when some row's samples part ways.
    """
    params.validate()
    rng = np.random.default_rng(seed)
    s, n = params.samples, inst.n
    c = min(params.candidates, n)
    prizes = inst.prizes()
    state = env.reset([inst], [np.arange(inst.k)])
    group = np.zeros(s, dtype=np.intp)       # each sample's row
    record = []                              # (s,) actions per step, -1 = sample idle

    for _ in range(inst.k):
        open_rows = np.ones(len(state), dtype=bool)
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
                pick_pos = env.sample_rows(probs, group, rng)
                actions = np.where(alive[group], order[group, pick_pos] + 1, 0)
            record.append(np.where(open_rows[group], actions, -1))
            # the next rows are the distinct (row, action) pairs, in key order
            keys = group * (n + 1) + actions
            seen = np.zeros(len(state) * (n + 1), dtype=bool)
            seen[keys] = True
            pairs = np.flatnonzero(seen)
            parent, row_actions = np.divmod(pairs, n + 1)
            if pairs.size > len(state):      # some row's samples part ways
                index = np.empty(seen.size, dtype=np.intp)
                index[pairs] = np.arange(pairs.size)
                group = index[keys]
                state, open_rows = state.take(parent), open_rows[parent]
            state = env.step(state, row_actions, open_rows)
            open_rows &= row_actions != 0

    rewards = state.collected.sum(axis=1)[group]
    best = int(np.argmax(rewards))
    traj = env.Trajectory.of_row(state.orders[group[best]], np.stack(record)[:, best], rewards[best])
    return Solution(routes=traj.routes, objective=traj.reward, optimal=False)
