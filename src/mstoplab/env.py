"""Deterministic MSTOP decision process, advanced for a batch of rows at once.

One vehicle routes at a time, in an explicitly supplied vehicle order; a
partial route ends when the vehicle selects the depot (action 0), which hands
control to the next vehicle. Visiting a customer zeroes its residual prize,
moves the vehicle, burns fuel equal to the Euclidean leg, and credits the
prize to the vehicle. An action is feasible only if the vehicle can still
return to the depot afterwards, so the depot itself is always feasible.

A :class:`State` holds B rows (instances of equal size, each under its own
vehicle order) in arrays with a leading row axis. ``_reachable`` states the
feasibility rule once: ``feasible_mask`` applies it to every customer and
``step`` to the chosen ones before it applies the one transition. Rollouts,
the heuristic and ``replay`` all drive these two. Both take an optional
boolean ``rows`` selector: rows outside it may only take the depot and are
left unchanged by ``step``. Sampled rollouts and the heuristic draw their
actions with the one row sampler, ``sample_rows``.

Action indices match node references: 0 is the depot, 1..n the customers.
All feasibility comparisons use an absolute epsilon of 1e-9 (float64
accumulation slack over at most n hops).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instances import Instance

EPS = 1e-9


class EnvError(Exception):
    pass


class InfeasibleActionError(EnvError):
    pass


class Batch:
    """The instances behind a state's rows. ``rows`` gives a per-instance
    array a leading row axis, once per batch: read-only views when every row
    holds one instance, stacked copies otherwise. Every state stepped from
    the same ``reset`` shares the batch."""

    def __init__(self, instances, single=False):
        self.instances = instances
        self.single = single            # built from one instance: masks drop the row axis
        self.same = len(instances) == 1 or all(x is instances[0] for x in instances)
        if not self.same and any(x.n != instances[0].n or x.k != instances[0].k for x in instances):
            raise ValueError("a batch of states needs equal customer and vehicle counts")
        self._rows = {}

    def rows(self, view) -> np.ndarray:
        """``view(instance)`` for every row, as one (B, ...) array."""
        arr = self._rows.get(view)
        if arr is None:
            if self.same:
                one, b = view(self.instances[0]), len(self.instances)
                arr = one[None] if b == 1 else np.broadcast_to(one, (b,) + one.shape)
            else:
                arr = np.array([view(x) for x in self.instances])
            self._rows[view] = arr
        return arr

    def take(self, view, rows, index) -> np.ndarray:
        """``view(instance)[index[i]]`` for the instance of row ``rows[i]``."""
        if self.same:
            return view(self.instances[0]).take(index, axis=0)
        return self.rows(view)[rows, index]


@dataclass(eq=False)
class State:
    """B live MDP snapshots. Value-like: ``step`` returns a fresh state.

    A vehicle's location is a node reference (0 depot, 1..n customers,
    n+1..n+K vehicle starts), so an action index is also the node it leads
    to. ``legs`` and ``fuel`` describe each row's active vehicle; a terminal
    row keeps its last vehicle, parked at the depot.
    """

    batch: Batch
    orders: np.ndarray               # (B, K) vehicle ids in routing order
    visited: np.ndarray              # (B, n) bool
    at: np.ndarray                   # (B, K) node where each vehicle is
    fuels: np.ndarray                # (B, K)
    collected: np.ndarray            # (B, K) prize credited per vehicle
    active_slot: np.ndarray          # (B,) index into orders; == K when terminal
    legs: np.ndarray                 # (B, n+1) active vehicle to the depot and every customer
    fuel: np.ndarray                 # (B,) active vehicle's fuel

    def __len__(self) -> int:
        return self.active_slot.shape[0]

    @property
    def terminal(self) -> np.ndarray:
        return self.active_slot >= self.orders.shape[1]

    @property
    def active_vehicle(self) -> np.ndarray:
        if self.terminal.any():
            raise EnvError("terminal state has no active vehicle")
        return self.orders[np.arange(len(self)), self.active_slot]

    @property
    def positions(self) -> np.ndarray:
        """(B, K, 2) vehicle locations."""
        return self.batch.take(Instance.node_xy, np.arange(len(self))[:, None], self.at)

    @property
    def done(self) -> np.ndarray:
        """(B, K) bool, vehicle parked at the depot."""
        return self.at == 0

    @property
    def residual_prizes(self) -> np.ndarray:
        """(B, n) prizes still to collect, zero iff visited."""
        return np.where(self.visited, 0.0, self.batch.rows(Instance.prizes))


@dataclass(frozen=True)
class Trajectory:
    """Completed episode of one row: its actions and the prize collected."""

    order: tuple
    actions: tuple
    reward: float
    log_prob: float = 0.0

    @classmethod
    def of_row(cls, order, row, reward, log_prob=0.0) -> "Trajectory":
        """Trajectory of one row of a (B, T) action record (-1 where idle)."""
        return cls(order=tuple(int(v) for v in order), actions=tuple(int(a) for a in row if a >= 0),
                   reward=float(reward), log_prob=float(log_prob))

    @property
    def routes(self) -> tuple:
        """Customer ids per vehicle (instance indexing)."""
        routes = [[] for _ in self.order]
        slot = 0
        for a in self.actions:
            if a == 0:
                slot += 1
            else:
                routes[self.order[slot]].append(a)
        return tuple(tuple(r) for r in routes)


def _reachable(unvisited, legs, depot_legs, fuel):
    """The feasibility rule: the customer is unvisited, and the vehicle can
    visit it and still return to the depot."""
    return unvisited & (legs + depot_legs <= fuel + EPS)


def reset(instances, orders) -> State:
    """Initial state of each instance under its vehicle permutation (ids
    0..K-1). A lone ``Instance`` with one order gives a one-row state whose
    ``feasible_mask`` has no row axis."""
    single = isinstance(instances, Instance)
    if single:
        instances, orders = [instances], [orders]
    batch = Batch(instances, single)
    b, n, k = len(instances), instances[0].n, instances[0].k
    distinct = set(map(tuple, orders.tolist() if isinstance(orders, np.ndarray) else orders))
    if len(orders) != b or any(sorted(o) != list(range(k)) for o in distinct):
        raise EnvError(f"orders {sorted(distinct)} are not permutations of 0..{k - 1}")
    orders = np.asarray(orders, dtype=np.intp)
    rows, first = np.arange(b), orders[:, 0]
    # ``step`` copies every array it changes before writing to it
    return State(batch=batch, orders=orders, visited=np.zeros((b, n), dtype=bool),
                 at=np.arange(n + 1, n + 1 + k)[None].repeat(b, axis=0),
                 fuels=batch.rows(Instance.fuels), collected=np.zeros((b, k)),
                 active_slot=np.zeros(b, dtype=np.intp),
                 legs=batch.take(Instance.start_legs, rows, first),
                 fuel=batch.take(Instance.fuels, rows, first))


def _selected(state: State, rows):
    """Boolean row selector (None: every row); no selected row may be terminal."""
    ended = state.terminal
    if rows is not None:
        rows = np.asarray(rows, dtype=bool)
        ended &= rows
    if np.count_nonzero(ended):       # cheaper than ``any`` on the small batches
        raise EnvError(f"row {np.flatnonzero(ended)[0]} is terminal")
    return rows


def feasible_mask(state: State, rows=None) -> np.ndarray:
    """Boolean feasibility over actions [depot, customer 1..n], (B, n+1).

    A customer is feasible iff unvisited and the active vehicle can visit it
    and still reach the depot. The depot is always feasible, and it is the
    only feasible action of rows outside ``rows``.
    """
    rows = _selected(state, rows)
    mask = np.empty((len(state), state.visited.shape[1] + 1), dtype=bool)
    mask[:, 0] = True
    mask[:, 1:] = _reachable(~state.visited, state.legs[:, 1:],
                             state.batch.rows(Instance.depot_legs), state.fuel[:, None])
    if rows is not None:
        mask[:, 1:] &= rows[:, None]
    return mask[0] if state.batch.single else mask


def step(state: State, actions, rows=None) -> State:
    """Apply one action per selected row (a scalar for a one-row state); the
    other rows are unchanged. Raises on an infeasible action (contract
    violation), naming the row."""
    rows = _selected(state, rows)
    b, n = state.visited.shape
    actions = np.asarray(actions, dtype=np.intp).reshape(b)
    batch = state.batch
    r = np.arange(b) if rows is None else np.flatnonzero(rows)
    a = actions[r]
    bad = (a < 0) | (a > n)
    if not np.count_nonzero(bad):
        leg = state.legs[r, a]
        c = a > 0
        j = a[c] - 1
        bad[c] = ~_reachable(~state.visited[r[c], j], leg[c],
                             batch.take(Instance.depot_legs, r[c], j), state.fuel[r[c]])
    if np.count_nonzero(bad):
        i = r[bad][0]
        raise InfeasibleActionError(f"row {i}: action {actions[i]} infeasible for vehicle "
                                    f"{state.orders[i, state.active_slot[i]]}")
    # the vehicle burns the leg the rule checked and moves to the chosen node:
    # a customer's prize is collected, the depot hands over to the next vehicle
    nxt = State(batch=batch, orders=state.orders, visited=state.visited.copy(),
                at=state.at.copy(), fuels=state.fuels.copy(), collected=state.collected.copy(),
                active_slot=state.active_slot.copy(), legs=state.legs.copy(),
                fuel=state.fuel.copy())
    veh = state.orders[r, state.active_slot[r]]
    nxt.fuel[r] -= leg
    nxt.fuels[r, veh] = nxt.fuel[r]
    nxt.at[r, veh] = a
    nxt.legs[r] = batch.take(Instance.legs, r, a)
    rc, h = r[c], r[~c]
    nxt.collected[rc, veh[c]] += batch.take(Instance.prizes, rc, j)
    nxt.visited[rc, j] = True
    if h.size:
        nxt.active_slot[h] += 1
        nv = state.orders[h, np.minimum(nxt.active_slot[h], state.orders.shape[1] - 1)]
        nxt.fuel[h] = nxt.fuels[h, nv]
        nxt.legs[h] = batch.take(Instance.legs, h, nxt.at[h, nv])
    return nxt


def sample_rows(probs: np.ndarray, group: np.ndarray, rng) -> np.ndarray:
    """One inverse-CDF draw over the columns of ``probs`` for every row ``i``,
    from the distribution in row ``group[i]``; the generator gives one number
    per row. A draw past the rounded total takes the last positive entry."""
    cum = np.cumsum(probs, axis=1)
    u = rng.random(group.shape[0])
    idx = (u[:, None] > cum[group]).sum(axis=1)
    last_ok = np.where(probs > 0, np.arange(probs.shape[1])[None, :], -1).max(axis=1)
    return np.minimum(idx, last_ok[group])


def replay(instances, orders, actions):
    """Drive the environment with fixed actions (no policy).

    ``instances`` and ``orders`` are lists with one entry per row, and
    ``actions`` is a (B, T) record holding -1 where a row does not act (the
    record a batch rollout returns). Returns a list with one
    :class:`Trajectory` per row; log-probabilities are recorded as zero.
    """
    if isinstance(instances, Instance):
        raise TypeError("replay takes a list with one instance per row, not a lone Instance")
    state = reset(instances, orders)
    record = np.array(actions, dtype=np.intp).reshape(len(state), -1)
    for col in record.T:
        state = step(state, col, col >= 0)
    if not state.terminal.all():
        raise EnvError("action sequence does not reach a terminal state")
    rewards = state.collected.sum(axis=1)
    return [Trajectory.of_row(*row) for row in zip(state.orders, record, rewards)]
