"""MSTOP instance generation, eight-fold unit-square augmentation, persistence.

An instance lives in the unit square: a depot, ``n`` prize-carrying customer
nodes, and ``K`` vehicles that start away from the depot with individual
remaining-fuel budgets. Fuel is *remaining* travel budget: a vehicle's route
length may not exceed its initial fuel, and every generated vehicle can reach
the depot immediately (fuel is sampled with the start-to-depot distance as the
lower bound and the shared route-duration cap as the upper bound).

Node references are integers: 0 is the depot, 1..n the customers, and
n+1..n+K the vehicle start locations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .checkpoint import atomic_write

DATASET_VERSION = 1

# The eight isometries of the unit square, in fixed enumeration order; the
# first is the identity.
SQUARE_SYMMETRIES = (
    lambda x, y: (x, y),
    lambda x, y: (y, x),
    lambda x, y: (x, 1.0 - y),
    lambda x, y: (y, 1.0 - x),
    lambda x, y: (1.0 - x, y),
    lambda x, y: (1.0 - y, x),
    lambda x, y: (1.0 - x, 1.0 - y),
    lambda x, y: (1.0 - y, 1.0 - x),
)
N_SYMMETRIES = len(SQUARE_SYMMETRIES)

# Named presets: customer count, vehicle count, shared route-duration cap.
PRESETS = {
    "mstop10": (10, 2, 1.5),
    "mstop20": (20, 2, 2.0),
    "mstop50": (50, 3, 3.0),
    "mstop70": (70, 3, 3.0),
}

PRIZE_MODES = ("constant", "uniform")


class DatasetError(ValueError):
    pass


@dataclass(frozen=True)
class Instance:
    """Immutable problem description. Coordinates are (x, y) in [0, 1]."""

    depot: tuple
    customers: tuple          # ((x, y, prize), ...)
    vehicles: tuple           # ((x, y, fuel), ...)
    t_max: float
    prize_mode: str = "constant"
    seed: int | None = None

    @property
    def n(self):
        return len(self.customers)

    @property
    def k(self):
        return len(self.vehicles)

    def point(self, ref: int) -> tuple:
        """Coordinates of a node reference (depot, customer, or vehicle start)."""
        if ref == 0:
            return self.depot
        if 1 <= ref <= self.n:
            c = self.customers[ref - 1]
            return (c[0], c[1])
        if self.n < ref <= self.n + self.k:
            v = self.vehicles[ref - 1 - self.n]
            return (v[0], v[1])
        raise IndexError(f"node reference {ref} out of range for n={self.n}, K={self.k}")

    # geometry views are memoized on first use (treat them as read-only)

    def _cached(self, key, build):
        arr = self.__dict__.get(key)
        if arr is None:
            arr = build()
            arr.setflags(write=False)
            self.__dict__[key] = arr
        return arr

    def prizes(self) -> np.ndarray:
        return self._cached("_prizes", lambda: np.array([c[2] for c in self.customers], dtype=np.float64))

    def node_xy(self) -> np.ndarray:
        """Coordinates of every node reference, (1 + n + K, 2), cached."""
        return self._cached("_nxy", lambda: np.array(
            [self.depot] + [(c[0], c[1]) for c in self.customers] + [(v[0], v[1]) for v in self.vehicles],
            dtype=np.float64))

    def customer_xy(self) -> np.ndarray:
        return self._cached("_cxy", lambda: self.node_xy()[1:self.n + 1])

    def fuels(self) -> np.ndarray:
        return self._cached("_fuels", lambda: np.array([v[2] for v in self.vehicles], dtype=np.float64))

    def legs(self) -> np.ndarray:
        """Distances from every node to the depot and to every customer,
        (1 + n + K, 1 + n), cached: row = from, column = to. The environment
        and the solvers all read this one table."""
        def build():
            xy = self.node_xy()
            to = xy[:self.n + 1]
            return np.hypot(to[None, :, 0] - xy[:, None, 0], to[None, :, 1] - xy[:, None, 1])
        return self._cached("_legs", build)

    def start_legs(self) -> np.ndarray:
        """The vehicle-start rows of ``legs``, (K, 1 + n)."""
        return self._cached("_start_legs", lambda: self.legs()[self.n + 1:])

    def depot_legs(self) -> np.ndarray:
        """Customer-to-depot distances (return legs), a column of ``legs``."""
        return self._cached("_depot_legs", lambda: self.legs()[1:self.n + 1, 0])


@dataclass(frozen=True)
class GenConfig:
    n: int
    k: int
    t_max: float
    prize_mode: str = "constant"
    seed: int = 0

    @classmethod
    def preset(cls, name: str, prize_mode="constant", seed=0) -> "GenConfig":
        if name not in PRESETS:
            raise ValueError(f"unknown preset '{name}'; choose from {sorted(PRESETS)}")
        n, k, t_max = PRESETS[name]
        return cls(n=n, k=k, t_max=t_max, prize_mode=prize_mode, seed=seed)

    def validate(self):
        if self.n < 1 or self.k < 1 or self.t_max <= 0:
            raise ValueError(f"invalid generation config: n={self.n}, K={self.k}, t_max={self.t_max}")
        if self.prize_mode not in PRIZE_MODES:
            raise ValueError(f"prize mode must be one of {PRIZE_MODES}, got '{self.prize_mode}'")


def euclidean(a, b) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def check_instance(inst: Instance):
    """Validate the instance invariants; raises ValueError on violation."""
    pts = [inst.depot] + [(c[0], c[1]) for c in inst.customers] + [(v[0], v[1]) for v in inst.vehicles]
    for x, y in pts:
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            raise ValueError(f"coordinate ({x}, {y}) outside the unit square")
    for idx, (vx, vy, fuel) in enumerate(inst.vehicles):
        lo = euclidean((vx, vy), inst.depot)
        if not (lo <= fuel <= inst.t_max + 1e-12):
            raise ValueError(f"vehicle {idx}: fuel {fuel} outside [{lo}, {inst.t_max}]")
    for idx, (_, _, p) in enumerate(inst.customers):
        if inst.prize_mode == "constant" and p != 1.0:
            raise ValueError(f"customer {idx}: constant mode requires prize 1, got {p}")
        if inst.prize_mode == "uniform" and not (0.0 <= p <= 1.0):
            raise ValueError(f"customer {idx}: prize {p} outside [0, 1]")


def generate(config: GenConfig) -> Instance:
    """Sample one instance; deterministic for a given config (seed included)."""
    config.validate()
    return _generate(config, config.seed)


def generate_many(config: GenConfig, count: int) -> list:
    """``count`` instances with consecutive seeds starting at config.seed."""
    config.validate()
    return [_generate(config, config.seed + i) for i in range(count)]


def _generate(config: GenConfig, seed: int) -> Instance:
    """The instance of a validated config under ``seed``. The draws come out
    as Python floats, and every vehicle's fuel is drawn between its distance
    to the depot and the route-duration cap; a vehicle farther from the depot
    than the cap is a ``ValueError``."""
    rng = np.random.default_rng(seed)
    dx, dy = rng.random(2).tolist()
    cust_xy = rng.random((config.n, 2)).tolist()
    prizes = [1.0] * config.n if config.prize_mode == "constant" else rng.random(config.n).tolist()
    vehicles = []
    for i, (x, y) in enumerate(rng.random((config.k, 2)).tolist()):
        home = math.hypot(x - dx, y - dy)
        if home > config.t_max:
            raise ValueError(f"seed {seed}: vehicle {i} starts {home} from the depot, "
                             f"beyond t_max={config.t_max}")
        vehicles.append((x, y, float(rng.uniform(home, config.t_max))))
    inst = Instance(
        depot=(dx, dy),
        customers=tuple((x, y, p) for (x, y), p in zip(cust_xy, prizes)),
        vehicles=tuple(vehicles),
        t_max=float(config.t_max),
        prize_mode=config.prize_mode,
        seed=int(seed),
    )
    check_instance(inst)
    return inst


def apply_symmetry(inst: Instance, index: int) -> Instance:
    """Apply one of the eight square isometries to every point of the instance."""
    f = SQUARE_SYMMETRIES[index]
    return Instance(
        depot=f(*inst.depot),
        customers=tuple(f(c[0], c[1]) + (c[2],) for c in inst.customers),
        vehicles=tuple(f(v[0], v[1]) + (v[2],) for v in inst.vehicles),
        t_max=inst.t_max,
        prize_mode=inst.prize_mode,
        seed=inst.seed,
    )


def augment(inst: Instance) -> list:
    """All eight symmetric copies; the first is the instance itself (identity)."""
    return [apply_symmetry(inst, i) for i in range(N_SYMMETRIES)]


# --- dataset persistence (one self-describing JSON record per line) ---------

def _record(inst: Instance) -> dict:
    return {
        "version": DATASET_VERSION,
        "n": inst.n,
        "K": inst.k,
        "t_max": inst.t_max,
        "prize_mode": inst.prize_mode,
        "depot": list(inst.depot),
        "customers": [list(c) for c in inst.customers],
        "vehicles": [list(v) for v in inst.vehicles],
        "seed": inst.seed,
    }


def _from_record(rec: dict) -> Instance:
    version = rec.get("version")
    if version != DATASET_VERSION:
        raise DatasetError(f"unsupported dataset record version {version}, expected {DATASET_VERSION}")
    inst = Instance(
        depot=tuple(rec["depot"]),
        customers=tuple(tuple(c) for c in rec["customers"]),
        vehicles=tuple(tuple(v) for v in rec["vehicles"]),
        t_max=float(rec["t_max"]),
        prize_mode=rec["prize_mode"],
        seed=rec["seed"],
    )
    if inst.n != rec["n"] or inst.k != rec["K"]:
        raise DatasetError(f"record header (n={rec['n']}, K={rec['K']}) disagrees with payload "
                           f"(n={inst.n}, K={inst.k})")
    return inst


def save_dataset(instances, path):
    """Write one JSON record per line with :func:`checkpoint.atomic_write`,
    so a write that fails partway leaves the previous file intact."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            fh.write(json.dumps(_record(inst), separators=(",", ":")) + "\n")


def load_dataset(path) -> list:
    instances = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                inst = _from_record(json.loads(line))
                check_instance(inst)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
                raise DatasetError(f"{path}: malformed record at line {lineno}: {err}") from err
            instances.append(inst)
    return instances
