import math

import numpy as np
import pytest

from mstoplab.instances import GenConfig, Instance, augment, generate
from mstoplab.oracle import (Solution, TsiliParams, brute_force_enum,
                             solve_exact, tsili_solve, verify)

from conftest import generous_instance


def single_customer_instance(fuel):
    return Instance(depot=(0.0, 0.0), customers=((0.5, 0.5, 1.0),),
                    vehicles=((1.0, 1.0, fuel),), t_max=1.5)


# --- exact solver ---------------------------------------------------------------

def test_single_customer_reachable():
    # visit cost 0.7071 + 0.7071 = 1.4142 <= 1.5
    sol = solve_exact(single_customer_instance(1.5))
    assert sol.objective == 1.0 and sol.optimal and sol.routes == ((1,),)


def test_single_customer_unreachable_goes_straight_home():
    sol = solve_exact(single_customer_instance(1.0))
    assert sol.objective == 0.0 and sol.routes == ((),)


def test_exact_matches_brute_force():
    for n in (5, 6):
        for seed in range(30):
            inst = generate(GenConfig(n=n, k=2, t_max=1.5, seed=7000 * n + seed))
            a = solve_exact(inst)
            b = brute_force_enum(inst)
            assert a.optimal and b.optimal
            assert a.objective == b.objective


def test_exact_budget_exhaustion_returns_incumbent():
    inst = generate(GenConfig(n=10, k=2, t_max=1.5, seed=123))
    full = solve_exact(inst)
    capped = solve_exact(inst, budget=5)
    assert full.optimal and not capped.optimal
    assert capped.expansions <= 6
    assert capped.objective <= full.objective
    assert verify(inst, capped).ok
    with pytest.raises(ValueError):
        solve_exact(inst, budget=0)


def test_exact_deterministic_routes():
    inst = generate(GenConfig(n=8, k=2, t_max=1.5, seed=77))
    assert solve_exact(inst).routes == solve_exact(inst).routes


def test_exact_fuel_monotonicity():
    for seed in range(15):
        inst = generate(GenConfig(n=7, k=2, t_max=1.5, seed=400 + seed))
        base = solve_exact(inst).objective
        for k in range(inst.k):
            vehicles = list(inst.vehicles)
            vx, vy, fuel = vehicles[k]
            vehicles[k] = (vx, vy, fuel + 0.25)
            bumped = Instance(depot=inst.depot, customers=inst.customers,
                              vehicles=tuple(vehicles), t_max=inst.t_max + 0.25,
                              prize_mode=inst.prize_mode)
            assert solve_exact(bumped).objective >= base - 1e-12


def test_exact_augmentation_invariant_objective():
    for seed in range(15):
        inst = generate(GenConfig(n=6, k=2, t_max=1.5, prize_mode="uniform", seed=900 + seed))
        objectives = [solve_exact(a).objective for a in augment(inst)]
        assert max(objectives) - min(objectives) <= 1e-9


# --- brute force ------------------------------------------------------------------

def test_brute_force_empty_instance():
    inst = Instance(depot=(0.2, 0.2), customers=(), vehicles=((0.5, 0.5, 1.0),), t_max=1.0)
    sol = brute_force_enum(inst)
    assert sol.objective == 0.0 and sol.routes == ((),)
    assert solve_exact(inst).objective == 0.0


def test_brute_force_single_customer_two_vehicles():
    inst = generous_instance(n=1, k=2)
    sol = brute_force_enum(inst)
    assert sol.objective == 1.0
    assert sum(len(r) for r in sol.routes) == 1


def test_brute_force_size_cap():
    inst = generate(GenConfig(n=9, k=2, t_max=1.5, seed=0))
    with pytest.raises(ValueError):
        brute_force_enum(inst)


# --- verifier ---------------------------------------------------------------------

def test_verify_accepts_exact_solutions():
    for seed in range(20):
        inst = generate(GenConfig(n=6, k=2, t_max=1.5, prize_mode="uniform", seed=50 + seed))
        report = verify(inst, solve_exact(inst))
        assert report.ok and report.first_violation is None


def test_verify_flags_duplicate_visit():
    inst = generous_instance(n=3, k=2)
    bad = Solution(routes=((1, 2), (2,)), objective=3.0, optimal=False)
    report = verify(inst, bad)
    assert not report.ok
    assert any(v.constraint == "duplicate-visit" for v in report.violations)


def test_verify_flags_fuel_budget():
    inst = Instance(depot=(0.0, 0.0), customers=((0.9, 0.9, 1.0),),
                    vehicles=((0.1, 0.1, 0.3),), t_max=1.0)
    bad = Solution(routes=((1,),), objective=1.0, optimal=False)
    report = verify(inst, bad)
    assert any(v.constraint == "fuel-budget" for v in report.violations)


def test_verify_flags_route_count_and_objective():
    inst = generous_instance(n=2, k=2)
    report = verify(inst, Solution(routes=((1,),), objective=5.0, optimal=False))
    names = {v.constraint for v in report.violations}
    assert "route-count" in names and "objective-mismatch" in names
    assert report.objective_recomputed == 1.0


# --- stochastic heuristic ------------------------------------------------------------

def test_tsili_candidate_set_one_is_greedy_deterministic():
    inst = generate(GenConfig(n=8, k=2, t_max=1.5, seed=5))
    a = tsili_solve(inst, TsiliParams(samples=4, candidates=1), seed=1)
    b = tsili_solve(inst, TsiliParams(samples=4, candidates=1), seed=2)
    assert a.routes == b.routes and a.objective == b.objective


def test_tsili_no_feasible_customer_gives_empty_routes():
    inst = Instance(depot=(0.0, 0.0), customers=((0.9, 0.9, 1.0),),
                    vehicles=((0.3, 0.4, 0.5),), t_max=1.0)
    sol = tsili_solve(inst, TsiliParams(samples=16), seed=0)
    assert sol.objective == 0.0 and sol.routes == ((),)


def test_tsili_deterministic_given_seed():
    inst = generate(GenConfig(n=10, k=2, t_max=1.5, seed=9))
    a = tsili_solve(inst, TsiliParams(samples=64), seed=3)
    b = tsili_solve(inst, TsiliParams(samples=64), seed=3)
    assert a.routes == b.routes and a.objective == b.objective


def test_tsili_solutions_verify_and_bounded_by_exact():
    for seed in range(20):
        inst = generate(GenConfig(n=8, k=2, t_max=1.5, prize_mode="uniform", seed=60 + seed))
        sol = tsili_solve(inst, TsiliParams(samples=128), seed=seed)
        assert verify(inst, sol).ok
        assert sol.objective <= solve_exact(inst).objective + 1e-9


def test_tsili_steep_exponent_does_not_overflow():
    """The visited customer a vehicle stands on is at distance zero, so its
    desirability must not be raised to the power: at exponent 30 that would
    overflow, and pytest turns the RuntimeWarning into an error."""
    inst = generate(GenConfig(n=8, k=2, t_max=1.5, prize_mode="uniform", seed=61))
    sol = tsili_solve(inst, TsiliParams(samples=32, exponent=30.0), seed=0)
    assert verify(inst, sol).ok and sol.objective > 0


def test_tsili_params_validation():
    with pytest.raises(ValueError):
        TsiliParams(samples=0).validate()
    with pytest.raises(ValueError):
        TsiliParams(exponent=0.0).validate()
    with pytest.raises(ValueError):
        TsiliParams(candidates=0).validate()


@pytest.mark.slow
def test_tsili_sampling_close_to_exact_mean():
    # width-1280 sampling lands within 5% of the exact mean over 1,000 instances
    exact_total = 0.0
    tsili_total = 0.0
    for seed in range(1000):
        inst = generate(GenConfig(n=10, k=2, t_max=1.5, seed=31_000 + seed))
        exact_total += solve_exact(inst).objective
        tsili_total += tsili_solve(inst, TsiliParams(samples=1280), seed=seed).objective
    assert tsili_total >= 0.95 * exact_total
