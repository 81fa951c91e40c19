import dataclasses
import math
from unittest import mock

import numpy as np
import pytest

import per_sample_tsili
from mstoplab import env
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


def stranded_instance():
    """One vehicle that cannot reach its one customer and return."""
    return Instance(depot=(0.0, 0.0), customers=((0.9, 0.9, 1.0),),
                    vehicles=((0.3, 0.4, 0.5),), t_max=1.0)


def steep_instance():
    return generate(GenConfig(n=8, k=2, t_max=1.5, prize_mode="uniform", seed=61))


def under_the_vehicle_instance():
    """A feasible customer at distance zero from the vehicle's start."""
    return Instance(depot=(0.0, 0.0), customers=((0.5, 0.5, 1.0), (0.6, 0.5, 1.0)),
                    vehicles=((0.5, 0.5, 3.0),), t_max=3.0)


def test_tsili_no_feasible_customer_gives_empty_routes():
    sol = tsili_solve(stranded_instance(), TsiliParams(samples=16), seed=0)
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
    inst = steep_instance()
    sol = tsili_solve(inst, TsiliParams(samples=32, exponent=30.0), seed=0)
    assert verify(inst, sol).ok and sol.objective > 0


def test_tsili_feasible_customer_under_the_vehicle_does_not_overflow():
    """A feasible customer at distance zero has an unbounded desirability; the
    row is weighed relative to its best ratio instead of warning and drawing
    from NaN probabilities (pytest turns the RuntimeWarning into an error)."""
    inst = under_the_vehicle_instance()
    sol = tsili_solve(inst, TsiliParams(samples=8, exponent=30), seed=0)
    assert sol.routes == ((1, 2),) and sol.objective == 2.0
    assert verify(inst, sol).ok


def assert_matches_per_sample_tsili(inst, params):
    """The row-grouped heuristic returns the per-sample reference's
    solution, bit for bit, at 1, 64 and 1280 samples under several seeds."""
    for samples in (1, 64, 1280):
        p = dataclasses.replace(params, samples=samples)
        for seed in (0, 1, 2):
            assert tsili_solve(inst, p, seed) == per_sample_tsili.tsili_solve(inst, p, seed), (p, seed)


@pytest.mark.parametrize("params", [TsiliParams(), TsiliParams(candidates=1), TsiliParams(candidates=30),
                                    TsiliParams(exponent=1.0, candidates=8)],
                         ids=["default", "candidates-1", "candidates-over-n", "exponent-1-candidates-8"])
@pytest.mark.parametrize("gen_cfg", [GenConfig.preset("mstop10", seed=71), GenConfig.preset("mstop20", seed=72),
                                     GenConfig(n=5, k=2, t_max=1.5, prize_mode="uniform", seed=73)],
                         ids=["mstop10", "mstop20", "n5"])
def test_tsili_matches_per_sample_reference(gen_cfg, params):
    assert_matches_per_sample_tsili(generate(gen_cfg), params)


@pytest.mark.parametrize("make, params", [(steep_instance, TsiliParams(exponent=30.0)),
                                          (under_the_vehicle_instance, TsiliParams(exponent=30.0)),
                                          (stranded_instance, TsiliParams())],
                         ids=["steep-exponent", "steep-exponent-under-the-vehicle", "no-feasible-customer"])
def test_tsili_matches_per_sample_reference_on_edge_instances(make, params):
    assert_matches_per_sample_tsili(make(), params)


def stepped_row_counts(inst, params, seed):
    """The number of rows ``env.step`` steps in each call of one solve: a
    state's rows, or the ``parent`` rows it takes from the state."""
    counts, real_step = [], env.step

    def counting(state, actions, rows=None, parent=None):
        counts.append(len(state) if parent is None else len(parent))
        return real_step(state, actions, rows, parent)

    with mock.patch.object(env, "step", counting):
        tsili_solve(inst, params, seed)
    return counts


def test_tsili_steps_one_row_per_distinct_partial_route():
    inst = generate(GenConfig.preset("mstop10", seed=4))
    assert stepped_row_counts(inst, TsiliParams(), seed=0) == [4, 13, 24, 25, 25, 25, 73, 146, 163, 165, 165, 165]
    assert max(stepped_row_counts(inst, TsiliParams(samples=8), seed=0)) <= 8
    # with one candidate every sample follows the same route
    for seed in range(3):
        assert set(stepped_row_counts(inst, TsiliParams(candidates=1), seed)) == {1}


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
