import numpy as np
import pytest

from mstoplab import env
from mstoplab.inference import InferConfig, infer
from mstoplab.instances import GenConfig, apply_symmetry, generate
from mstoplab.model import DdtmConfig, DdtmParameters, rollout_states
from mstoplab.oracle import solve_exact, verify

from conftest import rollout_one

CFG = DdtmConfig()


@pytest.fixture(scope="module")
def params():
    return DdtmParameters.init(CFG, seed=3)


def test_infer_config_validation():
    with pytest.raises(ValueError):
        InferConfig(strategy="beam").validate()
    with pytest.raises(ValueError):
        InferConfig(strategy="sampling", sample_width=0).validate()
    InferConfig(strategy="perm-aug").validate()


def test_greedy_census_single_trajectory(params):
    inst = generate(GenConfig(n=6, k=2, t_max=1.5, seed=0))
    sol, census = infer(inst, params, CFG, InferConfig(strategy="greedy"))
    assert census.count == 1
    assert verify(inst, sol).ok


def test_perm_census_two_vehicles(params):
    inst = generate(GenConfig(n=6, k=2, t_max=1.5, seed=1))
    sol, census = infer(inst, params, CFG, InferConfig(strategy="perm"))
    assert census.count == 2
    # one greedy rollout per vehicle order, in permutation order
    orders = [(0, 1), (1, 0)]
    greedy = rollout_states([inst] * 2, orders, params, CFG)
    assert np.array_equal(census.rewards, greedy.rewards)
    assert sol.objective == census.rewards.max()


def test_perm_aug_census_three_vehicles(params):
    inst = generate(GenConfig(n=5, k=3, t_max=2.0, seed=2))
    sol, census = infer(inst, params, CFG, InferConfig(strategy="perm-aug"))
    assert census.count == 48  # 8 * 3!
    assert verify(inst, sol).ok


def test_single_vehicle_perm_equals_greedy(params):
    inst = generate(GenConfig(n=6, k=1, t_max=1.5, seed=3))
    g, _ = infer(inst, params, CFG, InferConfig(strategy="greedy"))
    p, census = infer(inst, params, CFG, InferConfig(strategy="perm"))
    assert census.count == 1
    assert g.objective == p.objective and g.routes == p.routes


def test_sampling_census_and_determinism(params):
    inst = generate(GenConfig(n=6, k=2, t_max=1.5, seed=4))
    cfg = InferConfig(strategy="sampling", sample_width=32, seed=9)
    a, census_a = infer(inst, params, CFG, cfg)
    b, census_b = infer(inst, params, CFG, cfg)
    assert census_a.count == 33  # width + unioned greedy trajectory
    assert a.objective == b.objective and a.routes == b.routes
    assert np.array_equal(census_a.rewards, census_b.rewards)
    assert census_a.rewards[0] == rollout_one(inst, (0, 1), params, CFG).reward


def test_sampling_with_greedy_union_dominates_greedy(params):
    for seed in range(10):
        inst = generate(GenConfig(n=6, k=2, t_max=1.5, seed=100 + seed))
        g, _ = infer(inst, params, CFG, InferConfig(strategy="greedy"))
        s, _ = infer(inst, params, CFG, InferConfig(strategy="sampling", sample_width=16, seed=seed))
        assert s.objective >= g.objective


def test_dominance_chain_random_params(params):
    """Best-of rewards are monotone greedy -> perm -> perm-aug, and the
    trajectory sets nest index by index: greedy is entry 0 of every census,
    sampling's included, and perm's census is every eighth entry of perm-aug's."""
    insts = ([generate(GenConfig(n=6, k=2, t_max=1.5, prize_mode="uniform", seed=200 + seed))
              for seed in range(20)]
             + [generate(GenConfig.preset(preset, prize_mode="uniform", seed=400 + seed))
                for preset in ("mstop10", "mstop20") for seed in range(5)])
    for seed, inst in enumerate(insts):
        runs = {s: infer(inst, params, CFG, InferConfig(strategy=s, sample_width=8, seed=seed))
                for s in ("greedy", "perm", "perm-aug", "sampling")}
        g, p, a = (runs[s][0].objective for s in ("greedy", "perm", "perm-aug"))
        assert a >= p >= g
        greedy, perm, perm_aug, sampling = (sol_census[1].rewards for sol_census in runs.values())
        assert greedy.shape == (1,)
        assert {c[0].tobytes() for c in (perm, perm_aug, sampling)} == {greedy.tobytes()}
        assert perm.tobytes() == perm_aug[::8].tobytes()


def test_rewards_bounded_by_exact_oracle(params):
    for seed in range(15):
        inst = generate(GenConfig(n=7, k=2, t_max=1.6, seed=300 + seed))
        best = solve_exact(inst).objective
        for strategy in ("greedy", "perm", "perm-aug"):
            sol, _ = infer(inst, params, CFG, InferConfig(strategy=strategy))
            assert sol.objective <= best + 1e-9


def test_augmented_replay_reward_identical(params):
    inst = generate(GenConfig(n=6, k=2, t_max=1.5, seed=5))
    for s in range(8):
        aug = apply_symmetry(inst, s)
        traj = rollout_one(aug, (1, 0), params, CFG)
        replayed = env.replay([inst], [(1, 0)], [traj.actions])[0]
        assert replayed.reward == traj.reward


def test_all_strategies_verify(params):
    inst = generate(GenConfig(n=6, k=2, t_max=1.5, prize_mode="uniform", seed=6))
    for strategy in ("greedy", "sampling", "perm", "perm-aug"):
        sol, _ = infer(inst, params, CFG,
                       InferConfig(strategy=strategy, sample_width=8, seed=0))
        assert verify(inst, sol).ok
