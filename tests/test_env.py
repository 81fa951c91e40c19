import dataclasses
import math

import numpy as np
import pytest

import scalar_env
from mstoplab import model as mdl
from mstoplab.env import (EPS, EnvError, InfeasibleActionError, feasible_mask, replay,
                          reset, sample_rows, step)
from mstoplab.instances import GenConfig, Instance, augment, euclidean, generate
from mstoplab.model import DdtmConfig, DdtmParameters

from conftest import active_vehicles, generous_instance, tiny_instance


def line_instance():
    """Depot (0,0); customers on the x axis; vehicle at (0.5, 0) with fuel 1."""
    return Instance(
        depot=(0.0, 0.0),
        customers=((0.25, 0.0, 0.4), (0.6, 0.0, 0.7), (0.9, 0.0, 1.0)),
        vehicles=((0.5, 0.0, 1.0), (0.1, 0.0, 0.3)),
        t_max=1.0,
        prize_mode="uniform",
    )


def random_episode(inst, order, rng):
    """Actions of one random walk to the terminal state, and that state."""
    st = reset(inst, order)
    actions = []
    while not st.terminal.all():
        a = int(rng.choice(np.flatnonzero(feasible_mask(st))))
        actions.append(a)
        st = step(st, a)
    return actions, st


# --- reset -------------------------------------------------------------------

def test_reset_identity_order_activates_first_vehicle():
    inst = tiny_instance(seed=1)
    st = reset(inst, (0, 1))
    assert active_vehicles(st)[0] == 0 and st.active_slot[0] == 0 and len(st) == 1
    assert np.array_equal(st.residual_prizes[0], inst.prizes())


def test_reset_reversed_order_activates_second_vehicle():
    st = reset(tiny_instance(seed=1), (1, 0))
    assert active_vehicles(st)[0] == 1


def test_reset_is_deterministic():
    inst = tiny_instance(seed=2)
    a, b = reset(inst, (0, 1)), reset(inst, (0, 1))
    assert np.array_equal(a.fuels, b.fuels) and np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.orders, b.orders) and np.array_equal(a.active_slot, b.active_slot)


def test_reset_rejects_non_permutation():
    inst = tiny_instance(seed=1)
    with pytest.raises(EnvError):
        reset(inst, (0, 0))
    with pytest.raises(EnvError):
        reset(inst, (0,))
    with pytest.raises(EnvError):
        reset([inst, inst], [(0, 1), (1, 1)])


def test_reset_rejects_mixed_extents():
    with pytest.raises(ValueError):
        reset([tiny_instance(n=6), tiny_instance(n=5)], [(0, 1), (0, 1)])


# --- feasibility ---------------------------------------------------------------

def test_mask_boundary_only_depot():
    # fuel exactly the distance to the depot: no customer detour possible
    inst = Instance(depot=(0.0, 0.0), customers=((0.5, 0.5, 1.0),),
                    vehicles=((0.3, 0.4, 0.5),), t_max=1.0)
    mask = feasible_mask(reset(inst, (0,)))
    assert mask[0] and not mask[1:].any()


def test_mask_generous_fuel_all_customers_feasible():
    inst = generous_instance(n=5, k=2)
    st = reset(inst, (0, 1))
    mask = feasible_mask(st)
    # independent distance check per customer
    for j in range(1, inst.n + 1):
        detour = (euclidean(inst.point(inst.n + 1), inst.point(j))
                  + euclidean(inst.point(j), inst.point(0)))
        assert detour <= inst.fuels()[0]
        assert mask[j]
    assert mask[0]


def test_mask_visited_customer_infeasible():
    st = reset(generous_instance(n=3, k=2), (0, 1))
    st = step(st, 2)
    assert not feasible_mask(st)[2]
    assert feasible_mask(st)[1] and feasible_mask(st)[3]


def test_mask_on_terminal_state_raises():
    st = reset(generous_instance(n=2, k=1), (0,))
    st = step(st, 0)
    assert st.terminal.all()
    with pytest.raises(EnvError):
        feasible_mask(st)


def test_mask_of_unselected_rows_is_depot_only():
    inst = generous_instance(n=3, k=2)
    st = reset([inst, inst], [(0, 1), (1, 0)])
    mask = feasible_mask(st, np.array([True, False]))
    assert mask.shape == (2, 4) and mask[0].all()
    assert mask[1, 0] and not mask[1, 1:].any()


# --- transitions -----------------------------------------------------------------

def test_step_fuel_arithmetic():
    st = reset(line_instance(), (0, 1))
    nxt = step(st, 1)  # vehicle at (0.5,0) -> customer at (0.25,0): distance 0.25
    assert abs(nxt.fuels[0, 0] - 0.75) <= 1e-12 and abs(nxt.fuel[0] - 0.75) <= 1e-12
    assert np.array_equal(nxt.positions[0, 0], (0.25, 0.0))


def test_step_prize_bookkeeping():
    st = reset(line_instance(), (0, 1))
    st.collected[0, 0] = 1.1
    nxt = step(st, 1)  # prize 0.4
    assert abs(nxt.collected[0, 0] - 1.5) <= 1e-12
    assert nxt.residual_prizes[0, 0] == 0.0 and nxt.visited[0, 0]


def test_step_depot_hands_over_and_terminates():
    st = reset(generous_instance(n=2, k=2), (0, 1))
    st = step(st, 0)
    assert st.done[0, 0] and active_vehicles(st)[0] == 1 and not st.terminal[0]
    st = step(st, 0)
    assert st.terminal[0] and st.done[0].all()


def test_step_infeasible_action_raises():
    inst = Instance(depot=(0.0, 0.0), customers=((0.9, 0.9, 1.0),),
                    vehicles=((0.1, 0.0, 0.2),), t_max=1.0)
    st = reset(inst, (0,))
    with pytest.raises(InfeasibleActionError):
        step(st, 1)
    with pytest.raises(InfeasibleActionError):
        step(st, 2)


def test_step_is_pure():
    st = reset(line_instance(), (0, 1))
    fuel_before = st.fuels.copy()
    step(st, 1)
    assert np.array_equal(st.fuels, fuel_before) and not st.visited.any()


def test_step_leaves_unselected_rows_unchanged():
    inst = generous_instance(n=3, k=2)
    st = reset([inst, inst], [(0, 1), (1, 0)])
    nxt = step(st, np.array([2, 3]), np.array([True, False]))
    assert nxt.visited[0, 1] and not nxt.visited[1].any()
    assert np.array_equal(nxt.fuels[1], st.fuels[1]) and np.array_equal(nxt.legs[1], st.legs[1])


def test_taken_rows_step_as_rows_of_their_own():
    """Rows taken from a state of one instance in a list, repeats allowed,
    step as the rows of a batch reset with one copy of the instance each."""
    inst = generous_instance(n=3, k=2)
    taken = step(step(reset([inst], [(1, 0)]), [2]).take(np.array([0, 0, 0])), np.array([0, 1, 3]))
    ref = step(step(reset([inst] * 3, [(1, 0)] * 3), np.array([2, 2, 2])), np.array([0, 1, 3]))
    for field in dataclasses.fields(ref)[1:]:
        assert np.array_equal(getattr(taken, field.name), getattr(ref, field.name)), field.name
    assert np.array_equal(feasible_mask(taken), feasible_mask(ref))
    for other in (ref, reset(inst, (0, 1))):
        with pytest.raises(EnvError, match="one instance in a list"):
            other.take(np.array([0]))


# --- row sampler -----------------------------------------------------------------

def row_distributions():
    """Four distributions over five columns: a spread one, a point mass, one
    with no positive entry and one whose rounded total falls short of 1."""
    return np.array([[0.1, 0.2, 0.3, 0.4, 0.0],
                     [0.0, 0.0, 1.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0, 0.0, 0.0],
                     [0.3, 0.3, 0.3, 0.1 - 1e-9, 0.0]])


def test_sample_rows_draws_from_the_row_its_map_names():
    probs = row_distributions()
    group = np.random.default_rng(1).integers(0, len(probs), 200)
    for seed in range(5):
        a = sample_rows(probs, group, np.random.default_rng(seed))
        b = sample_rows(probs[group], np.arange(len(group)), np.random.default_rng(seed))
        assert np.array_equal(a, b)
    assert set(a[group == 1]) == {2} and set(a[group == 2]) == {-1}


def test_sample_rows_advances_the_generator_once_per_row():
    probs = row_distributions()
    for distributions in (1, 3, 4):
        for rows in (1, 7, 200):
            rng, ref = np.random.default_rng(6), np.random.default_rng(6)
            sample_rows(probs[:distributions], np.arange(rows) % distributions, rng)
            ref.random(rows)
            assert np.array_equal(rng.random(4), ref.random(4)), (distributions, rows)


# --- rewards ---------------------------------------------------------------------

def test_reward_empty_routes_zero():
    inst = generous_instance(n=3, k=2)
    traj = replay([inst], [(0, 1)], [[0, 0]])[0]
    assert traj.reward == 0.0 and traj.routes == ((), ())


def test_reward_all_visited_constant_prizes():
    inst = generous_instance(n=4, k=2)
    traj = replay([inst], [(0, 1)], [[1, 2, 0, 3, 4, 0]])[0]
    assert traj.reward == 4.0 and traj.routes == ((1, 2), (3, 4))


def test_reward_matches_recomputation(rng):
    for seed in range(30):
        inst = generate(GenConfig(n=7, k=2, t_max=1.8, prize_mode="uniform", seed=seed))
        actions, st = random_episode(inst, (0, 1), rng)
        traj = replay([inst], [(0, 1)], [actions])[0]
        recomputed = sum(inst.prizes()[c - 1] for route in traj.routes for c in route)
        assert abs(traj.reward - recomputed) <= 1e-12
        assert abs(traj.reward - st.collected.sum()) <= 1e-12


def test_reward_requires_terminal_trajectory():
    inst = generous_instance(n=2, k=2)
    with pytest.raises(EnvError):
        replay([inst], [(0, 1)], [[0]])  # second vehicle never closes
    with pytest.raises(EnvError):
        replay([inst], [(0, 1)], [[0, 0, 1]])  # acts after the terminal state


def test_replay_rejects_a_lone_instance():
    """``replay`` takes one instance per row; the one-row form of ``reset``
    would otherwise turn a lone instance into a silent one-element list."""
    inst = generous_instance(n=2, k=2)
    with pytest.raises(TypeError, match="one instance per row"):
        replay(inst, (0, 1), [0, 0])
    assert replay([inst], [(0, 1)], [[0, 0]])[0].reward == 0.0


# --- invariants --------------------------------------------------------------------

def test_feasibility_preserved_over_random_walk(rng):
    """Depot reachability and non-negative fuel survive any feasible action,
    over 100,000 row-steps of lockstep random walks."""
    steps_done = 0
    seed = 0
    while steps_done < 100_000:
        insts = [generate(GenConfig(n=8, k=2, t_max=2.0, prize_mode="uniform", seed=seed + i))
                 for i in range(64)]
        seed += 64
        st = reset(insts, [(0, 1)] * 64)
        while not st.terminal.all():
            live = ~st.terminal
            mask = feasible_mask(st, live)
            actions = np.array([rng.choice(np.flatnonzero(m)) for m in mask])
            st = step(st, actions, live)
            steps_done += int(live.sum())
            assert np.all(st.fuels >= -EPS)
            live = np.flatnonzero(~st.terminal)
            k = st.orders[live, st.active_slot[live]]
            back = np.hypot(*(st.positions[live, k] - np.array([insts[i].depot for i in live]).reshape(-1, 2)).T)
            assert np.all(st.fuels[live, k] >= back - EPS)


def test_route_length_bounded_by_initial_fuel(rng):
    for seed in range(50):
        inst = generate(GenConfig(n=7, k=2, t_max=1.8, seed=seed))
        traj = replay([inst], [(0, 1)], [random_episode(inst, (0, 1), rng)[0]])[0]
        for k, route in enumerate(traj.routes):
            pts = [tuple(inst.node_xy()[inst.n + 1 + k])] + [inst.point(c) for c in route] + [inst.depot]
            length = sum(math.dist(a, b) for a, b in zip(pts[:-1], pts[1:]))
            assert length <= inst.fuels()[k] + EPS


def test_augmentation_equivariant_replay(rng):
    for seed in range(20):
        inst = generate(GenConfig(n=6, k=2, t_max=1.5, prize_mode="uniform", seed=seed))
        actions, _ = random_episode(inst, (1, 0), rng)
        base = replay([inst], [(1, 0)], [actions])[0].reward
        for aug in augment(inst):
            assert replay([aug], [(1, 0)], [actions])[0].reward == base


# --- differential: batch environment against the scalar reference ---------------------

def on_the_boundary(inst):
    """The instance with vehicle 0's fuel half the slack ``EPS`` short of its
    detour to customer 1 and back, so only the slack makes that visit feasible."""
    vx, vy, _ = inst.vehicles[0]
    cx, cy, _ = inst.customers[0]
    fuel = float(np.hypot(cx - vx, cy - vy) + inst.depot_legs()[0]) - EPS / 2
    return dataclasses.replace(inst, vehicles=((vx, vy, fuel),) + inst.vehicles[1:])


def mixed_batch(rng, b=24, n=7, k=3):
    """B instances of one size but different geometry and prize modes, with
    random vehicle orders; some instances repeat under other orders, and every
    third one starts a vehicle exactly on the feasibility boundary."""
    insts = [generate(GenConfig(n=n, k=k, t_max=float(rng.uniform(0.8, 2.5)),
                                prize_mode=("constant", "uniform")[i % 2], seed=900 + i))
             for i in range(b // 2)]
    insts = [on_the_boundary(x) if i % 3 == 0 else x for i, x in enumerate(insts)]
    insts = insts + insts[::-1]
    orders = [tuple(int(v) for v in rng.permutation(k)) for _ in range(b)]
    return insts, orders


def assert_rows_match(st, refs):
    for i, ref in enumerate(refs):
        assert st.terminal[i] == ref.terminal and st.active_slot[i] == ref.active_slot
        assert np.array_equal(st.visited[i], ref.visited)
        assert np.array_equal(st.residual_prizes[i], ref.residual_prizes)
        assert np.array_equal(st.collected[i], ref.collected)
        assert np.array_equal(st.done[i], ref.done)
        assert np.array_equal(st.positions[i], ref.positions)
        assert np.allclose(st.fuels[i], ref.fuels, rtol=0.0, atol=1e-12)


def test_batch_env_matches_scalar_reference_on_random_walks(rng):
    """Masks, transitions and rewards of B mixed rows equal the scalar
    reference's, with rows acting at random (closed rows stay put) until
    every row is terminal; terminal rows then refuse masks and steps."""
    for _ in range(5):
        insts, orders = mixed_batch(rng)
        st = reset(insts, orders)
        refs = [scalar_env.reset(x, o) for x, o in zip(insts, orders)]
        while not st.terminal.all():
            rows = ~st.terminal & (rng.random(len(st)) < 0.7)
            mask = feasible_mask(st, rows)
            actions = np.full(len(st), -1)
            for i in range(len(st)):
                if rows[i]:
                    ref_mask = scalar_env.feasible_mask(refs[i])
                    assert np.array_equal(mask[i], ref_mask)
                    actions[i] = rng.choice(np.flatnonzero(ref_mask))
                    refs[i] = scalar_env.step(refs[i], int(actions[i]))
                else:
                    assert mask[i, 0] and not mask[i, 1:].any()
            st = step(st, actions, rows)
            assert_rows_match(st, refs)
        assert np.array_equal(st.collected.sum(axis=1), [ref.collected.sum() for ref in refs])
        with pytest.raises(EnvError):
            feasible_mask(st)
        with pytest.raises(EnvError):
            step(st, np.zeros(len(st), dtype=int), np.arange(len(st)) == 3)


def test_batch_env_names_the_row_of_an_infeasible_action(rng):
    insts, orders = mixed_batch(rng)
    st = reset(insts, orders)
    st = step(st, np.zeros(len(st), dtype=int))           # every row hands over once
    for row in (0, 5, len(st) - 1):
        actions = np.zeros(len(st), dtype=int)
        infeasible = np.flatnonzero(~feasible_mask(st)[row])
        actions[row] = infeasible[0] if infeasible.size else insts[0].n + 1
        with pytest.raises(InfeasibleActionError, match=f"row {row}:"):
            step(st, actions)
    with pytest.raises(InfeasibleActionError, match="row 2:"):
        step(st, np.where(np.arange(len(st)) == 2, -1, 0))


def test_batch_env_matches_scalar_reference_on_policy_trajectories():
    """Replaying sampled policy rollouts: every mask along the way, every
    route and every reward agree with the scalar reference."""
    rng = np.random.default_rng(4)
    cfg = DdtmConfig(d=16, heads=2, ff_dim=32, encoder_layers=1, decoder_layers=1)
    params = DdtmParameters.init(cfg, seed=2)
    insts, orders = mixed_batch(rng)
    roll = mdl.rollout_states(insts, orders, params, cfg, rng=rng)
    st = reset(insts, orders)
    refs = [scalar_env.reset(x, o) for x, o in zip(insts, orders)]
    for col in roll.actions.T:
        rows = col >= 0
        mask = feasible_mask(st, rows)
        for i in np.flatnonzero(rows):
            assert np.array_equal(mask[i], scalar_env.feasible_mask(refs[i]))
            refs[i] = scalar_env.step(refs[i], int(col[i]))
        st = step(st, col, rows)
        assert_rows_match(st, refs)
    rewards = [ref.collected.sum() for ref in refs]
    assert np.array_equal(roll.rewards, rewards)
    replayed = replay(insts, orders, roll.actions)
    for i, (ref, traj) in enumerate(zip(refs, replayed)):
        assert ref.terminal and traj.reward == rewards[i]
        assert traj.routes == roll.trajectory(i).routes
        assert traj.actions == roll.trajectory(i).actions
    assert replay([insts[3]], [orders[3]], [roll.trajectory(3).actions])[0].reward == rewards[3]
