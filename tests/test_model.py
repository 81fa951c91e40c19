import dataclasses
import itertools
import math

import numpy as np
import pytest

from mstoplab import autodiff as ad
from mstoplab import env
from mstoplab import model as mdl
from mstoplab.autodiff import NEG_INF, Tape
from mstoplab.instances import N_SYMMETRIES, GenConfig, Instance, apply_symmetry, generate
from mstoplab.model import (LOGIT_CLAMP, DdtmConfig, DdtmParameters, RouteDecoder,
                            encode_states, parameter_schema, positional_encoding)
from mstoplab.oracle import solve_exact

from conftest import forced_rollout, generous_instance, rollout_one, tiny_instance

CFG = DdtmConfig()


@pytest.fixture(scope="module")
def params():
    return DdtmParameters.init(CFG, seed=7)


def first_step_probs(state, params):
    """Action probabilities of the first decode step of a one-row state's
    active route, from the encoder and decoder the rollouts use."""
    emb = encode_states(state, params, CFG)
    dec = RouteDecoder(emb, params, CFG, state.active_vehicle)
    mask = np.where(env.feasible_mask(state), 0.0, NEG_INF)
    return np.exp(dec.step(state.fuel, mask.reshape(1, -1)).values[0])


# --- configuration -----------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        DdtmConfig(d=30, heads=4).validate()
    with pytest.raises(ValueError):
        DdtmConfig(encoder_layers=0).validate()
    CFG.validate()


def test_paper_scale_preset():
    big = DdtmConfig.paper_scale()
    assert (big.d, big.heads, big.ff_dim) == (128, 8, 512)
    assert (big.encoder_layers, big.decoder_layers) == (4, 2)


def test_parameter_schema_round_trip(params):
    shapes, stats = parameter_schema(CFG)
    assert set(shapes) == set(params.keys())
    assert all(params[name].shape == shape for name, shape in shapes.items())
    rebuilt = DdtmParameters.from_arrays(CFG, dict(params.arrays))
    assert set(rebuilt.trainable()) == set(params.trainable())
    # context projection takes the fuel-extended embedding
    assert shapes["ctx_proj_w"] == (CFG.d + 1, CFG.d)


def test_from_arrays_shape_mismatch_reports_both_shapes(params):
    bad = dict(params.arrays)
    bad["final_wq"] = np.zeros((CFG.d, CFG.d + 1))
    with pytest.raises(ValueError) as err:
        DdtmParameters.from_arrays(CFG, bad)
    assert str((CFG.d, CFG.d + 1)) in str(err.value) and str((CFG.d, CFG.d)) in str(err.value)


def test_from_arrays_rejects_arrays_the_config_does_not_name(params):
    deeper = DdtmParameters.init(dataclasses.replace(CFG, encoder_layers=3), seed=7)
    with pytest.raises(ValueError) as err:
        DdtmParameters.from_arrays(CFG, dict(deeper.arrays))
    extra = sorted(set(deeper.keys()) - set(params.keys()))
    assert len(extra) == 10 and str(extra) in str(err.value)


def test_init_deterministic():
    a = DdtmParameters.init(CFG, seed=3)
    b = DdtmParameters.init(CFG, seed=3)
    assert all(np.array_equal(a[k], b[k]) for k in a.keys())
    bound = 1.0 / math.sqrt(CFG.d)
    assert all(np.abs(a[k]).max() <= bound for k in a.trainable())


# --- positional encoding --------------------------------------------------------

def test_positional_encoding_step_zero_alternates():
    pe = positional_encoding(0, 8)
    assert np.array_equal(pe, [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])


def test_positional_encoding_flat_index_formula():
    d = 6
    pe = positional_encoding(3, d)
    for i in range(d):
        angle = 3 / 10000 ** (2 * i / d)
        expected = math.sin(angle) if i % 2 == 0 else math.cos(angle)
        assert abs(pe[i] - expected) <= 1e-15


# --- encoder ----------------------------------------------------------------------

def test_encode_shape_contract(params):
    for n, k in ((4, 1), (6, 2), (5, 3)):
        inst = generate(GenConfig(n=n, k=k, t_max=2.0, seed=n * 10 + k))
        emb = encode_states(env.reset(inst, tuple(range(k))), params, CFG)
        assert emb.rows.shape == (1, n + k + 1, CFG.d)
        assert emb.graph.shape == (1, 1, CFG.d)


def masked_flags(state):
    """(B, 1+n+K) encoder row flags: the depot never, visited customers and
    parked vehicles always."""
    return np.concatenate([np.zeros((len(state), 1), dtype=bool), state.visited, state.done], axis=1)


def test_graph_embedding_fresh_state_divisor(params):
    inst = tiny_instance(seed=3)
    st = env.reset(inst, (0, 1))
    emb = encode_states(st, params, CFG)
    assert not masked_flags(st).any()
    manual = emb.rows.values.mean(axis=1)  # all N+K+1 rows
    assert np.allclose(emb.graph.values[:, 0, :], manual, atol=1e-12)


def test_graph_embedding_masks_visited_rows(params):
    inst = generous_instance(n=5, k=2)
    st = env.reset(inst, (0, 1))
    for action in (1, 3, 4, 0):
        st = env.step(st, action)
    emb = encode_states(st, params, CFG)
    masked = masked_flags(st)[0]
    assert masked[[1, 3, 4]].all() and masked[inst.n + 1]
    keep = ~masked
    manual = emb.rows.values[0][keep].mean(axis=0)  # (N-3)+(K-1)+1 rows
    assert np.allclose(emb.graph.values[0, 0], manual, atol=1e-12)
    assert keep.sum() == (inst.n - 3) + (inst.k - 1) + 1


def test_visited_coordinates_do_not_leak(params):
    """Changing a visited customer's coordinates must not change anything."""
    inst = generous_instance(n=4, k=2)
    st = env.reset(inst, (0, 1))
    st = env.step(env.step(st, 2), 1)   # customer 2 visited, vehicle 0 now at customer 1
    customers = list(inst.customers)
    customers[1] = (0.99, 0.01, customers[1][2])  # customer 2, already visited
    moved = dataclasses.replace(inst, customers=tuple(customers))
    st_moved = dataclasses.replace(st, batch=env.Batch([moved]))

    emb_a = encode_states(st, params, CFG)
    emb_b = encode_states(st_moved, params, CFG)
    assert np.allclose(emb_a.graph.values, emb_b.graph.values, atol=1e-12)
    assert np.allclose(first_step_probs(st, params), first_step_probs(st_moved, params), atol=1e-12)


def test_encode_rejects_terminal_state(params):
    st = env.reset(generous_instance(n=2, k=1), (0,))
    st = env.step(st, 0)
    with pytest.raises(env.EnvError):
        encode_states(st, params, CFG)


# --- shared encoding of equal rows ----------------------------------------------------
# Untaped eval-mode calls encode each distinct row once; the taped call encodes
# every row, so it is the reference the shortcut must match bit for bit.

def assert_encoding_matches_taped(state, params):
    fast = encode_states(state, params, CFG)
    slow = encode_states(state, params, CFG, tape=Tape())
    np.testing.assert_array_equal(slow.source, np.arange(len(state)))
    assert len(fast.source) == len(state) and len(fast.rows.values) == len(np.unique(fast.source))
    assert fast.rows.values[fast.source].tobytes() == slow.rows.values.tobytes()
    assert fast.graph.values[fast.source].tobytes() == slow.graph.values.tobytes()
    # every state row sharing an encoded row has its flags
    flags = masked_flags(state)
    first = np.unique(fast.source, return_index=True)[1]
    np.testing.assert_array_equal(flags[first][fast.source], flags)


def row_keys(state):
    """Per row, the bytes of what its encoder inputs are built from."""
    parts = (state.batch.rows(Instance.node_xy), state.visited, state.at, state.fuels)
    return [b"".join(np.ascontiguousarray(p[i]).tobytes() for p in parts) for i in range(len(state))]


def distinct_rows(state):
    return len(set(row_keys(state)))


def mid_rollout_states(instances, params, seed):
    """Every non-terminal state of a sampled rollout of ``instances`` (one
    row each, identity order), replayed step by step."""
    orders = [tuple(range(instances[0].k))] * len(instances)
    roll = mdl.rollout_states(instances, orders, params, CFG, rng=np.random.default_rng(seed))
    state, states = env.reset(instances, orders), []
    for col in roll.actions.T:
        if not state.terminal.any():
            states.append(state)
        state = env.step(state, col, col >= 0)
    return states


def test_shared_encoding_matches_taped_mid_rollout(params, monkeypatch):
    inst = generate(GenConfig.preset("mstop20", seed=31))
    states = mid_rollout_states([inst] * 64, params, seed=4)
    encoded, real = [], mdl._encode

    def counting_encode(depot, *rest):
        encoded.append(len(depot))
        return real(depot, *rest)

    monkeypatch.setattr(mdl, "_encode", counting_encode)
    for state in states:
        encoded.clear()
        encode_states(state, params, CFG)
        assert encoded == [distinct_rows(state)]
    assert distinct_rows(states[0]) == 1
    assert any(1 < distinct_rows(s) < 64 for s in states)
    assert any((s.active_slot == 1).any() for s in states)   # past a route's end
    for state in states:
        assert_encoding_matches_taped(state, params)


def test_shared_encoding_matches_taped_on_two_instance_mix(params):
    a, b = generate(GenConfig.preset("mstop20", seed=32)), generate(GenConfig.preset("mstop20", seed=33))
    states = mid_rollout_states([a, b, a, a, b, a, b, b], params, seed=5)
    assert distinct_rows(states[0]) == 2
    for state in states:
        assert_encoding_matches_taped(state, params)


def test_shared_encoding_matches_taped_on_distinct_rows(params):
    insts = [generate(GenConfig.preset("mstop20", seed=40 + i)) for i in range(8)]
    state = env.reset(insts, [(0, 1)] * 8)
    assert distinct_rows(state) == 8
    assert_encoding_matches_taped(state, params)


def test_rows_differing_only_in_fuel_are_encoded_apart(params):
    inst = generous_instance(n=4, k=2)
    vehicles = list(inst.vehicles)
    vehicles[0] = vehicles[0][:2] + (vehicles[0][2] - 1.0,)
    less_fuel = dataclasses.replace(inst, vehicles=tuple(vehicles))
    state = env.reset([inst, less_fuel, inst], [(0, 1)] * 3)
    assert_encoding_matches_taped(state, params)


def test_rows_differing_only_in_masked_flags_are_encoded_apart(params):
    """A vehicle that starts on the depot and parks there at once keeps its
    coordinates and fuel; only its masked flag changes."""
    inst = generous_instance(n=4, k=2)
    vehicles = ((*inst.depot, 10.0),) + inst.vehicles[1:]
    at_depot = dataclasses.replace(inst, vehicles=vehicles)
    state = env.reset([at_depot] * 3, [(0, 1)] * 3)
    parked = env.step(state, [0, 0, 0], [False, True, False])
    assert parked.done[1, 0] and not parked.done[0, 0]
    np.testing.assert_array_equal(parked.positions[0], parked.positions[1])
    np.testing.assert_array_equal(parked.fuels[0], parked.fuels[1])
    assert_encoding_matches_taped(parked, params)


def assert_rollout_matches_taped(instances, orders, params, seed=None, actions=None):
    """The untaped rollout (grouped decoding) against the taped one, which
    decodes every row, bit for bit; ``seed`` seeds a sampling rollout, and
    ``actions`` forces the actions of one."""
    def rollout(tape):
        if actions is not None:
            return forced_rollout(instances, orders, params, CFG, actions, tape=tape)
        rng = None if seed is None else np.random.default_rng(seed)
        return mdl.rollout_states(instances, orders, params, CFG, rng=rng, tape=tape)

    untaped, taped = rollout(None), rollout(Tape())
    assert untaped.actions.tobytes() == taped.actions.tobytes()
    assert untaped.rewards.tobytes() == taped.rewards.tobytes()
    assert untaped.logp_sum.values.tobytes() == taped.logp_sum.values.tobytes()
    assert untaped.entropy_sum.values.tobytes() == taped.entropy_sum.values.tobytes()
    assert untaped.mean_step_entropy == taped.mean_step_entropy
    return untaped


def test_sampled_rollout_same_untaped_and_taped(params):
    inst = generate(GenConfig.preset("mstop20", seed=34))
    assert_rollout_matches_taped([inst] * 256, [(0, 1)] * 256, params, seed=9)

    # greedy over every vehicle order: rows share an encoding but not a vehicle
    three = generate(GenConfig(n=8, k=3, t_max=2.0, prize_mode="uniform", seed=35))
    perms = list(itertools.permutations(range(3)))
    assert_rollout_matches_taped([three] * len(perms), perms, params)

    # forced actions that split groups: rows that share a prefix part ways
    sampled = mdl.rollout_states([three] * 32, [(0, 1, 2)] * 32, params, CFG,
                                 rng=np.random.default_rng(10))
    assert len({tuple(row) for row in sampled.actions[:, :2]}) < 32
    assert len({tuple(row) for row in sampled.actions}) > 1
    replayed = assert_rollout_matches_taped([three] * 32, [(0, 1, 2)] * 32, params,
                                            actions=sampled.actions)
    assert replayed.actions.tobytes() == sampled.actions.tobytes()

    # a perm-aug batch: eight symmetric instances under two vehicle orders
    symmetric = [apply_symmetry(inst, s) for s in range(N_SYMMETRIES)]
    assert_rollout_matches_taped(symmetric * 2, [(0, 1)] * 8 + [(1, 0)] * 8, params)


def expected_groups(instances, orders, actions):
    """Rows decoded at each step of a rollout with this action record: the
    distinct (slot-start state, active vehicle, actions so far in the slot)
    over the open rows. A route's rows start from one encoded row exactly
    when their slot-start states are equal."""
    state, counts = env.reset(instances, orders), []
    open_rows = np.zeros(len(state), dtype=bool)
    for col in actions.T:
        if not open_rows.any():      # a vehicle slot starts: every row routes its next vehicle
            key = [(row, int(v)) for row, v in zip(row_keys(state), state.active_vehicle)]
            open_rows = np.ones(len(state), dtype=bool)
        counts.append(len({key[i] for i in np.flatnonzero(open_rows)}))
        state = env.step(state, col, col >= 0)
        for i in np.flatnonzero(open_rows):
            key[i] += (int(col[i]),)
        open_rows &= col > 0
    return counts


def test_untaped_decoder_decodes_each_open_group_once(params, monkeypatch):
    decoded, real = [], RouteDecoder.step

    def counting_step(self, fuels, action_mask_add):
        decoded.append(fuels.shape[0])
        return real(self, fuels, action_mask_add)

    monkeypatch.setattr(RouteDecoder, "step", counting_step)
    inst = generate(GenConfig.preset("mstop20", seed=36))
    roll = mdl.rollout_states([inst] * 64, [(0, 1)] * 64, params, CFG,
                              rng=np.random.default_rng(11))
    counts = expected_groups([inst] * 64, [(0, 1)] * 64, roll.actions)
    assert decoded == counts
    assert counts[0] == 1 and 1 < max(counts) < 64
    assert sum(counts) < (roll.actions >= 0).sum()     # rows on one partial route share a row

    # every vehicle order of one instance: one decoded row per vehicle at the start
    three = generate(GenConfig(n=8, k=3, t_max=2.0, prize_mode="uniform", seed=35))
    perms = list(itertools.permutations(range(3)))
    decoded.clear()
    roll = mdl.rollout_states([three] * len(perms), perms, params, CFG)
    counts = expected_groups([three] * len(perms), perms, roll.actions)
    assert decoded == counts and counts[0] == 3

    # a taped rollout decodes every row at every step
    decoded.clear()
    roll = mdl.rollout_states([inst] * 64, [(0, 1)] * 64, params, CFG,
                              rng=np.random.default_rng(11), tape=Tape())
    assert decoded == [64] * roll.actions.shape[1]


def test_batch_statistics_see_every_row(params):
    """Batch-norm in training mode mixes rows, so equal rows must all count."""
    inst, other = tiny_instance(seed=5), tiny_instance(seed=6)
    state = env.reset([inst] * 6 + [other] * 2, [(0, 1)] * 8)
    moved = []
    for tape in (None, Tape()):
        p = params.copy()
        emb = encode_states(state, p, CFG, tape=tape, bn_training=True)
        moved.append(([p[name].tobytes() for name in sorted(p.stats)], emb.rows.values.tobytes()))
    assert moved[0] == moved[1]
    assert moved[0][0] != [params[name].tobytes() for name in sorted(params.stats)]


# --- decoder -----------------------------------------------------------------------

def test_decode_distribution_contract(params):
    inst = generous_instance(n=5, k=2)
    st = env.reset(inst, (0, 1))
    probs = first_step_probs(st, params)
    assert probs.shape == (inst.n + 1,)
    assert abs(probs.sum() - 1.0) <= 1e-6
    assert np.all(probs >= 0)
    feas = env.feasible_mask(st)
    assert np.all(probs[~feas] == 0.0)
    ent = -(probs[probs > 0] * np.log(probs[probs > 0])).sum()
    assert 0.0 <= ent <= math.log(int(feas.sum())) + 1e-9
    # feasible log-probabilities differ by logit differences, which the clamp bounds
    logp = np.log(probs[feas])
    assert logp.max() - logp.min() <= 2 * LOGIT_CLAMP + 1e-9


def test_taped_encoder_and_decoder_step_op_kinds(params, monkeypatch):
    """Each attention block is one ``attention`` op, and the only ``reshape``
    left is the one that flattens the logits."""
    issued, real = [], ad.forward

    def recording(kind, inputs, attrs=None):
        issued.append(kind)
        return real(kind, inputs, attrs)

    monkeypatch.setattr(ad, "forward", recording)
    inst = tiny_instance(seed=5)
    state = env.reset([inst, inst], [(0, 1), (1, 0)])
    bind = mdl._Binding(params.copy(), Tape())
    emb = encode_states(state, bind, CFG, tape=bind.tape, bn_training=True)
    layer = ["matmul", "matmul", "attention", "add", "batchnorm", "matmul", "relu", "matmul", "add",
             "batchnorm"]
    assert issued == ["matmul", "matmul", "matmul", "concat"] + layer * CFG.encoder_layers + ["matmul"]

    dec = RouteDecoder(emb, bind, CFG, state.active_vehicle)
    mask = np.where(env.feasible_mask(state), 0.0, NEG_INF)
    head = ["concat", "matmul", "add"]
    tail = ["add", "matmul", "matmul", "mul", "tanh", "mul", "reshape", "log_softmax"]
    for hist in ([], ["concat"]):
        issued.clear()
        logp = dec.step(state.fuel, mask)
        assert issued == head + (hist + ["matmul", "matmul", "attention", "attention"]) * CFG.decoder_layers + tail
        dec.advance(np.argmax(logp.values, axis=1))


def test_decode_point_mass_when_everything_masked(params):
    inst = Instance(depot=(0.0, 0.0), customers=((0.9, 0.9, 1.0), (0.8, 0.8, 1.0)),
                    vehicles=((0.3, 0.4, 0.5),), t_max=1.0)
    probs = first_step_probs(env.reset(inst, (0,)), params)
    assert probs[0] == 1.0 and np.all(probs[1:] == 0.0)
    ent = -(probs[probs > 0] * np.log(probs[probs > 0])).sum()
    assert ent == 0.0


# --- rollouts -------------------------------------------------------------------------

def test_non_finite_probabilities_name_slot_step_and_row(params):
    """Untaped and with eval-mode batch norm, every op keeps the rows of a
    batch apart, so a NaN prize spoils only its own instance's rows: the
    error names the first state row among them (row 3, although the first
    spoiled decoded row is group 2, led by row 4), with the vehicle slot and
    decode step."""
    good, spoiled = tiny_instance(seed=3), tiny_instance(seed=4)
    customers = tuple((x, y, np.nan if j == 2 else p) for j, (x, y, p) in enumerate(spoiled.customers))
    spoiled = dataclasses.replace(spoiled, customers=customers)
    instances = [good, good, good, spoiled, spoiled]
    orders = [(0, 1), (1, 0), (0, 1), (1, 0), (0, 1)]
    with pytest.raises(ad.NonFiniteError, match="vehicle slot 0, decode step 0, state row 3") as err:
        mdl.rollout_states(instances, orders, params, CFG)
    assert err.value.row == 3


def test_greedy_rollout_deterministic(params):
    inst = tiny_instance(seed=11)
    a = rollout_one(inst, (0, 1), params, CFG)
    b = rollout_one(inst, (0, 1), params, CFG)
    assert a.routes == b.routes and a.reward == b.reward
    assert a.actions == b.actions


def test_sample_rollout_seed_contract(params):
    inst = generous_instance(n=6, k=2)
    a = rollout_one(inst, (0, 1), params, CFG, seed=41)
    b = rollout_one(inst, (0, 1), params, CFG, seed=41)
    assert a.routes == b.routes
    different = any(
        rollout_one(inst, (0, 1), params, CFG, seed=s).routes != a.routes
        for s in range(42, 52))
    assert different


def test_rollout_reward_bounded_by_exact(params):
    for seed in range(25):
        inst = generate(GenConfig(n=7, k=2, t_max=1.6, prize_mode="uniform", seed=200 + seed))
        best = solve_exact(inst).objective
        for s in (None, seed):       # greedy, then sampled
            traj = rollout_one(inst, (0, 1), params, CFG, seed=s)
            assert traj.reward <= best + 1e-9


def test_rollout_routes_end_at_depot_and_respect_budget(params):
    inst = tiny_instance(seed=21)
    traj = rollout_one(inst, (1, 0), params, CFG, seed=3)
    assert traj.actions[-1] == 0
    assert traj.actions.count(0) == inst.k
    for k, route in enumerate(traj.routes):
        assert all(1 <= c <= inst.n for c in route)


def test_trajectory_log_prob_matches_forced_replay(params):
    inst = generous_instance(n=5, k=2)
    traj = rollout_one(inst, (0, 1), params, CFG, seed=13)
    batch = forced_rollout([inst], [(0, 1)], params, CFG, [traj.actions])
    assert batch.trajectory(0).routes == traj.routes
    assert abs(batch.trajectory(0).log_prob - traj.log_prob) <= 1e-9


def test_forced_rollout_reproduces_a_sampled_rollout(params):
    """The teacher-forcing seam of the tests: forcing a sampled rollout's own
    action record reproduces it byte for byte, taped and untaped."""
    inst = generate(GenConfig.preset("mstop20", seed=37))
    instances, orders = [inst] * 16, [(0, 1)] * 8 + [(1, 0)] * 8
    for new_tape in (lambda: None, Tape):
        sampled = mdl.rollout_states(instances, orders, params, CFG, rng=np.random.default_rng(12),
                                     tape=new_tape())
        assert (sampled.actions < 0).any()      # rows finish their routes at different steps
        forced = forced_rollout(instances, orders, params, CFG, sampled.actions, tape=new_tape())
        assert forced.actions.tobytes() == sampled.actions.tobytes()
        assert forced.rewards.tobytes() == sampled.rewards.tobytes()
        assert forced.logp_sum.values.tobytes() == sampled.logp_sum.values.tobytes()
        assert forced.entropy_sum.values.tobytes() == sampled.entropy_sum.values.tobytes()
    with pytest.raises(ValueError, match="end before"):
        forced_rollout(instances, orders, params, CFG, sampled.actions[:, :3])


def test_batched_rollout_matches_single(params):
    insts = [tiny_instance(seed=s) for s in (31, 32, 33)]
    orders = [(0, 1), (1, 0), (0, 1)]
    batch = mdl.rollout_states(insts, orders, params, CFG)
    for i, (inst, order) in enumerate(zip(insts, orders)):
        traj = batch.trajectory(i)
        single = rollout_one(inst, order, params, CFG)
        assert single.routes == traj.routes
        assert abs(single.reward - traj.reward) <= 1e-12


def test_gradient_reaches_every_parameter(params):
    insts = [generous_instance(n=6, k=2), tiny_instance(seed=51)]
    tape = Tape()
    rng = np.random.default_rng(0)
    # batch-norm training moves the running statistics: keep the module's copy
    roll = mdl.rollout_states(insts, [(0, 1), (1, 0)], params.copy(), CFG,
                              rng=rng, tape=tape, bn_training=True)
    loss = ad.mul(ad.tsum(ad.add(roll.logp_sum, roll.entropy_sum)), -1.0)
    grads = roll.binding.gradients(tape.backward(loss))
    assert set(grads) == set(params.trainable())
    dead = [name for name, g in grads.items() if not np.any(g != 0.0)]
    assert not dead, f"parameters with zero gradient: {dead}"

