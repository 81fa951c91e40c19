import dataclasses
import itertools
import math

import numpy as np
import pytest

from mstoplab import autodiff as ad
from mstoplab import env
from mstoplab import model as mdl
from mstoplab.autodiff import NEG_INF, Tape
from mstoplab.checkpoint import save_checkpoint
from mstoplab.instances import N_SYMMETRIES, GenConfig, Instance, apply_symmetry, augment, generate
from mstoplab.model import (LOGIT_CLAMP, DdtmConfig, DdtmParameters, RouteDecoder,
                            encode_states, parameter_schema, positional_encoding)
from mstoplab.oracle import solve_exact
from mstoplab.training import surrogate_loss

from conftest import (active_vehicles, forced_rollout, generous_instance, rollout_one,
                      tiny_instance)

CFG = DdtmConfig()


@pytest.fixture(scope="module")
def params():
    return DdtmParameters.init(CFG, seed=7)


def first_step_probs(state, params):
    """Action probabilities of the first decode step of a one-row state's
    active route, from the encoder and decoder the rollouts use: shaped
    (1, 1, n+1), the decoded row's one query row over [depot, customers]."""
    emb = encode_states(state, params, CFG)
    dec = RouteDecoder(emb, params, CFG, active_vehicles(state))
    mask = np.where(env.feasible_mask(state), 0.0, NEG_INF)
    return np.exp(dec.step(state.fuel, mask.reshape(1, -1)).values)


# --- configuration -----------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        DdtmConfig(d=30, heads=4).validate()
    with pytest.raises(ValueError):
        DdtmConfig(encoder_layers=0).validate()
    CFG.validate()


def test_load_returns_the_config_stored_with_the_arrays(tmp_path):
    """The head count leaves no trace in any array shape, so the checkpoint
    stores the config and ``load`` returns it."""
    cfg = DdtmConfig(d=16, heads=8, ff_dim=24, encoder_layers=3, decoder_layers=2)
    saved = DdtmParameters.init(cfg, seed=3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, saved.arrays, model=dataclasses.asdict(cfg))
    loaded, loaded_cfg = DdtmParameters.load(path)
    assert loaded_cfg == cfg and loaded.stats == saved.stats
    assert all(np.array_equal(loaded[name], saved[name]) for name in saved.keys())
    assert loaded.keys() == saved.keys()


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
    """The shared encoding against the taped one, which encodes every row:
    the graph embedding and every unmasked row bit for bit. A masked row is
    read by no unmasked row and no decoder step, so rows that differ only
    there share the encoding of one of them."""
    fast = encode_states(state, params, CFG)
    slow = encode_states(state, params, CFG, tape=Tape())
    np.testing.assert_array_equal(slow.source, np.arange(len(state)))
    assert len(fast.source) == len(state) and len(fast.rows.values) == len(np.unique(fast.source))
    flags = masked_flags(state)
    assert fast.rows.values[fast.source][~flags].tobytes() == slow.rows.values[~flags].tobytes()
    assert fast.graph.values[fast.source].tobytes() == slow.graph.values.tobytes()
    # every state row sharing an encoded row has its flags
    first = np.unique(fast.source, return_index=True)[1]
    np.testing.assert_array_equal(flags[first][fast.source], flags)


def row_keys(state):
    """Per row, the bytes of what its unmasked encoder rows are built from:
    the instance, the visited customers, and where the vehicles not parked
    at the depot are and their fuel."""
    parts = (state.batch.rows(Instance.node_xy), state.visited, state.at,
             np.where(state.done, 0.0, state.fuels))
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


def counting(monkeypatch, owner, name, size):
    """Patch ``owner.name`` to record ``size(*args)`` of every call in a list."""
    calls, real = [], getattr(owner, name)

    def wrapper(*args):
        calls.append(size(*args))
        return real(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_shared_encoding_matches_taped_mid_rollout(params, monkeypatch):
    inst = generate(GenConfig.preset("mstop20", seed=31))
    states = mid_rollout_states([inst] * 64, params, seed=4)
    encoded = counting(monkeypatch, mdl, "_encode", lambda depot, *rest: len(depot))
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
    """A vehicle with no fuel that starts on a depot at the origin and parks
    there at once keeps its inputs, all zero like the key's masked inputs;
    only its masked flag changes."""
    inst = generous_instance(n=4, k=2)
    at_depot = dataclasses.replace(inst, depot=(0.0, 0.0),
                                   vehicles=((0.0, 0.0, 0.0),) + inst.vehicles[1:])
    state = env.reset([at_depot] * 3, [(0, 1)] * 3)
    parked = env.step(state, [0, 0, 0], [False, True, False])
    assert parked.done[1, 0] and not parked.done[0, 0]
    np.testing.assert_array_equal(parked.positions[0], parked.positions[1])
    np.testing.assert_array_equal(parked.fuels[0], parked.fuels[1])
    assert len(encode_states(parked, params, CFG).rows.values) == 2
    assert_encoding_matches_taped(parked, params)


def test_rows_that_visited_the_same_customers_share_one_encoding(params, monkeypatch):
    """Routes over the same customers in a different order leave the next
    vehicle equal visible inputs: the visited customers and the parked
    vehicle are masked, its fuel included. The next slot encodes and decodes
    both rows as one."""
    inst = generous_instance(n=5, k=2)
    actions = np.array([[1, 2, 0, 3, 4, 0], [2, 1, 0, 3, 4, 0]])
    state = env.reset([inst] * 2, [(0, 1)] * 2)
    for col in actions.T[:3]:
        state = env.step(state, col)
    assert state.fuels[0, 0] != state.fuels[1, 0]
    assert distinct_rows(state) == 1 and len(encode_states(state, params, CFG).rows.values) == 1
    assert_encoding_matches_taped(state, params)

    decoded = counting(monkeypatch, RouteDecoder, "step", lambda dec, fuels, mask: len(fuels))
    assert_rollout_matches_taped([inst] * 2, [(0, 1)] * 2, params, actions=actions)
    assert decoded == [1, 2, 2, 1, 1, 1] + [2] * 6     # untaped, then taped


def test_untaped_encoder_runs_in_blocks_of_at_most_64_rows(params, monkeypatch):
    inst = generate(GenConfig.preset("mstop20", seed=31))
    encoded = counting(monkeypatch, mdl, "_encode", lambda depot, *rest: len(depot))
    roll = assert_rollout_matches_taped([inst] * 128, [(0, 1)] * 128, params, seed=12)
    state = env.reset([inst] * 128, [(0, 1)] * 128)
    for col in roll.actions.T:
        if (state.active_slot == 1).all():
            break
        state = env.step(state, col, col >= 0)
    distinct = distinct_rows(state)
    assert distinct > 64
    blocks = [64] * (distinct // 64) + [distinct % 64] * (distinct % 64 > 0)
    assert encoded == [1] + blocks + [128, 128]           # untaped, then taped
    assert_encoding_matches_taped(state, params)

    # batch statistics and the tape couple the rows: one call encodes them all
    encoded.clear()
    encode_states(state, params, CFG, tape=Tape())
    encode_states(state, params.copy(), CFG, bn_training=True)
    assert encoded == [128, 128]


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


def steps_with_choice(instances, orders, actions):
    """For each step of a rollout with this action record, whether some open
    row has a feasible customer: the steps the rollout decodes. At the
    others every open row can only take the depot."""
    state, choice = env.reset(instances, orders), []
    open_rows = np.zeros(len(state), dtype=bool)
    for col in actions.T:
        if not open_rows.any():
            open_rows = np.ones(len(state), dtype=bool)
        choice.append(bool(env.feasible_mask(state, open_rows)[:, 1:].any()))
        state = env.step(state, col, col >= 0)
        open_rows &= col > 0
    return choice


def expected_groups(instances, orders, actions):
    """Rows decoded at each decoded step of a rollout with this action
    record: the distinct (slot-start state, active vehicle, actions so far in
    the slot) over the open rows. A route's rows start from one encoded row
    exactly when their slot-start states look equal to the encoder
    (``row_keys``). A step where no open row has a feasible customer decodes
    nothing and has no entry."""
    state, counts = env.reset(instances, orders), []
    open_rows = np.zeros(len(state), dtype=bool)
    for col, choice in zip(actions.T, steps_with_choice(instances, orders, actions)):
        if not open_rows.any():      # a vehicle slot starts: every row routes its next vehicle
            key = [(row, int(v)) for row, v in zip(row_keys(state), active_vehicles(state))]
            open_rows = np.ones(len(state), dtype=bool)
        if choice:
            counts.append(len({key[i] for i in np.flatnonzero(open_rows)}))
        state = env.step(state, col, col >= 0)
        for i in np.flatnonzero(open_rows):
            key[i] += (int(col[i]),)
        open_rows &= col > 0
    return counts


def test_decoder_decodes_each_open_group_once(params, monkeypatch):
    decoded = counting(monkeypatch, RouteDecoder, "step", lambda dec, fuels, mask: len(fuels))
    inst = generate(GenConfig.preset("mstop20", seed=36))
    roll = mdl.rollout_states([inst] * 64, [(0, 1)] * 64, params, CFG,
                              rng=np.random.default_rng(11))
    counts = expected_groups([inst] * 64, [(0, 1)] * 64, roll.actions)
    assert decoded == counts and len(counts) < roll.actions.shape[1]     # forced steps decode nothing
    assert counts[0] == 1 and 1 < max(counts) < 64
    assert sum(counts) < (roll.actions >= 0).sum()     # rows on one partial route share a row

    # every vehicle order of one instance: one decoded row per vehicle at the start
    three = generate(GenConfig(n=8, k=3, t_max=2.0, prize_mode="uniform", seed=35))
    perms = list(itertools.permutations(range(3)))
    decoded.clear()
    roll = mdl.rollout_states([three] * len(perms), perms, params, CFG)
    counts = expected_groups([three] * len(perms), perms, roll.actions)
    assert decoded == counts and counts[0] == 3

    # a taped encode gives every state row its own encoded row, so a taped
    # rollout decodes each open row once and no row that has left
    decoded.clear()
    roll = mdl.rollout_states([inst] * 64, [(0, 1)] * 64, params, CFG,
                              rng=np.random.default_rng(11), tape=Tape())
    choice = steps_with_choice([inst] * 64, [(0, 1)] * 64, roll.actions)
    open_per_step = [n for n, c in zip((roll.actions >= 0).sum(axis=0).tolist(), choice) if c]
    assert decoded == open_per_step and min(open_per_step) < 64


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
    assert probs.shape == (1, 1, inst.n + 1)
    probs = probs[0, 0]
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
    """Each attention block is one ``attention`` op, and the scores go to
    ``log_softmax`` with their one query row kept. A taped regroup narrows
    each per-route tensor with one ``take`` and collapses each history layer
    with one ``concat`` before its ``take``."""
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

    dec = RouteDecoder(emb, bind, CFG, active_vehicles(state))
    mask = np.where(env.feasible_mask(state), 0.0, NEG_INF)
    head = ["concat", "matmul", "add"]
    tail = ["add", "matmul", "matmul", "mul", "tanh", "mul", "log_softmax"]
    # kv_att per layer, then k_final and graph_q, then the history per layer
    regroup = (["take", "take"] * CFG.decoder_layers + ["take", "take"]
               + ["concat", "take"] * CFG.decoder_layers)
    # row 0 moves to a customer and stays; row 1 returns to the depot and leaves
    actions = np.array([np.flatnonzero(mask[0] == 0.0)[-1], 0])
    assert actions[0] > 0
    for hist, moves in (([], regroup + ["take"]), (["concat"], ["take"])):
        issued.clear()
        logp = dec.step(state.fuel[dec.lead], mask[dec.lead])
        assert issued == head + (hist + ["matmul", "matmul", "attention", "attention"]) * CFG.decoder_layers + tail
        assert len(logp.values) == len(dec.lead)
        issued.clear()
        dec.advance(actions)
        assert issued == moves
    np.testing.assert_array_equal(dec.lead, [0])


def test_decode_point_mass_when_everything_masked(params):
    inst = Instance(depot=(0.0, 0.0), customers=((0.9, 0.9, 1.0), (0.8, 0.8, 1.0)),
                    vehicles=((0.3, 0.4, 0.5),), t_max=1.0)
    probs = first_step_probs(env.reset(inst, (0,)), params)[0, 0]
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


def keep_every_row(dec, actions):
    """Reference ``RouteDecoder.advance`` for a taped decoder: no row leaves,
    so every state row is decoded to the end of its vehicle slot, a finished
    one as a point mass at the depot."""
    dec.t_dec += 1
    dec.cur_rows = ad.take(dec.emb.rows, (dec.src[:, None], actions[:, None]))


def taped_loss_fingerprint(run, params, advantages_of):
    """Run ``run(params, tape, rng)`` (a taped rollout with batch statistics)
    on a copy of ``params``; return its outputs, the generator's next draws,
    the folded batch-norm statistics, every gradient of the surrogate loss
    and the rows decoded per step."""
    p, tape, rng = params.copy(), Tape(), np.random.default_rng(100)
    with pytest.MonkeyPatch.context() as mp:
        decoded = counting(mp, RouteDecoder, "step", lambda dec, fuels, mask: len(fuels))
        roll = run(p, tape, rng)
    loss = surrogate_loss(roll, advantages_of(roll.rewards), alpha=0.01)
    grads = roll.binding.gradients(tape.backward(loss))
    exact = [roll.actions, roll.rewards, roll.logp_sum.values, roll.entropy_sum.values,
             np.float64(roll.mean_step_entropy), loss.values, rng.random(4)]
    exact += [p[name] for name in sorted(p.stats)]
    return [a.tobytes() for a in exact], grads, decoded


def assert_rows_leaving_match_every_row(run, params, advantages_of):
    """The taped decoder, which drops finished rows, against the reference
    that keeps them: outputs and generator draws byte for byte, every
    gradient within 1e-12 relative to its largest entry. Returns the rows
    each decoded per step."""
    fast, fast_grads, fast_rows = taped_loss_fingerprint(run, params, advantages_of)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RouteDecoder, "advance", keep_every_row)
        slow, slow_grads, slow_rows = taped_loss_fingerprint(run, params, advantages_of)
    assert fast == slow
    assert set(fast_grads) == set(slow_grads)
    for name, g in slow_grads.items():
        assert np.abs(fast_grads[name] - g).max() <= 1e-12 * np.abs(g).max(), name
    return fast_rows, slow_rows


def instance_aug_advantages(rewards):
    per_instance = rewards.reshape(-1, N_SYMMETRIES)
    return (per_instance - per_instance.mean(axis=1, keepdims=True)).reshape(-1)


def instance_aug_batch(gen_cfg, seed):
    """Eight raw instances, each under its eight symmetries and one vehicle
    order drawn with ``seed``: the 64 rows of an instance-aug training step."""
    raw = [generate(dataclasses.replace(gen_cfg, seed=gen_cfg.seed * 100 + i)) for i in range(8)]
    order_rng = np.random.default_rng(seed)
    instances, orders = [], []
    for inst in raw:
        order = tuple(int(v) for v in order_rng.permutation(inst.k))
        instances += augment(inst)
        orders += [order] * N_SYMMETRIES
    return instances, orders


@pytest.mark.parametrize("gen_cfg, seed", [
    (GenConfig.preset("mstop20", seed=60), 0),
    (GenConfig.preset("mstop20", seed=60), 5),
    (GenConfig.preset("mstop10", seed=61), 0),
    (GenConfig(n=6, k=2, t_max=1.5, prize_mode="constant", seed=62), 0),
])
def test_taped_decoder_dropping_finished_rows_matches_keeping_them(gen_cfg, seed):
    """64-row instance-aug training rollouts: eight raw instances, each under
    its eight symmetries and one vehicle order."""
    params = DdtmParameters.init(CFG, seed=seed)
    instances, orders = instance_aug_batch(gen_cfg, seed)

    def run(p, tape, rng):
        return mdl.rollout_states(instances, orders, p, CFG, rng=rng, tape=tape, bn_training=True)

    fast_rows, slow_rows = assert_rows_leaving_match_every_row(run, params, instance_aug_advantages)
    assert slow_rows == [64] * len(slow_rows) and sum(fast_rows) < sum(slow_rows)


def criterion3_replay():
    """Criterion 3's teacher-forced batch: two raw instances, each under its
    eight symmetries and one vehicle order, d=16. Returns its parameters and
    ``run(p, tape, rng)``, the taped replay of one sampled rollout."""
    cfg = DdtmConfig(d=16, heads=2, ff_dim=32, encoder_layers=1, decoder_layers=1)
    params = DdtmParameters.init(cfg, seed=0)
    instances = []
    for raw_seed in (800, 801):
        instances += augment(generate(GenConfig(n=4, k=2, t_max=1.5, prize_mode="uniform", seed=raw_seed)))
    orders = [(0, 1)] * 8 + [(1, 0)] * 8
    actions = mdl.rollout_states(instances, orders, params, cfg, rng=np.random.default_rng(0)).actions

    def run(p, tape, rng):
        return forced_rollout(instances, orders, p, cfg, actions, tape=tape, bn_training=True)

    return params, run


def test_taped_replay_dropping_finished_rows_matches_keeping_them():
    params, run = criterion3_replay()
    fast_rows, slow_rows = assert_rows_leaving_match_every_row(run, params, instance_aug_advantages)
    assert sum(fast_rows) < sum(slow_rows)


def keep_every_gradient(tape, loss):
    """Reference reverse pass: the loop over the tape's records that keeps
    every node's gradient until it returns."""
    grads = {loss.node_id: np.ones_like(loss.values)}
    for out_id, input_ids, backward_fn in reversed(tape._records):
        g = grads.get(out_id)
        if g is None:
            continue
        for node_id, gin in zip(input_ids, backward_fn(g)):
            if node_id is None or gin is None:
                continue
            acc = grads.get(node_id)
            grads[node_id] = gin if acc is None else acc + gin
    return ad.Gradients(tape, grads)


@pytest.mark.parametrize("case", ["instance-aug", "teacher-forced"])
def test_backward_dropping_gradients_matches_keeping_them(case):
    """``Tape.backward`` drops each intermediate gradient once passed on;
    every parameter gradient is byte-equal to the reference that keeps them
    all, on a 64-row instance-aug mstop20 rollout and on criterion 3's
    teacher-forced batch, and so is a second backward on the same tape."""
    if case == "instance-aug":
        params = DdtmParameters.init(CFG, seed=0)
        instances, orders = instance_aug_batch(GenConfig.preset("mstop20", seed=60), 0)

        def run(p, tape, rng):
            return mdl.rollout_states(instances, orders, p, CFG, rng=rng, tape=tape, bn_training=True)
    else:
        params, run = criterion3_replay()
    tape = Tape()
    roll = run(params.copy(), tape, np.random.default_rng(100))
    loss = surrogate_loss(roll, instance_aug_advantages(roll.rewards), alpha=0.01)
    reference = roll.binding.gradients(keep_every_gradient(tape, loss))
    assert set(reference) == set(params.trainable())
    for _ in range(2):
        grads = roll.binding.gradients(tape.backward(loss))
        for name, g in reference.items():
            assert grads[name].tobytes() == g.tobytes(), name


def per_step_sums(steps, actions):
    """Reference for the rollout's one gather: its former accumulation on the
    same tape. Each step pads its log-probabilities with a depot point mass
    for the rows that left (group -1), takes each state row's chosen entry
    and entropy and adds them on; the mean step entropy divides the summed
    step entropies by the number of acting rows. A step that was not decoded
    (``(None, None)``) gives every row the point mass."""
    logp_sum = entropy_sum = None
    total, acting = 0.0, 0
    for (logp, group), col in zip(steps, actions.T):
        if logp is None:
            padded, group = ad.constant(np.zeros((1, 1, 1))), np.full(len(col), -1)
        else:
            padded = ad.concat([logp, np.zeros((1, 1, logp.shape[2]))], axis=0)
        chosen = ad.take(padded, (group, 0, np.maximum(col, 0)))
        ent = ad.take(mdl._entropy(padded), (group, 0))
        logp_sum = chosen if logp_sum is None else ad.add(logp_sum, chosen)
        entropy_sum = ent if entropy_sum is None else ad.add(entropy_sum, ent)
        total += float(ent.values.sum())
        acting += int(np.count_nonzero(col >= 0))
    return logp_sum, entropy_sum, total / max(acting, 1)


def gather_against_per_step_sums(instances, orders, params, seed, tape):
    """One rollout, with each decode step's log-probabilities and groups
    captured and its ``exp`` ops counted; returns it and the reference sums
    rebuilt from those steps, a step that was not decoded reading the depot
    row."""
    steps, exps = [], []
    real_step, real_exp = RouteDecoder.step, ad.OP_KINDS["exp"]

    def step(dec, fuels, mask):
        logp = real_step(dec, fuels, mask)
        steps.append((logp, dec.group.copy()))
        return logp

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RouteDecoder, "step", step)
        mp.setitem(ad.OP_KINDS, "exp", lambda *args: exps.append(1) or real_exp(*args))
        roll = mdl.rollout_states(instances, orders, params, CFG, rng=np.random.default_rng(seed),
                                  tape=tape, bn_training=tape is not None)
    choice = steps_with_choice(instances, orders, roll.actions)
    assert len(exps) == 1 and len(steps) == sum(choice) < len(choice) and len(choice) > 2
    decoded = iter(steps)
    steps = [next(decoded) if c else (None, None) for c in choice]
    return roll, per_step_sums(steps, roll.actions)


def assert_same_loss_and_gradients(roll, reference, tape):
    """The surrogate loss of the gathered sums and of the reference sums, and
    every gradient of the two, byte for byte."""
    advantages = roll.rewards - roll.rewards.mean()
    replaced = dataclasses.replace(roll, logp_sum=reference[0], entropy_sum=reference[1])
    losses = [surrogate_loss(r, advantages, alpha=0.01) for r in (roll, replaced)]
    assert losses[0].values.tobytes() == losses[1].values.tobytes()
    new, old = (roll.binding.gradients(tape.backward(loss)) for loss in losses)
    assert set(new) == set(old) == set(roll.binding.params.trainable())
    for name in old:
        assert new[name].tobytes() == old[name].tobytes(), name


@pytest.mark.parametrize("case", ["instance-aug", "sampled-taped", "sampled-untaped"])
def test_one_gather_matches_per_step_sums(case):
    """The sums a rollout gathers once, after its last step, against the
    per-step accumulation they replace: byte-equal sums, mean step entropy,
    loss and gradients, from one ``exp`` op whatever the step count. The
    instance-aug case is a 64-row mstop20 training step; the sampled cases
    are 48 rows of one mstop20 instance, whose rows leave the decoder at
    different steps (and share decoded rows when untaped)."""
    params = DdtmParameters.init(CFG, seed=3)
    tape = None if case == "sampled-untaped" else Tape()
    if case == "instance-aug":
        instances, orders = instance_aug_batch(GenConfig.preset("mstop20", seed=63), 0)
    else:
        instances, orders = [generate(GenConfig.preset("mstop20", seed=64))] * 48, [(0, 1)] * 48
    roll, (logp_sum, entropy_sum, mean_step_entropy) = gather_against_per_step_sums(
        instances, orders, params, 12, tape)
    if case != "instance-aug":
        assert len(np.unique((roll.actions >= 0).sum(axis=1))) > 1
    assert roll.logp_sum.values.tobytes() == logp_sum.values.tobytes()
    assert roll.entropy_sum.values.tobytes() == entropy_sum.values.tobytes()
    assert roll.mean_step_entropy == mean_step_entropy and type(roll.mean_step_entropy) is float
    if tape is not None:
        assert_same_loss_and_gradients(roll, (logp_sum, entropy_sum), tape)


def test_one_gather_sums_a_row_of_point_masses_to_positive_zero():
    """The one place where the gather and the per-step sums differ: a row
    whose every step is a point mass at the depot (here a vehicle that can
    reach no customer) has steps of entropy -0.0. The per-step sums added
    them up to -0.0; the gathered sum over steps starts from 0.0 and gives
    0.0. Everything else, the loss and every gradient stay byte-equal."""
    stuck = Instance(depot=(0.5, 0.5), customers=((0.9, 0.9, 1.0), (0.1, 0.9, 1.0)),
                     vehicles=((0.5, 0.6, 0.15), (0.4, 0.5, 0.15)), t_max=0.15)
    free = generous_instance(n=2, k=2)
    params = DdtmParameters.init(CFG, seed=3)
    tape = Tape()
    roll, reference = gather_against_per_step_sums([stuck, free] * 4, [(0, 1), (1, 0)] * 4, params, 5, tape)
    stuck_rows = np.arange(8) % 2 == 0
    assert (roll.actions[stuck_rows] <= 0).all() and (roll.actions[~stuck_rows] > 0).any()
    new, old = roll.entropy_sum.values, reference[1].values
    np.testing.assert_array_equal(new, old)
    np.testing.assert_array_equal(np.signbit(old), stuck_rows)
    assert not np.signbit(new).any()
    assert roll.logp_sum.values.tobytes() == reference[0].values.tobytes()
    assert roll.mean_step_entropy == reference[2]
    assert_same_loss_and_gradients(roll, reference, tape)


def decode_every_step(mp):
    """Reference for the forced step: every step is decoded, also one where
    no open route has a feasible customer, whose distribution is then the
    decoder's point mass at the depot."""
    mp.setattr(mdl, "_has_choice", lambda feasible: True)


def skip_fingerprint(case, params, instances, orders):
    """One rollout of ``case`` on a copy of ``params``: its outputs and the
    generator's next draws as bytes, the gradients of the surrogate loss when
    taped, the tape's length, and per decode call the tape records it issued
    and whether its step was forced."""
    p = params.copy()
    tape = Tape() if case == "taped" else None
    rng = None if case == "greedy" else np.random.default_rng(21)
    calls, real = [], RouteDecoder.step

    def step(dec, fuels, mask):
        before = 0 if tape is None else len(tape)
        logp = real(dec, fuels, mask)
        calls.append((0 if tape is None else len(tape) - before, not (mask[:, 1:] == 0.0).any()))
        return logp

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RouteDecoder, "step", step)
        roll = mdl.rollout_states(instances, orders, p, CFG, rng=rng, tape=tape, bn_training=tape is not None)
    exact = [roll.actions, roll.rewards, roll.logp_sum.values, roll.entropy_sum.values,
             np.float64(roll.mean_step_entropy)]
    exact += [rng.random(4)] if rng is not None else []
    grads = None
    if tape is not None:
        loss = surrogate_loss(roll, instance_aug_advantages(roll.rewards), alpha=0.01)
        grads = roll.binding.gradients(tape.backward(loss))
        exact += [loss.values] + [p[name] for name in sorted(p.stats)]
    return [a.tobytes() for a in exact], grads, (0 if tape is None else len(tape)), calls


@pytest.mark.parametrize("case", ["sampled", "greedy", "taped"])
def test_skipping_forced_steps_matches_decoding_them(case):
    """A 64-row instance-aug mstop20 batch, sampled, greedy and taped with
    batch statistics, against the reference that decodes every step: the
    actions, rewards, sums, mean step entropy, generator draws, loss, folded
    statistics and every gradient byte for byte. The rollout calls the
    decoder at exactly the reference's steps that were not forced, and its
    tape is shorter by exactly the records of the forced ones."""
    params = DdtmParameters.init(CFG, seed=3)
    instances, orders = instance_aug_batch(GenConfig.preset("mstop20", seed=66), 0)
    fast, fast_grads, fast_len, fast_calls = skip_fingerprint(case, params, instances, orders)
    with pytest.MonkeyPatch.context() as mp:
        decode_every_step(mp)
        slow, slow_grads, slow_len, slow_calls = skip_fingerprint(case, params, instances, orders)
    assert fast == slow
    forced = [records for records, was_forced in slow_calls if was_forced]
    assert forced and fast_calls == [call for call in slow_calls if not call[1]]
    assert slow_len - fast_len == sum(forced)
    if case == "taped":
        assert min(forced) > 0 and set(fast_grads) == set(slow_grads) == set(params.trainable())
        for name, g in slow_grads.items():
            assert fast_grads[name].tobytes() == g.tobytes(), name


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

