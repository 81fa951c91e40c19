from unittest import mock

import numpy as np
import pytest

from mstoplab import autodiff as ad
from mstoplab import env
from mstoplab.instances import GenConfig, Instance, generate
from mstoplab.model import rollout_states


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def fd_gradient(loss_of, array, idx, h=1e-5):
    """Central finite difference of a scalar function at one flat index."""
    flat = array.reshape(-1)
    orig = flat[idx]
    flat[idx] = orig + h
    fp = loss_of()
    flat[idx] = orig - h
    fm = loss_of()
    flat[idx] = orig
    return (fp - fm) / (2.0 * h)


def check_op_gradients(builder, shapes, rng, probes=100, h=1e-5, tol=1e-4,
                       weight_filter=None, input_filter=None):
    """FD-check one op construction against the tape gradient.

    ``builder(tensors) -> tensor``; scalar loss is a fixed random weighting of
    the output. ``weight_filter`` can zero weights (e.g. at masked outputs),
    ``input_filter`` can condition raw inputs (e.g. keep log arguments
    positive). Returns the worst relative error over ``probes`` probes.
    """
    worst = 0.0
    done = 0
    while done < probes:
        arrays = [rng.standard_normal(s) for s in shapes]
        if input_filter:
            arrays = input_filter(arrays)
        tape = ad.Tape()
        leaves = [tape.leaf(a) for a in arrays]
        out = builder(leaves)
        w = rng.standard_normal(out.shape)
        if weight_filter:
            w = weight_filter(w)
        loss = ad.tsum(ad.mul(out, ad.constant(w)))
        grads = tape.backward(loss)

        def loss_of():
            return float((builder([ad.constant(a) for a in arrays]).values * w).sum())

        for li, arr in enumerate(arrays):
            g = grads.of(leaves[li]).reshape(-1)
            for idx in rng.choice(arr.size, size=min(2, arr.size), replace=False):
                fd = fd_gradient(loss_of, arr, idx, h=h)
                worst = max(worst, rel_err(fd, g[idx]))
                done += 1
    assert worst <= tol, f"worst relative error {worst:.3e} exceeds {tol}"
    return worst


def attention_probe_cases():
    """Finite-difference cases of the ``attention`` kind for the gradient
    suites, all five inputs probed: encoder-shaped (Rq = Rk, pair mask of
    masked rows, whose own outputs get zero weight), cross-shaped (Rq = 1,
    key mask) and unmasked."""
    rows = np.array([[False, False, True, False, True], [False, True, False, False, False]])
    pair = np.where(rows[:, :, None] | rows[:, None, :], ad.NEG_INF, 0.0)[:, None]
    keys = np.array([[False, True, False, False, True, False], [False, False, False, True, True, True],
                     [False, False, False, False, False, False]])
    key_mask = np.where(keys, ad.NEG_INF, 0.0)[:, None, None, :]
    return [
        ("attention-encoder", lambda l: ad.attention(*l, heads=2, mask=pair),
         [(2, 5, 4), (2, 5, 4), (2, 5, 4), (4, 4), (4, 4)],
         {"weight_filter": lambda w: np.where(rows[:, :, None], 0.0, w)}),
        ("attention-cross", lambda l: ad.attention(*l, heads=2, mask=key_mask),
         [(3, 1, 4), (3, 6, 4), (3, 6, 4), (4, 4), (4, 4)], {}),
        ("attention-unmasked", lambda l: ad.attention(*l, heads=2),
         [(2, 3, 4), (2, 5, 4), (2, 5, 4), (4, 4), (4, 4)], {}),
    ]


def tiny_instance(n=6, k=2, t_max=1.5, prize_mode="constant", seed=0) -> Instance:
    return generate(GenConfig(n=n, k=k, t_max=t_max, prize_mode=prize_mode, seed=seed))


def generous_instance(n=5, k=2) -> Instance:
    """Hand-built instance where every customer is reachable by every vehicle."""
    customers = tuple((0.1 + 0.15 * i, 0.3 + 0.05 * i, 1.0) for i in range(n))
    return Instance(depot=(0.5, 0.5), customers=customers,
                    vehicles=tuple((0.2 + 0.3 * j, 0.8, 10.0) for j in range(k)),
                    t_max=10.0)


def active_vehicles(state) -> np.ndarray:
    """(B,) vehicle each row routes now, from its order and active slot."""
    return state.orders[np.arange(len(state)), state.active_slot]


def rollout_one(inst, order, params, cfg, seed=None):
    """Untaped rollout of one instance under one vehicle order, sampled with
    ``seed`` when one is given and greedy otherwise; returns its trajectory."""
    rng = None if seed is None else np.random.default_rng(seed)
    return rollout_states([inst], [order], params, cfg, rng=rng).trajectory(0)


def forced_rollout(instances, orders, params, cfg, actions, **kw):
    """Teacher forcing: a sampled rollout whose draws are replaced, step by
    step, by the columns of ``actions``, the (B, T) action record of an
    earlier rollout of the same instances and orders. ``kw`` passes ``tape``
    and ``bn_training`` on to ``rollout_states``."""
    columns = iter(np.asarray(actions, dtype=np.intp).T)

    def forced(probs, group, rng):
        column = next(columns, None)
        if column is None:
            raise ValueError("forced actions end before the rollout does")
        return column

    with mock.patch.object(env, "sample_rows", forced):
        return rollout_states(instances, orders, params, cfg, rng=np.random.default_rng(0), **kw)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
