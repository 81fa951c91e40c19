import struct

import numpy as np
import pytest

from mstoplab import autodiff as ad
from mstoplab.optim import AdamState, MissingGradientError, adam_step, clip_by_global_norm
from mstoplab.checkpoint import CheckpointError, load_checkpoint, read_checkpoint, save_checkpoint

import unfused_attention
from conftest import attention_probe_cases, check_op_gradients, fd_gradient, rel_err


# --- forward contract examples ----------------------------------------------

def _softmax_through_attention(z, mask=None):
    """ad.attention whose output is its attention weights: one head, unit
    keys and values, identity projections and wq scaled so that the scores
    of the query rows ``z`` (B, 1, R) are ``z`` up to rounding."""
    b, _, r = z.shape
    eye = np.eye(r)
    unit = np.broadcast_to(eye, (b, r, r))
    return ad.attention(z, unit, unit, np.sqrt(r) * eye, eye, heads=1, mask=mask)


def test_softmax_symmetry():
    out = _softmax_through_attention(np.zeros((1, 1, 2)))
    assert np.allclose(out.values, [[[0.5, 0.5]]], atol=1e-12)


def test_matmul_identity():
    m = np.array([[1.3, -2.0], [0.7, 4.1]])
    out = ad.matmul(ad.constant(np.eye(2)), ad.constant(m))
    assert np.array_equal(out.values, m)


@pytest.mark.parametrize("neg", [-np.inf, ad.NEG_INF])
def test_softmax_masked_two_way(neg):
    out = _softmax_through_attention(np.full((1, 1, 3), 2.0), mask=np.array([[0.0, neg, 0.0]]))
    assert out.values[0, 0, 1] == 0.0
    assert np.allclose(out.values, [[[0.5, 0.0, 0.5]]], atol=1e-12)


def test_softmax_rows_sum_to_one(rng):
    """The attention weights of every query row sum to one and are exactly
    zero at masked keys, so a masked key's value row cannot change the
    output, and its key and value rows get exactly zero gradient."""
    x = rng.standard_normal((40, 9)) * 5
    mask = np.where(rng.random((40, 9)) < 0.3, ad.NEG_INF, 0.0)
    mask[:, 0] = 0.0
    p = _softmax_through_attention(x[:, None, :], mask=mask[:, None, None, :]).values[:, 0]
    assert np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-9)
    assert np.all(p[mask < 0] == 0.0)

    x, k, v, wq, wout = [rng.standard_normal(s) for s in ((4, 3, 8), (4, 9, 8), (4, 9, 8), (8, 8), (8, 8))]
    key_masked = rng.random((4, 9)) < 0.3
    key_masked[:, 0] = False
    key_mask = np.where(key_masked, ad.NEG_INF, 0.0)[:, None, None, :]
    tape = ad.Tape()
    leaves = [tape.leaf(a) for a in (x, k, v, wq, wout)]
    out = ad.attention(*leaves, heads=2, mask=key_mask)
    loss = ad.tsum(ad.mul(out, ad.constant(rng.standard_normal(out.shape))))
    grads = tape.backward(loss)
    v_moved = np.where(key_masked[..., None], 1e6 * rng.standard_normal(v.shape), v)
    moved = ad.attention(x, k, v_moved, wq, wout, heads=2, mask=key_mask)
    assert key_masked.any() and np.array_equal(moved.values, out.values)
    assert np.all(grads.of(leaves[1])[key_masked] == 0.0)
    assert np.all(grads.of(leaves[2])[key_masked] == 0.0)


def test_softmax_fully_masked_row_rejected():
    with pytest.raises(ad.NonFiniteError, match="attention"):
        _softmax_through_attention(np.array([[[1.0, 2.0]]]), mask=np.array([[-np.inf, -np.inf]]))


def test_shape_mismatch_names_kind():
    """``forward`` turns every shape error of an op, numpy's own or the op's
    check of what numpy would let through, into one that names the kind and
    the input shapes."""
    c = ad.constant
    x, kv, w = np.ones((2, 1, 4)), np.ones((2, 3, 4)), np.eye(4)
    cases = [
        ("add", lambda: ad.add(c(np.ones((2, 3))), c(np.ones((4,))))),
        ("mul", lambda: ad.mul(c(np.ones((2, 3))), c(np.ones((3, 2))))),
        ("concat", lambda: ad.concat([c(np.ones((2, 3))), c(np.ones(3))], axis=-1)),          # rank
        ("concat", lambda: ad.concat([c(np.ones((2, 3))), c(np.ones((3, 3)))], axis=-1)),     # extent
        ("matmul", lambda: ad.matmul(c(np.ones((2, 3))), c(np.ones((4, 2))))),                # inner extent
        ("matmul", lambda: ad.matmul(c(np.ones((2, 3))), c(np.ones(3)))),                     # 1-D operand
        ("matmul", lambda: ad.matmul(c(np.ones((2, 2, 3))), c(np.ones((2, 4, 2))), transpose_b=True)),
        ("reshape", lambda: ad.reshape(c(np.ones((4, 5))), (3, 7))),
        ("log_softmax", lambda: ad.log_softmax(c(np.ones((4, 6))), np.zeros((4, 5)))),
        ("sum", lambda: ad.tsum(c(np.ones((2, 3))), axis=2)),
        ("batchnorm", lambda: ad.batchnorm(c(np.ones((4, 3))), np.zeros(2), np.ones(2), training=False)),
        ("batchnorm", lambda: ad.batchnorm(c(np.ones(3)), np.zeros(3), np.ones(3), training=True)),
        ("take", lambda: ad.take(c(np.ones((2, 3, 4))), (np.arange(2)[:, None], np.array([[1], [3]])))),
        ("attention", lambda: ad.attention(x, kv, kv, w, w, heads=3)),
        ("attention", lambda: ad.attention(x, kv, kv, w, w, heads=2, mask=np.zeros((2, 1, 1, 4)))),
    ]
    for kind, call in cases:
        with pytest.raises(ad.ShapeMismatchError, match=f"^{kind}: .*input shapes") as err:
            call()
        assert err.value.kind == kind


# --- backward contract examples ----------------------------------------------

def test_backward_square_at_three():
    tape = ad.Tape()
    x = tape.leaf([3.0])
    y = ad.tsum(ad.mul(x, x))
    grads = tape.backward(y)
    assert np.allclose(grads.of(x), [6.0], atol=1e-12)
    assert grads.of(y) == 1.0  # gradient of the loss w.r.t. itself


def test_backward_masked_softmax_dot_matches_finite_differences():
    # d(softmax(x) . c)/dx at x=[0,0] (a third key masked), c=[1,0,0]:
    # analytic [0.25, -0.25, 0]
    x = np.array([0.0, 0.0, 0.0])
    c = np.array([[[1.0, 0.0, 0.0]]])
    mask = np.array([[0.0, 0.0, ad.NEG_INF]])

    def loss_of():
        p = _softmax_through_attention(x.reshape(1, 1, 3), mask=mask)
        return float((p.values * c).sum())

    tape = ad.Tape()
    leaf = tape.leaf(x.reshape(1, 1, 3))
    loss = ad.tsum(ad.mul(_softmax_through_attention(leaf, mask=mask), ad.constant(c)))
    g = tape.backward(loss).of(leaf)[0, 0]
    assert np.allclose(g, [0.25, -0.25, 0.0], atol=1e-10) and g[2] == 0.0
    for idx, expected in ((0, 0.25), (1, -0.25)):
        fd = fd_gradient(loss_of, x, idx, h=1e-5)
        assert rel_err(fd, expected) <= 1e-4
        assert rel_err(fd, g[idx]) <= 1e-4


def test_gradient_of_unused_leaf_is_zero():
    tape = ad.Tape()
    x = tape.leaf([1.0, 2.0])
    y = tape.leaf([3.0])
    loss = ad.tsum(ad.mul(y, y))
    grads = tape.backward(loss)
    assert np.array_equal(grads.of(x), np.zeros(2))


def test_gradients_keep_the_loss_and_the_leaves_only():
    """Backward drops an intermediate node's gradient once it has passed it
    on, so asking for it raises, naming the node, instead of reading zeros;
    the loss and every leaf, used or not, are still answered."""
    tape = ad.Tape()
    x, unused = tape.leaf([1.0, 2.0]), tape.leaf([5.0])
    hidden = ad.mul(x, x)
    loss = ad.tsum(hidden)
    grads = tape.backward(loss)
    with pytest.raises(ad.AutodiffError, match=f"node {hidden.node_id} is an intermediate node"):
        grads.of(hidden)
    assert grads.of(loss) == 1.0
    assert np.array_equal(grads.of(x), [2.0, 4.0])
    assert np.array_equal(grads.of(unused), [0.0])


def test_second_backward_on_one_tape_gives_the_same_bytes(rng):
    tape = ad.Tape()
    a, w = tape.leaf(rng.standard_normal((3, 4))), tape.leaf(rng.standard_normal((4, 2)))
    h = ad.relu(ad.matmul(a, w))
    loss = ad.tsum(ad.mul(ad.add(h, h), ad.constant(rng.standard_normal((3, 2)))))
    first, second = tape.backward(loss), tape.backward(loss)
    for leaf in (a, w):
        assert first.of(leaf).tobytes() == second.of(leaf).tobytes()


def test_relu_backward_masks_by_its_output_as_by_its_input(rng):
    """``out > 0`` holds exactly where ``x > 0``: NaN and both zeros compare
    false in either form, so the gradient bytes are the same."""
    x = np.array([-2.0, -0.0, 0.0, 3.0, np.nan, -np.inf, np.inf, 1e-300, -1e-300])
    g = rng.standard_normal((4, x.size))
    g[0] = -0.0
    g[1, ::2] = np.nan
    out, backward = ad.OP_KINDS["relu"]([x], {}, (True,))
    assert backward(g)[0].tobytes() == (g * (x > 0.0)).tobytes()


def _rows_with_edge_cases(rng, shape):
    """Normal rows, some entries at ``-inf``, a fully ``-inf`` row, rows
    holding NaN, a row with ``inf`` and ties of equal values."""
    z = rng.standard_normal(shape)
    rows = z.reshape(-1, shape[-1])
    rows[:, ::3] = -np.inf
    rows[0] = -np.inf
    rows[1, 1] = np.nan
    rows[2] = np.nan
    rows[3, -1] = np.inf
    rows[4, :2] = 2.5
    return z


@pytest.mark.parametrize("shape", [(64, 4, 23, 23), (1280, 4, 1, 22), (64, 22), (64, 1, 1, 21), (9, 3)])
def test_row_max_matches_np_max_bytes(rng, shape):
    """The transposed row max against ``np.max`` on encoder scores (64 rows,
    4 heads, 23 × 23), decoder cross-attention scores and logits."""
    z = _rows_with_edge_cases(rng, shape)
    assert ad._row_max(z).tobytes() == np.max(z, axis=-1, keepdims=True).tobytes()


def test_row_max_zero_ties_give_the_same_softmaxes(rng, monkeypatch):
    """A row whose largest entries are 0.0 and -0.0 may get the other zero
    than ``np.max``; the softmax of ``attention`` and ``log_softmax`` give the
    same bytes either way. The mask is -0.0 where it keeps an entry, so the
    ties reach the row max; rows are 23 wide, as encoder scores at mstop20,
    where numpy's own row max picks its zero differently from a short row's."""
    z = -np.abs(rng.standard_normal((6, 23))) - 0.5
    z[:, :2] = [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [0.0, 0.0], [-0.0, 0.0], [0.0, -0.0]]
    mask = np.full(z.shape, -0.0)
    mask[4:, 2:] = -np.inf

    def outputs():
        return [ad._softmax_raw(z + mask).tobytes(), ad.log_softmax(z, mask).values.tobytes()]

    fast = outputs()
    monkeypatch.setattr(ad, "_row_max", lambda x: np.max(x, axis=-1, keepdims=True))
    assert fast == outputs()


def test_detached_tensor_gradient_query_raises():
    tape = ad.Tape()
    y = tape.leaf([1.0])
    grads = tape.backward(ad.tsum(y))
    with pytest.raises(ad.DetachedNodeError):
        grads.of(ad.constant([1.0]))


def test_nonscalar_loss_rejected():
    tape = ad.Tape()
    x = tape.leaf([1.0, 2.0])
    with pytest.raises(ad.ShapeMismatchError):
        tape.backward(x)


def test_cross_tape_inputs_rejected():
    t1, t2 = ad.Tape(), ad.Tape()
    with pytest.raises(ad.AutodiffError):
        ad.add(t1.leaf([1.0]), t2.leaf([2.0]))


# --- finite-difference suite over every operation kind -----------------------

def _mask_for(shape, rng):
    mask = np.where(rng.random(shape) < 0.25, ad.NEG_INF, 0.0)
    mask[..., 0] = 0.0
    return mask


def test_gradients_all_kinds(rng):
    mask = _mask_for((4, 6), rng)
    rm, rv = np.zeros(5), np.ones(5)

    def away_from_kink(arrays):
        return [np.where(np.abs(a) < 0.05, 0.5, a) for a in arrays]

    def zero_masked(w):
        return np.where(mask < 0, 0.0, w)

    cases = [
        ("matmul", lambda l: ad.matmul(l[0], l[1]), [(3, 4, 5), (5, 6)], {}),
        ("matmul-t", lambda l: ad.matmul(l[0], l[1], transpose_b=True), [(2, 3, 5), (2, 4, 5)], {}),
        ("matmul-t2", lambda l: ad.matmul(l[0], l[1], transpose_b=True), [(2, 3, 5), (4, 5)], {}),
        ("add", lambda l: ad.add(l[0], l[1]), [(3, 4), (4,)], {}),
        ("mul", lambda l: ad.mul(l[0], l[1]), [(3, 4), (3, 1)], {}),
        ("mul-float", lambda l: ad.mul(l[0], -2.5), [(3, 4)], {}),
        ("concat", lambda l: ad.concat([l[0], l[1]], axis=-1), [(3, 4), (3, 2)], {}),
        ("log_softmax", lambda l: ad.log_softmax(l[0], mask=mask), [(4, 6)],
         {"weight_filter": zero_masked}),
        ("relu", lambda l: ad.relu(l[0]), [(5, 5)], {"input_filter": away_from_kink}),
        ("tanh", lambda l: ad.tanh(l[0]), [(5, 5)], {}),
        ("exp", lambda l: ad.exp(l[0]), [(5, 5)], {}),
        ("sum", lambda l: ad.tsum(l[0], axis=1), [(3, 4, 5)], {}),
        ("sum-all", lambda l: ad.tsum(l[0]), [(4, 4)], {}),
        ("batchnorm-train", lambda l: ad.batchnorm(l[0], rm, rv, training=True), [(6, 3, 5)], {}),
        ("batchnorm-eval", lambda l: ad.batchnorm(l[0], rm, rv, training=False), [(6, 3, 5)], {}),
        ("reshape", lambda l: ad.reshape(l[0], (2, 10)), [(4, 5)], {}),
        # the decoder's three uses: node rows (repeated here), a row per batch
        # element, and one entry per row
        ("take-slice", lambda l: ad.take(l[0], (slice(None), np.array([0, 2, 2, 1]))), [(2, 5, 3)], {}),
        ("take-row", lambda l: ad.take(l[0], (np.arange(3)[:, None], np.array([[1], [0], [3]]))),
         [(3, 4, 5)], {}),
        ("take-scalar", lambda l: ad.take(l[0], (np.arange(4), np.array([1, 0, 4, 4]))), [(4, 5)], {}),
    ] + attention_probe_cases()
    for name, builder, shapes, kw in cases:
        check_op_gradients(builder, shapes, rng, probes=100, **kw)


def test_take_backward_matches_add_at_bytes(rng):
    """``take``'s backward adds in place where no position repeats and with
    ``np.add.at`` where one does; both give ``np.add.at``'s bytes, signed
    zeros included."""
    cases = [
        ((64, 23, 32), (np.arange(64), slice(0, 21))),                       # unique
        ((3, 4, 5), (np.arange(3)[:, None], np.array([[1], [0], [3]]))),
        ((4, 5), (np.arange(4), np.array([1, 0, 4, 4]))),
        ((2, 5, 3), (slice(None), slice(1, 4))),
        ((2, 5, 3), (slice(None), np.array([0, 2, 2, 1]))),                  # repeated
        ((4, 5), (np.array([[0], [0], [3]]), np.array([[1], [1], [-1]]))),
        ((5, 2), (np.array([4, -1, 0]),)),
    ]
    for shape, index in cases:
        x = rng.standard_normal(shape)
        out, backward = ad.OP_KINDS["take"]([x], {"index": index}, [True])
        g = rng.standard_normal(out.shape)
        g.reshape(-1)[::3] = -0.0
        expected = np.zeros_like(x)
        np.add.at(expected, index, g)
        assert backward(g)[0].tobytes() == expected.tobytes()


def test_attention_matches_the_unfused_composition(rng):
    """The fused kind against the numpy chain it replaced: equal forward
    values, and gradients of all five inputs within 1e-12 relative."""
    rows = rng.random((6, 9)) < 0.3
    rows[:, 0] = False
    pair = np.where(rows[:, :, None] | rows[:, None, :], ad.NEG_INF, 0.0)[:, None]
    keys = rng.random((6, 12)) < 0.4
    keys[:, 0] = False
    key_mask = np.where(keys, ad.NEG_INF, 0.0)[:, None, None, :]
    cases = [   # (B, Rq, Rk, d, heads, mask)
        (6, 9, 9, 32, 4, pair),
        (6, 1, 12, 32, 4, key_mask),
        (6, 1, 12, 16, 1, key_mask),
        (4, 1, 5, 32, 4, None),
        (3, 4, 4, 8, 2, None),
    ]
    for b, rq, rk, d, heads, mask in cases:
        arrays = [rng.standard_normal(s) for s in ((b, rq, d), (b, rk, d), (b, rk, d), (d, d), (d, d))]
        ref, cache = unfused_attention.forward(*arrays, heads, mask)
        tape = ad.Tape()
        leaves = [tape.leaf(a) for a in arrays]
        out = ad.attention(*leaves, heads=heads, mask=mask)
        assert np.array_equal(out.values, ref)
        w = rng.standard_normal(out.shape)
        grads = tape.backward(ad.tsum(ad.mul(out, ad.constant(w))))
        for leaf, expected in zip(leaves, unfused_attention.backward(cache, w)):
            got = grads.of(leaf)
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_every_op_kind_is_issued_by_the_package(monkeypatch):
    """No op kind exists only for tests: one training step of the package
    issues every kind."""
    from mstoplab.instances import GenConfig, generate
    from mstoplab.model import DdtmConfig, DdtmParameters
    from mstoplab.training import TrainConfig, reinforce_step

    issued, real = set(), ad.forward

    def recording(kind, inputs, attrs=None):
        issued.add(kind)
        return real(kind, inputs, attrs)

    monkeypatch.setattr(ad, "forward", recording)
    cfg = DdtmConfig(d=8, heads=2, ff_dim=8, encoder_layers=1, decoder_layers=1)
    params = DdtmParameters.init(cfg, seed=0)
    inst = generate(GenConfig(n=4, k=2, t_max=1.5, seed=1))     # both vehicles reach a customer
    reinforce_step([inst], [(0, 1)], params, AdamState(lr=1e-4), cfg, TrainConfig(batch=8),
                   rollout_rng=np.random.default_rng(0))
    assert issued == set(ad.OP_KINDS), issued ^ set(ad.OP_KINDS)


# --- batch norm bookkeeping ----------------------------------------------------

def test_batchnorm_eval_is_affine():
    rm = np.array([0.5, -1.0])
    rv = np.array([4.0, 0.25])
    x1 = np.array([[1.0, 2.0], [3.0, -1.0]])
    x2 = x1 + np.array([[0.7, -0.2], [0.1, 0.4]])
    y1 = ad.batchnorm(ad.constant(x1), rm, rv, training=False).values
    y2 = ad.batchnorm(ad.constant(x2), rm, rv, training=False).values
    inv = 1.0 / np.sqrt(rv + 1e-5)
    assert np.allclose(y2 - y1, (x2 - x1) * inv, atol=1e-12)
    # deterministic on repeat
    y1b = ad.batchnorm(ad.constant(x1), rm, rv, training=False).values
    assert np.array_equal(y1, y1b)


def test_batchnorm_running_stat_update(rng):
    rm = np.zeros(3)
    rv = np.ones(3)
    x = rng.standard_normal((8, 3)) + 2.0
    ad.batchnorm(ad.constant(x), rm, rv, training=True)
    assert np.allclose(rm, 0.1 * x.mean(axis=0), atol=1e-12)
    assert np.allclose(rv, 0.9 * 1.0 + 0.1 * x.var(axis=0), atol=1e-12)


# --- determinism ---------------------------------------------------------------

def test_tape_replay_bit_identical(rng):
    x = rng.standard_normal((6, 8))
    w = rng.standard_normal((8, 8))

    def run():
        tape = ad.Tape()
        a = tape.leaf(x)
        b = tape.leaf(w)
        out = ad.log_softmax(ad.matmul(ad.tanh(ad.matmul(a, b)), b, transpose_b=True), np.zeros(8))
        loss = ad.tsum(out)
        g = tape.backward(loss)
        return out.values.tobytes(), g.of(a).tobytes(), g.of(b).tobytes()

    assert run() == run()


# --- Adam ------------------------------------------------------------------------

def test_adam_first_step_is_signed_learning_rate():
    params = {"w": np.array([1.0, -2.0, 0.5])}
    grads = {"w": np.array([0.3, -0.7, 2.0])}
    state = AdamState(lr=1e-2)
    before = params["w"].copy()
    adam_step(params, grads, state)
    delta = params["w"] - before
    # bias-corrected m/sqrt(v) equals sign(g) on the first step (up to eps)
    assert np.allclose(delta, -1e-2 * np.sign(grads["w"]), rtol=1e-6)
    assert state.step == 1


def test_adam_zero_gradient_keeps_parameters_and_decays_moments():
    params = {"w": np.array([1.0])}
    state = AdamState(lr=1e-2)
    adam_step(params, {"w": np.array([4.0])}, state)
    m1, v1 = state.m["w"].copy(), state.v["w"].copy()
    before = params["w"].copy()
    adam_step(params, {"w": np.zeros(1)}, state)
    assert np.allclose(state.m["w"], 0.9 * m1, atol=1e-15)
    assert np.allclose(state.v["w"], 0.999 * v1, atol=1e-15)
    # zero gradient barely moves the parameter (pure moment residue, < lr)
    assert abs(params["w"][0] - before[0]) < 1e-2


def test_adam_two_steps_match_hand_recurrence():
    g = np.array([0.8])
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    params = {"w": np.array([0.2])}
    state = AdamState(lr=lr, beta1=b1, beta2=b2, eps=eps)
    w = 0.2
    m = v = 0.0
    deltas = []
    for t in (1, 2):
        m = b1 * m + (1 - b1) * g[0]
        v = b2 * v + (1 - b2) * g[0] ** 2
        step = -lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        deltas.append(step)
        w += step
        adam_step(params, {"w": g.copy()}, state)
        assert abs(params["w"][0] - w) < 1e-15
    # monotone movement against the gradient sign
    assert deltas[0] < 0 and deltas[1] < 0


def test_adam_missing_gradient_raises():
    with pytest.raises(MissingGradientError):
        adam_step({"w": np.ones(2)}, {}, AdamState())


def test_clip_by_global_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    norm = clip_by_global_norm(grads, 1.0)
    assert abs(norm - 5.0) < 1e-12
    assert abs(np.sqrt(grads["a"][0] ** 2 + grads["b"][0] ** 2) - 1.0) < 1e-12
    grads2 = {"a": np.array([0.3])}
    norm2 = clip_by_global_norm(grads2, 1.0)
    assert abs(norm2 - 0.3) < 1e-12 and grads2["a"][0] == 0.3


# --- checkpoint container -------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path, rng):
    params = {"w1": rng.standard_normal((3, 4)), "stat": np.array([1.0, 2.0])}
    adam = AdamState(lr=3e-4, step=7)
    adam.ensure("w1", (3, 4))
    adam.m["w1"] += 0.25
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, adam)
    loaded, adam2 = load_checkpoint(path)
    assert set(loaded) == set(params)
    for k in params:
        assert np.array_equal(loaded[k], params[k])
    assert adam2.step == 7 and adam2.lr == 3e-4
    assert np.array_equal(adam2.m["w1"], adam.m["w1"])
    assert np.array_equal(adam2.v["w1"], adam.v["w1"])


def test_checkpoint_without_optimizer(tmp_path):
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, {"w": np.ones(2)})
    params, adam = load_checkpoint(path)
    assert adam is None and np.array_equal(params["w"], np.ones(2))


def test_checkpoint_model_section(tmp_path):
    """Model extents come back as rank-0 blocks from ``read_checkpoint``;
    ``load_checkpoint`` still returns the arrays and the optimizer state only."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"w": np.ones(2)}, model={"d": 16, "heads": 2})
    model, params, adam = read_checkpoint(path)
    assert model == {"d": 16.0, "heads": 2.0} and all(v.shape == () for v in model.values())
    assert adam is None and list(params) == ["w"]
    loaded = load_checkpoint(path)
    assert len(loaded) == 2 and loaded[1] is None and list(loaded[0]) == ["w"]
    save_checkpoint(path, {"w": np.ones(2)})
    assert read_checkpoint(path)[0] == {}


def test_checkpoint_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    from mstoplab import checkpoint
    path = tmp_path / "best.ckpt"
    save_checkpoint(path, {"a": np.ones(3), "b": np.zeros(2)})
    before = path.read_bytes()
    real_write, written = checkpoint._write_block, []

    def fail_on_second_block(fh, name, arr):
        if written:
            raise OSError("disk full")
        written.append(name)
        real_write(fh, name, arr)

    monkeypatch.setattr(checkpoint, "_write_block", fail_on_second_block)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, {"a": np.full(3, 2.0), "b": np.ones(2)})
    assert written == ["a"]
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]
    loaded, _ = load_checkpoint(path)
    assert np.array_equal(loaded["a"], np.ones(3)) and np.array_equal(loaded["b"], np.zeros(2))


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    path = tmp_path / "v9.ckpt"
    save_checkpoint(path, {"w": np.ones(1)})
    raw = bytearray(path.read_bytes())
    raw[6:10] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, {"w": np.ones(8)})
    path.write_bytes(path.read_bytes()[:-12])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def _block(name: bytes, values: np.ndarray) -> bytes:
    """One checkpoint block, written by hand."""
    return (struct.pack("<I", len(name)) + name + struct.pack("<I", values.ndim)
            + b"".join(struct.pack("<Q", e) for e in values.shape) + values.astype("<f8").tobytes())


@pytest.mark.parametrize("extents", [(2 ** 40,), (2 ** 32, 2 ** 32)])
def test_checkpoint_extent_past_the_end_of_the_file(tmp_path, extents):
    """An extent is checked against the bytes left before it sizes a read:
    2**40 doubles would ask for 8 TiB, and 2**64 doubles wrap a numpy product."""
    path = tmp_path / "huge.ckpt"
    save_checkpoint(path, {"w": np.ones(2)})
    raw = path.read_bytes()
    rank_at = 6 + 4 + 4 + 4 + 4 + 1             # magic, version, model and param counts, name length, "w"
    shape = struct.pack("<I", len(extents)) + b"".join(struct.pack("<Q", e) for e in extents)
    path.write_bytes(raw[:rank_at] + shape + raw[rank_at + 4 + 8:])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_name_that_is_not_utf8(tmp_path):
    path = tmp_path / "name.ckpt"
    save_checkpoint(path, {"w": np.ones(2)})
    raw = bytearray(path.read_bytes())
    raw[22:23] = b"\xff"                        # the name "w", after the empty model section
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="UTF-8"):
        load_checkpoint(path)


@pytest.mark.parametrize("lr", [None, np.array([1e-4, 5.0])])
def test_checkpoint_optimizer_state_without_its_scalars(tmp_path, lr):
    """Optimizer moments with no learning rate, or one of two entries."""
    path = tmp_path / "adam.ckpt"
    save_checkpoint(path, {"w": np.ones(2)})
    blocks = [_block(b"m:w", np.zeros(2)), _block(b"v:w", np.zeros(2))]
    if lr is not None:
        blocks += [_block(name, np.array(value)) for name, value in
                   ((b"lr", lr), (b"beta1", 0.9), (b"beta2", 0.999), (b"eps", 1e-8), (b"step", 1.0))]
    raw = path.read_bytes()[:-4]                # drop the zero optimizer count
    path.write_bytes(raw + struct.pack("<I", len(blocks)) + b"".join(blocks))
    with pytest.raises(CheckpointError, match="optimizer state"):
        load_checkpoint(path)


def test_checkpoint_bytes_after_the_last_block(tmp_path):
    path = tmp_path / "tail.ckpt"
    adam = AdamState(step=1)
    adam.ensure("w", (2,))
    for state in (None, adam):
        save_checkpoint(path, {"w": np.ones(2)}, state)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(CheckpointError, match="4 bytes after the last block"):
            load_checkpoint(path)


@pytest.mark.parametrize("section", ["params", "optimizer"])
def test_checkpoint_block_name_stored_twice(tmp_path, section):
    """Two blocks of one name would load silently as the last of them."""
    path = tmp_path / "twice.ckpt"
    adam = AdamState(step=1)
    adam.ensure("w", (2,))
    save_checkpoint(path, {"w": np.ones(2)}, adam)
    raw = path.read_bytes()
    if section == "params":
        (count,) = struct.unpack("<I", raw[14:18])   # after the empty model section
        w = _block(b"w", np.zeros(2))
        raw = raw[:14] + struct.pack("<I", count + 1) + w + raw[18:]
    else:
        at = 18 + len(_block(b"w", np.ones(2)))  # the optimizer count
        (count,) = struct.unpack("<I", raw[at:at + 4])
        raw = raw[:at] + struct.pack("<I", count + 1) + _block(b"lr", np.array(0.5)) + raw[at + 4:]
    path.write_bytes(raw)
    with pytest.raises(CheckpointError, match="stored twice"):
        load_checkpoint(path)
