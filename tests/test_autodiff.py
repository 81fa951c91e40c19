import numpy as np
import pytest

from mstoplab import autodiff as ad
from mstoplab.optim import AdamState, MissingGradientError, adam_step, clip_by_global_norm
from mstoplab.checkpoint import CheckpointError, load_checkpoint, save_checkpoint

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
    with pytest.raises(ad.ShapeMismatchError, match="matmul"):
        ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((4, 2))))
    with pytest.raises(ad.ShapeMismatchError, match="concat"):
        ad.concat([ad.constant(np.ones((2, 3))), ad.constant(np.ones((3, 3)))], axis=-1)
    with pytest.raises(ad.ShapeMismatchError, match="take"):
        ad.take(ad.constant(np.ones((2, 3, 4))), (np.arange(2)[:, None], np.array([[1], [3]])))
    x, kv, w = np.ones((2, 1, 4)), np.ones((2, 3, 4)), np.eye(4)
    with pytest.raises(ad.ShapeMismatchError, match="attention"):
        ad.attention(x, kv, kv, w, w, heads=3)
    with pytest.raises(ad.ShapeMismatchError, match="attention"):
        ad.attention(x, kv, kv, w, w, heads=2, mask=np.zeros((2, 1, 1, 4)))


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
    inst = generate(GenConfig(n=4, k=2, t_max=1.5, seed=0))
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
