"""Minimal reverse-mode automatic differentiation on float64 numpy arrays.

A :class:`Tape` records every operation applied to tensors that live on it.
Calling :meth:`Tape.backward` on a scalar loss walks the record in reverse and
returns a :class:`Gradients` lookup. Tensors built from plain arrays (or from
inputs that are not on any tape) are constants: they participate in forward
computation but receive no gradient.

All values are float64 and row-major. Masking is additive: a mask is an array
added to logits before softmax, with large-negative entries (or ``-inf``)
forcing probability exactly zero.
"""

from __future__ import annotations

import math

import numpy as np

# Additive-mask sentinel used by callers that need a finite "minus infinity".
NEG_INF = -1e9

# Batch norm: weight of a batch's statistics in the running buffers, and the
# variance floor.
BN_MOMENTUM = 0.1
BN_EPS = 1e-5


class AutodiffError(Exception):
    pass


class ShapeMismatchError(AutodiffError):
    def __init__(self, kind, detail):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind


class NonFiniteError(AutodiffError):
    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row          # first batch row holding the values, when known


class DetachedNodeError(AutodiffError):
    pass


class Tensor:
    """A float64 array plus an optional handle into a recording tape."""

    __slots__ = ("values", "tape", "node_id")

    def __init__(self, values, tape=None, node_id=None):
        self.values = values
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self):
        return self.values.shape

    def __repr__(self):
        tag = "const" if self.node_id is None else f"node {self.node_id}"
        return f"Tensor(shape={self.values.shape}, {tag})"


def constant(values) -> Tensor:
    """Wrap an array-like as a constant tensor (no gradient)."""
    return Tensor(np.asarray(values, dtype=np.float64))


class Gradients:
    """Gradient lookup returned by :meth:`Tape.backward`."""

    def __init__(self, tape, grads):
        self._tape = tape
        self._grads = grads

    def of(self, tensor: Tensor) -> np.ndarray:
        if tensor.node_id is None or tensor.tape is not self._tape:
            raise DetachedNodeError("tensor is not a node of the differentiated tape")
        g = self._grads.get(tensor.node_id)
        if g is None:
            return np.zeros_like(tensor.values)
        return g


class Tape:
    """Ordered operation record; single-owner, not shared across rollouts.
    It checks no values: a rollout checks its action probabilities and
    training its loss."""

    def __init__(self):
        self._records = []  # (out_id, input_ids, backward_fn)
        self._next_id = 0

    def _new_id(self):
        nid = self._next_id
        self._next_id = nid + 1
        return nid

    def leaf(self, values) -> Tensor:
        """Register a differentiable leaf (e.g. a trainable parameter)."""
        return Tensor(np.asarray(values, dtype=np.float64), tape=self, node_id=self._new_id())

    def backward(self, loss: Tensor) -> Gradients:
        """Reverse pass from a scalar loss; returns gradients by node."""
        if loss.tape is not self or loss.node_id is None:
            raise DetachedNodeError("loss is not recorded on this tape")
        if loss.values.size != 1:
            raise ShapeMismatchError("backward", f"loss must be scalar, got shape {loss.values.shape}")
        grads = {loss.node_id: np.ones_like(loss.values)}
        for out_id, input_ids, backward_fn in reversed(self._records):
            g = grads.get(out_id)
            if g is None:
                continue
            for node_id, gin in zip(input_ids, backward_fn(g)):
                if node_id is None or gin is None:
                    continue
                acc = grads.get(node_id)
                grads[node_id] = gin if acc is None else acc + gin
        return Gradients(self, grads)

    def __len__(self):
        return len(self._records)


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _swap_last(x):
    return np.swapaxes(x, -1, -2)


# ---------------------------------------------------------------------------
# operation kinds: each entry returns (value, backward_fn) given raw arrays
# ---------------------------------------------------------------------------

def _op_matmul(vals, attrs, needs):
    a, b = vals
    transpose_b = attrs.get("transpose_b", False)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatchError("matmul", f"operands must be at least 2-D, got {a.shape} and {b.shape}")
    b_eff_rows = b.shape[-1] if transpose_b else b.shape[-2]
    if a.shape[-1] != b_eff_rows:
        raise ShapeMismatchError(
            "matmul", f"inner extents disagree: {a.shape} x {b.shape} (transpose_b={transpose_b})")
    out = a @ (_swap_last(b) if transpose_b else b)
    need_a, need_b = needs

    def backward(g):
        ga = gb = None
        if b.ndim == 2:
            # batched activations against one weight matrix: flatten to a
            # single GEMM instead of per-element outer products
            g2 = g.reshape(-1, g.shape[-1])
            if need_a:
                ga = (g2 @ (b.T if not transpose_b else b)).reshape(a.shape)
            if need_b:
                a2 = a.reshape(-1, a.shape[-1])
                gb = a2.T @ g2 if not transpose_b else g2.T @ a2
            return ga, gb
        if transpose_b:
            if need_a:
                ga = _unbroadcast(g @ b, a.shape)
            if need_b:
                gb = _unbroadcast(_swap_last(g) @ a, b.shape)
        else:
            if need_a:
                ga = _unbroadcast(g @ _swap_last(b), a.shape)
            if need_b:
                gb = _unbroadcast(_swap_last(a) @ g, b.shape)
        return ga, gb

    return out, backward


def _op_add(vals, attrs, needs):
    a, b = vals
    try:
        out = a + b
    except ValueError:
        raise ShapeMismatchError("add", f"shapes not broadcastable: {a.shape} vs {b.shape}")

    def backward(g):
        return (_unbroadcast(g, a.shape) if needs[0] else None,
                _unbroadcast(g, b.shape) if needs[1] else None)

    return out, backward


def _op_mul(vals, attrs, needs):
    a, b = vals
    try:
        out = a * b
    except ValueError:
        raise ShapeMismatchError("mul", f"shapes not broadcastable: {a.shape} vs {b.shape}")

    def backward(g):
        return (_unbroadcast(g * b, a.shape) if needs[0] else None,
                _unbroadcast(g * a, b.shape) if needs[1] else None)

    return out, backward


def _op_concat(vals, attrs, needs):
    axis = attrs.get("axis", -1)
    ref = vals[0].ndim
    for v in vals:
        if v.ndim != ref:
            raise ShapeMismatchError("concat", f"rank mismatch: {[v.shape for v in vals]}")
    try:
        out = np.concatenate(vals, axis=axis)
    except ValueError:
        raise ShapeMismatchError("concat", f"incompatible shapes {[v.shape for v in vals]} along axis {axis}")
    sizes = [v.shape[axis] for v in vals]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return out, backward


def _softmax_raw(z):
    """Softmax over the last axis, computed in place in ``z``."""
    m = np.max(z, axis=-1, keepdims=True)
    if np.isneginf(m).any():
        raise NonFiniteError("attention: a row is fully masked to -inf")
    z -= m
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _split_heads(x, heads):
    b, r, d = x.shape
    return x.reshape(b, r, heads, d // heads).transpose(0, 2, 1, 3)


def _matmul_merged(a, b):
    """The per-head products ``a @ b`` (B, heads, R, dk) with the heads merged
    into (B, R, heads * dk). Each product is written straight into its
    columns of the result, which saves the copy of merging afterwards and
    changes no value."""
    n, h, r, _ = a.shape
    dk = b.shape[-1]
    out = np.empty((n, r, h * dk))
    np.matmul(a, b, out=out.reshape(n, r, h, dk).transpose(0, 2, 1, 3))
    return out


def _op_attention(vals, attrs, needs):
    """Multi-head scaled-dot-product attention of query rows ``x`` (B, Rq, d)
    over projected, not yet head-split keys and values (B, Rk, d), with the
    query and output projections ``wq`` and ``wout`` (d, d) inside the op.

    The forward runs the numpy steps of the unfused composition (query
    projection, head split, scores, scale, additive mask, softmax, weighted
    sum, head merge, output projection) in its order and on the same shapes,
    so its values are identical. The scale, mask and softmax work in place on
    the fresh scores, and the weighted sums are written straight into merged
    rows. One backward closure returns the gradients of all five inputs.
    """
    x, k, v, wq, wout = vals
    heads = attrs["heads"]
    d = x.shape[-1]
    if (x.ndim != 3 or k.ndim != 3 or v.shape != k.shape or k.shape[0] != x.shape[0] or k.shape[2] != d
            or wq.shape != (d, d) or wout.shape != (d, d) or d % heads):
        raise ShapeMismatchError(
            "attention", f"x {x.shape}, k {k.shape}, v {v.shape}, wq {wq.shape}, wout {wout.shape}, "
                         f"{heads} heads")
    c = 1.0 / math.sqrt(d // heads)
    qh = _split_heads(x @ wq, heads)
    kh, vh = _split_heads(k, heads), _split_heads(v, heads)
    p = qh @ _swap_last(kh)
    p *= c
    mask = attrs.get("mask")
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float64)
        try:
            p += mask
        except ValueError:
            raise ShapeMismatchError("attention", f"mask shape {mask.shape} not broadcastable to {p.shape}")
    _softmax_raw(p)
    o = _matmul_merged(p, vh)
    out = o @ wout

    def backward(g):
        # the tape drops the gradients of constant inputs
        g2 = g.reshape(-1, d)
        gwout = o.reshape(-1, d).T @ g2
        go = _split_heads((g2 @ wout.T).reshape(x.shape), heads)
        gv = _matmul_merged(_swap_last(p), go)
        gs = go @ _swap_last(vh)      # becomes the scores' gradient in place
        gs -= np.sum(gs * p, axis=-1, keepdims=True)
        gs *= p
        gs *= c
        gk = _matmul_merged(_swap_last(gs), qh)
        gq = _matmul_merged(gs, kh).reshape(-1, d)
        return (gq @ wq.T).reshape(x.shape), gk, gv, x.reshape(-1, d).T @ gq, gwout

    return out, backward


def _op_log_softmax(vals, attrs, needs):
    (x,) = vals
    mask = np.asarray(attrs["mask"], dtype=np.float64)
    try:
        z = x + mask
    except ValueError:
        raise ShapeMismatchError("log_softmax", f"mask shape {mask.shape} not broadcastable to {x.shape}")
    m = np.max(z, axis=-1, keepdims=True)
    if np.isneginf(m).any():
        raise NonFiniteError("log_softmax: a row is fully masked to -inf")
    shifted = z - m
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse
    p = np.exp(out)

    def backward(g):
        return (g - p * np.sum(g, axis=-1, keepdims=True),)

    return out, backward


def _op_relu(vals, attrs, needs):
    (x,) = vals
    out = np.maximum(x, 0.0)
    return out, lambda g: (g * (x > 0.0),)


def _op_tanh(vals, attrs, needs):
    (x,) = vals
    out = np.tanh(x)
    return out, lambda g: (g * (1.0 - out * out),)


def _op_exp(vals, attrs, needs):
    (x,) = vals
    out = np.exp(x)
    return out, lambda g: (g * out,)


def _sum_backward(g, x_shape, axis):
    if axis is None:
        return np.full(x_shape, 1.0, dtype=np.float64) * g
    return np.broadcast_to(np.expand_dims(g, axis), x_shape).copy()


def _op_sum(vals, attrs, needs):
    (x,) = vals
    axis = attrs.get("axis")
    return x.sum(axis=axis), lambda g: (_sum_backward(g, x.shape, axis),)


def _op_batchnorm(vals, attrs, needs):
    """Normalize each last-axis channel over all leading axes.

    Training mode uses batch statistics (differentiable) and folds them into
    the running buffers with momentum ``BN_MOMENTUM``. Evaluation mode is a
    deterministic affine map built from the frozen running statistics.
    """
    (x,) = vals
    running_mean = attrs["running_mean"]
    running_var = attrs["running_var"]
    if x.ndim < 2:
        raise ShapeMismatchError("batchnorm", f"need at least 2-D input, got {x.shape}")
    if running_mean.shape != (x.shape[-1],) or running_var.shape != (x.shape[-1],):
        raise ShapeMismatchError(
            "batchnorm", f"running stats {running_mean.shape}/{running_var.shape} do not match channels {x.shape[-1]}")
    axes = tuple(range(x.ndim - 1))

    if attrs["training"]:
        mu = x.mean(axis=axes)
        var = x.var(axis=axes)
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mu
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (x - mu) * inv_std
        out = xhat

        def backward(g):
            mean_g = g.mean(axis=axes)
            mean_gx = (g * xhat).mean(axis=axes)
            return (inv_std * (g - mean_g - xhat * mean_gx),)

        return out, backward

    inv_std = 1.0 / np.sqrt(running_var + BN_EPS)
    out = (x - running_mean) * inv_std
    return out, lambda g: (g * inv_std,)


def _op_reshape(vals, attrs, needs):
    (x,) = vals
    shape = tuple(attrs["shape"])
    if int(np.prod(shape)) != x.size:
        raise ShapeMismatchError("reshape", f"cannot reshape {x.shape} to {shape}")
    return x.reshape(shape), lambda g: (g.reshape(x.shape),)


def _op_take(vals, attrs, needs):
    # Row selection x[index] by a tuple of slices and integer arrays; repeated
    # indices add their gradients.
    (x,) = vals
    index = attrs["index"]
    try:
        out = x[index]
    except IndexError as exc:
        raise ShapeMismatchError("take", f"index does not fit shape {x.shape}: {exc}")

    def backward(g):
        gx = np.zeros_like(x)
        np.add.at(gx, index, g)
        return (gx,)

    return out, backward


OP_KINDS = {
    "matmul": _op_matmul,
    "add": _op_add,
    "mul": _op_mul,
    "concat": _op_concat,
    "attention": _op_attention,
    "log_softmax": _op_log_softmax,
    "relu": _op_relu,
    "tanh": _op_tanh,
    "exp": _op_exp,
    "sum": _op_sum,
    "batchnorm": _op_batchnorm,
    "reshape": _op_reshape,
    "take": _op_take,
}


def forward(kind: str, inputs, attrs=None) -> Tensor:
    """Apply an operation kind to tensors, recording it when inputs are taped.

    Inputs that are plain arrays are constants. All taped inputs must share
    one tape; the output lives on that tape and only its taped inputs get
    gradients. With no taped input the output is a constant. Values are not
    checked for finiteness.
    """
    if kind not in OP_KINDS:
        raise AutodiffError(f"unknown operation kind '{kind}'")
    tape, vals, ids = None, [], []
    for t in inputs:
        if not isinstance(t, Tensor):
            t = constant(t)
        elif t.tape is not None:
            if tape is not None and tape is not t.tape:
                raise AutodiffError(f"{kind}: inputs live on different tapes")
            tape = t.tape
        vals.append(t.values)
        ids.append(t.node_id)
    value, backward_fn = OP_KINDS[kind](vals, attrs or {}, tuple(i is not None for i in ids))
    if tape is None:
        return Tensor(value)
    out = Tensor(value, tape=tape, node_id=tape._new_id())
    tape._records.append((out.node_id, tuple(ids), backward_fn))
    return out


# thin wrappers -------------------------------------------------------------

def matmul(a, b, transpose_b=False):
    return forward("matmul", [a, b], {"transpose_b": transpose_b})


def add(a, b):
    return forward("add", [a, b])


def mul(a, b):
    return forward("mul", [a, b])


def concat(tensors, axis=-1):
    return forward("concat", tensors, {"axis": axis})


def attention(x, k, v, wq, wout, heads, mask=None):
    return forward("attention", [x, k, v, wq, wout], {"heads": heads, "mask": mask})


def log_softmax(x, mask):
    return forward("log_softmax", [x], {"mask": mask})


def relu(x):
    return forward("relu", [x])


def tanh(x):
    return forward("tanh", [x])


def exp(x):
    return forward("exp", [x])


def tsum(x, axis=None):
    return forward("sum", [x], {"axis": axis})


def batchnorm(x, running_mean, running_var, *, training):
    return forward("batchnorm", [x], {
        "running_mean": running_mean, "running_var": running_var, "training": training,
    })


def reshape(x, shape):
    return forward("reshape", [x], {"shape": shape})


def take(x, index):
    return forward("take", [x], {"index": index})
