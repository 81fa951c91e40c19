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
    """Gradient lookup returned by :meth:`Tape.backward`. It holds the
    gradients of the loss and of the tape's leaves only: backward drops an
    intermediate node's gradient once it has passed it on."""

    def __init__(self, tape, grads):
        self._tape = tape
        self._grads = grads

    def of(self, tensor: Tensor) -> np.ndarray:
        if tensor.node_id is None or tensor.tape is not self._tape:
            raise DetachedNodeError("tensor is not a node of the differentiated tape")
        g = self._grads.get(tensor.node_id)
        if g is not None:
            return g
        if tensor.node_id not in self._tape._leaves:
            raise AutodiffError(f"node {tensor.node_id} is an intermediate node; backward keeps "
                                "the gradients of the loss and the leaves only")
        return np.zeros_like(tensor.values)


class Tape:
    """Ordered operation record; single-owner, not shared across rollouts.
    It checks no values: a rollout checks its action probabilities and
    training its loss."""

    def __init__(self):
        self._records = []  # (out_id, input_ids, backward_fn)
        self._leaves = set()
        self._next_id = 0

    def _new_id(self):
        nid = self._next_id
        self._next_id = nid + 1
        return nid

    def leaf(self, values) -> Tensor:
        """Register a differentiable leaf (e.g. a trainable parameter)."""
        leaf = Tensor(np.asarray(values, dtype=np.float64), tape=self, node_id=self._new_id())
        self._leaves.add(leaf.node_id)
        return leaf

    def backward(self, loss: Tensor) -> Gradients:
        """Reverse pass from a scalar loss; returns the gradients of the loss
        and the leaves. The records stay, so one tape can be differentiated
        again from another loss."""
        if loss.tape is not self or loss.node_id is None:
            raise DetachedNodeError("loss is not recorded on this tape")
        if loss.values.size != 1:
            raise ShapeMismatchError("backward", f"loss must be scalar, got shape {loss.values.shape}")
        seed = np.ones_like(loss.values)
        grads = {loss.node_id: seed}
        for out_id, input_ids, backward_fn in reversed(self._records):
            # a gradient is dropped once passed on, so its memory serves the next ones
            g = grads.pop(out_id, None)
            if g is None:
                continue
            for node_id, gin in zip(input_ids, backward_fn(g)):
                if node_id is None or gin is None:
                    continue
                acc = grads.get(node_id)
                grads[node_id] = gin if acc is None else acc + gin
        grads[loss.node_id] = seed
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
# operation kinds: each entry returns (value, backward_fn) given raw arrays;
# ``needs`` flags the taped inputs, and is None when no input is taped
# ---------------------------------------------------------------------------

def _op_matmul(vals, attrs, needs):
    a, b = vals
    if a.ndim < 2 or b.ndim < 2:    # numpy would take a 1-D operand as a vector
        raise ValueError("operands must be at least 2-D")
    transpose_b = attrs.get("transpose_b", False)
    bt = _swap_last(b) if transpose_b else b
    out = a @ bt

    def backward(g):
        need_a, need_b = needs
        ga = gb = None
        if bt.ndim == 2:
            # batched activations against one weight matrix: flatten to a
            # single GEMM instead of per-element outer products
            g2 = g.reshape(-1, g.shape[-1])
            if need_a:
                ga = (g2 @ bt.T).reshape(a.shape)
            if need_b:
                gb = a.reshape(-1, a.shape[-1]).T @ g2
        else:
            if need_a:
                ga = _unbroadcast(g @ _swap_last(bt), a.shape)
            if need_b:
                gb = _unbroadcast(_swap_last(a) @ g, bt.shape)
        return ga, (_swap_last(gb) if transpose_b and gb is not None else gb)

    return out, backward


def _op_add(vals, attrs, needs):
    a, b = vals
    out = a + b
    shape_a, shape_b = a.shape, b.shape     # the backward keeps no operand

    def backward(g):
        return (_unbroadcast(g, shape_a) if needs[0] else None,
                _unbroadcast(g, shape_b) if needs[1] else None)

    return out, backward


def _op_mul(vals, attrs, needs):
    a, b = vals
    out = a * b

    def backward(g):
        return (_unbroadcast(g * b, a.shape) if needs[0] else None,
                _unbroadcast(g * a, b.shape) if needs[1] else None)

    return out, backward


def _op_concat(vals, attrs, needs):
    axis = attrs.get("axis", -1)
    out = np.concatenate(vals, axis=axis)
    sizes = [v.shape[axis] for v in vals]

    def backward(g):
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))

    return out, backward


def _row_max(z):
    """``np.max(z, axis=-1, keepdims=True)``, taken as an elementwise maximum
    down the columns of the transposed rows: a short last axis reduces row by
    row, which is slower. A max is exact in any order; only a row whose
    largest entries are a tie of 0.0 and -0.0 may get the other zero, which
    the softmaxes below turn into the same output."""
    rk = z.shape[-1]
    return np.ascontiguousarray(z.reshape(-1, rk).T).max(axis=0).reshape(z.shape[:-1] + (1,))


def _softmax_raw(z):
    """Softmax over the last axis, computed in place in ``z``."""
    m = _row_max(z)
    if (m == -np.inf).any():
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
        raise ValueError(f"operands do not fit {heads} heads over query rows of width {d}")
    c = 1.0 / math.sqrt(d // heads)
    qh = _split_heads(x @ wq, heads)
    kh, vh = _split_heads(k, heads), _split_heads(v, heads)
    p = qh @ _swap_last(kh)
    p *= c
    mask = attrs.get("mask")
    if mask is not None:
        p += np.asarray(mask, dtype=np.float64)
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
    out = x + np.asarray(attrs["mask"], dtype=np.float64)      # shifted in place below
    m = _row_max(out)
    if (m == -np.inf).any():
        raise NonFiniteError("log_softmax: a row is fully masked to -inf")
    out -= m
    out -= np.log(np.exp(out).sum(axis=-1, keepdims=True))

    def backward(g):
        return (g - np.exp(out) * np.sum(g, axis=-1, keepdims=True),)

    return out, backward


def _op_relu(vals, attrs, needs):
    (x,) = vals
    out = np.maximum(x, 0.0)
    # out > 0 exactly where x > 0 (NaN and -0.0 compare false in both), and
    # masking by the output lets the tape free the pre-activation
    return out, lambda g: (g * (out > 0.0),)


def _op_tanh(vals, attrs, needs):
    (x,) = vals
    out = np.tanh(x)
    return out, lambda g: (g * (1.0 - out * out),)


def _op_exp(vals, attrs, needs):
    (x,) = vals
    out = np.exp(x)
    return out, lambda g: (g * out,)


def _op_sum(vals, attrs, needs):
    (x,) = vals
    axis = attrs.get("axis")
    shape = x.shape
    return x.sum(axis=axis), lambda g: (
        np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape).copy(),)


def _op_batchnorm(vals, attrs, needs):
    """Normalize each last-axis channel over all leading axes.

    Training mode uses batch statistics (differentiable) and folds them into
    the running buffers with momentum ``BN_MOMENTUM``. Evaluation mode is a
    deterministic affine map built from the frozen running statistics.
    """
    (x,) = vals
    running_mean = attrs["running_mean"]
    running_var = attrs["running_var"]
    # numpy would reduce a 1-D input over no axis and broadcast wrong statistics
    if x.ndim < 2:
        raise ValueError("need at least 2-D input")
    if running_mean.shape != (x.shape[-1],) or running_var.shape != (x.shape[-1],):
        raise ValueError(f"running statistics {running_mean.shape}/{running_var.shape} "
                         f"do not match {x.shape[-1]} channels")
    if attrs["training"]:
        axes = tuple(range(x.ndim - 1))
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


def _op_take(vals, attrs, needs):
    # Row selection x[index] by a tuple of slices and integer arrays; repeated
    # indices add their gradients.
    (x,) = vals
    index = attrs["index"]
    out = x[index]

    def backward(g):
        gx = np.zeros_like(x)
        # a slice never repeats a position, so the integer arrays decide;
        # ``np.add.at`` is needed only where they name one position twice
        axes = [i for i, ix in enumerate(index) if not isinstance(ix, slice)]
        flat = np.sort(np.ravel_multi_index(np.broadcast_arrays(*(index[i] for i in axes)),
                                            [x.shape[i] for i in axes], mode="wrap"), axis=None)
        if (flat[1:] != flat[:-1]).all():
            gx[index] += g
        else:
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
    "take": _op_take,
}


def forward(kind: str, inputs, attrs=None) -> Tensor:
    """Apply an operation kind to tensors, recording it when inputs are taped.

    Inputs that are plain arrays are constants. All taped inputs must share
    one tape; the output lives on that tape and only its taped inputs get
    gradients. With no taped input the output is a constant. Values are not
    checked for finiteness. An op's ``ValueError`` or ``IndexError`` (numpy's
    own, or the op's check of what numpy would let through) becomes a
    :class:`ShapeMismatchError` that names the kind and the input shapes.
    """
    op = OP_KINDS.get(kind)
    if op is None:
        raise AutodiffError(f"unknown operation kind '{kind}'")
    tape, vals = None, []
    for t in inputs:
        if not isinstance(t, Tensor):
            vals.append(np.asarray(t, dtype=np.float64))
            continue
        if t.tape is not None:
            if tape is not None and tape is not t.tape:
                raise AutodiffError(f"{kind}: inputs live on different tapes")
            tape = t.tape
        vals.append(t.values)
    if tape is None:
        ids = needs = None          # an untaped op's backward is never called
    else:
        ids = tuple(t.node_id if isinstance(t, Tensor) else None for t in inputs)
        needs = tuple(i is not None for i in ids)
    try:
        value, backward_fn = op(vals, attrs or {}, needs)
    except (ValueError, IndexError) as exc:
        raise ShapeMismatchError(kind, f"{exc}; input shapes {[v.shape for v in vals]}") from exc
    if tape is None:
        return Tensor(value)
    out = Tensor(value, tape=tape, node_id=tape._new_id())
    tape._records.append((out.node_id, ids, backward_fn))
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


def take(x, index):
    return forward("take", [x], {"index": index})
