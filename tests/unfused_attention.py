"""Test reference for the fused ``attention`` op kind: the unfused composition
it replaced, written out in numpy.

The forward is the former chain of op kinds (query projection, head split by
reshape and transpose, scores, scale, masked softmax, weighted sum, head merge,
output projection), and ``backward`` applies each kind's backward closure in
reverse record order, on the same shapes and views.
"""

import math

import numpy as np


def _swap_last(x):
    return np.swapaxes(x, -1, -2)


def _split(x, heads):
    b, r, d = x.shape
    return x.reshape(b, r, heads, d // heads).transpose(0, 2, 1, 3)


def _merge(x):
    b, h, r, dk = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, r, h * dk)


def forward(x, k, v, wq, wout, heads, mask=None):
    """Output (B, Rq, d) and the intermediates ``backward`` needs."""
    dk = x.shape[-1] // heads
    c = 1.0 / math.sqrt(dk)
    qh = _split(x @ wq, heads)
    kh, vh = _split(k, heads), _split(v, heads)
    scores = (qh @ _swap_last(kh)) * c
    z = scores if mask is None else scores + np.asarray(mask, dtype=np.float64)
    m = np.max(z, axis=-1, keepdims=True)
    e = np.exp(z - m)
    p = e / e.sum(axis=-1, keepdims=True)
    o4 = p @ vh
    o = _merge(o4)
    return o @ wout, (x, wq, wout, qh, kh, vh, p, o4, o, c)


def backward(cache, g):
    """Gradients of (x, k, v, wq, wout) for the output gradient ``g``."""
    x, wq, wout, qh, kh, vh, p, o4, o, c = cache
    d = x.shape[-1]
    # output projection (a batched matmul against one weight matrix)
    g2 = g.reshape(-1, g.shape[-1])
    go = (g2 @ wout.T).reshape(o.shape)
    gwout = o.reshape(-1, d).T @ g2
    # head merge: reshape, then transpose back
    go4 = go.reshape(o4.transpose(0, 2, 1, 3).shape).transpose(0, 2, 1, 3)
    # weighted sum p @ vh
    gp = go4 @ _swap_last(vh)
    gvh = _swap_last(p) @ go4
    # softmax, then scale
    gs = p * (gp - np.sum(gp * p, axis=-1, keepdims=True))
    gs = gs * c
    # scores qh @ kh^T
    gqh = gs @ kh
    gkh = _swap_last(gs) @ qh
    # head splits: transpose back, then reshape
    gq, gk, gv = _merge(gqh), _merge(gkh), _merge(gvh)
    # query projection
    gq2 = gq.reshape(-1, d)
    gx = (gq2 @ wq.T).reshape(x.shape)
    gwq = x.reshape(-1, d).T @ gq2
    return gx, gk, gv, gwq, gwout
