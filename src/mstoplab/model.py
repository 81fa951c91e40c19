"""Transformer-style constructive policy for MSTOP (encoder + 3-step decoder).

The encoder embeds depot, customers (coordinates + residual prize), and
vehicles (coordinates + remaining fuel) into one row matrix, refines it with
masked multi-head self-attention layers (batch-norm + residual + feed-forward),
and averages the unmasked rows into a graph embedding. It is re-run at the
start of every partial route, because finishing a route changes the graph a
vehicle sees: visited nodes are masked out and the next vehicle starts
somewhere else. Without a tape and with eval-mode batch-norm every encoder op
acts on each row alone and nothing reads a masked row's inputs, so rows whose
unmasked inputs are equal share one encoding: the rows of a sampling or
permutation rollout are encoded once in the first route, and rows whose
earlier routes covered the same customers share one in later routes. Such
calls encode at most 64 distinct rows at a time, so their temporaries stay
the size of a training step's. Every decoder op acts on each row alone too,
so a rollout decodes one row per distinct open partial route (encoded row,
active vehicle and actions so far) and drops rows whose route has ended;
each batch row still draws its own action. A taped (training) call encodes
every row, so its rows share nothing and it decodes each open row.

The decoder builds one action distribution per step:

  step 1  self-attention of the current context row (current node embedding,
          current fuel, plus a positional encoding over the decode step) over
          the context rows of this partial route;
  step 2  encoder-decoder attention over depot + customers + the active
          vehicle's row, with infeasible customers masked;
  step 3  single-head clamped-tanh scoring of depot + customer rows against
          the context (plus a projection of the graph embedding), masked and
          softmaxed into action probabilities.

The decoder reads encoder rows (the depot, customer and active vehicle rows
when a route starts, the chosen node's row after each step) with one
``take`` op, taped and untaped alike. Each of the three attention blocks
(encoder self-attention, decoder self-attention and encoder-decoder
attention) is one ``attention`` op on keys and values projected by plain
matmuls; the op splits them into heads itself.

Masking is additive (large-negative logits) throughout, so masked actions get
probability exactly zero. A rollout samples its actions when it is given a
random generator and decodes greedily when it is not: training samples on a
tape with batch statistics, inference decodes untaped either way. All
rollouts are deterministic given parameters, instances, vehicle orders and
the generator's seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from . import env
from .autodiff import NEG_INF, Tensor
from .checkpoint import CheckpointError, read_checkpoint
from .instances import Instance

LOGIT_CLAMP = 10.0      # final scores are LOGIT_CLAMP * tanh(.) before the mask
_ENCODE_BLOCK = 64      # most rows per untaped encoder call: one training batch's worth


@dataclass(frozen=True)
class DdtmConfig:
    """Model widths, desk-scale by default. A checkpoint stores them, so
    ``DdtmParameters.load`` returns the config its arrays were made under."""

    d: int = 32
    heads: int = 4
    ff_dim: int = 128
    encoder_layers: int = 2
    decoder_layers: int = 1

    def validate(self):
        if min(self.d, self.heads, self.ff_dim, self.encoder_layers, self.decoder_layers) < 1:
            raise ValueError(f"all model extents must be positive: {self}")
        if self.d % self.heads:
            raise ValueError(f"embedding width {self.d} not divisible by head count {self.heads}")


def parameter_schema(cfg: DdtmConfig):
    """Name -> shape for every array, plus the set of non-trainable stat names."""
    d, dh = cfg.d, cfg.ff_dim
    shapes = {
        "init_depot_w": (2, d),
        "init_node_w": (3, d),
        "init_veh_w": (3, d),
        "ctx_proj_w": (d + 1, d),
        "graph_proj_w": (d, d),
        "final_wq": (d, d),
        "final_wk": (d, d),
    }
    stats = set()
    for l in range(cfg.encoder_layers):
        for w in ("wq", "wk", "wv", "wout"):
            shapes[f"enc{l}_{w}"] = (d, d)
        shapes[f"enc{l}_ff_w0"] = (d, dh)
        shapes[f"enc{l}_ff_w1"] = (dh, d)
        for bn in ("bn1", "bn2"):
            shapes[f"enc{l}_{bn}_mean"] = (d,)
            shapes[f"enc{l}_{bn}_var"] = (d,)
            stats.add(f"enc{l}_{bn}_mean")
            stats.add(f"enc{l}_{bn}_var")
    for l in range(cfg.decoder_layers):
        for grp in ("sa", "att"):
            for w in ("wq", "wk", "wv", "wout"):
                shapes[f"dec{l}_{grp}_{w}"] = (d, d)
    return shapes, frozenset(stats)


class DdtmParameters:
    """All named arrays of the model; trainable weights plus batch-norm stats."""

    def __init__(self, arrays: dict, stats: frozenset):
        self.arrays = arrays
        self.stats = stats

    def __getitem__(self, name):
        return self.arrays[name]

    def keys(self):
        return self.arrays.keys()

    def trainable(self) -> dict:
        return {name: arr for name, arr in self.arrays.items() if name not in self.stats}

    def copy(self) -> "DdtmParameters":
        return DdtmParameters({k: v.copy() for k, v in self.arrays.items()}, self.stats)

    @classmethod
    def init(cls, cfg: DdtmConfig, seed: int = 0) -> "DdtmParameters":
        """Seed-controlled init: weights uniform in [-1/sqrt(d), 1/sqrt(d)],
        running means zero, running variances one."""
        cfg.validate()
        shapes, stats = parameter_schema(cfg)
        rng = np.random.default_rng(seed)
        bound = 1.0 / math.sqrt(cfg.d)
        arrays = {}
        for name in sorted(shapes):
            if name in stats:
                arrays[name] = np.ones(shapes[name]) if name.endswith("_var") else np.zeros(shapes[name])
            else:
                arrays[name] = rng.uniform(-bound, bound, size=shapes[name])
        return cls(arrays, stats)

    @classmethod
    def from_arrays(cls, cfg: DdtmConfig, arrays: dict) -> "DdtmParameters":
        """Adopt loaded arrays, validating every name and shape against the config."""
        shapes, stats = parameter_schema(cfg)
        missing = sorted(set(shapes) - set(arrays))
        if missing:
            raise ValueError(f"checkpoint is missing parameters: {missing}")
        unexpected = sorted(set(arrays) - set(shapes))
        if unexpected:
            raise ValueError(f"checkpoint has parameters the config does not name: {unexpected}")
        for name, shape in shapes.items():
            if arrays[name].shape != shape:
                raise ValueError(
                    f"parameter '{name}': checkpoint shape {arrays[name].shape} vs configured {shape}")
        return cls({name: np.asarray(arrays[name], dtype=np.float64) for name in shapes}, stats)

    @classmethod
    def load(cls, path) -> tuple["DdtmParameters", DdtmConfig]:
        """Read a checkpoint's parameters and the config stored with them; a model
        section that is missing, partial, not whole numbers or invalid raises ``CheckpointError``."""
        model, arrays, _ = read_checkpoint(path)
        names = sorted(f.name for f in fields(DdtmConfig))
        if sorted(model) != names or any(model[k].shape or not float(model[k]).is_integer() for k in names):
            raise CheckpointError(f"checkpoint model section {({k: v.tolist() for k, v in model.items()})} "
                                  f"does not give each of {names} as one whole number")
        cfg = DdtmConfig(**{k: int(model[k]) for k in names})
        try:
            cfg.validate()
        except ValueError as err:
            raise CheckpointError(f"checkpoint model: {err}") from None
        return cls.from_arrays(cfg, arrays), cfg


class _Binding:
    """Materializes each parameter at most once on a tape (or as a constant)."""

    def __init__(self, params: DdtmParameters, tape):
        self.params = params
        self.tape = tape
        self._tensors = {}

    def __call__(self, name) -> Tensor:
        t = self._tensors.get(name)
        if t is None:
            arr = self.params[name]
            t = ad.constant(arr) if self.tape is None else self.tape.leaf(arr)
            self._tensors[name] = t
        return t

    def stat(self, name) -> np.ndarray:
        return self.params[name]

    def gradients(self, grads) -> dict:
        """Per-name gradient arrays for all trainable parameters: zeros when
        unused, and all zeros when ``grads`` is None (a constant loss)."""
        out = {}
        for name, arr in self.params.trainable().items():
            t = self._tensors.get(name)
            out[name] = np.zeros_like(arr) if t is None or grads is None else grads.of(t)
        return out


@functools.lru_cache(maxsize=None)
def positional_encoding(t_dec: int, d: int) -> np.ndarray:
    """Row vector with sin at even flat indices and cos at odd ones, the
    exponent running over the flat index. Cached per ``(t_dec, d)``, so the
    array is read-only."""
    i = np.arange(d, dtype=np.float64)
    angle = t_dec / np.power(10000.0, 2.0 * i / d)
    pe = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    pe.setflags(write=False)
    return pe


@dataclass
class Embeddings:
    rows: Tensor            # (E, 1+n+K, d) depot, customers, vehicles of each encoded row
    graph: Tensor           # (E, 1, d) mean over unmasked rows
    source: np.ndarray      # (B,) encoded row of each state row
    n: int
    k: int


def _encode(depot, cust, veh, masked, bind, cfg: DdtmConfig, bn_training):
    """Encoder body: (rows, graph) for per-row depot, customer and vehicle
    inputs and masked-row flags. Each layer is one ``attention`` op over the
    rows (pairs with a masked row masked out), then batch-norm, residual and
    feed-forward."""
    rows = ad.concat([
        ad.matmul(ad.constant(depot), bind("init_depot_w")),
        ad.matmul(ad.constant(cust), bind("init_node_w")),
        ad.matmul(ad.constant(veh), bind("init_veh_w")),
    ], axis=-2)

    if np.count_nonzero(masked):
        union = masked[:, :, None] | masked[:, None, :]
        att_bias = np.where(union, NEG_INF, 0.0)[:, None, :, :]
    else:
        att_bias = None

    for l in range(cfg.encoder_layers):
        mha = ad.attention(rows, ad.matmul(rows, bind(f"enc{l}_wk")), ad.matmul(rows, bind(f"enc{l}_wv")),
                           bind(f"enc{l}_wq"), bind(f"enc{l}_wout"), cfg.heads, att_bias)
        h = ad.batchnorm(ad.add(rows, mha),
                         bind.stat(f"enc{l}_bn1_mean"), bind.stat(f"enc{l}_bn1_var"),
                         training=bn_training)
        ff = ad.matmul(ad.relu(ad.matmul(h, bind(f"enc{l}_ff_w0"))), bind(f"enc{l}_ff_w1"))
        rows = ad.batchnorm(ad.add(h, ff),
                            bind.stat(f"enc{l}_bn2_mean"), bind.stat(f"enc{l}_bn2_var"),
                            training=bn_training)

    keep = (~masked).astype(np.float64)
    weights = (keep / keep.sum(axis=1, keepdims=True))[:, None, :]
    return rows, ad.matmul(ad.constant(weights), rows)


def encode_states(state: env.State, params: DdtmParameters, cfg: DdtmConfig, *,
                  tape=None, bn_training=False) -> Embeddings:
    """Encoder forward over every row of a state; rollouts call it at the
    start of every vehicle slot.

    Untaped and with eval-mode batch-norm, every encoder op acts on each row
    alone, so rows with equal inputs get equal encodings. What a row sees is
    less than its inputs: no unmasked row attends to a masked one (their
    pair weight is exactly zero), the graph mean skips masked rows, and the
    decoder masks visited customers and reads only the active vehicle's row.
    So the rows are keyed on their inputs with those of visited customers
    and parked vehicles zeroed, each distinct key is encoded once, in blocks
    of at most ``_ENCODE_BLOCK`` rows, and ``source`` maps every state row to
    its encoded row. The rows of a sampling or permutation rollout share one
    state in slot 0; later, rows whose routes covered the same customers in
    any order share one. A row that shares another's encoding gets that
    row's values in its masked rows, which nothing reads.

    A taped call or one with batch statistics encodes every row in one call,
    since the tape and the batch statistics couple the rows, and ``source``
    is the identity. So does a one-row call, which has nothing to share.
    """
    if np.count_nonzero(state.terminal):
        raise env.EnvError("cannot encode a terminal state")
    b, n = state.visited.shape
    k = state.orders.shape[1]
    depot = state.batch.rows(Instance.node_xy)[:, :1]
    cust = np.concatenate([state.batch.rows(Instance.customer_xy), state.residual_prizes[..., None]],
                          axis=-1)
    veh = np.concatenate([state.positions, state.fuels[..., None]], axis=-1)
    masked = np.concatenate([np.zeros((b, 1), dtype=bool), state.visited, state.done], axis=1)
    bind = _Binding(params, tape) if not isinstance(params, _Binding) else params

    def encode(rows):
        return _encode(depot[rows], cust[rows], veh[rows], masked[rows], bind, cfg, bn_training)

    encoded, source = slice(None), np.arange(b)
    if bind.tape is not None or bn_training or b == 1:
        rows, graph = encode(encoded)
        return Embeddings(rows=rows, graph=graph, source=source, n=n, k=k)

    # the key zeroes the inputs of masked rows (visited customers, parked
    # vehicles), which no unmasked row and no decoder step reads
    visible = np.where(masked[:, 1:, None], 0.0, np.concatenate([cust, veh], axis=1))
    key = np.concatenate([depot.reshape(b, -1), visible.reshape(b, -1), masked], axis=1)
    first = {}
    src = np.fromiter((first.setdefault(row.tobytes(), i) for i, row in enumerate(key)), np.intp, b)
    if len(first) < b:
        encoded = np.fromiter(first.values(), np.intp, len(first))
        source = np.searchsorted(encoded, src)
    if len(first) <= _ENCODE_BLOCK:
        rows, graph = encode(encoded)
    else:
        index = np.arange(b)[encoded]
        blocks = [encode(i) for i in np.split(index, range(_ENCODE_BLOCK, len(index), _ENCODE_BLOCK))]
        rows, graph = (ad.concat(list(parts), axis=0) for parts in zip(*blocks))
    return Embeddings(rows=rows, graph=graph, source=source, n=n, k=k)


def _distinct(keys: np.ndarray):
    """``np.unique(keys, return_index=True, return_inverse=True)``, without
    its sort when the keys are already strictly increasing."""
    if (keys[1:] > keys[:-1]).all():
        index = np.arange(len(keys))
        return keys, index, index
    return np.unique(keys, return_index=True, return_inverse=True)


class RouteDecoder:
    """Per-partial-route decoding context.

    Holds, per decoded row, the per-layer history of context rows for this
    route, the current node embedding (initialized to the active vehicle's
    row), and the per-route projections of the encoder output that stay
    fixed while the route is being built: per layer, the unsplit (G, n+2, d)
    keys and values of the encoder-decoder ``attention`` op in ``kv_att``,
    and the final scoring keys. ``params`` is the binding of a taped
    rollout, or plain parameters for an untaped decode.

    It decodes one row per group: the open state rows with the same encoded
    row, active vehicle and actions so far in this route, whose inputs to
    every op are equal. Rows that choose the depot leave it. ``group`` maps
    each state row to its decoded row (-1 once it has left) and ``lead``
    names one state row of each group, whose fuel and action mask ``step``
    takes. ``src`` is the encoded row of each decoded row, and every row
    the decoder reads from ``emb.rows`` is a ``take`` at ``(src, ...)``.
    Only the encoder's ``source`` merges rows: it is the identity for a
    taped encode, so a taped decoder keeps one row per open state row.
    """

    def __init__(self, emb: Embeddings, params, cfg: DdtmConfig, vehicle_ids: np.ndarray):
        self.cfg = cfg
        self.bind = bind = params if isinstance(params, _Binding) else _Binding(params, None)
        self.emb = emb
        self.n = emb.n
        self.t_dec = 0
        self.hist = [[] for _ in range(cfg.decoder_layers)]
        keys, self.lead, self.group = _distinct(emb.source * emb.k + vehicle_ids)
        self.src, vehicle_ids = np.divmod(keys, emb.k)
        node_part = ad.take(emb.rows, (self.src, slice(emb.n + 1)))
        veh_part = ad.take(emb.rows, (self.src[:, None], emb.n + 1 + vehicle_ids[:, None]))
        h_node = ad.concat([node_part, veh_part], axis=-2)          # (G, n+2, d)
        self.kv_att = []
        for l in range(cfg.decoder_layers):
            self.kv_att.append((ad.matmul(h_node, bind(f"dec{l}_att_wk")),
                                ad.matmul(h_node, bind(f"dec{l}_att_wv"))))
        self.k_final = ad.matmul(node_part, bind("final_wk"))       # (G, n+1, d)
        graph = ad.take(emb.graph, (self.src,))
        self.graph_q = ad.matmul(graph, bind("graph_proj_w"))       # (G, 1, d)
        self.cur_rows = veh_part                                    # (G, 1, d)

    def step(self, fuels: np.ndarray, action_mask_add: np.ndarray):
        """Log-probabilities over [depot, customers] for the current step.

        ``fuels`` is (G,) current fuel of the decoded rows' active vehicles;
        the additive action mask is (G, n+1) with 0 for feasible entries.
        """
        cfg, bind = self.cfg, self.bind
        b = fuels.shape[0]
        fuel_col = ad.constant(fuels.reshape(b, 1, 1))
        x = ad.matmul(ad.concat([self.cur_rows, fuel_col], axis=-1), bind("ctx_proj_w"))
        x = ad.add(x, ad.constant(positional_encoding(self.t_dec, cfg.d)))
        key_mask = np.concatenate([action_mask_add, np.zeros((b, 1))], axis=1)[:, None, None, :]
        for l in range(cfg.decoder_layers):
            x_in = x
            hist_rows = ad.concat(self.hist[l], axis=-2) if self.hist[l] else x_in
            x = ad.attention(x, ad.matmul(hist_rows, bind(f"dec{l}_sa_wk")),
                             ad.matmul(hist_rows, bind(f"dec{l}_sa_wv")),
                             bind(f"dec{l}_sa_wq"), bind(f"dec{l}_sa_wout"), cfg.heads)
            k_att, v_att = self.kv_att[l]
            x = ad.attention(x, k_att, v_att, bind(f"dec{l}_att_wq"), bind(f"dec{l}_att_wout"),
                             cfg.heads, key_mask)
            self.hist[l].append(x_in)
        q = ad.matmul(ad.add(x, self.graph_q), bind("final_wq"))    # (G, 1, d)
        raw = ad.mul(ad.matmul(q, self.k_final, transpose_b=True), 1.0 / math.sqrt(cfg.d))
        logits = ad.reshape(ad.mul(ad.tanh(raw), LOGIT_CLAMP), (b, self.n + 1))
        return ad.log_softmax(logits, mask=action_mask_add)

    def advance(self, actions: np.ndarray):
        """Move to the next decode step: each state row's chosen node (one
        action per state row) becomes its current node. The rows that chose
        the depot leave, and the next groups are the distinct (group, action)
        pairs of the rows that stay."""
        self.t_dec += 1
        stay = ((self.group >= 0) & (actions != 0)).nonzero()[0]
        if not stay.size:
            self.group = np.full_like(self.group, -1)
            return
        keys, first, inverse = _distinct(self.group[stay] * (self.n + 1) + actions[stay])
        parent, nodes = np.divmod(keys, self.n + 1)
        if not np.array_equal(parent, np.arange(len(self.lead))):
            # one ``take`` per tensor narrows or repeats the decoded rows; the
            # history collapses into one tensor per layer first
            take = lambda t: ad.take(t, (parent,))
            self.kv_att = [(take(k), take(v)) for k, v in self.kv_att]
            self.k_final, self.graph_q = take(self.k_final), take(self.graph_q)
            self.hist = [[take(ad.concat(h, axis=-2))] for h in self.hist]
        self.group = np.full_like(self.group, -1)
        self.group[stay] = inverse
        self.lead = stay[first]
        self.src = self.src[parent]
        self.cur_rows = ad.take(self.emb.rows, (self.src[:, None], nodes[:, None]))


@dataclass
class BatchRollout:
    orders: np.ndarray                   # (B, K) vehicle orders
    actions: np.ndarray                  # (B, T) action record, -1 where a row did not act
    rewards: np.ndarray                  # (B,)
    logp_sum: Tensor                     # (B,) on-tape trajectory log-probabilities, and
    entropy_sum: Tensor                  # (B,) on-tape summed step entropies, both gathered after the last step
    mean_step_entropy: float             # step entropy per acting (row, step) pair
    binding: _Binding

    def trajectory(self, i: int) -> env.Trajectory:
        return env.Trajectory.of_row(self.orders[i], self.actions[i], self.rewards[i],
                                     self.logp_sum.values[i])


def _entropy(logp: Tensor) -> Tensor:
    return ad.mul(ad.tsum(ad.mul(ad.exp(logp), logp), axis=-1), -1.0)


def _has_choice(feasible: np.ndarray) -> bool:
    """Whether some decoded row has a feasible customer. At any other step
    every open route can only return to the depot, and nothing is decoded."""
    return np.count_nonzero(feasible[:, 1:]) > 0


def rollout_states(instances, orders, params, cfg: DdtmConfig, *,
                   rng=None, tape=None, bn_training=False) -> BatchRollout:
    """Lockstep batched rollout over instances with per-instance vehicle orders.

    Given a generator ``rng``, each row samples its actions from the policy;
    without one, each row takes the most probable action, ties going to the
    lowest node index. ``tape`` records the rollout for a backward pass, and
    ``bn_training`` normalizes with batch statistics and folds them into the
    running buffers of ``params``.

    Every vehicle slot is decoded jointly. A row whose route has ended
    leaves the decoder and the open rows are decoded once per group (see
    :class:`RouteDecoder`); each row still takes its own action, and the
    environment leaves an ended row unchanged until the slot ends. A step
    at which no open route has a feasible customer is forced: it is not
    decoded, and every open row takes the depot. One gather after the last
    step builds every row's sums of chosen log-probabilities and of step
    entropies; a row that did not act at a step, or acted at a forced one,
    reads a point mass at the depot there: log-probability 0.0, entropy -0.0
    and no gradient. These are the values a decoded point mass has, so
    skipping a forced step changes no value.
    """
    state = env.reset(list(instances), list(orders))
    bind = _Binding(params, tape)
    record, logps, rows, decoded = [], [], [], 0

    for slot in range(state.orders.shape[1]):
        emb = encode_states(state, bind, cfg, bn_training=bn_training)
        dec = RouteDecoder(emb, bind, cfg, state.orders[:, slot])
        open_rows = np.ones(len(state), dtype=bool)
        while np.count_nonzero(open_rows):
            lead = dec.lead
            feasible = env.feasible_mask(state, open_rows)[lead]
            if _has_choice(feasible):
                logp = dec.step(state.fuel[lead], np.where(feasible, 0.0, NEG_INF))
                probs = np.exp(logp.values)
                if not np.isfinite(probs).all():
                    bad = ~np.isfinite(probs).all(axis=1)
                    row = int(np.flatnonzero((dec.group >= 0) & bad[dec.group])[0])
                    raise ad.NonFiniteError(f"non-finite action probabilities at vehicle slot {slot}, "
                                            f"decode step {dec.t_dec}, state row {row}", row=row)
                logps.append(logp)
                rows.append(np.where(open_rows, dec.group + decoded, -1))
                decoded += len(logp.values)
            else:
                # a forced step: the depot is every route's only feasible
                # action, so the mask is its point mass; every row reads the
                # gather's depot row
                probs = feasible.astype(np.float64)
                rows.append(np.full(len(state), -1))
            # rows that left the decoder (group -1) are set to the depot below
            if rng is None:
                actions = probs.argmax(axis=1)[dec.group]
            else:
                actions = env.sample_rows(probs, dec.group, rng)
            actions = np.where(open_rows, actions, 0)
            state = env.step(state, actions, open_rows)
            record.append(np.where(open_rows, actions, -1))
            open_rows &= actions != 0
            dec.advance(actions)

    # one gather over every step; a row that did not act or had no choice
    # reads the last row, the depot's point mass. Taking the chosen entries
    # before the entropies fixes the order in which each log-probability's
    # gradients add up.
    actions, rows = np.stack(record, axis=1), np.stack(rows)        # (B, T), (T, B)
    stacked = ad.concat(logps + [np.zeros((1, state.visited.shape[1] + 1))], axis=0)
    chosen = ad.take(stacked, (rows, np.maximum(actions, 0).T))
    ent = ad.take(_entropy(stacked), (rows,))
    return BatchRollout(
        orders=state.orders,
        actions=actions,
        rewards=state.collected.sum(axis=1),
        logp_sum=ad.tsum(chosen, axis=0),
        entropy_sum=ad.tsum(ent, axis=0),
        mean_step_entropy=sum(ent.values.sum(axis=1).tolist()) / max(int(np.count_nonzero(actions >= 0)), 1),
        binding=bind,
    )
