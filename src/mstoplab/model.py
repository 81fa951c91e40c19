"""Transformer-style constructive policy for MSTOP (encoder + 3-step decoder).

The encoder embeds depot, customers (coordinates + residual prize), and
vehicles (coordinates + remaining fuel) into one row matrix, refines it with
masked multi-head self-attention layers (batch-norm + residual + feed-forward),
and averages the unmasked rows into a graph embedding. It is re-run at the
start of every partial route, because finishing a route changes the graph a
vehicle sees: visited nodes are masked out and the next vehicle starts
somewhere else. Without a tape and with eval-mode batch-norm every encoder op
acts on each row alone, so rows with equal encoder inputs share one encoding:
the rows of a sampling or permutation rollout are encoded once in the first
route. Every decoder op acts on each row alone too, so an untaped rollout
decodes one row per distinct open partial route (encoded row, active vehicle
and actions so far) and drops rows whose route has ended; each batch row
still draws its own action. A taped (training) call encodes and decodes
every row.

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

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import env
from .autodiff import NEG_INF, Tensor
from .instances import Instance

LOGIT_CLAMP = 10.0      # final scores are LOGIT_CLAMP * tanh(.) before the mask


@dataclass(frozen=True)
class DdtmConfig:
    """Model widths; desk-scale defaults, paper-scale preset available."""

    d: int = 32
    heads: int = 4
    ff_dim: int = 128
    encoder_layers: int = 2
    decoder_layers: int = 1

    @classmethod
    def paper_scale(cls) -> "DdtmConfig":
        return cls(d=128, heads=8, ff_dim=512, encoder_layers=4, decoder_layers=2)

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
        """Per-name gradient arrays for all trainable parameters (zeros when unused)."""
        out = {}
        for name, arr in self.params.trainable().items():
            t = self._tensors.get(name)
            out[name] = np.zeros_like(arr) if t is None else grads.of(t)
        return out


def positional_encoding(t_dec: int, d: int) -> np.ndarray:
    """Row vector with sin at even flat indices and cos at odd ones, the
    exponent running over the flat index."""
    i = np.arange(d, dtype=np.float64)
    angle = t_dec / np.power(10000.0, 2.0 * i / d)
    return np.where(i % 2 == 0, np.sin(angle), np.cos(angle))


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

    if masked.any():
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
    alone, so rows with equal inputs get equal encodings: each distinct row
    is encoded once, and ``source`` maps every state row to its encoded row
    (the rows of a sampling or permutation rollout share one state in slot
    0). A taped call or one with batch statistics encodes every row, and
    ``source`` is the identity.
    """
    if state.terminal.any():
        raise env.EnvError("cannot encode a terminal state")
    b, n = state.visited.shape
    k = state.orders.shape[1]
    depot = state.batch.rows(Instance.node_xy)[:, :1]
    cust = np.concatenate([state.batch.rows(Instance.customer_xy), state.residual_prizes[..., None]],
                          axis=-1)
    veh = np.concatenate([state.positions, state.fuels[..., None]], axis=-1)
    masked = np.concatenate([np.zeros((b, 1), dtype=bool), state.visited, state.done], axis=1)
    bind = _Binding(params, tape) if not isinstance(params, _Binding) else params

    encoded, source = slice(None), np.arange(b)
    if bind.tape is None and not bn_training:
        key = np.concatenate([depot.reshape(b, -1), cust.reshape(b, -1), veh.reshape(b, -1), masked],
                             axis=1)
        first = {}
        src = np.fromiter((first.setdefault(row.tobytes(), i) for i, row in enumerate(key)),
                          np.intp, b)
        if len(first) < b:
            encoded = np.fromiter(first.values(), np.intp, len(first))
            source = np.searchsorted(encoded, src)
    rows, graph = _encode(depot[encoded], cust[encoded], veh[encoded], masked[encoded], bind, cfg,
                          bn_training)
    return Embeddings(rows=rows, graph=graph, source=source, n=n, k=k)


class RouteDecoder:
    """Per-partial-route decoding context.

    Holds, per decoded row, the per-layer history of context rows for this
    route, the current node embedding (initialized to the active vehicle's
    row), and the per-route projections of the encoder output that stay
    fixed while the route is being built: per layer, the unsplit (G, n+2, d)
    keys and values of the encoder-decoder ``attention`` op in ``kv_att``,
    and the final scoring keys. ``params`` is the binding of a taped
    rollout, or plain parameters for an untaped decode.

    A taped decoder decodes every state row at every step, finished routes
    included, so the tape holds one row per trajectory. An untaped one
    decodes one row per group: the open state rows with the same encoded
    row, active vehicle and actions so far in this route, whose inputs to
    every op are equal. Rows that choose the depot leave it. ``group`` maps
    each state row to its decoded row (-1 once it has left) and ``lead``
    names one state row of each group, whose fuel and action mask ``step``
    takes. ``src`` is the encoded row of each decoded row (the identity when
    taped), and every row the decoder reads from ``emb.rows`` is a ``take``
    at ``(src, ...)``.
    """

    def __init__(self, emb: Embeddings, params, cfg: DdtmConfig, vehicle_ids: np.ndarray):
        self.cfg = cfg
        self.bind = bind = params if isinstance(params, _Binding) else _Binding(params, None)
        self.emb = emb
        self.n = emb.n
        self.t_dec = 0
        self.hist = [[] for _ in range(cfg.decoder_layers)]
        self.shared = bind.tape is None
        if len(emb.rows.values) < len(vehicle_ids):
            keys, self.lead, self.group = np.unique(emb.source * emb.k + vehicle_ids,
                                                    return_index=True, return_inverse=True)
            self.src, vehicle_ids = np.divmod(keys, emb.k)
            graph = ad.take(emb.graph, (self.src,))
        else:   # every row has its own encoding (``source`` is the identity)
            self.src = self.lead = self.group = emb.source
            graph = emb.graph
        node_part = ad.take(emb.rows, (self.src, slice(emb.n + 1)))
        veh_part = ad.take(emb.rows, (self.src[:, None], emb.n + 1 + vehicle_ids[:, None]))
        h_node = ad.concat([node_part, veh_part], axis=-2)          # (G, n+2, d)
        self.kv_att = []
        for l in range(cfg.decoder_layers):
            self.kv_att.append((ad.matmul(h_node, bind(f"dec{l}_att_wk")),
                                ad.matmul(h_node, bind(f"dec{l}_att_wv"))))
        self.k_final = ad.matmul(node_part, bind("final_wk"))       # (G, n+1, d)
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
        action per state row) becomes its current node. Untaped, the rows
        that chose the depot leave, and the next groups are the distinct
        (group, action) pairs of the rows that stay."""
        self.t_dec += 1
        nodes = actions
        if self.shared:
            member = self.group >= 0
            stay = np.flatnonzero(member & (actions != 0))
            if not stay.size:
                self.group = np.full_like(self.group, -1)
                return
            if len(self.lead) == np.count_nonzero(member):
                # one row per group, so none splits: the rows that stay keep theirs
                parent, nodes, first, inverse = self.group[stay], actions[stay], slice(None), np.arange(len(stay))
            else:
                keys, first, inverse = np.unique(self.group[stay] * (self.n + 1) + actions[stay],
                                                 return_index=True, return_inverse=True)
                parent, nodes = np.divmod(keys, self.n + 1)
            if not np.array_equal(parent, np.arange(len(self.lead))):
                # one index per tensor narrows or repeats the decoded rows; the
                # history collapses into one tensor per layer first
                take = lambda values: ad.constant(values[parent])
                self.kv_att = [(take(k.values), take(v.values)) for k, v in self.kv_att]
                self.k_final, self.graph_q = take(self.k_final.values), take(self.graph_q.values)
                self.hist = [[take(np.concatenate([x.values for x in h], axis=-2))] for h in self.hist]
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
    logp_sum: Tensor                     # (B,) on-tape trajectory log-probabilities
    entropy_sum: Tensor                  # (B,) on-tape summed step entropies
    mean_step_entropy: float
    binding: _Binding

    def trajectory(self, i: int) -> env.Trajectory:
        return env.Trajectory.of_row(self.orders[i], self.actions[i], self.rewards[i],
                                     self.logp_sum.values[i])


def _entropy(logp: Tensor) -> Tensor:
    return ad.mul(ad.tsum(ad.mul(ad.exp(logp), logp), axis=-1), -1.0)


def rollout_states(instances, orders, params, cfg: DdtmConfig, *,
                   rng=None, tape=None, bn_training=False) -> BatchRollout:
    """Lockstep batched rollout over instances with per-instance vehicle orders.

    Given a generator ``rng``, each row samples its actions from the policy;
    without one, each row takes the most probable action, ties going to the
    lowest node index. ``tape`` records the rollout for a backward pass, and
    ``bn_training`` normalizes with batch statistics and folds them into the
    running buffers of ``params``.

    Every vehicle slot is decoded jointly: rows whose route already ended
    keep only the depot feasible, so their point-mass distribution adds
    exactly zero log-probability, entropy and gradient to the returned sums,
    and the environment leaves them unchanged until the slot ends. Untaped,
    those rows leave the decoder and the open rows are decoded once per
    group (see :class:`RouteDecoder`); each row still takes its own action
    and adds its own terms to the sums.
    """
    state = env.reset(list(instances), list(orders))
    b = len(state)
    bind = _Binding(params, tape)
    record = []
    logp_acc = None
    ent_acc = None
    ent_value_total = 0.0
    alive_steps = 0

    for slot in range(state.orders.shape[1]):
        emb = encode_states(state, bind, cfg, tape=tape, bn_training=bn_training)
        dec = RouteDecoder(emb, bind, cfg, state.orders[:, slot])
        open_rows = np.ones(b, dtype=bool)
        while open_rows.any():
            lead = dec.lead
            mask_add = np.where(env.feasible_mask(state, open_rows)[lead], 0.0, NEG_INF)
            logp = dec.step(state.fuel[lead], mask_add)
            probs = np.exp(logp.values)
            if not np.isfinite(probs).all():
                bad = ~np.isfinite(probs).all(axis=1)
                row = int(np.flatnonzero((dec.group >= 0) & bad[dec.group])[0])
                raise ad.NonFiniteError(f"non-finite action probabilities at vehicle slot {slot}, "
                                        f"decode step {dec.t_dec}, state row {row}", row=row)
            # rows that left the decoder (group -1) are set to the depot below
            if rng is None:
                actions = probs.argmax(axis=1)[dec.group]
            else:
                actions = env.sample_rows(probs, dec.group, rng)
            actions = np.where(open_rows, actions, 0)
            if dec.shared:
                # a finished row adds what its point mass at the depot would:
                # log-probability 0.0 and entropy -0.0
                chosen = ad.constant(np.where(open_rows, logp.values[dec.group, actions], 0.0))
                ent = ad.constant(np.where(open_rows, _entropy(logp).values[dec.group], -0.0))
            else:
                chosen = ad.take(logp, (np.arange(b), actions))
                ent = _entropy(logp)
            logp_acc = chosen if logp_acc is None else ad.add(logp_acc, chosen)
            ent_acc = ent if ent_acc is None else ad.add(ent_acc, ent)
            ent_value_total += float(ent.values.sum())
            alive_steps += int(open_rows.sum())
            state = env.step(state, actions, open_rows)
            record.append(np.where(open_rows, actions, -1))
            open_rows &= actions != 0
            dec.advance(actions)

    return BatchRollout(
        orders=state.orders,
        actions=np.stack(record, axis=1),
        rewards=state.collected.sum(axis=1),
        logp_sum=logp_acc,
        entropy_sum=ent_acc,
        mean_step_entropy=ent_value_total / max(alive_steps, 1),
        binding=bind,
    )
