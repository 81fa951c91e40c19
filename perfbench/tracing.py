"""Per-layer tracing of mstoplab from outside the package.

A :class:`Tracer` replaces public functions of the package's modules with
timing wrappers while it is installed and puts the originals back when it is
removed. Two kinds of wrapper exist:

* **Spans** wrap module-level functions and methods (encoder, decoder step,
  environment, tape backward, Adam, checkpoint writes, oracles, inference,
  training step and validation). Spans nest; a span's *self time* is its
  duration minus the durations of the spans it encloses, so the self times of
  all spans partition the traced wall time.
* **Op timers** wrap ``autodiff.forward`` and the backward closures returned
  by the ``OP_KINDS`` entries. They count and time each op kind but are not
  spans: an op's time stays in the self time of the span that ran it, so the
  encoder's self time still includes the matmuls it issues.

Every wrapper calls the original with the same arguments and returns its
result unchanged, so tracing does not alter what the program computes.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from collections import Counter, defaultdict

from mstoplab import (autodiff, checkpoint, env, inference, instances, model,
                      optim, oracle, training)

# Op kinds that the package's own code issues; each gets its own metrics.
OP_KINDS = ("matmul", "add", "mul", "scale", "concat", "softmax", "log_softmax",
            "relu", "tanh", "exp", "sum", "batchnorm", "reshape", "transpose",
            "take_rows", "gather_rows", "gather_last")

STRATEGIES = ("greedy", "sampling", "perm", "perm-aug")

# Span name -> per-layer metric that reports its self time.
SELF_TIME_METRICS = {
    "autodiff.backward": "autodiff.backward_s",
    "model.encode": "model.encode_s",
    "model.decode": "model.decode_s",
    "env.feasible_mask": "env.feasible_mask_s",
    "env.step": "env.step_s",
    "env.replay": "env.replay_s",
    "optim.adam": "optim.adam_s",
    "checkpoint.save": "checkpoint.save_s",
    "training.validate": "training.validate_s",
    "instances.augment": "instances.augment_s",
    "instances.apply_symmetry": "instances.apply_symmetry_s",
    "oracle.solve_exact": "oracle.solve_exact_s",
    "oracle.tsili": "oracle.tsili_s",
    "oracle.verify": "oracle.verify_s",
    **{f"inference.infer.{s}": f"inference.infer_s.{s}" for s in STRATEGIES},
}


def tail(values):
    """(value, percentile) of the highest sample with at least ten samples
    above it; the largest sample when there are ten or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    j = n - 11 if n > 10 else n - 1
    return ordered[j], 100.0 * j / (n - 1) if n > 1 else 100.0


class Tracer:
    """Spans and op timers over mstoplab's public functions.

    Use as a context manager: wrappers are installed on entry and the original
    functions restored on exit.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.durations = defaultdict(list)
        self.op_calls = Counter()
        self.op_forward_s = Counter()
        self.op_backward_s = Counter()
        self._stack = []          # [span name, time covered by child spans]
        self._patches = []        # (owner, attribute, original)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, observe=None, keep_durations=False):
        stack, clock = self._stack, self.clock

        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            frame = [span_name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                stack.pop()
                self.calls[span_name] += 1
                self.self_s[span_name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if keep_durations:
                    self.durations[span_name].append(duration)
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_forward(self, fn):
        clock = self.clock

        def forward(kind, inputs, attrs=None):
            t0 = clock()
            try:
                return fn(kind, inputs, attrs)
            finally:
                self.op_forward_s[kind] += clock() - t0
                self.op_calls[kind] += 1

        forward.__wrapped__ = fn
        return forward

    def _timed_op(self, kind, fn):
        clock, totals = self.clock, self.op_backward_s

        def op(vals, attrs, needs):
            value, backward = fn(vals, attrs, needs)

            def timed_backward(g):
                t0 = clock()
                try:
                    return backward(g)
                finally:
                    totals[kind] += clock() - t0

            return value, timed_backward

        op.__wrapped__ = fn
        return op

    # -- observers (counters at the same boundaries as the spans) -----------

    def _count_encode(self, args, result):
        self.counts["encode_rows"] += len(args[0])

    def _count_decode(self, args, result):
        self.counts["decode_rows"] += args[1].shape[0]

    def _count_mask(self, args, result):
        # calls made by env.step (replay path) check an action, not a decode row
        if not (self._stack and self._stack[-1][0] == "env.step"):
            self.counts["decode_masks"] += 1

    def _count_tape(self, args, result):
        self.counts["tape_records"] += len(args[0])

    def _count_checkpoint(self, args, result):
        self.counts["checkpoint_bytes"] += os.path.getsize(args[0])

    def _count_exact(self, args, result):
        self.counts["expansions"] += result.expansions
        self.counts["budget_exhausted"] += int(not result.optimal)

    def _count_infer(self, args, result):
        self.counts["trajectories"] += result[1].count

    # -- install / restore -------------------------------------------------

    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def _patch_function(self, original, replacement):
        """Rebind ``original`` in every mstoplab module that holds it by name."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "mstoplab" or mod_name.startswith("mstoplab.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attribute, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        functions = [
            (training.reinforce_step, "training.reinforce_step", None, True),
            (training.validate_greedy, "training.validate", None, False),
            (model.encode_states, "model.encode", self._count_encode, False),
            (env.feasible_mask, "env.feasible_mask", self._count_mask, False),
            (env.step, "env.step", None, False),
            (env.replay, "env.replay", None, False),
            (optim.adam_step, "optim.adam", None, False),
            (checkpoint.save_checkpoint, "checkpoint.save", self._count_checkpoint, False),
            (instances.augment, "instances.augment", None, False),
            (instances.apply_symmetry, "instances.apply_symmetry", None, False),
            (oracle.solve_exact, "oracle.solve_exact", self._count_exact, False),
            (oracle.tsili_solve, "oracle.tsili", None, False),
            (oracle.verify, "oracle.verify", None, False),
            (inference.infer, lambda args: f"inference.infer.{args[3].strategy}",
             self._count_infer, False),
        ]
        try:
            for fn, name, observe, keep in functions:
                self._patch_function(fn, self._span(name, fn, observe, keep))
            self._patch(model.RouteDecoder, "step",
                        self._span("model.decode", model.RouteDecoder.step, self._count_decode))
            self._patch(autodiff.Tape, "backward",
                        self._span("autodiff.backward", autodiff.Tape.backward, self._count_tape))
            self._patch_function(autodiff.forward, self._timed_forward(autodiff.forward))
            for kind, fn in list(autodiff.OP_KINDS.items()):
                self._patches.append((autodiff.OP_KINDS, kind, fn))
                autodiff.OP_KINDS[kind] = self._timed_op(kind, fn)
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attribute] = original
            else:
                setattr(owner, attribute, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------

    def metrics(self, ops: int) -> dict:
        """Per-layer metrics, additive ones divided by ``ops`` closed-loop
        operations. Returns name -> (value, unit)."""
        per = 1.0 / max(ops, 1)
        out = {}
        for kind in OP_KINDS:
            out[f"autodiff.forward_calls.{kind}"] = (self.op_calls[kind] * per, "1/op")
            out[f"autodiff.forward_s.{kind}"] = (self.op_forward_s[kind] * per, "s/op")
            out[f"autodiff.backward_s.{kind}"] = (self.op_backward_s[kind] * per, "s/op")
        out["autodiff.forward_calls"] = (sum(self.op_calls.values()) * per, "1/op")
        out["autodiff.forward_s"] = (sum(self.op_forward_s.values()) * per, "s/op")
        backward_calls = self.calls["autodiff.backward"]
        out["autodiff.tape_records_per_step"] = (
            self.counts["tape_records"] / backward_calls if backward_calls else 0.0, "1/step")
        for span, metric in SELF_TIME_METRICS.items():
            out[metric] = (self.self_s[span] * per, "s/op")
        out["model.encode_calls"] = (self.calls["model.encode"] * per, "1/op")
        out["model.encode_rows"] = (self.counts["encode_rows"] * per, "1/op")
        out["model.decode_calls"] = (self.calls["model.decode"] * per, "1/op")
        out["model.decode_rows"] = (self.counts["decode_rows"] * per, "1/op")
        rows = self.counts["decode_rows"]
        out["model.alive_row_frac"] = (self.counts["decode_masks"] / rows if rows else 0.0, "frac")
        for name in ("feasible_mask", "step", "replay"):
            out[f"env.{name}_calls"] = (self.calls[f"env.{name}"] * per, "1/op")
        out["checkpoint.bytes"] = (self.counts["checkpoint_bytes"] * per, "B/op")
        steps = self.durations["training.reinforce_step"]
        out["training.reinforce_step_s.p50"] = (statistics.median(steps) if steps else 0.0, "s")
        out["training.reinforce_step_s.tail"] = (tail(steps)[0] if steps else 0.0, "s")
        out["oracle.expansions"] = (self.counts["expansions"] * per, "1/op")
        out["oracle.budget_exhausted"] = (self.counts["budget_exhausted"] * per, "1/op")
        out["inference.trajectories"] = (self.counts["trajectories"] * per, "1/op")
        return out

    def self_time_split(self, wall: float) -> dict:
        """Self seconds per span, plus the traced wall time no span covered."""
        split = {name: s for name, s in self.self_s.items() if s > 0.0}
        split["(outside spans)"] = wall - sum(split.values())
        return dict(sorted(split.items(), key=lambda kv: -kv[1]))
