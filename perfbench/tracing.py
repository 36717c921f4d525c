"""In-memory spans recorded from outside the package, and self-time arithmetic.

The traced run wraps public names of `sparsevr` for the duration of one
optimizer call: instance attributes on the problem (so it keeps its class),
the names `sparsevr.optimize` looks up at call time, and two helpers one
level further down.  A wrapper only times and forwards, so the traced run
must reproduce the untraced one bit for bit; the harness checks that.
A name that no longer exists is recorded as absent and left alone.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import sparsevr.diagnostics
import sparsevr.optimize
import sparsevr.sampling
import sparsevr.sparsity

# (owner, attribute, span name) for every name the traced run wraps besides
# the problem's own methods.  Owners are modules or classes.
PATCHES = [
    (sparsevr.optimize, "sample_batch", "sampling.sample_batch"),
    (sparsevr.optimize, "draw_support", "sparsity.draw_support"),
    (sparsevr.optimize, "build_update", "sparsity.build_update"),
    (sparsevr.optimize, "ema_update", "optimize.ema_update"),
    (sparsevr.optimize, "entropy_bits", "diagnostics.entropy"),
    (sparsevr.sparsity, "select_top_k1", "sparsity.select_top_k1"),
    (sparsevr.sampling.RngStream, "subset", "sampling.subset"),
    (sparsevr.diagnostics.QueryMeter, "charge_snapshot", "diagnostics.meter"),
    (sparsevr.diagnostics.QueryMeter, "charge_inner", "diagnostics.meter"),
    (sparsevr.diagnostics.QueryMeter, "charge_sgd", "diagnostics.meter"),
]

PROBLEM_METHODS = ["grad_batch", "grad_batch_restricted", "full_loss", "full_grad"]

ROOT = "optimize.run"


class Tracer:
    """Collects spans as [name, start_ns, end_ns, parent index] lists."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []
        self._stack = []
        self.absent = []

    def parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, name, fn):
        """`fn` wrapped in a span; `name` may be a callable of the arguments."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            label = name(*args) if callable(name) else name
            idx = len(spans)
            spans.append([label, 0, 0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end

        return traced

    @contextmanager
    def installed(self, problem, inner_batch: int):
        """Wrap the problem's oracles and the PATCHES names; undo on exit."""
        saved, wrapped = [], []

        def grad_batch_name(idx, x):
            parent = self.parent_name()
            if parent in ("problems.full_grad", "problems.restricted_grad"):
                return parent + ".grad_batch"
            return "problems.inner_grad" if len(idx) == inner_batch else "problems.snapshot"

        names = {"grad_batch": grad_batch_name,
                 "grad_batch_restricted": "problems.restricted_grad",
                 "full_loss": "problems.full_loss",
                 "full_grad": "problems.full_grad"}
        try:
            for owner, attr, span in PATCHES:
                if attr not in vars(owner):
                    self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                    continue
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(span, original))
            for method in PROBLEM_METHODS:
                bound = getattr(problem, method, None)
                if bound is None:
                    self.absent.append(f"{type(problem).__name__}.{method}")
                    continue
                setattr(problem, method, self.wrap(names[method], bound))
                wrapped.append(method)
            yield self
        finally:
            for method in wrapped:
                delattr(problem, method)
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans):
    """Per-span self time: duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping children
    are counted once, so the result is never negative.
    """
    children = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out
