"""Query metering, memory-vector entropy, and sparsity-capture probes.

The meter counts gradient-query events and derives their cost exactly,
in rational arithmetic: a full per-sample gradient costs one unit, a
gradient restricted to k of d coordinates costs k/d units, so tests can
demand equality rather than tolerance.  Entropy of the normalized memory
vector quantifies how much structure the per-coordinate gradient
magnitudes exhibit; the capture quantities g and G measure how much
gradient-difference energy escapes a given top-k1 selection.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .problems import component_chunks
from .vecops import as_vector


@dataclass
class QueryMeter:
    """Count of gradient-query events; the units derive from the count.

    `events` maps an event tuple (kind, *parameters) to the number of times
    it was charged, so it is bounded by the number of distinct events, not
    the number of steps.
    """

    events: Counter = field(default_factory=Counter)

    # Cost in units of one event of each kind, from its parameters: a
    # snapshot is min(batch, n) full per-sample gradients, an inner step two
    # size-b gradients restricted to k of d coordinates, an SGD step one
    # size-b gradient, and "adjust" an assigned total's difference (`units`).
    COSTS = {
        "snapshot": lambda batch, n: Fraction(min(batch, n)),
        "inner": lambda b, k, d: Fraction(2 * b * k, d),
        "sgd": Fraction,
        "adjust": Fraction,
    }

    def charge_snapshot(self, batch: int, n: int) -> None:
        """Count one snapshot of `batch` samples out of `n`."""
        if batch < 1 or n < 1:
            raise ValueError("batch and n must be positive")
        self.events[("snapshot", batch, n)] += 1

    def charge_inner(self, b: int, k: int, d: int) -> None:
        """Count one inner step: size-b batch, k of d coordinates."""
        if b < 1 or k < 1 or d < 1:
            raise ValueError("event parameters must be positive")
        self.events[("inner", b, k, d)] += 1

    def charge_sgd(self, b: int) -> None:
        """Count one SGD step with a size-b batch."""
        if b < 1:
            raise ValueError("b must be positive")
        self.events[("sgd", b)] += 1

    @property
    def units(self) -> Fraction:
        """Exact total: count times cost, summed over the events."""
        return sum((count * self.COSTS[kind](*args)
                    for (kind, *args), count in self.events.items()),
                   Fraction(0))

    @units.setter
    def units(self, total) -> None:
        # Assigning a total counts one "adjust" event for the difference,
        # so the units still derive from the events alone.
        self.events[("adjust", Fraction(total) - self.units)] += 1


def entropy_bits(memory: np.ndarray) -> float:
    """Base-2 entropy of memory/||memory||_1, with 0·log 0 = 0.

    Always in [0, log2(d)]; the maximum is attained by the uniform vector.
    Raises for an all-zero or negative memory vector.
    """
    m = np.asarray(memory, dtype=np.float64)
    if m.ndim != 1 or m.size < 1:
        raise ValueError("memory must be a 1-D vector")
    if np.any(m < 0) or not np.isfinite(m).all():
        raise ValueError("memory entries must be finite and nonnegative")
    total = float(m.sum())
    if total <= 0.0:
        raise ValueError("entropy undefined for an all-zero memory vector")
    p = m / total
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


@dataclass(frozen=True)
class SparsityCapture:
    """Residual-energy probe: g from the full gradient difference, G averaged
    over components, R = g + G/b.  Small values mean the top-k1 selection is
    capturing where the gradient differences live."""

    g: float
    G: float
    R: float
    components_used: int


def measure_g_G(problem, top, x_next: np.ndarray, x_prev: np.ndarray,
                b: int, rng=None, max_components: int = 10_000,
                grad_prev: np.ndarray | None = None) -> SparsityCapture:
    """Measure g, G and R = g + G/b for one (x_prev -> x_next) transition,
    counting the energy outside the coordinates `top`, an integer index
    array (the selected top-k1 set; the optimizer passes the one its next
    step selects).

    g uses the full gradient difference; a caller that already holds
    full_grad(x_prev) passes it as `grad_prev` and saves one full-data
    pass.  G sweeps all components when
    n <= max_components, otherwise a uniform subsample drawn from `rng`
    (the subsample size is recorded in the result).  g <= G holds exactly
    for a full sweep and is enforced up to float roundoff.
    """
    if b < 1:
        raise ValueError("b must be positive")
    top = np.asarray(top)
    if (top.ndim != 1 or top.dtype.kind not in "iu"
            or top.size and not 0 <= top.min() <= top.max() < problem.d):
        raise ValueError("top must be a 1-D integer array of indices in "
                         f"range(d={problem.d})")
    x_next = as_vector(x_next, problem.d)
    x_prev = as_vector(x_prev, problem.d)
    keep = np.ones(problem.d, dtype=bool)
    keep[top] = False

    if grad_prev is None:
        grad_prev = problem.full_grad(x_prev)
    diff_full = problem.full_grad(x_next) - grad_prev
    g = float(np.sum(diff_full[keep] ** 2))

    n = problem.n
    if n <= max_components:
        idx = np.arange(n, dtype=np.int64)
    else:
        if rng is None:
            raise ValueError(f"n={n} exceeds max_components={max_components}; "
                             "pass an rng to subsample")
        idx = rng.subset(n, max_components)
    acc = 0.0
    for sub in component_chunks(idx, problem.d):
        d_next = problem.grad_components(sub, x_next)
        d_prev = problem.grad_components(sub, x_prev)
        delta = d_next - d_prev
        acc += float(np.sum(delta[:, keep] ** 2))
    big_g = acc / idx.size

    if idx.size == n and g > big_g * (1 + 1e-9) + 1e-12:
        raise RuntimeError(f"g={g} exceeded G={big_g}; capture measurement is broken")
    return SparsityCapture(g=g, G=big_g, R=g + big_g / b,
                           components_used=int(idx.size))


def estimate_estimator_variance(estimator, trials: int, rng) -> float:
    """Coordinate-summed sample variance of a replayable stochastic estimator.

    `estimator` is called `trials` times with the stream and must return a
    vector each time; all randomness must come from that stream so the
    measurement is reproducible.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials")
    draws = np.stack([np.asarray(estimator(rng), dtype=np.float64)
                      for _ in range(trials)])
    return float(np.sum(draws.var(axis=0, ddof=1)))
