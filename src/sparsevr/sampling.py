"""Seeded randomness: splittable streams, batch subsets, geometric loop lengths.

All randomness in the package flows through `RngStream`, a counter-based
(Philox) generator keyed by a (seed, stream id) pair.  Batch draws, the
operator's random subset, inner-loop lengths, the output-iterate draw and
the capture probe's component subsample each live on a dedicated stream,
so that replaying one kind of draw never perturbs another.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1

# Stream ids used by the optimizers.
STREAM_BATCH = 1
STREAM_GEOM = 2
STREAM_OPERATOR = 3
STREAM_OUTPUT = 4
STREAM_CAPTURE = 5


class RngStream:
    """Deterministic random stream keyed by (seed, stream id).

    The same key reproduces the same draw sequence on every platform
    (Philox is pure integer arithmetic); distinct stream ids give
    statistically independent sequences.  A stream is single-owner:
    share seeds, not stream objects.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream={self.stream})"

    def replay(self) -> "RngStream":
        """Fresh stream positioned at the start of the same sequence."""
        return RngStream(self.seed, self.stream)

    def random(self, size=None):
        """Uniform float64 draw(s) in [0, 1)."""
        out = self._gen.random(size)
        return float(out) if size is None else out

    def integers(self, low: int, high: int) -> int:
        """One exact uniform integer in [low, high)."""
        return int(self._gen.integers(low, high))

    def subset(self, n: int, size: int) -> np.ndarray:
        """Uniform random size-`size` subset of range(n), sorted ascending.

        The result of a partial Fisher-Yates shuffle of range(n), whose step
        i swaps positions i and j_i = i + offsets[i]: the bounded-integer
        draws come from a single vectorized call, so uniformity is exact
        and the draw count is `size` (zero when size == n or size == 0).
        The swaps are resolved in O(size log size) work without building
        the length-n index array; see `_resolve_swaps`.  Raises ValueError
        when n*size >= 2**63, where its int64 sort keys would overflow.
        """
        if size < 0 or size > n:
            raise ValueError(f"subset size {size} out of range for n={n}")
        if int(n) * int(size) >= 2**63:
            raise ValueError(f"n={n} times size={size} overflows the int64 "
                             "sort keys of the swap resolution")
        if size == n:
            return np.arange(n, dtype=np.int64)
        if size == 0:
            return np.empty(0, dtype=np.int64)
        steps = np.arange(size)
        offsets = self._gen.integers(0, n - steps)
        sel = _resolve_swaps(steps + offsets)
        sel.sort()
        return sel

    def choose(self, pool: np.ndarray, size: int) -> np.ndarray:
        """Uniform random size-`size` subset of `pool`, sorted ascending."""
        pool = np.asarray(pool, dtype=np.int64)
        sel = self.subset(pool.size, size)
        out = pool[sel]
        out.sort()
        return out


def _resolve_swaps(j: np.ndarray) -> np.ndarray:
    """First len(j) entries of arange(n) after the swaps (i, j[i]), i = 0, 1, ...

    Needs i <= j[i] < n and n*len(j) < 2**63.  Step i fixes position i for
    good with the value then at j[i].  Only earlier steps that also targeted
    j[i] wrote there, so that value is j[i] itself, or else what the latest
    such step t moved there: the value position t held before step t.  That
    is t, unless an earlier step targeted t, and so on down a chain of
    decreasing steps, which pointer jumping resolves in O(log len(j))
    vectorized rounds.
    """
    size = j.size
    steps = np.arange(size)
    # Group the steps by target, in step order within a group; "latest
    # earlier" comes from this order, never from the order in which a
    # fancy assignment with repeated indices would be applied.  The keys
    # j*size + step are distinct and ordered by (target, step), so one
    # plain sort of them gives that order.
    key = j * size + steps
    key.sort()
    order = key % size
    by_target = key // size
    same = by_target[1:] == by_target[:-1]
    if not same.any():   # no step reads a value another step moved
        return j
    # prev[i]: the latest earlier step with the same target as step i
    prev = np.full(size, -1)
    prev[order[1:][same]] = order[:-1][same]
    # link[t]: the latest step that targeted position t < size, else t.
    # A chain starts at some prev[i] and follows link, so every step t it
    # visits has j[t] > t: the latest step that targeted t came before t.
    ends = np.flatnonzero(np.append(~same, True))
    ends = ends[by_target[ends] < size]
    link = steps.copy()
    link[by_target[ends]] = order[ends]
    while True:
        jumped = link[link]
        if np.array_equal(jumped, link):
            break
        link = jumped
    return np.where(prev < 0, j, link[prev])


def sample_batch(n: int, size: int, rng: RngStream) -> np.ndarray:
    """Uniform random size-`size` subset of {0, ..., n-1}, without replacement."""
    if size < 1 or size > n:
        raise ValueError(f"batch size {size} out of range for n={n}")
    return rng.subset(n, size)


def draw_geometric_many(m: float, rng: RngStream, count: int) -> np.ndarray:
    """`count` draws of N ~ Geom(m): P(N=k) = gamma^k (1-gamma) on
    {0, 1, ...} with gamma = m/(m+1), so E N = m; via inverse CDF."""
    if not m > 0:
        raise ValueError("mean m must be positive")
    u = 1.0 - rng.random(count)
    return np.floor(np.log(u) / math.log(m / (m + 1.0))).astype(np.int64)


def check_geom_lemma(m: float, sequence, trials: int, rng: RngStream):
    """Monte-Carlo check of E(D_N - D_{N+1}) = (D_0 - E D_N) / m for N ~ Geom(m).

    `sequence` maps integer arrays t to D_t and must be polynomially
    bounded.  Both sides are estimated from the same draws; returns
    (lhs, rhs).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ns = draw_geometric_many(m, rng, trials)
    d_n = np.asarray(sequence(ns), dtype=np.float64)
    d_n1 = np.asarray(sequence(ns + 1), dtype=np.float64)
    d_0 = float(np.asarray(sequence(np.zeros(1, dtype=np.int64)))[0])
    lhs = float(np.mean(d_n - d_n1))
    rhs = (d_0 - float(np.mean(d_n))) / m
    return lhs, rhs
