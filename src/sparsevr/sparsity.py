"""The random-top-k sparsification operator.

`rtop` keeps the k1 coordinates of y whose score has largest absolute
value, plus k2 uniformly random coordinates from the complement rescaled
by (d - k1)/k2, which makes the output an unbiased estimate of y; it
returns that estimate as a dense vector.  The operator is defined once:
`draw_support` draws the support and `slot_scale` gives the factor of
each slot, and both `rtop` and the optimizer's inner step are built from
the two.  `select_top_k1` is the one top-k1 selection: each draw calls it
once, on the whole score or, given the previous selection, on the entries
that can still be selected.  `top_neg_k1` is the residual of y on the
non-selected coordinates; its squared norm drives the operator's variance.
`rtop_enumerate` computes the exact mean and variance by brute-force
enumeration of every random subset and serves as the test oracle for the
closed-form variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .sampling import RngStream
from .vecops import as_vector

# rtop_enumerate refuses instances with more random subsets than this.
ENUMERATION_GUARD = 10**6


@dataclass(frozen=True)
class SparsityParams:
    """Operator sizes: k1 scored slots, k2 random slots, dimension d."""

    k1: int
    k2: int
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be positive")
        if self.k1 < 0 or self.k2 < 0:
            raise ValueError("k1 and k2 must be nonnegative")
        if self.k1 > self.d:
            raise ValueError(f"k1={self.k1} exceeds d={self.d}")
        if self.k2 > self.d - self.k1:
            raise ValueError(f"k2={self.k2} exceeds d-k1={self.d - self.k1}")
        if self.k1 + self.k2 < 1:
            raise ValueError("k1 + k2 must be at least 1")
        if self.k2 == 0 and self.k1 != self.d:
            # The (d-k1)/k2 rescaling is undefined; only the k1=d identity
            # degenerates gracefully.
            raise ValueError("k2=0 is only valid when k1=d")

    @property
    def scale(self) -> float:
        """Rescaling applied to the random slots; exactly 1 when k1+k2=d."""
        if self.k2 == 0:
            return 1.0
        return (self.d - self.k1) / self.k2


def select_top_k1(score: np.ndarray, k1: int) -> np.ndarray:
    """Indices of the k1 largest |score| entries, sorted ascending.

    Ties at the threshold are broken toward smaller indices, so the
    selection equals the first k1 entries of a sort by (-|score|, index).
    The threshold comes from an introselect partition (np.partition),
    keeping worst-case linear time.
    """
    score = as_vector(score)
    d = score.size
    if k1 < 0 or k1 > d:
        raise ValueError(f"k1={k1} out of range for d={d}")
    if k1 == 0:
        return np.empty(0, dtype=np.int64)
    if k1 == d:
        return np.arange(d, dtype=np.int64)
    a = np.abs(score)
    kth = np.partition(a, d - k1)[d - k1]  # k1-th largest absolute value
    sel = np.flatnonzero(a > kth)
    need = k1 - sel.size
    if need > 0:
        ties = np.flatnonzero(a == kth)[:need]
        sel = np.sort(np.concatenate([sel, ties]))
    return sel.astype(np.int64)


def _top_k1_above_prev(memory: np.ndarray, k1: int,
                       prev_top: np.ndarray) -> np.ndarray:
    """select_top_k1(memory, k1) for a nonnegative block, selecting only
    among the candidates ~(memory < b), b = min(memory[prev_top]); see
    `draw_support` for why they hold the whole selection.

    The candidates are ascending, so select_top_k1's tie-break toward the
    smaller index carries over.  The complement form keeps NaN as a
    candidate (b is NaN if prev_top holds one), so select_top_k1's
    finiteness check rejects any NaN or +Inf in the block.
    """
    cand = np.flatnonzero(~(memory < memory[prev_top].min()))
    if cand.size < k1:
        raise ValueError("prev_top must hold k1 distinct indices")
    return cand[select_top_k1(memory[cand], k1)]


def top_neg_k1(score: np.ndarray, y: np.ndarray, k1: int) -> np.ndarray:
    """y with the selected top-k1 coordinates zeroed out."""
    score = as_vector(score)
    y = as_vector(y, score.size)
    out = y.copy()
    out[select_top_k1(score, k1)] = 0.0
    return out


def draw_support(score: np.ndarray, p: SparsityParams, rng: RngStream,
                 prev_top: np.ndarray | None = None):
    """Draw the operator support: (top indices, random complement indices).

    The top part is `select_top_k1(score, p.k1)`.  Given `prev_top`, any
    k1 distinct indices of a nonnegative `score` (the optimizer passes the
    block's previous selection from its EMA memory), select_top_k1 runs on
    the entries not below b = min(score[prev_top]) only: the k1 entries at
    prev_top are all >= b, so the k1-th largest entry is >= b too, and no
    entry below b can be selected.  The result is the same indices, and
    every draw makes exactly one select_top_k1 call.

    The random part is a uniform size-k2 subset of the complement of the
    selected top set, ascending.  It draws ranks s in range(d - k1) and maps
    each to the s-th complement index without building the complement: with
    top ascending, top[i] - i non-top indices lie below top[i], so the s-th
    one is s plus the number of i with top[i] - i <= s.  That is the same
    subset, from the same draws, as choosing from the complement array.
    """
    if prev_top is not None and 0 < p.k1 < p.d:
        top = _top_k1_above_prev(score, p.k1, prev_top)
    else:
        top = select_top_k1(score, p.k1)
    if p.k2 == 0:
        return top, np.empty(0, dtype=np.int64)
    sel = rng.subset(p.d - p.k1, p.k2)
    rand = sel + np.searchsorted(top - np.arange(p.k1), sel, side="right")
    return top, rand


def slot_scale(params) -> np.ndarray:
    """Per-slot factor of the operator over a sequence of blocks.

    Each block contributes k1 ones (its top slots) followed by k2 copies of
    its (d-k1)/k2 rescaling (its random slots), matching a support laid
    out as [top, rand] block after block.
    """
    return np.concatenate([np.repeat([1.0, p.scale], [p.k1, p.k2])
                           for p in params])


def rtop(score: np.ndarray, y: np.ndarray, p: SparsityParams,
         rng: RngStream) -> np.ndarray:
    """Random-top-k estimate of y, scored by |score|, as a dense vector.

    Support is T ∪ S with T the deterministic top-k1 selection and S a
    uniform random size-k2 subset of its complement; values are y on T
    and ((d-k1)/k2)·y on S, zero elsewhere.  Unbiased for y over the draw
    of S.
    """
    score = as_vector(score, p.d)
    y = as_vector(y, p.d)
    top, rand = draw_support(score, p, rng)
    coords = np.concatenate([top, rand])
    out = np.zeros(p.d, dtype=np.float64)
    out[coords] = slot_scale([p]) * y[coords]
    return out


def rtop_enumerate(score: np.ndarray, y: np.ndarray, p: SparsityParams):
    """Exact mean vector and total variance of rtop by subset enumeration.

    Iterates every size-k2 subset of the complement (guarded by
    ENUMERATION_GUARD), so it is independent of the sampling path and of
    the closed-form variance expression it is used to check.  Variance is
    summed over coordinates.
    """
    score = as_vector(score, p.d)
    y = as_vector(y, p.d)
    top = select_top_k1(score, p.k1)
    mask = np.ones(p.d, dtype=bool)
    mask[top] = False
    comp = np.flatnonzero(mask)
    count = math.comb(comp.size, p.k2)
    if count > ENUMERATION_GUARD:
        raise ValueError(f"enumeration would visit {count} subsets "
                         f"(guard: {ENUMERATION_GUARD})")

    base = np.zeros(p.d, dtype=np.float64)
    base[top] = y[top]
    scale = p.scale

    total = np.zeros(p.d, dtype=np.float64)
    subsets = list(combinations(comp.tolist(), p.k2))
    for s in subsets:
        v = base.copy()
        if s:
            s = list(s)
            v[s] = scale * y[s]
        total += v
    mean = total / count

    var_acc = np.zeros(p.d, dtype=np.float64)
    for s in subsets:
        v = base.copy()
        if s:
            s = list(s)
            v[s] = scale * y[s]
        dev = v - mean
        var_acc += dev * dev
    variance = float(np.sum(var_acc / count))
    return mean, variance
