"""Finite-sum objectives f(x) = (1/n) sum_i f_i(x) with gradient oracles.

Each problem implements four private hooks over a selection `idx` of its
components (an index array or a slice):

- `_pass(idx, x, grad)`: the one forward pass (a linear model's products
  a_i.x, the network's forward pass, or the factor-row gather), returned as
  a state;
- `_loss(state)`: the mean loss;
- `_grad(state, coords)`: the mean gradient at `coords`, an index array or
  `slice(None)` for all d, in the order of `coords`;
- `_components(state)`: the per-component gradients, one row each.

`FiniteSumProblem` checks x once and composes every public oracle from
them.  The batch gradient is `_grad` at `slice(None)` and the restricted
oracle is `_grad` at the requested coordinates, so the dense gradient is
the restricted one at full support, bit for bit; the fused oracle runs
both readers on one pass.  The full-data oracles select with a slice, so
they read the rows in place.

`grad` is set by the base class alone: `loss_batch` passes False and
every other oracle True.  A loss-only pass skips what only the gradient
readers use (a linear model's derivatives and gradient sum, the network's
per-layer arrays) but makes the loss's per-row values from the same
products in the same tiles, so `loss_grad_batch`'s loss is `loss_batch`'s,
bit for bit, at any BLAS thread count.

Least squares and logistic regression are one linear model,
phi(a_i.x, t_i) plus a ridge, and share one pass.  It and the network's go
over the rows in the tiles of one rule, `_row_tiles`: at most TILE_FLOATS
values per tile.  The linear pass writes each tile's products a_i.x and
their derivatives w_i in a_i.x, and adds the tile's share of A^T w to the
d-length gradient sum while the tile is still in cache, so each row of A
comes from memory once, and an index-array selection is gathered one
tile at a time.  The tiles are cut so that, on a one-thread BLAS, the
products and so the losses are those of one product A[idx] @ x.  A
gradient summed over several tiles differs in its last bits from one
product over all the rows.

The network's gradient pass writes each tile's layer outputs into the
per-layer arrays that backprop reads; its loss-only pass reuses one tile's
buffers, so a full-data loss holds one tile.  OpenBLAS's per-row gemm
result can depend on the number of rows, so a network loss or gradient
over more than one tile may differ in its last bits from one product over
all the rows; a selection of one tile is that product.

Each `_grad` gathers `coords` from a d-length gradient or gradient sum
(the linear models and the network scale only the gathered entries), so a
restricted gradient's k/d cost is accounted by the optimizer's query
meter; in wall-clock it still runs the dense kernel.

Also here: closed-form or estimated problem constants (smoothness L,
gradient second-moment bound sigma^2, initial suboptimality delta_f), the
memory-bounded chunking of per-component sweeps, seeded synthetic dataset
generators, and the text dataset format that numpy's text I/O reads and
writes: whitespace-separated samples, one per line, label or rating first,
floats as "%.17g", after an optional '# shape R C' line for ratings.

Generators build in place; full-data transients are TILE_FLOATS row
blocks.  A generator scales and shifts its standard-normal draw where it
lies, and its row norms, the finiteness check and the smoothness hints go
over row blocks of at most TILE_FLOATS values, so no transient is the size
of the data.  Each is elementwise or a per-row reduction, so the blocks
change no bit of a result.
"""

from __future__ import annotations

import abc
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .vecops import as_vector

# Floats per rows x d matrix of a per-component sweep chunk: 2**22 float64
# values, 32 MiB.
CHUNK_FLOATS = 2 ** 22

# Floats per row tile of a linear-model pass: 2**17 float64 values, 1 MiB
# (128 rows at d = 1,000), so a tile read for its products a_i.x is still
# in L2 when the gradient sum reads it again.  The row blocks of
# the generators, the finiteness check and the smoothness hints hold at
# most this many values too.
TILE_FLOATS = 2 ** 17


def component_chunks(idx: np.ndarray, d: int):
    """Consecutive pieces of the index array `idx`, of
    min(4096, max(1, CHUNK_FLOATS // d)) entries each (the last may be
    shorter), so that a piece's per-component gradient matrix holds at most
    CHUNK_FLOATS values whenever d <= CHUNK_FLOATS."""
    rows = min(4096, max(1, CHUNK_FLOATS // d))
    for lo in range(0, idx.size, rows):
        yield idx[lo:lo + rows]


def _row_tiles(m: int, width: int):
    """(lo, hi) row ranges of an m-row pass with `width` values per row.  A
    tile holds at most TILE_FLOATS values, or four rows when fewer would
    fit; its rows are a multiple of four, and a lone last row joins the tile
    before it, so a pass of up to one tile's rows plus one is one tile."""
    step = max(4, TILE_FLOATS // width // 4 * 4)
    lo = 0
    while lo < m:
        hi = m if m - lo <= step + 1 else lo + step
        yield lo, hi
        lo = hi


def _row_blocks(n: int, width: int):
    """Slices of consecutive row blocks of an n-row array with `width`
    values per row: max(1, TILE_FLOATS // width) rows each, the last may be
    shorter."""
    rows = max(1, TILE_FLOATS // max(1, width))
    return (slice(lo, min(lo + rows, n)) for lo in range(0, n, rows))


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-z)) where z >= 0, else exp(z) / (1 + exp(z)): stable in
    both tails.  Both branches are e / (1 + e) with e = exp(-|z|) taken over
    the whole array.  The numerator is max(e, z >= 0): where z >= 0, e <= 1
    and the max is exactly 1; elsewhere the mask is 0 and e >= 0 is kept (a
    NaN stays NaN).  So there is no masked gather, scatter or copy; `out`
    may be `z` itself."""
    pos = z >= 0
    e = np.abs(z, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    den = e + 1.0
    np.maximum(e, pos, out=e)
    return np.divide(e, den, out=e)


def _require_finite(*arrays) -> None:
    """ValueError if an array holds a NaN or Inf, checked one row block at a
    time."""
    for a in arrays:
        width = math.prod(a.shape[1:])
        if not all(np.isfinite(a[s]).all() for s in _row_blocks(len(a), width)):
            raise ValueError("data contains NaN or Inf")


class FiniteSumProblem(abc.ABC):
    """Oracle interface.  Subclasses implement the four hooks of the module
    docstring; every public oracle is composed from them here, each from
    one `_pass` over its selection."""

    n: int
    d: int

    @abc.abstractmethod
    def _pass(self, idx, x: np.ndarray, grad: bool):
        """The forward pass over the components in idx at a checked x.  With
        grad, a problem may fuse part of the gradient into it (the linear
        models sum A^T w tile by tile), so that `_grad` only gathers and
        scales; without, only `_loss` reads the state."""

    @abc.abstractmethod
    def _loss(self, state) -> float:
        """Mean loss of a pass."""

    @abc.abstractmethod
    def _grad(self, state, coords) -> np.ndarray:
        """Mean gradient of a pass at coords (index array or slice(None))."""

    @abc.abstractmethod
    def _components(self, state) -> np.ndarray:
        """Per-component gradients of a pass, one row per component."""

    def _state(self, idx, x, grad=True):
        """The pass over idx at x, after the one check of x."""
        return self._pass(idx, as_vector(x, self.d), grad)

    def loss_batch(self, idx, x: np.ndarray) -> float:
        """Average loss over the components in idx."""
        return self._loss(self._state(idx, x, grad=False))

    def grad_batch(self, idx, x: np.ndarray) -> np.ndarray:
        """Average gradient over the components in idx."""
        return self._grad(self._state(idx, x), slice(None))

    def grad_batch_restricted(self, idx, x: np.ndarray,
                              coords: np.ndarray) -> np.ndarray:
        """Batch gradient entries at `coords`, in the order of `coords`;
        grad_batch(idx, x)[coords] bit for bit."""
        return self._grad(self._state(idx, x), coords)

    def loss_grad_batch(self, idx, x: np.ndarray) -> tuple[float, np.ndarray]:
        """(loss_batch(idx, x), grad_batch(idx, x)) from one pass, bit for bit."""
        state = self._state(idx, x)
        return self._loss(state), self._grad(state, slice(None))

    def grad_components(self, idx, x: np.ndarray) -> np.ndarray:
        """len(idx) x d matrix whose rows are the per-component gradients."""
        return self._components(self._state(idx, x))

    def full_loss(self, x: np.ndarray) -> float:
        """f(x), averaged over all components."""
        return self.loss_batch(slice(None), x)

    def full_grad(self, x: np.ndarray) -> np.ndarray:
        return self.grad_batch(slice(None), x)

    def smoothness_hint(self):
        """Closed-form component-Lipschitz constant, when one is known."""
        return None

    def reference_minimum(self):
        """(x*, f*) from a direct method, or None when not available."""
        return None

    def param_blocks(self):
        """Per-layer (lo, hi) coordinate ranges for blocked operators, or None."""
        return None


class _LinearModel(FiniteSumProblem):
    """f_i(x) = phi(a_i.x, t_i) + ridge/2 ||x||^2 over the rows a_i of A and
    the per-row targets t_i.  A subclass gives `_mean_phi(z, t)`, the mean
    of phi over a pass's products z = A[idx] @ x; `_dphi(z, t)`, phi's
    derivative in z per row; `_check_targets`; and CURVATURE, a bound on
    that derivative's slope, from which `smoothness_hint` follows."""

    CURVATURE = 1.0

    def __init__(self, A: np.ndarray, targets: np.ndarray, ridge: float = 0.0):
        A = np.ascontiguousarray(A, dtype=np.float64)
        targets = np.ascontiguousarray(targets, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
            raise ValueError("A must be a nonempty 2-D matrix")
        if targets.shape != (A.shape[0],):
            raise ValueError("need one target per row of A")
        self._check_targets(targets)
        if ridge < 0:
            raise ValueError("ridge must be nonnegative")
        _require_finite(A, targets)
        self.A, self.targets, self.ridge = A, targets, float(ridge)
        self.n, self.d = A.shape

    def _check_targets(self, t) -> None:
        """ValueError if a target is outside phi's domain."""

    def _pass(self, idx, x, grad):
        """(x, idx, products z = A[idx] @ x, targets t, derivatives w,
        gradient sum A[idx].T @ w); w and the sum are None without grad.

        The pass goes over the rows in tiles (views of a slice, gathered
        pieces of an index array) of `_row_tiles`, writes each tile's
        products and derivatives and adds its A_c.T @ w_c while the tile is
        still in cache.  OpenBLAS's gemv takes rows four at a time and numpy
        hands a one-row product to dot, so on a one-thread BLAS every
        product has the bits of the one product A[idx] @ x.  A selection
        that fits in one tile is that product, and its sum is A[idx].T @ w."""
        t = self.targets[idx]
        rows = self.A[idx] if isinstance(idx, slice) else None
        z = np.empty(len(t))
        w = np.empty(len(t)) if grad else None
        g = np.zeros(self.d) if grad else None   # an empty selection sums to 0
        for lo, hi in _row_tiles(len(t), self.d):
            tile = self.A[idx[lo:hi]] if rows is None else rows[lo:hi]
            np.matmul(tile, x, out=z[lo:hi])
            if grad:
                w[lo:hi] = self._dphi(z[lo:hi], t[lo:hi])
                if lo:
                    g += tile.T @ w[lo:hi]
                else:
                    np.matmul(tile.T, w[lo:hi], out=g)
            # Free a gathered tile before the next is gathered.  A pass then
            # holds one tile, under the trim threshold that glibc sets from
            # a freed tile, so the heap keeps the tile's pages for the next
            # pass instead of returning them and faulting them back in.
            del tile
        return x, idx, z, t, w, g

    def _loss(self, state):
        x, _, z, t, _, _ = state
        return self._mean_phi(z, t) + 0.5 * self.ridge * float(x @ x)

    def _grad(self, state, coords):
        """The gathered entries of the sum, scaled: per entry the bits of
        (sum / m + ridge * x)[coords]."""
        x, _, z, _, _, g = state
        return g[coords] / len(z) + self.ridge * x[coords]

    def _components(self, state):
        x, idx, _, _, w, _ = state
        return self.A[idx] * w[:, None] + self.ridge * x[None, :]

    def smoothness_hint(self):
        """CURVATURE * max_i ||a_i||^2 + ridge, each row summed as
        np.sum(a * a, axis=1) sums it, one row block at a time."""
        a = self.A
        top = max(float(np.max(np.sum(a[s] * a[s], axis=1)))
                  for s in _row_blocks(*a.shape))
        return self.CURVATURE * top + self.ridge


class LeastSquaresProblem(_LinearModel):
    """f_i(x) = (a_i.x - b_i)^2 / 2 + ridge/2 ||x||^2; the targets are b."""

    @staticmethod
    def _mean_phi(z, t):
        r = z - t
        return 0.5 * float(r @ r) / len(r)

    @staticmethod
    def _dphi(z, t):
        return z - t

    def reference_minimum(self):
        """Normal-equation solve; falls back to lstsq for singular systems."""
        h = self.A.T @ self.A / self.n + self.ridge * np.eye(self.d)
        rhs = self.A.T @ self.targets / self.n
        try:
            x_star = np.linalg.solve(h, rhs)
        except np.linalg.LinAlgError:
            x_star = np.linalg.lstsq(h, rhs, rcond=None)[0]
        return x_star, self.full_loss(x_star)


class LogisticProblem(_LinearModel):
    """f_i(x) = log(1 + exp(-y_i a_i.x)) + ridge/2 ||x||^2; the targets are
    the labels y, each -1 or +1."""

    CURVATURE = 0.25

    def _check_targets(self, y):
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")

    @staticmethod
    def _mean_phi(z, y):
        return float(np.mean(np.logaddexp(0.0, -(y * z))))

    @staticmethod
    def _dphi(z, y):
        return -y * _sigmoid(-(y * z))

    def reference_minimum(self):
        """Full-gradient descent at step 1/L until the gradient norm is at
        most 1e-10; None if 200,000 steps do not get there."""
        lip = self.smoothness_hint()
        x = np.zeros(self.d)
        step = 1.0 / lip
        for _ in range(200_000):
            g = self.full_grad(x)
            if float(np.linalg.norm(g)) <= 1e-10:
                return x, self.full_loss(x)
            x = x - step * g
        return None


class MLPProblem(FiniteSumProblem):
    """Fully connected net with sigmoid hidden layers and softmax cross-entropy.

    Parameters are flattened layer by layer (weights then bias) into one
    vector; `param_blocks` exposes the per-layer ranges so the optimizer
    can split its sparsity budget across layers.  Backprop is written by
    hand on numpy, in place where it can be: each layer's weight and bias
    sums go straight into one d-length vector, from which `_grad` gathers
    the requested entries and scales only those.

    The one forward pass, `_pass`, goes over the `_row_tiles` of the widest
    non-input layer: 512 rows at 256 hidden units.  In gradient mode it
    writes each tile's layer outputs into the per-layer arrays that
    backprop reads; in loss-only mode it reuses one tile's buffers.  Both
    keep the per-row log-likelihoods, and every oracle cuts the same tiles,
    so the oracles agree bit for bit (see the module docstring on tiles).
    """

    def __init__(self, layer_sizes, X: np.ndarray, labels: np.ndarray):
        sizes = [int(s) for s in layer_sizes]
        if len(sizes) < 3:
            raise ValueError("need at least one hidden layer")
        if any(s < 1 for s in sizes):
            raise ValueError("layer sizes must be positive")
        X = np.ascontiguousarray(X, dtype=np.float64)
        labels = np.ascontiguousarray(labels, dtype=np.int64)
        if X.ndim != 2 or X.shape[1] != sizes[0]:
            raise ValueError("X must be n x input_dim")
        if labels.shape != (X.shape[0],):
            raise ValueError("one integer label per sample")
        if labels.min() < 0 or labels.max() >= sizes[-1]:
            raise ValueError("labels out of range for the output layer")
        _require_finite(X)
        self.sizes = sizes
        self.X, self.labels = X, labels
        self.n = X.shape[0]
        self._layout = []
        off = 0
        for nin, nout in zip(sizes[:-1], sizes[1:]):
            w_lo, w_hi = off, off + nin * nout
            b_lo, b_hi = w_hi, w_hi + nout
            self._layout.append((w_lo, w_hi, b_lo, b_hi, nin, nout))
            off = b_hi
        self.d = off

    def param_blocks(self):
        return [(w_lo, b_hi) for (w_lo, _, _, b_hi, _, _) in self._layout]

    def _unpack(self, x):
        out = []
        for w_lo, w_hi, b_lo, b_hi, nin, nout in self._layout:
            out.append((x[w_lo:w_hi].reshape(nin, nout), x[b_lo:b_hi]))
        return out

    def _tiles(self, m):
        """Row tiles of an m-row forward pass, sized by the widest
        non-input layer."""
        return _row_tiles(m, max(self.sizes[1:]))

    def _forward(self, params, xb, outs):
        """Forward pass over the rows xb: layer l's outputs are written into
        outs[l], an array of len(xb) rows, and the last layer's logits are
        turned into log-probabilities in place."""
        z = xb
        for li, ((w, b), out) in enumerate(zip(params, outs)):
            np.matmul(z, w, out=out)
            out += b
            if li < len(params) - 1:
                _sigmoid(out, out=out)
            z = out
        z -= z.max(axis=1, keepdims=True)
        z -= np.log(np.sum(np.exp(z), axis=1, keepdims=True))

    def _pass(self, idx, x, grad):
        """(labels, params, activations, log-probabilities, per-row
        log-likelihoods) of the samples in idx; the activations are the
        inputs and the hidden layers' outputs.  Without grad, an index array
        is gathered one tile at a time and only the log-likelihoods are
        kept: the activations and log-probabilities are None."""
        params = self._unpack(x)
        # gathered first: after the layer arrays, xb raised peak RSS by 1 MB
        xb = self.X[idx] if grad or isinstance(idx, slice) else None
        labels = self.labels[idx]
        m = len(labels)
        tiles = list(self._tiles(m))
        size = m if grad else max((hi - lo for lo, hi in tiles), default=0)
        outs = [np.empty((size, nout)) for *_, nout in self._layout]
        logl = np.empty(m)
        for lo, hi in tiles:
            tile = self.X[idx[lo:hi]] if xb is None else xb[lo:hi]
            at = slice(lo, hi) if grad else slice(hi - lo)
            self._forward(params, tile, [a[at] for a in outs])
            logl[lo:hi] = outs[-1][at][np.arange(hi - lo), labels[lo:hi]]
            del tile   # free a gathered tile before the next is gathered
        acts, logp = ([xb, *outs[:-1]], outs[-1]) if grad else (None, None)
        return labels, params, acts, logp, logl

    def _loss(self, state):
        """Mean cross-entropy."""
        return float(-np.mean(state[4]))

    @staticmethod
    def _deltas(state):
        """Backprop error signals per layer."""
        labels, params, acts, logp, _ = state
        delta = np.exp(logp)
        delta[np.arange(len(delta)), labels] -= 1.0
        deltas = [None] * len(params)
        deltas[-1] = delta
        for li in range(len(params) - 2, -1, -1):
            w_next = params[li + 1][0]
            z = acts[li + 1]
            # (delta @ W.T) * z * (1 - z), left to right, in place; 1 - z
            # is taken one row block at a time
            t = deltas[li + 1] @ w_next.T
            t *= z
            for s in _row_blocks(*t.shape):
                t[s] *= 1.0 - z[s]
            deltas[li] = t
        return deltas

    def _grad(self, state, coords):
        """The d-length gradient sum, each layer's weight and bias sums
        written in place; the entries at `coords` are gathered from it and
        only they are scaled by 1/batch, so every `coords` gets the bits of
        the full gradient."""
        acts, deltas = state[2], self._deltas(state)
        g = np.empty(self.d)
        for (w_lo, w_hi, b_lo, b_hi, nin, nout), a, delta in zip(
                self._layout, acts, deltas):
            np.matmul(a.T, delta, out=g[w_lo:w_hi].reshape(nin, nout))
            np.sum(delta, axis=0, out=g[b_lo:b_hi])
        out = g[coords]
        out *= 1.0 / len(deltas[-1])
        return out

    def _components(self, state):
        """Row i holds a_i (x) delta_i per layer, written in place: the
        weight and bias ranges cover all d, so `out` starts empty."""
        acts, deltas = state[2], self._deltas(state)
        rows = len(acts[0])
        out = np.empty((rows, self.d))
        for (w_lo, w_hi, b_lo, b_hi, nin, nout), a, delta in zip(
                self._layout, acts, deltas):
            per = out[:, w_lo:w_hi].reshape(rows, nin, nout)
            assert np.shares_memory(per, out)   # a view, not a copy
            np.multiply(a[:, :, None], delta[:, None, :], out=per)
            out[:, b_lo:b_hi] = delta
        return out


class MatrixFactorizationProblem(FiniteSumProblem):
    """Squared loss on observed entries of a ratings matrix, rank-r factors.

    One component per observed (u, v): f_i = (P_u.Q_v - R_uv)^2 / 2 plus a
    local ridge on the touched factor rows, so each component gradient is
    supported on exactly 2r coordinates.
    """

    def __init__(self, rows, cols, vals, n_rows: int, n_cols: int,
                 rank: int, ridge: float = 0.0):
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        vals = np.ascontiguousarray(vals, dtype=np.float64)
        if rows.size < 1:
            raise ValueError("need at least one observed rating")
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("rows, cols, vals must have equal length")
        if rank < 1:
            raise ValueError("rank must be positive")
        if rows.min() < 0 or rows.max() >= n_rows:
            raise ValueError("row index out of range")
        if cols.min() < 0 or cols.max() >= n_cols:
            raise ValueError("column index out of range")
        if ridge < 0:
            raise ValueError("ridge must be nonnegative")
        _require_finite(vals)
        self.rows, self.cols, self.vals = rows, cols, vals
        self.n_rows, self.n_cols, self.rank = int(n_rows), int(n_cols), int(rank)
        self.ridge = float(ridge)
        self.n = rows.size
        self.d = (self.n_rows + self.n_cols) * self.rank

    def _factors(self, x):
        r = self.rank
        p = x[:self.n_rows * r].reshape(self.n_rows, r)
        q = x[self.n_rows * r:].reshape(self.n_cols, r)
        return p, q

    def _coords(self, u, v):
        r = self.rank
        pc = u[:, None] * r + np.arange(r)[None, :]
        qc = self.n_rows * r + v[:, None] * r + np.arange(r)[None, :]
        return pc, qc

    def _pass(self, idx, x, grad):
        """Rows u, columns v, factor rows P_u, Q_v and residuals
        P_u.Q_v - R_uv of the components in idx; `grad` changes nothing."""
        p, q = self._factors(x)
        u, v = self.rows[idx], self.cols[idx]
        pu, qv = p[u], q[v]
        return u, v, pu, qv, np.sum(pu * qv, axis=1) - self.vals[idx]

    def _loss(self, state):
        _, _, pu, qv, e = state
        reg = 0.5 * self.ridge * (np.sum(pu * pu, axis=1) + np.sum(qv * qv, axis=1))
        return float(np.mean(0.5 * e * e + reg))

    def _component_grads(self, state):
        """Coordinates (pc, qc) and values (gp, gq) of each component gradient."""
        u, v, pu, qv, e = state
        gp = e[:, None] * qv + self.ridge * pu
        gq = e[:, None] * pu + self.ridge * qv
        return (*self._coords(u, v), gp, gq)

    def _grad(self, state, coords):
        pc, qc, gp, gq = self._component_grads(state)
        out = np.zeros(self.d)
        # duplicate (u, v) rows in a batch must accumulate
        np.add.at(out, pc.ravel(), gp.ravel())
        np.add.at(out, qc.ravel(), gq.ravel())
        out /= len(gp)
        return out[coords]

    def _components(self, state):
        pc, qc, gp, gq = self._component_grads(state)
        out = np.zeros((len(gp), self.d))
        rowsel = np.arange(len(gp))[:, None]
        out[rowsel, pc] = gp
        out[rowsel, qc] = gq
        return out


@dataclass(frozen=True)
class ProblemConstants:
    """Certified or estimated constants driving the hyperparameter rules."""

    L: float
    sigma2: float
    delta_f: float
    f_star: float
    f_star_exact: bool

    def __post_init__(self):
        if not (self.L > 0 and self.sigma2 >= 0 and self.delta_f >= 0):
            raise ValueError("need L > 0, sigma2 >= 0, delta_f >= 0")


def _power_iteration_lipschitz(problem, x, iters: int = 40, h: float = 1e-5,
                               seed: int = 0) -> float:
    """Largest Hessian eigenvalue at x via finite-difference Hessian-vector
    products and power iteration."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(problem.d)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        hv = (problem.full_grad(x + h * v) - problem.full_grad(x - h * v)) / (2 * h)
        lam = float(np.linalg.norm(hv))
        if lam == 0.0:
            return 0.0
        v = hv / lam
    return lam


_SOLVE = object()


def estimate_constants(problem: FiniteSumProblem, probe_points,
                       reference=_SOLVE) -> ProblemConstants:
    """Estimate (L, sigma^2, delta_f) from probe points.

    sigma^2 is the max over probes of the mean squared per-component
    gradient norm -- a lower estimate of the sup over all x, so callers
    needing a certified bound must probe where the trajectory lives.
    L comes from the closed-form hint when the problem has one, else from
    finite-difference power iteration at the probes.  delta_f measures
    f(first probe) - f*, with f* from the direct reference solve when
    available and the best probed value (flagged inexact) otherwise.
    `reference` is problem.reference_minimum()'s result if already solved.
    """
    probes = [as_vector(p, problem.d) for p in probe_points]
    if not probes:
        raise ValueError("need at least one probe point")

    sigma2 = 0.0
    every = np.arange(problem.n, dtype=np.int64)
    for x in probes:
        acc = 0.0
        for idx in component_chunks(every, problem.d):
            comps = problem.grad_components(idx, x)
            acc += float(np.sum(comps * comps))
        sigma2 = max(sigma2, acc / problem.n)

    lip = problem.smoothness_hint()
    if lip is None:
        lip = max(_power_iteration_lipschitz(problem, x) for x in probes)
    if lip <= 0:
        lip = 1.0

    ref = problem.reference_minimum() if reference is _SOLVE else reference
    exact = ref is not None
    # f at every probe when the best probed value stands in for f*, else at
    # the first probe only; each value is computed once.
    losses = [problem.full_loss(x) for x in (probes[:1] if exact else probes)]
    f_star = ref[1] if exact else min(losses)
    delta_f = max(losses[0] - f_star, 0.0)
    return ProblemConstants(L=float(lip), sigma2=float(sigma2),
                            delta_f=float(delta_f), f_star=float(f_star),
                            f_star_exact=exact)


# ---------------------------------------------------------------------------
# Seeded synthetic generators
# ---------------------------------------------------------------------------

def gen_planted_ls(n: int, d: int, s_active: int, seed: int,
                   signal_norm: float = 1.0, tau: float = 0.1,
                   noise: float = 0.05):
    """Planted sparse least squares: s_active large-scale columns carry the
    signal, the rest are scaled by tau.  Returns (A, b, x_true).

    Rows are unit-normalized so the component smoothness constant is
    exactly 1.  tau=1 with s_active=d gives the isotropic
    (non-sparse) control of equal scale.
    """
    if not 1 <= s_active <= d:
        raise ValueError("s_active out of range")
    rng = np.random.default_rng(seed)
    active = rng.choice(d, size=s_active, replace=False)
    active.sort()
    scales = np.full(d, tau)
    scales[active] = 1.0
    a = rng.standard_normal((n, d))
    a *= scales
    for s in _row_blocks(n, d):
        a[s] /= np.linalg.norm(a[s], axis=1, keepdims=True)
    x_true = np.zeros(d)
    coeff = rng.standard_normal(s_active)
    coeff *= signal_norm / np.linalg.norm(coeff)
    x_true[active] = coeff
    b = a @ x_true + noise * rng.standard_normal(n)
    return a, b, x_true


def gen_gaussian_ls(n: int, d: int, seed: int, signal_norm: float = 1.0,
                    noise: float = 0.05):
    """Dense Gaussian least squares (all columns equal scale)."""
    return gen_planted_ls(n, d, s_active=d, seed=seed, signal_norm=signal_norm,
                          tau=1.0, noise=noise)


def gen_logistic_blobs(n: int, d: int, seed: int, separation: float = 2.0):
    """Two Gaussian blobs at +/- separation/2 along a random direction,
    labels in {-1, +1}.  Returns (A, y)."""
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    shift = (separation / 2.0) * y
    a = rng.standard_normal((n, d))
    for s in _row_blocks(n, d):
        a[s] += shift[s, None] * direction
    return a, y


def gen_class_blobs(n: int, d: int, classes: int, seed: int,
                    separation: float = 3.0):
    """`classes` Gaussian clusters with random centers, integer labels.
    Returns (X, labels)."""
    if classes < 2:
        raise ValueError("need at least two classes")
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((classes, d))
    centers *= separation / np.linalg.norm(centers, axis=1, keepdims=True)
    labels = rng.integers(0, classes, size=n)
    x = rng.standard_normal((n, d))
    for s in _row_blocks(n, d):
        x[s] += centers[labels[s]]
    return x, labels.astype(np.int64, copy=False)


def gen_low_rank_ratings(n_rows: int, n_cols: int, rank: int, seed: int,
                         density: float = 0.3, noise: float = 0.0):
    """Planted low-rank ratings.  Returns (rows, cols, vals, P, Q)."""
    if not (0 < density <= 1):
        raise ValueError("density must be in (0, 1]")
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((n_rows, rank)) / math.sqrt(rank)
    q = rng.standard_normal((n_cols, rank)) / math.sqrt(rank)
    total = n_rows * n_cols
    count = max(1, int(round(density * total)))
    flat = rng.choice(total, size=count, replace=False)
    flat.sort()
    rows = flat // n_cols
    cols = flat % n_cols
    vals = np.sum(p[rows] * q[cols], axis=1) + noise * rng.standard_normal(count)
    return rows, cols, vals, p, q


# ---------------------------------------------------------------------------
# Text dataset format, read by numpy's loadtxt and written by its savetxt:
# one sample per line, whitespace-separated, label or rating first, floats
# as "%.17g"; a ratings file may open with a '# shape R C' line.
# ---------------------------------------------------------------------------

def _read_table(path, dtype, shape_line: bool = False):
    """(table, shape): the rows of `path`, blank lines skipped, as a table
    of `dtype` (a record per row, else 2-D), and the leading '# shape R C'
    line's shape if `shape_line`, else None.  A ValueError names the file."""
    shape = None
    with open(path, encoding="utf-8") as fh:
        head = fh.readline().split() if shape_line else []
        if head[:1] == ["#"]:
            if (len(head) != 4 or head[1] != "shape"
                    or not all(v.isdecimal() for v in head[2:])):
                raise ValueError(f"{path}:1: expected '# shape R C'")
            shape = int(head[2]), int(head[3])
        else:
            fh.seek(0)
        try:
            with warnings.catch_warnings():
                # numpy < 2 parses an integer from "3.0" with a warning
                warnings.simplefilter("error", DeprecationWarning)
                warnings.simplefilter("ignore", UserWarning)  # no rows: see below
                table = np.loadtxt(fh, dtype=dtype, comments=None,
                                   ndmin=1 if np.dtype(dtype).names else 2)
        except (ValueError, DeprecationWarning) as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if table.size == 0:
        raise ValueError(f"{path}: empty dataset")
    return table, shape


def save_labeled_dataset(path, labels, features):
    """Write 'label f1 ... fd' lines, one row block at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in _row_blocks(len(labels), np.shape(features)[1] + 1):
            np.savetxt(fh, np.column_stack((labels[s], features[s])), "%.17g")


def load_labeled_dataset(path):
    """Read C-contiguous float64 (labels, features).  The features stay in
    the table: each row block in turn moves left over the label column."""
    table, _ = _read_table(path, np.float64)
    n, width = table.shape
    if width < 2:
        raise ValueError(f"{path}: need a label and at least one feature")
    labels, flat, d = table[:, 0].copy(), table.reshape(-1), width - 1
    for s in _row_blocks(n, width):
        flat[s.start * d:s.stop * d] = table[s, 1:].ravel()
    return labels, flat[:n * d].reshape(n, d)


def save_ratings_dataset(path, rows, cols, vals, n_rows, n_cols):
    """Write a '# shape R C' line, then 'rating u v' lines."""
    table = np.rec.fromarrays((vals, rows, cols))
    with open(path, "w", encoding="utf-8") as fh:
        np.savetxt(fh, table, fmt=("%.17g", "%d", "%d"),
                   header="shape %d %d" % (n_rows, n_cols), comments="# ")


def load_ratings_dataset(path):
    """Read C-contiguous (rows, cols, vals) and the shape R, C: the
    header's, else the largest indices + 1."""
    table, shape = _read_table(path, [("rating", "f8"), ("u", "i8"),
                                      ("v", "i8")], shape_line=True)
    rows, cols, vals = (table[f].copy() for f in ("u", "v", "rating"))
    if rows.min() < 0 or cols.min() < 0:
        raise ValueError(f"{path}: negative index")
    shape = shape or (int(rows.max()) + 1, int(cols.max()) + 1)
    if rows.max() >= shape[0] or cols.max() >= shape[1]:
        raise ValueError(f"{path}: an index exceeds the header shape {shape}")
    return rows, cols, vals, *shape
