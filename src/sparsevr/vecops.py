"""Dense parameter vectors.

Every module passes gradients, iterates and operator outputs around as
plain 1-D float64 numpy arrays; `as_vector` is the validation helper that
enforces that contract, and `norm2_sq` is the squared norm the variance
formulas use.
"""

from __future__ import annotations

import numpy as np


def as_vector(values, dim: int | None = None) -> np.ndarray:
    """Validate and return a 1-D float64 vector with finite entries."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("expected a 1-D vector with at least one entry")
    if dim is not None and v.size != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.size}")
    if not np.isfinite(v).all():
        raise ValueError("vector contains NaN or Inf")
    return v


def norm2_sq(x: np.ndarray) -> float:
    """Squared Euclidean norm."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.dot(x, x))
