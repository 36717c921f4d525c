import numpy as np

from sparsevr.checks import fd_grad  # noqa: F401  (imported by the tests)


def long_gradient_descent(problem, x0=None, tol=1e-8, max_iter=500_000):
    """Full-gradient descent oracle at step 1/L until the gradient is tiny."""
    lip = problem.smoothness_hint()
    x = np.zeros(problem.d) if x0 is None else np.array(x0, dtype=np.float64)
    for _ in range(max_iter):
        g = problem.full_grad(x)
        if float(np.linalg.norm(g)) <= tol:
            break
        x = x - g / lip
    return x
