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


# Dataset files that the text format rejects, by name: each must raise
# ValueError from its loader and ConfigError through a config.
BAD_LABELED_FILES = {
    "one column": "1\n2\n",
    "ragged": "1 2 3\n1 2\n",
    "non-numeric": "1 2 x\n",
    "empty": "",
    "blank lines only": "\n  \t\n",
    "a header line": "# shape 2 2\n1 2 3\n",
}
BAD_RATINGS_FILES = {
    "two columns": "1.5 3\n",
    "four columns": "1.5 3 0 1\n",
    "ragged": "1.5 3 0\n2.5 1\n",
    "non-numeric rating": "x 3 0\n",
    "empty": "",
    "header only": "# shape 3 2\n",
    "header and blank lines only": "# shape 3 2\n\n \n",
    "header too short": "# shape 3\n1.5 0 0\n",
    "header not a shape": "# size 3 2\n1.5 0 0\n",
    "header not integers": "# shape 3 x\n1.5 0 0\n",
    "header float": "# shape 3 2.0\n1.5 0 0\n",
    "header after a blank line": "\n# shape 3 2\n1.5 0 0\n",
    "float row index": "1.5 3.0 0\n",
    "exponent column index": "1.5 0 1e0\n",
    "negative row index": "1.5 -1 0\n",
    "negative column index": "1.5 0 -2\n",
    "row beyond the header": "# shape 3 2\n1.5 3 0\n",
    "column beyond the header": "# shape 3 2\n1.5 0 2\n",
}
