"""The benchmark workloads: how each builds its data and its RunConfig.

Every workload is sized so that one (algorithm, seed) run takes at most a
couple of seconds on one core, so one run of the benchmark can repeat it
over many seeds and report medians.  `WHY` gives the reason for each
choice; BENCHMARK.json lists the workloads that are measured routinely, and
`layer_map.json` says which layer metrics each workload is meant to move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from sparsevr import (LeastSquaresProblem, MatrixFactorizationProblem,
                      MLPProblem, RunConfig)
from sparsevr.problems import (gen_class_blobs, gen_low_rank_ratings,
                               gen_planted_ls)


@dataclass
class Workload:
    """A built problem plus the RunConfig fields shared by both algorithms."""

    name: str
    problem: object
    config: dict
    x0: np.ndarray | None = None
    sizes: dict = field(default_factory=dict)

    def run_config(self, seed: int, **overrides) -> RunConfig:
        kw = dict(self.config, problem=self.problem, seed=seed, x0=self.x0)
        kw.update(overrides)
        return RunConfig(**kw)


def one_percent(d: int) -> int:
    return max(1, math.floor(0.01 * d))


def build_ls_target(seed: int) -> Workload:
    n, d = 10_000, 1_000
    a, b, _ = gen_planted_ls(n=n, d=d, s_active=10, seed=seed, tau=0.005,
                             noise=0.02)
    prob = LeastSquaresProblem(a, b)
    k = one_percent(d)
    cfg = dict(eta=0.35, m=10, T=60, B=1000, b=100, k1=k, k2=k,
               record_grad_norm=True, target_grad_norm=5e-4)
    return Workload("ls-target", prob, cfg,
                    sizes={"n": n, "d": d, "s_active": 10, "T_cap": 60})


def build_mlp_wide(seed: int) -> Workload:
    n, inputs, classes, hidden = 2000, 784, 10, 256
    # Wide class separation keeps the classes apart after the 1/sqrt(784)
    # input scaling, so both algorithms lower the loss within the fixed work.
    xs, labels = gen_class_blobs(n=n, d=inputs, classes=classes, seed=seed,
                                 separation=20.0)
    xs /= math.sqrt(inputs)
    prob = MLPProblem([inputs, hidden, classes], xs, labels)
    # At x = 0 every hidden unit is identical and dense steps never break
    # the symmetry, so start from a small seeded random point.
    x0 = 0.05 * np.random.default_rng([seed, 1]).standard_normal(prob.d)
    k = one_percent(prob.d)
    # At eta=0.1 the sparse run blew up (final loss 6 to 30) in 3 of 40 seeds
    # on some data; eta=0.05 showed no such run in 115 seeds.
    cfg = dict(eta=0.05, m=50, T=2, B=500, b=10, k1=k, k2=k,
               record_grad_norm=False)
    return Workload("mlp-wide", prob, cfg, x0=x0,
                    sizes={"n": n, "d": prob.d, "layers": [inputs, hidden, classes]})


def build_mf_ratings(seed: int) -> Workload:
    n_rows, n_cols, rank = 2000, 1000, 10
    rows, cols, vals, _, _ = gen_low_rank_ratings(
        n_rows, n_cols, rank=rank, seed=seed, density=0.05, noise=0.01)
    prob = MatrixFactorizationProblem(rows, cols, vals, n_rows, n_cols, rank,
                                      ridge=0.001)
    # x = 0 is a saddle of the factorization loss, so start from a seeded
    # random point instead.
    x0 = 0.3 * np.random.default_rng([seed, 1]).standard_normal(prob.d)
    k = one_percent(prob.d)
    # eta=4 makes about one sparse run in fifteen diverge; eta=2 showed no
    # divergence in 120 seeded runs.
    cfg = dict(eta=2.0, m=200, T=2, B=5000, b=50, k1=k, k2=k,
               record_grad_norm=False)
    return Workload("mf-ratings", prob, cfg, x0=x0,
                    sizes={"n": prob.n, "d": prob.d, "rows": n_rows,
                           "cols": n_cols, "rank": rank})


BUILDERS = {
    "ls-target": build_ls_target,
    "mlp-wide": build_mlp_wide,
    "mf-ratings": build_mf_ratings,
}

# How many times set-up is repeated (and timed) in one benchmark run; the
# median is reported.  Cheap set-ups repeat more so their median is steady.
SETUP_REPEATS = {"ls-target": 5, "mlp-wide": 15, "mf-ratings": 15}

WHY = {
    "ls-target": "paper's headline: sparse vs dense query units and wall-clock "
                 "to gradient norm 5e-4 on planted-sparse least squares; "
                 "full_grad/full_loss dominate",
    "mlp-wide": "d=203,530 MLP at k/d=1%: dense backprop inside the restricted "
                "oracle and the O(d) operator dominate a sparse inner step",
    "mf-ratings": "matrix factorization, n=100k, d=30k: cheap 2r-sparse oracle, "
                  "so batch sampling and O(d) bookkeeping dominate",
}
