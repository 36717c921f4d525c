"""Variance-reduced stochastic optimization with sparse gradient corrections."""

from .diagnostics import (QueryMeter, SparsityCapture, entropy_bits,
                          estimate_estimator_variance, measure_g_G)
from .optimize import (HyperparamInputs, RunConfig, RunRecord, SgdConfig,
                       allocate_block_sparsity, data_adaptive_hyperparams,
                       run_sgd, run_sparse_spiderboost, run_spiderboost_dense,
                       worst_case_hyperparams)
from .problems import (FiniteSumProblem, LeastSquaresProblem, LogisticProblem,
                       MatrixFactorizationProblem, MLPProblem,
                       ProblemConstants, estimate_constants)
from .sampling import (RngStream, check_geom_lemma, draw_geometric_many,
                       sample_batch)
from .sparsity import (SparsityParams, rtop, rtop_enumerate, select_top_k1,
                       top_neg_k1)
from .vecops import norm2_sq

__version__ = "0.1.0"

__all__ = [
    "QueryMeter", "SparsityCapture", "entropy_bits",
    "estimate_estimator_variance", "measure_g_G",
    "HyperparamInputs", "RunConfig", "RunRecord", "SgdConfig",
    "allocate_block_sparsity", "data_adaptive_hyperparams", "run_sgd",
    "run_sparse_spiderboost", "run_spiderboost_dense", "worst_case_hyperparams",
    "FiniteSumProblem", "LeastSquaresProblem", "LogisticProblem",
    "MatrixFactorizationProblem", "MLPProblem", "ProblemConstants",
    "estimate_constants",
    "RngStream", "check_geom_lemma", "draw_geometric_many", "sample_batch",
    "SparsityParams", "rtop", "rtop_enumerate", "select_top_k1", "top_neg_k1",
    "norm2_sq",
]
