"""Command-line surface: dataset generation, experiments, and self-checks.

Verbs:
  gen    write a synthetic dataset to a text file
  run    execute an experiment described by a key=value config (or preset)
  check  run the exactness criteria 01-05 and 08-10 of sparsevr.checks,
         one PASS/FAIL line each
  hyper  print the calculator output for given accuracy and constants

Configs are flat `section.key = value` lines; unknown or duplicate keys
are rejected with their line number before any computation starts.  A
config is parsed into one checked config per algorithm
(`ExperimentSpec.runs`).  Each (algorithm, seed) cell runs its description
at that seed and writes one CSV whose '#' header echoes it; an aggregate
CSV keyed by queries-over-n bins is rebuilt from the per-run files
afterwards.  Bad input is one `config error:` line on stderr, exit status
2.  Set SPARSE_VR_LOG=DEBUG|INFO|... for logging verbosity.

Least-squares and logistic losses, and network gradients at wide shapes
(784-256-10, not the mlp-blobs preset's 12-16-3), can differ in their last
bits between BLAS thread counts, and a run's later rows inherit any such
difference through its iterates.  The package does not pin threads; set
OPENBLAS_NUM_THREADS=1 for CSVs that are bit-identical across machines.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import io
import logging
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from . import checks
from . import problems as prob_mod
from .optimize import (HyperparamInputs, RunConfig, SgdConfig,
                       data_adaptive_hyperparams, run_sgd,
                       run_sparse_spiderboost, run_spiderboost_dense,
                       worst_case_hyperparams)
from .problems import (LeastSquaresProblem, LogisticProblem,
                       MatrixFactorizationProblem, MLPProblem,
                       ProblemConstants, estimate_constants)

log = logging.getLogger("sparsevr")

ALGORITHMS = ("sparse-spiderboost", "spiderboost", "sgd")
PROBLEM_KINDS = ("gaussian-ls", "planted-sparse-ls", "logistic-blobs",
                 "mlp-blobs", "low-rank-ratings", "ls-file", "logistic-file",
                 "ratings-file")
GEN_KINDS = ("gaussian-ls", "planted-sparse-ls", "logistic-blobs",
             "low-rank-ratings")

CSV_HEADER = ["j", "N_j", "queries_over_n", "loss", "grad_norm",
              "entropy_bits", "wall_ms"]
AGG_HEADER = ["algorithm", "queries_over_n", "seeds", "loss_mean",
              "loss_median", "grad_norm_mean", "entropy_mean"]


class ConfigError(ValueError):
    pass


def _parse_bool(s):
    if s in ("true", "1", "yes"):
        return True
    if s in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true/false, got {s!r}")


def _parse_ints(s):
    return [int(v) for v in s.split(",") if v.strip() != ""]


def _one_of(*choices):
    """Parser of a value that must be one of `choices`."""
    def parse(s):
        if s not in choices:
            raise ValueError(f"got {s!r}, choices: {', '.join(choices)}")
        return s
    return parse


def _parse_algs(s):
    algs = [_one_of(*ALGORITHMS)(v.strip()) for v in s.split(",") if v.strip()]
    if not algs:
        raise ValueError("need at least one algorithm")
    if len(set(algs)) < len(algs):
        raise ValueError(f"an algorithm is listed twice in {s!r}")
    return algs


# The two parameter rules by their config name; opt.rule = none sets neither.
RULES = {"worst-case": worst_case_hyperparams,
         "data-adaptive": data_adaptive_hyperparams}


_REQUIRED = object()

# key -> (parser, default); _REQUIRED defaults are checked per problem kind.
_SCHEMA = {
    "problem.kind": (_one_of(*PROBLEM_KINDS), _REQUIRED),
    "problem.path": (str, None),
    "problem.n": (int, None),
    "problem.d": (int, None),
    "problem.s_active": (int, 5),
    "problem.tau": (float, 0.1),
    "problem.signal": (float, 1.0),
    "problem.noise": (float, 0.05),
    "problem.ridge": (float, 0.0),
    "problem.seed": (int, 0),
    "problem.separation": (float, 2.0),
    "problem.classes": (int, 3),
    "problem.hidden": (_parse_ints, [8]),
    "problem.rows": (int, 30),
    "problem.cols": (int, 20),
    "problem.rank": (int, 2),
    "problem.density": (float, 0.3),
    "opt.algorithm": (_parse_algs, ["sparse-spiderboost"]),
    "opt.eta": (float, 0.1),
    "opt.m": (int, 10),
    "opt.T": (int, 50),
    "opt.B": (int, 1000),
    "opt.b": (int, 100),
    "opt.alpha": (float, 0.5),
    "opt.k1": (int, None),
    "opt.k2": (int, None),
    "opt.rule": (_one_of("none", *RULES), "none"),
    "opt.epsilon": (float, None),
    "opt.steps": (int, None),
    "opt.eta_end": (float, None),
    "opt.eta_decay": (float, None),
    "run.seeds": (_parse_ints, [0]),
    "run.mode": (_one_of("impl", "theory"), "impl"),
    "run.out": (str, "runs"),
    "run.record_grad_norm": (_parse_bool, True),
    "run.timing": (_parse_bool, False),
    "run.bins": (int, 50),
    "run.jobs": (int, 1),
    "run.target_grad_norm": (float, None),
}

# The problem.* keys `gen` takes as flags, with their schema parsers and
# defaults; only n and d, which a config must set, have defaults of their own.
_GEN_KEYS = ("seed", "n", "d", "s_active", "tau", "signal", "noise",
            "separation", "rows", "cols", "rank", "density")
_GEN_DEFAULTS = {"n": 200, "d": 20}

# The scale of a seeded normal start for the kinds whose x = 0 traps every
# run: the factorization's gradient vanishes there, and a network's hidden
# units stay identical.  Other kinds start at x = 0.
_START_SCALE = {"mlp-blobs": 0.05, "low-rank-ratings": 0.3,
                "ratings-file": 0.3}


class ExperimentSpec:
    """A validated experiment: its config values, the problem they build,
    the start `x0` and `runs`, one run description per algorithm.  A
    SpiderBoost variant's is its RunConfig (the dense one's at k1=0, k2=d)
    with the rule's (B, m, eta, T) in place; SGD's is its SgdConfig.  Each
    is checked when built, here; a cell sets the seed."""

    def __init__(self, values: dict):
        self.values = values
        self.problem = build_problem(values)
        d = self.problem.d
        for key in ("opt.k1", "opt.k2"):
            if values[key] is None:
                values[key] = max(1, round(0.05 * d))
        self.algorithms = values["opt.algorithm"]
        self._validate()
        scale = _START_SCALE.get(values["problem.kind"])
        self.x0 = None if scale is None else scale * np.random.default_rng(
            [values["problem.seed"], 1]).standard_normal(d)
        rule = RULES.get(values["opt.rule"])
        consts = (self._constants()
                  if rule and set(self.algorithms) - {"sgd"} else None)
        self.runs = {alg: self._describe(alg, rule, consts)
                     for alg in self.algorithms}

    def __getitem__(self, key):
        return self.values[key]

    def _validate(self):
        """Checks that no run description makes."""
        v = self.values
        if v["opt.rule"] != "none" and v["opt.epsilon"] is None:
            raise ConfigError("opt.epsilon is required when opt.rule is set")
        if not v["run.seeds"]:
            raise ConfigError("run.seeds must list at least one seed")
        if len(set(v["run.seeds"])) < len(v["run.seeds"]):
            raise ConfigError(f"run.seeds lists a seed twice: {v['run.seeds']}")
        if v["run.bins"] < 1:
            raise ConfigError("run.bins must be positive")
        if v["run.jobs"] < 1:
            raise ConfigError("run.jobs must be positive")

    def _constants(self):
        """The problem's constants for the rule, probed first at x0, where
        delta_f is measured."""
        probes = [np.zeros(self.problem.d) if self.x0 is None else self.x0]
        ref = self.problem.reference_minimum()
        if ref is not None:
            x_star, _ = ref
            probes.append(x_star)
            probes.append(x_star + 2.0 * (probes[0] - x_star))
        return estimate_constants(self.problem, probes, ref)

    def _describe(self, alg: str, rule, consts):
        """The checked config of one algorithm."""
        v, problem = self.values, self.problem
        try:
            if alg == "sgd":
                steps = v["opt.steps"]
                return SgdConfig(
                    problem=problem, eta=v["opt.eta"], b=v["opt.b"],
                    steps=v["opt.m"] * v["opt.T"] if steps is None else steps,
                    x0=self.x0, eta_decay=v["opt.eta_decay"],
                    record_grad_norm=v["run.record_grad_norm"],
                    target_grad_norm=v["run.target_grad_norm"])
            k1, k2 = ((v["opt.k1"], v["opt.k2"]) if alg == "sparse-spiderboost"
                      else (0, problem.d))
            if rule:  # the rules parameterize the variance-reduced runs only
                fragment = rule(HyperparamInputs(
                    epsilon=v["opt.epsilon"], constants=consts, b=v["opt.b"],
                    k1=k1, k2=k2, d=problem.d, n=problem.n))
            else:
                fragment = {key: v[f"opt.{key}"]
                            for key in ("B", "m", "eta", "T")}
            return RunConfig(
                problem=problem, b=v["opt.b"], alpha=v["opt.alpha"], k1=k1,
                k2=k2, theory=v["run.mode"] == "theory",
                x0=self.x0, eta_end=v["opt.eta_end"],
                record_grad_norm=v["run.record_grad_norm"],
                target_grad_norm=v["run.target_grad_norm"], **fragment)
        except ValueError as exc:
            raise ConfigError(f"invalid opt.*/run.* values: {exc}") from exc


@contextlib.contextmanager
def _bad_input():
    """Re-raise a ValueError or OSError that bad input caused as ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(text: str, overrides: dict | None = None) -> ExperimentSpec:
    """Parse and fully validate a key=value config, its values replaced by
    `overrides` (parsed values, checked like config lines); no partial
    results.  Bad input of any kind raises ConfigError."""
    with _bad_input():
        values = _read_values(text)
        values.update(overrides or {})
        return ExperimentSpec(values)


def _read_values(text: str) -> dict:
    """Parsed config values, defaults filled in; not yet validated."""
    values = {}
    seen = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {ln}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {ln}: duplicate key {key!r} "
                              f"(first set on line {seen[key]})")
        seen[key] = ln
        parser, _ = _SCHEMA[key]
        try:
            values[key] = parser(val)
        except ValueError as exc:
            raise ConfigError(f"line {ln}: bad value for {key!r}: {exc}") from exc
    for key, (_, default) in _SCHEMA.items():
        if key not in values:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r}")
            values[key] = default
    return values


def build_problem(v: dict):
    """Construct the problem a config describes (also used by `gen`)."""
    kind = v["problem.kind"]
    seed = v["problem.seed"]
    ridge = v["problem.ridge"]

    def need(*keys):
        for k in keys:
            if v.get(k) is None:
                raise ConfigError(f"{k} is required for problem.kind={kind}")

    if kind in ("gaussian-ls", "planted-sparse-ls"):
        need("problem.n", "problem.d")
        if kind == "gaussian-ls":
            a, b, _ = prob_mod.gen_gaussian_ls(
                v["problem.n"], v["problem.d"], seed,
                signal_norm=v["problem.signal"], noise=v["problem.noise"])
        else:
            a, b, _ = prob_mod.gen_planted_ls(
                v["problem.n"], v["problem.d"], v["problem.s_active"], seed,
                signal_norm=v["problem.signal"], tau=v["problem.tau"],
                noise=v["problem.noise"])
        return LeastSquaresProblem(a, b, ridge)
    if kind == "logistic-blobs":
        need("problem.n", "problem.d")
        a, y = prob_mod.gen_logistic_blobs(v["problem.n"], v["problem.d"],
                                           seed, v["problem.separation"])
        return LogisticProblem(a, y, ridge)
    if kind == "mlp-blobs":
        need("problem.n", "problem.d")
        x, labels = prob_mod.gen_class_blobs(v["problem.n"], v["problem.d"],
                                             v["problem.classes"], seed,
                                             v["problem.separation"])
        layout = [v["problem.d"]] + list(v["problem.hidden"]) + [v["problem.classes"]]
        return MLPProblem(layout, x, labels)
    if kind == "low-rank-ratings":
        rows, cols, vals, _, _ = prob_mod.gen_low_rank_ratings(
            v["problem.rows"], v["problem.cols"], v["problem.rank"], seed,
            density=v["problem.density"], noise=v["problem.noise"])
        return MatrixFactorizationProblem(rows, cols, vals, v["problem.rows"],
                                          v["problem.cols"], v["problem.rank"],
                                          ridge)
    if kind in ("ls-file", "logistic-file", "ratings-file"):
        need("problem.path")
        if kind == "ratings-file":
            return MatrixFactorizationProblem(
                *prob_mod.load_ratings_dataset(v["problem.path"]),
                v["problem.rank"], ridge)
        labels, feats = prob_mod.load_labeled_dataset(v["problem.path"])
        model = LeastSquaresProblem if kind == "ls-file" else LogisticProblem
        return model(feats, labels, ridge)
    raise ConfigError(f"unknown problem kind {kind!r}")


# ---------------------------------------------------------------------------
# Experiment execution and CSV persistence
# ---------------------------------------------------------------------------

def _fmt(x):
    if x is None:
        return ""
    return "%.17g" % x


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# The settings a CSV echoes, per kind of run description.
_ECHO_KEYS = {RunConfig: ("B", "T", "alpha", "b", "eta", "eta_end", "k1",
                          "k2", "m", "theory"),
              SgdConfig: ("b", "eta", "eta_decay", "steps")}


def render_run_csv(run, record, timing: bool) -> str:
    """Per-run CSV of a cell of the run description `run`, with the
    description's settings and the record's algorithm, seed, n and d as
    '#' header comments."""
    echo = {key: getattr(run, key) for key in _ECHO_KEYS[type(run)]}
    echo.update(algorithm=record.algorithm, seed=record.seed, n=record.n,
                d=record.d)
    buf = io.StringIO()
    for key in sorted(echo):
        buf.write(f"# {key} = {echo[key]}\n")
    if record.aborted:
        buf.write(f"# aborted = {record.abort_reason}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in record.rows:
        writer.writerow([
            row.j, row.n_inner, _fmt(row.units / record.n), _fmt(row.loss),
            _fmt(row.grad_norm), _fmt(row.entropy),
            _fmt(row.wall_ms) if timing else "",
        ])
    return buf.getvalue()


def read_run_csv(path: str):
    """(algorithm, rows-as-dicts) from a per-run CSV."""
    algorithm = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh]
    body = []
    for ln in lines:
        if ln.startswith("#"):
            stripped = ln[1:].strip()
            if stripped.startswith("algorithm ="):
                algorithm = stripped.split("=", 1)[1].strip()
            continue
        body.append(ln)
    reader = csv.DictReader(body)
    for rec in reader:
        rows.append({
            "queries_over_n": float(rec["queries_over_n"]),
            "loss": float(rec["loss"]),
            "grad_norm": float(rec["grad_norm"]) if rec["grad_norm"] else None,
            "entropy_bits": float(rec["entropy_bits"]) if rec["entropy_bits"] else None,
        })
    return algorithm, rows


def build_aggregate(run_paths, bins: int) -> str:
    """Aggregate CSV keyed by queries-over-n bins; a pure function of the
    per-run CSVs (each run contributes its last row at or before each
    bin edge)."""
    runs = [read_run_csv(p) for p in sorted(run_paths)]
    max_q = 0.0
    for _, rows in runs:
        if rows:
            max_q = max(max_q, rows[-1]["queries_over_n"])
    edges = [max_q * (i + 1) / bins for i in range(bins)] if max_q > 0 else []
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(AGG_HEADER)
    algorithms = sorted({alg for alg, _ in runs if alg})
    for alg in algorithms:
        per_run = [rows for a, rows in runs if a == alg]
        for edge in edges:
            losses, grads, ents = [], [], []
            for rows in per_run:
                last = None
                for row in rows:
                    if row["queries_over_n"] <= edge * (1 + 1e-12):
                        last = row
                    else:
                        break
                if last is not None:
                    losses.append(last["loss"])
                    if last["grad_norm"] is not None:
                        grads.append(last["grad_norm"])
                    if last["entropy_bits"] is not None:
                        ents.append(last["entropy_bits"])
            if not losses:
                continue
            writer.writerow([
                alg, _fmt(edge), len(losses),
                _fmt(float(np.mean(losses))), _fmt(float(np.median(losses))),
                _fmt(float(np.mean(grads))) if grads else "",
                _fmt(float(np.mean(ents))) if ents else "",
            ])
    return buf.getvalue()


# Each algorithm's runner, which takes its run description.
RUNNERS = {"sparse-spiderboost": run_sparse_spiderboost,
           "spiderboost": run_spiderboost_dense, "sgd": run_sgd}


def _execute_run(run, algorithm: str, seed: int):
    """Run one (algorithm, seed) cell from the algorithm's run description."""
    return RUNNERS[algorithm](replace(run, seed=seed))[1]


# The experiment's run descriptions in a pool worker, set by _init_worker.
_worker_runs = None


def _init_worker(runs: dict) -> None:
    global _worker_runs
    _worker_runs = runs


def _execute_worker_run(algorithm: str, seed: int):
    return _execute_run(_worker_runs[algorithm], algorithm, seed)


def run_experiment(spec: ExperimentSpec) -> int:
    """Run every (algorithm, seed) cell, write per-run CSVs and the
    aggregate.  Returns 0 iff all runs completed without divergence."""
    out_dir = spec["run.out"]
    with _bad_input():
        os.makedirs(out_dir, exist_ok=True)
    cells = [(alg, seed) for alg in spec.algorithms for seed in spec["run.seeds"]]
    jobs = min(spec["run.jobs"], len(cells))
    records = {}
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=jobs, initializer=_init_worker,
                initargs=(spec.runs,)) as pool:
            futures = {pool.submit(_execute_worker_run, alg, seed): (alg, seed)
                       for alg, seed in cells}
            for fut in concurrent.futures.as_completed(futures):
                records[futures[fut]] = fut.result()
    else:
        for alg, seed in cells:
            records[(alg, seed)] = _execute_run(spec.runs[alg], alg, seed)

    timing = spec["run.timing"]
    paths = []
    status = 0
    for alg, seed in cells:  # deterministic write order
        record = records[(alg, seed)]
        path = os.path.join(out_dir, f"{alg}_seed{seed}.csv")
        _atomic_write(path, render_run_csv(spec.runs[alg], record, timing))
        paths.append(path)
        log.info("wrote %s (%d rows%s)", path, len(record.rows),
                 ", ABORTED" if record.aborted else "")
        if record.aborted:
            status = 1
    agg = build_aggregate(paths, spec["run.bins"])
    _atomic_write(os.path.join(out_dir, "aggregate.csv"), agg)
    return status


def generate_dataset(kind: str, params: dict, seed: int, path: str) -> None:
    """Write one synthetic dataset to `path` (deterministic given seed)."""
    if kind not in GEN_KINDS:
        raise ConfigError(f"unknown dataset kind {kind!r} (choices: {GEN_KINDS})")
    values = {f"problem.{key}": val for key, val in params.items()}
    values.update({"problem.kind": kind, "problem.seed": seed,
                   "problem.ridge": 0.0})
    problem = build_problem(values)
    if isinstance(problem, MatrixFactorizationProblem):
        prob_mod.save_ratings_dataset(path, problem.rows, problem.cols,
                                      problem.vals, problem.n_rows,
                                      problem.n_cols)
    else:
        prob_mod.save_labeled_dataset(path, problem.targets, problem.A)


# ---------------------------------------------------------------------------
# Presets: desk-scale experiment families with documented expected behavior
# ---------------------------------------------------------------------------

PRESETS = {
    # Sparse variant reaches the gradient-norm target in fewer query units
    # than the dense one on planted-sparse data.
    "sparse-vs-dense-least-squares": """
problem.kind = planted-sparse-ls
problem.n = 4000
problem.d = 100
problem.s_active = 5
problem.tau = 0.1
problem.noise = 0.02
problem.signal = 1.0
opt.algorithm = sparse-spiderboost,spiderboost
opt.rule = data-adaptive
opt.epsilon = 0.05
opt.b = 10
opt.k1 = 5
opt.k2 = 5
run.seeds = 1,2,3
run.target_grad_norm = 0.05
run.out = runs-sparse-vs-dense
""",
    # With k1+k2 = 10% of d the sparse variant spends 10% of the dense
    # query units per inner step and 28% per outer loop (queries_over_n
    # 0.28 against 1.0 after loop 1).  Seeds 1-3: its loss rises to 1.9 on
    # seed 1, then ends at 0.20-0.32; dense and SGD end at 0.17-0.18.  No
    # run of seeds 1-40 ends above its start, as sparse ones did at eta 0.5.
    "logistic-desk": """
problem.kind = logistic-blobs
problem.n = 2000
problem.d = 60
problem.separation = 3.0
problem.ridge = 0.001
opt.algorithm = sparse-spiderboost,spiderboost,sgd
opt.eta = 0.3
opt.B = 400
opt.b = 20
opt.m = 40
opt.k1 = 3
opt.k2 = 3
opt.T = 30
run.seeds = 1,2,3
run.out = runs-logistic
""",
    # Small net on class blobs.  Both variants end near loss 0.24; the
    # entropy of the sparse run's memory vector rises, from 6.5 to 7.4 bits
    # on seed 1.
    "mlp-blobs": """
problem.kind = mlp-blobs
problem.n = 400
problem.d = 12
problem.classes = 3
problem.hidden = 16
opt.algorithm = sparse-spiderboost,spiderboost
opt.eta = 0.4
opt.B = 200
opt.b = 20
opt.m = 10
opt.k1 = 10
opt.k2 = 10
opt.T = 40
run.seeds = 1,2
run.out = runs-mlp
""",
    # Squared-loss factorization with the linear inner-loop learning-rate
    # interpolation; both variants end near loss 0.054.
    "matrix-factorization": """
problem.kind = low-rank-ratings
problem.rows = 40
problem.cols = 30
problem.rank = 3
problem.density = 0.4
problem.noise = 0.01
problem.ridge = 0.001
opt.algorithm = sparse-spiderboost,spiderboost
opt.eta = 0.8
opt.eta_end = 0.2
opt.B = 240
opt.b = 24
opt.m = 10
opt.k1 = 10
opt.k2 = 11
opt.T = 60
run.seeds = 1,2
run.out = runs-mf
""",
}


# ---------------------------------------------------------------------------
# argparse wiring
# ---------------------------------------------------------------------------

def _setup_logging():
    level = os.environ.get("SPARSE_VR_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _cmd_gen(args) -> int:
    params = {key: getattr(args, key) for key in _GEN_KEYS}
    seed = params.pop("seed")
    with _bad_input():
        generate_dataset(args.kind, params, seed, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_run(args) -> int:
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}; available: "
                              f"{', '.join(sorted(PRESETS))}")
        text = PRESETS[args.preset]
    elif args.config:
        with _bad_input(), open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        raise ConfigError("run needs --config PATH or --preset NAME")
    flags = {"run.seeds": None if args.seed is None else [args.seed],
             "run.out": args.out, "run.jobs": args.jobs, "run.mode": args.mode}
    spec = parse_config(text, {k: v for k, v in flags.items() if v is not None})
    return run_experiment(spec)


def _cmd_check(_args) -> int:
    failed = 0
    for criterion in checks.CRITERIA:
        try:
            status, detail = "PASS", criterion()
        except Exception as exc:  # a crash is a failure, not an error
            status, detail = "FAIL", f"{type(exc).__name__}: {exc}"
            failed += 1
        print(f"{status} {criterion.__name__}: {detail}")
    return 1 if failed else 0


def _cmd_hyper(args) -> int:
    with _bad_input():
        consts = ProblemConstants(L=args.L, sigma2=args.sigma2,
                                  delta_f=args.delta_f, f_star=0.0,
                                  f_star_exact=False)
        inp = HyperparamInputs(epsilon=args.epsilon, constants=consts,
                               b=args.b, k1=args.k1, k2=args.k2, d=args.d,
                               n=args.n)
        frags = {rule: RULES[rule](inp)
                 for rule in (RULES if args.rule == "both" else [args.rule])}
    for rule, frag in frags.items():
        print(f"{rule}: B={frag['B']} m={frag['m']} eta={frag['eta']:.6g} "
              f"T={frag['T']}")
    return 0


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(prog="sparsevr",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    p_gen = sub.add_parser("gen", help="write a synthetic dataset")
    p_gen.add_argument("--kind", required=True, choices=GEN_KINDS)
    p_gen.add_argument("--out", required=True)
    for key in _GEN_KEYS:
        parse, default = _SCHEMA[f"problem.{key}"]
        p_gen.add_argument("--" + key.replace("_", "-"), dest=key, type=parse,
                           default=_GEN_DEFAULTS.get(key, default))
    p_gen.set_defaults(func=_cmd_gen)

    p_run = sub.add_parser("run", help="run an experiment")
    p_run.add_argument("--config", help="key=value config file")
    p_run.add_argument("--preset", help=f"one of: {', '.join(sorted(PRESETS))}")
    p_run.add_argument("--seed", type=int, help="override run.seeds with one seed")
    p_run.add_argument("--jobs", type=int, help="parallel runs")
    p_run.add_argument("--out", help="output directory")
    p_run.add_argument("--mode", choices=("theory", "impl"))
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check", help="run the exactness criteria "
                                           "01-05 and 08-10 of sparsevr.checks")
    p_check.set_defaults(func=_cmd_check)

    p_hyper = sub.add_parser("hyper", help="print calculator output")
    p_hyper.add_argument("--rule", default="both",
                         choices=(*RULES, "both"))
    p_hyper.add_argument("--epsilon", type=float, required=True)
    p_hyper.add_argument("--L", type=float, required=True)
    p_hyper.add_argument("--sigma2", type=float, required=True)
    p_hyper.add_argument("--delta-f", dest="delta_f", type=float, required=True)
    p_hyper.add_argument("--n", type=int, required=True)
    p_hyper.add_argument("--d", type=int, required=True)
    p_hyper.add_argument("--b", type=int, required=True)
    p_hyper.add_argument("--k1", type=int, required=True)
    p_hyper.add_argument("--k2", type=int, required=True)
    p_hyper.set_defaults(func=_cmd_hyper)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
