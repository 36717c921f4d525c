import ast
import os
from dataclasses import replace

import numpy as np
import pytest
from conftest import BAD_LABELED_FILES, BAD_RATINGS_FILES

from sparsevr import checks
from sparsevr.cli import (PRESETS, ConfigError, _atomic_write, build_aggregate,
                          build_problem, generate_dataset, main, parse_config,
                          read_run_csv, run_experiment)
from sparsevr.optimize import (HyperparamInputs, SgdConfig, run_sgd,
                               run_spiderboost_dense, worst_case_hyperparams)
from sparsevr.problems import (LeastSquaresProblem, LogisticProblem,
                               gen_low_rank_ratings, load_labeled_dataset)

MINIMAL = """
problem.kind = gaussian-ls
problem.n = 500
problem.d = 40
"""

SMALL_RUN = """
problem.kind = planted-sparse-ls
problem.n = 120
problem.d = 20
problem.s_active = 3
opt.algorithm = sparse-spiderboost,spiderboost
opt.eta = 0.3
opt.B = 40
opt.b = 8
opt.m = 5
opt.T = 6
opt.k1 = 2
opt.k2 = 2
run.seeds = 1,2,3
"""


class TestParseConfig:
    def test_minimal_spec_gets_documented_defaults(self):
        spec = parse_config(MINIMAL)
        assert spec["opt.eta"] == 0.1
        assert spec["opt.B"] == 1000
        assert spec["opt.b"] == 100
        assert spec["opt.m"] == 10
        assert spec["opt.alpha"] == 0.5
        # 5% of d for each half of the sparsity budget
        assert spec["opt.k1"] == 2 and spec["opt.k2"] == 2
        assert spec.algorithms == ["sparse-spiderboost"]

    def test_rejects_oversized_sparsity(self):
        with pytest.raises(ConfigError, match="k1"):
            parse_config(MINIMAL + "opt.k1 = 30\nopt.k2 = 30\n")

    def test_rejects_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(MINIMAL + "opt.eta = 0.1\nopt.eta = 0.2\n")

    def test_rejects_an_algorithm_listed_twice(self):
        # one run description, and one CSV, per algorithm
        with pytest.raises(ConfigError, match="listed twice"):
            parse_config(MINIMAL + "opt.algorithm = sgd,spiderboost,sgd\n")

    @pytest.mark.parametrize("line, bad, choices", [
        ("problem.kind = mystery", "'mystery'", "gaussian-ls, planted-sparse-ls"),
        ("opt.rule = best", "'best'", "none, worst-case, data-adaptive"),
        ("run.mode = fast", "'fast'", "impl, theory"),
        ("opt.algorithm = sgd,adam", "'adam'",
         "sparse-spiderboost, spiderboost, sgd")])
    def test_bad_choice_names_the_value_and_the_choices(self, line, bad,
                                                        choices):
        key = line.split(" = ")[0]
        text = "".join(ln + "\n" for ln in MINIMAL.splitlines()
                       if not ln.startswith(key))
        with pytest.raises(ConfigError, match=key) as err:
            parse_config(text + line + "\n")
        assert bad in str(err.value) and choices in str(err.value)

    def test_rejects_unknown_key_with_line_number(self):
        text = MINIMAL + "opt.learning_rate = 0.1\n"
        with pytest.raises(ConfigError, match="line 5.*opt.learning_rate"):
            parse_config(text)

    def test_rejects_bad_value_with_key_name(self):
        with pytest.raises(ConfigError, match="opt.m"):
            parse_config(MINIMAL + "opt.m = fast\n")

    def test_rejects_bad_bool_with_line_number(self):
        with pytest.raises(ConfigError, match="line 5: bad value"):
            parse_config(MINIMAL + "run.timing = maybe\n")

    def test_rejects_missing_required_key(self):
        with pytest.raises(ConfigError, match="problem.kind"):
            parse_config("problem.n = 10\nproblem.d = 2\n")

    def test_rejects_rule_without_epsilon(self):
        with pytest.raises(ConfigError, match="epsilon"):
            parse_config(MINIMAL + "opt.rule = worst-case\n")

    def test_rejects_zero_inner_loop_length(self):
        with pytest.raises(ConfigError, match="m and T"):
            parse_config(MINIMAL + "opt.m = 0\n")

    def test_rejects_alpha_outside_unit_interval(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(MINIMAL + "opt.alpha = 1.5\n")

    def test_comments_and_blanks_ignored(self):
        spec = parse_config("# a comment\n\n" + MINIMAL)
        assert spec.problem.n == 500

    def test_rule_resolution_produces_fragments(self):
        settings = ("opt.algorithm = sparse-spiderboost,spiderboost\n"
                    "opt.b = 10\nopt.alpha = 0.25\nopt.k1 = 3\nopt.k2 = 4\n"
                    "opt.eta_end = 0.01\nrun.mode = theory\n")
        spec = parse_config(MINIMAL + settings + "opt.rule = worst-case\n"
                                                 "opt.epsilon = 0.5\n")
        cfg = spec.runs["sparse-spiderboost"]
        ruleless = parse_config(MINIMAL + settings).runs["sparse-spiderboost"]
        assert ((cfg.B, cfg.m, cfg.eta, cfg.T)
                != (ruleless.B, ruleless.m, ruleless.eta, ruleless.T))
        assert cfg.B >= 10
        consts = spec._constants()
        d, n = spec.problem.d, spec.problem.n
        for alg, (k1, k2) in [("sparse-spiderboost", (3, 4)),
                              ("spiderboost", (0, d))]:
            run = spec.runs[alg]
            rule = worst_case_hyperparams(HyperparamInputs(
                epsilon=0.5, constants=consts, b=10, k1=k1, k2=k2, d=d, n=n))
            assert (run.B, run.m, run.eta, run.T) == (
                rule["B"], rule["m"], rule["eta"], rule["T"])
            assert (run.b, run.alpha, run.k1, run.k2, run.theory,
                    run.eta_end) == (10, 0.25, k1, k2, True, 0.01)

    def test_rule_solves_reference_once(self, monkeypatch):
        calls = []
        solve = LeastSquaresProblem.reference_minimum

        def counted(problem):
            calls.append(problem)
            return solve(problem)

        monkeypatch.setattr(LeastSquaresProblem, "reference_minimum", counted)
        spec = parse_config(MINIMAL + "opt.rule = data-adaptive\n"
                                      "opt.epsilon = 0.5\n"
                                      "opt.b = 10\n")
        assert len(calls) == 1
        assert spec.runs["sparse-spiderboost"].B >= 10

    def test_all_presets_parse(self):
        for name, text in PRESETS.items():
            spec = parse_config(text)
            assert spec.problem.n >= 1, name


class TestBuildProblem:
    def test_file_kind_requires_path(self):
        with pytest.raises(ConfigError, match="problem.path"):
            parse_config("problem.kind = ls-file\n")

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "data.txt"
        generate_dataset("planted-sparse-ls",
                         {"n": 50, "d": 8, "s_active": 2, "tau": 0.1,
                          "signal": 1.0, "noise": 0.05}, seed=3, path=str(path))
        spec = parse_config(f"problem.kind = ls-file\nproblem.path = {path}\n"
                            "opt.b = 10\nopt.B = 50\n")
        assert spec.problem.n == 50
        assert spec.problem.d == 8

    def test_ratings_file_round_trip(self, tmp_path):
        path = tmp_path / "ratings.txt"
        assert main(["gen", "--kind", "low-rank-ratings", "--rows", "9",
                     "--cols", "7", "--rank", "2", "--density", "0.5",
                     "--noise", "0.0", "--seed", "5", "--out", str(path)]) == 0
        spec = parse_config(f"problem.kind = ratings-file\nproblem.path = {path}\n"
                            "problem.rank = 2\nopt.b = 4\nopt.B = 20\n")
        rows, cols, vals, _, _ = gen_low_rank_ratings(9, 7, 2, seed=5,
                                                      density=0.5, noise=0.0)
        problem = spec.problem
        assert (problem.n_rows, problem.n_cols, problem.rank) == (9, 7, 2)
        assert np.array_equal(problem.rows, rows)
        assert np.array_equal(problem.cols, cols)
        assert np.array_equal(problem.vals, vals)

    def test_ratings_file_keeps_the_generated_shape(self, tmp_path):
        # At this density the last row and column hold no rating.
        path = tmp_path / "ratings.txt"
        assert main(["gen", "--kind", "low-rank-ratings", "--rows", "30",
                     "--cols", "20", "--density", "0.02", "--seed", "1",
                     "--out", str(path)]) == 0
        spec = parse_config(f"problem.kind = ratings-file\nproblem.path = {path}\n"
                            "opt.b = 2\nopt.B = 4\n")
        assert (spec.problem.n_rows, spec.problem.n_cols) == (30, 20)

    def test_logistic_file_round_trip(self, tmp_path):
        path = tmp_path / "blobs.txt"
        assert main(["gen", "--kind", "logistic-blobs", "--n", "40", "--d",
                     "4", "--seed", "2", "--out", str(path)]) == 0
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"problem.kind = logistic-file\nproblem.path = {path}\n"
                       "opt.B = 40\nopt.b = 4\nopt.m = 3\nopt.T = 2\n"
                       "opt.k1 = 1\nopt.k2 = 1\nrun.seeds = 1\n")
        spec = parse_config(cfg.read_text())
        assert isinstance(spec.problem, LogisticProblem)
        assert (spec.problem.n, spec.problem.d) == (40, 4)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_run_csv(str(out / "sparse-spiderboost_seed1.csv"))
        assert len(rows) == 2


class TestGenerateDataset:
    def test_same_seed_same_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        params = {"n": 30, "d": 5, "s_active": 2, "tau": 0.1, "signal": 1.0,
                  "noise": 0.05}
        generate_dataset("planted-sparse-ls", params, seed=7, path=str(p1))
        generate_dataset("planted-sparse-ls", params, seed=7, path=str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_logistic_labels_are_signs(self, tmp_path):
        path = tmp_path / "blobs.txt"
        generate_dataset("logistic-blobs", {"n": 40, "d": 4, "separation": 2.0},
                         seed=1, path=str(path))
        labels, feats = load_labeled_dataset(path)
        assert set(np.unique(labels)) <= {-1.0, 1.0}
        assert feats.shape == (40, 4)

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ConfigError):
            generate_dataset("mystery", {}, seed=0, path=str(tmp_path / "x"))

    @pytest.mark.parametrize("kind, params", [
        ("gaussian-ls", {"n": 30, "d": 5, "signal": 1.0, "noise": 0.1}),
        ("planted-sparse-ls", {"n": 30, "d": 5, "s_active": 2, "tau": 0.1,
                               "signal": 1.0, "noise": 0.05}),
        ("logistic-blobs", {"n": 30, "d": 5, "separation": 3.0}),
        ("low-rank-ratings", {"rows": 9, "cols": 7, "rank": 3,
                              "density": 0.5, "noise": 0.1}),
    ])
    def test_writes_the_percent_format_join(self, tmp_path, kind, params):
        path = tmp_path / "data.txt"
        generate_dataset(kind, params, seed=11, path=str(path))
        values = {f"problem.{key}": val for key, val in params.items()}
        values.update({"problem.kind": kind, "problem.seed": 11,
                       "problem.ridge": 0.0})
        problem = build_problem(values)
        if kind == "low-rank-ratings":
            lines = ["# shape %d %d" % (problem.n_rows, problem.n_cols)]
            lines += ["%.17g %d %d" % row for row in
                      zip(problem.vals, problem.rows, problem.cols)]
        else:
            lines = [" ".join("%.17g" % v for v in (t, *row))
                     for t, row in zip(problem.targets, problem.A)]
        assert path.read_bytes() == "".join(s + "\n" for s in lines).encode()


class TestBadDatasetFiles:
    """A dataset file the format rejects is a config error, not a crash."""

    @pytest.mark.parametrize("kind", ["ls-file", "logistic-file"])
    @pytest.mark.parametrize("name", sorted(BAD_LABELED_FILES))
    def test_labeled(self, tmp_path, kind, name):
        path = tmp_path / "bad.txt"
        path.write_text(BAD_LABELED_FILES[name])
        with pytest.raises(ConfigError):
            parse_config(f"problem.kind = {kind}\nproblem.path = {path}\n"
                         "opt.B = 1\nopt.b = 1\n")

    @pytest.mark.parametrize("name", sorted(BAD_RATINGS_FILES))
    def test_ratings(self, tmp_path, name):
        path = tmp_path / "bad.txt"
        path.write_text(BAD_RATINGS_FILES[name])
        with pytest.raises(ConfigError):
            parse_config(f"problem.kind = ratings-file\nproblem.path = {path}\n"
                         "problem.rank = 2\nopt.B = 1\nopt.b = 1\n")


class TestRunExperiment:
    def test_three_seeds_three_files_plus_aggregate(self, tmp_path):
        spec = parse_config(SMALL_RUN + f"run.out = {tmp_path}/out\n")
        status = run_experiment(spec)
        assert status == 0
        files = sorted(os.listdir(tmp_path / "out"))
        per_run = [f for f in files if f != "aggregate.csv"]
        assert len(per_run) == 6  # 2 algorithms x 3 seeds
        assert "aggregate.csv" in files

    def test_reruns_are_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        spec = parse_config(SMALL_RUN.replace("1,2,3", "1") +
                            f"run.out = {out}\n")
        run_experiment(spec)
        first = {f: (out / f).read_bytes() for f in os.listdir(out)}
        spec2 = parse_config(SMALL_RUN.replace("1,2,3", "1") +
                             f"run.out = {out}\n")
        run_experiment(spec2)
        second = {f: (out / f).read_bytes() for f in os.listdir(out)}
        assert first == second

    def test_aggregate_recomputable_from_per_run_files(self, tmp_path):
        out = tmp_path / "out"
        spec = parse_config(SMALL_RUN + f"run.out = {out}\n")
        run_experiment(spec)
        paths = [str(out / f) for f in os.listdir(out) if f != "aggregate.csv"]
        rebuilt = build_aggregate(paths, spec["run.bins"])
        assert rebuilt == (out / "aggregate.csv").read_text()

    def test_csv_header_and_schema(self, tmp_path):
        out = tmp_path / "out"
        spec = parse_config(SMALL_RUN.replace("1,2,3", "4") +
                            f"run.out = {out}\n")
        run_experiment(spec)
        text = (out / "sparse-spiderboost_seed4.csv").read_text()
        lines = text.splitlines()
        header_rows = [ln for ln in lines if ln.startswith("#")]
        assert any("algorithm = sparse-spiderboost" in ln for ln in header_rows)
        assert any("seed = 4" in ln for ln in header_rows)
        body = [ln for ln in lines if not ln.startswith("#")]
        assert body[0] == "j,N_j,queries_over_n,loss,grad_norm,entropy_bits,wall_ms"
        assert len(body) == 1 + 6  # header + T rows

    def test_bool_keys_fill_wall_ms_and_drop_grad_norm(self, tmp_path):
        out = tmp_path / "out"
        spec = parse_config(SMALL_RUN.replace("1,2,3", "1") +
                            f"run.out = {out}\nrun.timing = yes\n"
                            "run.record_grad_norm = false\n")
        assert run_experiment(spec) == 0
        lines = (out / "spiderboost_seed1.csv").read_text().splitlines()
        body = [ln.split(",") for ln in lines if not ln.startswith("#")]
        column = dict(zip(body[0], zip(*body[1:])))
        assert all(float(ms) >= 0 for ms in column["wall_ms"])
        assert set(column["grad_norm"]) == {""}

    def test_failed_write_leaves_no_temporary_file(self, tmp_path,
                                                    monkeypatch):
        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("sparsevr.cli.os.replace", fail)
        with pytest.raises(OSError, match="disk full"):
            _atomic_write(str(tmp_path / "run.csv"), "j\n1\n")
        assert os.listdir(tmp_path) == []

    def test_divergent_run_gives_nonzero_exit(self, tmp_path):
        cfg = SMALL_RUN.replace("opt.eta = 0.3", "opt.eta = 1e9")
        spec = parse_config(cfg.replace("1,2,3", "1") + f"run.out = {tmp_path}/o\n")
        assert run_experiment(spec) == 1

    def test_serial_cells_share_one_problem(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr("sparsevr.cli.build_problem",
                            lambda v: calls.append(v) or build_problem(v))
        spec = parse_config(SMALL_RUN + f"run.out = {tmp_path}/out\n")
        assert run_experiment(spec) == 0
        assert len(calls) == 1  # 2 algorithms x 3 seeds, built at parse time

    def test_parallel_jobs_match_serial(self, tmp_path):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        spec = parse_config(SMALL_RUN + f"run.out = {serial}\n")
        run_experiment(spec)
        spec2 = parse_config(SMALL_RUN + f"run.out = {parallel}\nrun.jobs = 3\n")
        run_experiment(spec2)
        for name in os.listdir(serial):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()


class TestMainEntrypoint:
    def test_gen_and_run_and_hyper(self, tmp_path, capsys):
        data = tmp_path / "data.txt"
        assert main(["gen", "--kind", "gaussian-ls", "--n", "60", "--d", "6",
                     "--seed", "2", "--out", str(data)]) == 0
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"problem.kind = ls-file\nproblem.path = {data}\n"
                       "opt.B = 30\nopt.b = 5\nopt.m = 4\nopt.T = 3\n"
                       "opt.eta = 0.3\n")
        assert main(["run", "--config", str(cfg), "--out",
                     str(tmp_path / "runs"), "--seed", "9"]) == 0
        assert (tmp_path / "runs" / "sparse-spiderboost_seed9.csv").exists()
        assert main(["hyper", "--rule", "worst-case", "--epsilon", "0.1",
                     "--L", "1", "--sigma2", "1", "--delta-f", "1",
                     "--n", "10000", "--d", "100", "--b", "10",
                     "--k1", "5", "--k2", "5"]) == 0
        out = capsys.readouterr().out
        assert "B=200" in out and "m=200" in out and "T=310" in out

    def test_run_rejects_bad_config(self, tmp_path):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("problem.kind = gaussian-ls\nproblem.n = 50\n"
                       "problem.d = 5\nopt.k1 = 9\nopt.k2 = 9\n")
        assert main(["run", "--config", str(cfg)]) == 2

    def test_run_rejects_bad_opt_value_before_creating_output(self, tmp_path):
        cfg = tmp_path / "bad.txt"
        out = tmp_path / "never"
        cfg.write_text(MINIMAL + "opt.alpha = 1.5\n")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_run_rejects_a_seed_listed_twice_before_creating_output(
            self, tmp_path, capsys):
        # one CSV per (algorithm, seed): a repeated seed would run twice and
        # count as two seeds in every aggregate row
        cfg = tmp_path / "cfg.txt"
        out = tmp_path / "never"
        cfg.write_text(SMALL_RUN.replace("run.seeds = 1,2,3",
                                         "run.seeds = 1,2,1"))
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "run.seeds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "opt.eta_decay = nan", "opt.eta_decay = 0", "opt.eta_decay = -1",
        "opt.steps = 0", "opt.steps = -3",
        "run.target_grad_norm = nan", "run.target_grad_norm = -1",
        "opt.eta = inf", "opt.eta_end = inf", "opt.eta_decay = inf",
        # SGD alone at b > n: rejected, not run at b = n
        "opt.algorithm = sgd\nopt.b = 121"])
    def test_run_rejects_bad_sgd_or_target_value_before_creating_output(
            self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.txt"
        out = tmp_path / "never"
        keys = [ln.split(" = ")[0] for ln in line.splitlines()]
        # the lines take the place of SMALL_RUN's own ones for their keys
        kept = [ln for ln in SMALL_RUN.replace(
                    "sparse-spiderboost,spiderboost",
                    "sparse-spiderboost,sgd").splitlines()
                if ln.split(" = ")[0] not in keys]
        cfg.write_text("\n".join(kept + [line]) + "\n")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert keys[-1].split(".")[1] in err and "duplicate" not in err
        assert not out.exists()

    def test_run_rejects_block_allocation_before_creating_output(
            self, tmp_path, capsys):
        # mlp-blobs has two layers, so every block needs one of the k2
        # random slots and k2 = 1 cannot be split.
        cfg = tmp_path / "cfg.txt"
        out = tmp_path / "never"
        cfg.write_text(PRESETS["mlp-blobs"].replace("opt.k2 = 10",
                                                    "opt.k2 = 1"))
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert ("config error: invalid opt.*/run.* values: k2=1 is too small"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_run_files_a_bad_target_under_both_key_groups(self, tmp_path,
                                                          capsys):
        cfg = tmp_path / "cfg.txt"
        out = tmp_path / "never"
        cfg.write_text(SMALL_RUN + "run.target_grad_norm = -1\n")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert ("config error: invalid opt.*/run.* values: target_grad_norm "
                "must be nonnegative" in capsys.readouterr().err)
        assert not out.exists()

    def test_run_flag_is_validated_before_creating_output(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        out = tmp_path / "never"
        cfg.write_text(SMALL_RUN)
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--jobs", "0"]) == 2
        assert not out.exists()

    def test_sgd_steps_and_decay(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        out = tmp_path / "sgd"
        text = (SMALL_RUN.replace("sparse-spiderboost,spiderboost", "sgd")
                .replace("1,2,3", "2") + "opt.steps = 40\nopt.eta_decay = 0.5\n")
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        spec = parse_config(text)
        _, record = run_sgd(SgdConfig(problem=spec.problem, eta=0.3, b=8,
                                      steps=40, seed=2, eta_decay=0.5))
        csv_text = (out / "sgd_seed2.csv").read_text()
        assert "# steps = 40" in csv_text and "# eta_decay = 0.5" in csv_text
        body = [ln.split(",") for ln in csv_text.splitlines()
                if not ln.startswith("#")][1:]
        assert [float(row[3]) for row in body] == [r.loss for r in record.rows]

    def test_check_verb_passes(self, capsys):
        assert main(["check"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.startswith("PASS") for line in lines)

    @pytest.mark.parametrize("entropy", [lambda v: 0.0, lambda v: 1 / 0],
                             ids=["requirement-fails", "criterion-raises"])
    def test_check_verb_reports_a_failing_criterion(self, monkeypatch, capsys,
                                                    entropy):
        monkeypatch.setattr(checks, "entropy_bits", entropy)
        assert main(["check"]) == 1
        lines = capsys.readouterr().out.splitlines()
        fails = [line.split(":")[0] for line in lines if line[:4] == "FAIL"]
        assert fails == ["FAIL criterion_03_entropy_base_pin"]
        passed = [line for line in lines if line.startswith("PASS")]
        assert len(passed) == 7 == len(lines) - 1
        assert any("criterion_09_" in line for line in passed)

    def test_checks_module_has_no_assert_statement(self):
        with open(checks.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        assert not [node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Assert)]

    def test_run_unknown_preset(self):
        assert main(["run", "--preset", "nope"]) == 2

    def test_mode_flag_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(SMALL_RUN.replace("1,2,3", "1"))
        out = tmp_path / "theory"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--mode", "theory"]) == 0
        text = (out / "sparse-spiderboost_seed1.csv").read_text()
        assert "# theory = True" in text


MLP_K2_1 = PRESETS["mlp-blobs"].replace("opt.k2 = 10", "opt.k2 = 1")


class TestOnlyTheRunsThatHappenAreValidated:
    """Each config was rejected when every run kind was validated, and
    before a rule's (B, m, eta, T) replaced the config's."""

    @pytest.mark.parametrize("text", [
        # k1 and k2 belong to the sparse run alone; the dense one runs at
        # k1=0, k2=d.
        MLP_K2_1.replace("sparse-spiderboost,spiderboost", "sgd"),
        MLP_K2_1.replace("sparse-spiderboost,spiderboost", "spiderboost"),
        # opt.steps is read by SGD alone.
        SMALL_RUN.replace("sparse-spiderboost,spiderboost",
                          "sparse-spiderboost") + "opt.steps = 0\n",
        # The rule's B is at least b.
        MINIMAL + "opt.rule = worst-case\nopt.epsilon = 0.5\n"
                  "opt.B = 5\nopt.b = 10\n",
    ], ids=["sgd-only-k2", "dense-only-k2", "sparse-only-steps", "rule-B"])
    def test_config_is_accepted_and_runs(self, tmp_path, text):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg), "--seed", "1",
                     "--out", str(tmp_path / "out")]) == 0
        assert "aggregate.csv" in os.listdir(tmp_path / "out")


class TestPresetsMove:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_run_ends_below_its_start(self, tmp_path, name):
        spec = parse_config(PRESETS[name], {"run.out": str(tmp_path)})
        assert run_experiment(spec) == 0
        x0 = np.zeros(spec.problem.d) if spec.x0 is None else spec.x0
        f0 = spec.problem.full_loss(x0)
        paths = [tmp_path / f for f in os.listdir(tmp_path)
                 if f != "aggregate.csv"]
        assert len(paths) == len(spec.algorithms) * len(spec["run.seeds"])
        for path in paths:
            _, rows = read_run_csv(path)
            assert rows[-1]["loss"] < f0, path.name

    def test_dense_mlp_hidden_units_differ(self):
        spec = parse_config(PRESETS["mlp-blobs"])
        x, _ = run_spiderboost_dense(replace(spec.runs["spiderboost"], seed=1))
        (w1, _), _ = spec.problem._unpack(x)
        # one column per hidden unit; a row with no spread means the units
        # receive that input alike
        assert w1.shape[1] == 16
        assert np.ptp(w1, axis=1).min() > 0


class TestBadInputIsOneLine:
    @pytest.mark.parametrize("argv", [
        ["run", "--config", "{tmp}/missing.txt", "--out", "{tmp}/out"],
        ["gen", "--kind", "gaussian-ls", "--n", "0", "--out", "{tmp}/x.txt"],
        ["gen", "--kind", "gaussian-ls", "--out", "{tmp}/nodir/x.txt"],
    ], ids=["missing-config", "gen-n-0", "gen-missing-dir"])
    def test_exit_2_and_no_output(self, tmp_path, capsys, argv):
        assert main([a.format(tmp=tmp_path) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert captured.err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    def test_run_out_is_an_existing_file(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_bytes(b"not a directory\n")
        assert main(["run", "--preset", "mlp-blobs", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert captured.err.count("\n") == 1
        assert out.read_bytes() == b"not a directory\n"

    @pytest.mark.parametrize("bad", [
        ["--epsilon", "0", "--L", "1", "--k1", "2", "--k2", "2"],
        ["--epsilon", "0.1", "--L", "1", "--k1", "2", "--k2", "0"],
        ["--epsilon", "0.1", "--L", "-1", "--k1", "2", "--k2", "2"],
    ], ids=["epsilon-0", "k2-0-below-d", "L-negative"])
    def test_hyper_exit_2_and_no_traceback(self, capsys, bad):
        argv = ["hyper", *bad, "--sigma2", "1", "--delta-f", "1", "--n", "100",
                "--d", "10", "--b", "5"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("epsilon, delta_f, says", [
        ("1e-300", "1", "underflows"),   # epsilon**2 is 0
        ("0.1", "inf", "T = inf"),       # T = ceil(inf)
    ], ids=["epsilon-squared-underflows", "delta-f-inf"])
    def test_hyper_overflow_exit_2(self, capsys, epsilon, delta_f, says):
        argv = ["hyper", "--epsilon", epsilon, "--L", "1", "--sigma2", "1",
                "--delta-f", delta_f, "--n", "100", "--d", "10", "--b", "5",
                "--k1", "2", "--k2", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert says in captured.err
        assert captured.err.count("\n") == 1

    def test_run_with_underflowing_epsilon_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.txt"
        out = tmp_path / "never"
        cfg.write_text(MINIMAL + "opt.rule = data-adaptive\n"
                                 "opt.epsilon = 1e-300\n")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "underflows" in err
        assert not out.exists()

    def test_theory_run_with_no_finite_geometric_draw_exit_2(self, tmp_path,
                                                           capsys):
        # m/(m+1) rounds to 1 at m = 10**16, so Geom(m) has no finite draw.
        cfg = tmp_path / "bad.txt"
        out = tmp_path / "never"
        cfg.write_text(MINIMAL + "opt.m = 10000000000000000\n"
                                 "run.mode = theory\n")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert captured.err.count("\n") == 1
        assert "m/(m+1) rounds to 1" in captured.err
        assert not out.exists()
