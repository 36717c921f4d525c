import ast
import os

import numpy as np
import pytest

from sparsevr import checks
from sparsevr.cli import (PRESETS, ConfigError, build_aggregate, build_problem,
                          generate_dataset, main, parse_config, run_experiment)
from sparsevr.optimize import run_sgd
from sparsevr.problems import (LeastSquaresProblem, gen_low_rank_ratings,
                               load_labeled_dataset)

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

    def test_rejects_unknown_key_with_line_number(self):
        text = MINIMAL + "opt.learning_rate = 0.1\n"
        with pytest.raises(ConfigError, match="line 5.*opt.learning_rate"):
            parse_config(text)

    def test_rejects_bad_value_with_key_name(self):
        with pytest.raises(ConfigError, match="opt.m"):
            parse_config(MINIMAL + "opt.m = fast\n")

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
        spec = parse_config(MINIMAL + "opt.rule = worst-case\n"
                                      "opt.epsilon = 0.5\n"
                                      "opt.b = 10\n")
        frag = spec.fragments["sparse-spiderboost"]
        assert set(frag) == {"B", "m", "eta", "T"}
        assert frag["B"] >= 10

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
        assert spec.fragments["sparse-spiderboost"]["B"] >= 10

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

    @pytest.mark.parametrize("line", [
        "opt.eta_decay = nan", "opt.eta_decay = 0", "opt.eta_decay = -1",
        "run.target_grad_norm = nan", "run.target_grad_norm = -1"])
    def test_run_rejects_bad_sgd_or_target_value_before_creating_output(
            self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.txt"
        out = tmp_path / "never"
        cfg.write_text(SMALL_RUN.replace("sparse-spiderboost,spiderboost",
                                         "sparse-spiderboost,sgd") + line + "\n")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        key = line.split(" = ")[0]
        assert key.split(".")[1] in capsys.readouterr().err
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
        _, record = run_sgd(0.3, 8, 40, spec.problem, 2, eta_decay=0.5)
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
        assert "# inner_mode = geometric" in text
        assert "# output_mode = uniform" in text
