import dataclasses
import json
import platform

import numpy as np
import pytest
import scipy

from oed.algorithms import BUCKETS, AlgoConfig, AlgoReport
from oed.bench import suite_configs
from oed.cli import main
from oed.config import (
    ProblemConfig,
    grid_from_levels,
    load_problem,
)
from oed.designs import Criterion, Design, criterion_value
from oed.exceptions import ConfigError, InvalidInputError
from oed.flash import METHANOL, WATER, FlashModel
from oed.report import emit_report, summary_objective
from oed.runner import _run, run_and_emit


def write_config(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


MINIMAL_FLASH_ADAGPR = {
    "model": "flash-meoh-water",
    "algorithm": "adagpr",
    "n_initial": 50,
}

QUADRATIC_YBT = {
    "model": "quadratic",
    "algorithm": "ybt",
    "criterion": "logD",
    "grid": {"levels": [[-1.0, -0.5, 0.0, 0.5, 1.0]]},
}

# Three grid points: fewer than the quadratic's default initial design of
# d_theta + 1 = 4 points.
THREE_POINT_YBT = {"model": "quadratic", "algorithm": "ybt",
                   "grid": {"points": [[-1.0], [0.0], [1.0]]}}

# A misspelt yeast option ("substrate_from"), and an option for a flash
# model, which takes none.
BAD_YEAST_OPTION = {"model": "yeast", "algorithm": "adagpr", "n_initial": 200,
                    "model_options": {"substrate_from": "classical"}}
BAD_FLASH_OPTION = dict(MINIMAL_FLASH_ADAGPR,
                        model_options={"theta_nominal": [0.0, 0.0, 0.0, 0.0]})

# A nominal parameter vector one entry short: the quadratic takes 3, yeast 4.
SHORT_QUADRATIC_THETA = dict(QUADRATIC_YBT, model_options={"theta_nominal": [1.0, 1.0]})
SHORT_YEAST_THETA = {"model": "yeast", "algorithm": "adagpr", "n_initial": 200,
                     "model_options": {"theta_nominal": [0.5, 0.5, 0.5]}}

class TestGridFromLevels:
    def test_product_expansion(self):
        grid = grid_from_levels([[0.0, 1.0], [5.0, 6.0, 7.0]])
        assert grid.shape == (6, 2)
        assert np.allclose(grid[0], [0.0, 5.0])
        assert np.allclose(grid[-1], [1.0, 7.0])

    def test_yeast_level_sets_expand_to_15552(self):
        levels = [[1, 10]] + [[0.05, 0.2]] * 5 + [[5, 20, 35]] * 5
        assert grid_from_levels(levels).shape == (15552, 11)

    def test_empty_dimension_rejected(self):
        with pytest.raises(ConfigError):
            grid_from_levels([[0.0], []])


class TestLoadProblem:
    def test_minimal_config_fills_defaults(self, tmp_path):
        cfg = load_problem(write_config(tmp_path, MINIMAL_FLASH_ADAGPR))
        assert cfg.epsilon == 1e-3
        assert cfg.seed == 0
        assert cfg.sigma_eps is None
        assert cfg.criterion is Criterion.LOGD
        assert cfg.max_iterations == 10_000
        assert cfg.algo_config() == dataclasses.replace(AlgoConfig(), n_initial=50)
        bare = {"model": "flash-meoh-water", "algorithm": "adagpr"}
        assert load_problem(write_config(tmp_path, bare)).algo_config() == AlgoConfig()

    def test_adagpr_with_grid_rejected(self, tmp_path):
        payload = dict(MINIMAL_FLASH_ADAGPR, grid={"points": [[0.5, 1.0]]})
        with pytest.raises(ConfigError):
            load_problem(write_config(tmp_path, payload))

    def test_grid_methods_require_grid(self, tmp_path):
        with pytest.raises(ConfigError):
            load_problem(write_config(tmp_path, {"model": "quadratic",
                                                 "algorithm": "vdm"}))

    def test_unknown_model(self, tmp_path):
        with pytest.raises(ConfigError):
            load_problem(write_config(tmp_path, {"model": "cstr",
                                                 "algorithm": "ybt"}))

    def test_unknown_keys_named(self, tmp_path):
        payload = dict(MINIMAL_FLASH_ADAGPR, gridd={"points": []})
        with pytest.raises(ConfigError, match="gridd"):
            load_problem(write_config(tmp_path, payload))

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"model": "quadratic",,}', encoding="utf-8")
        with pytest.raises(ConfigError, match="line 1"):
            load_problem(path)

    def test_grid_outside_bounds_rejected(self, tmp_path):
        payload = dict(QUADRATIC_YBT, grid={"points": [[-2.0], [0.0]]})
        with pytest.raises(ConfigError):
            load_problem(write_config(tmp_path, payload))

    def test_ragged_grid_points_rejected(self, tmp_path):
        payload = dict(QUADRATIC_YBT, grid={"points": [[0.0], [0.5, 1.0]]})
        with pytest.raises(ConfigError):
            load_problem(write_config(tmp_path, payload))

    def test_n_initial_floor(self, tmp_path):
        payload = dict(QUADRATIC_YBT, n_initial=2)
        with pytest.raises(ConfigError, match="n_initial"):
            load_problem(write_config(tmp_path, payload))

    @pytest.mark.parametrize("algorithm", ["vdm", "ybt", "adagpr"])
    def test_n_initial_floor_every_algorithm(self, algorithm):
        grid = None if algorithm == "adagpr" else np.zeros((5, 1))
        config = ProblemConfig(model="quadratic", algorithm=algorithm,
                               n_initial=3, grid=grid)
        with pytest.raises(ConfigError, match="n_initial"):
            config.build_model()
        with pytest.raises(ConfigError, match="n_initial"):
            _run(config, config.build_model())

    def test_grid_bounds_tolerance_matches_algorithms(self, tmp_path):
        # One tolerance, 1e-9, as in run_ybt: points 5e-10 outside the
        # bounds load and run, a point 2e-9 outside is rejected.
        inside = [[-1.0 - 5e-10], [-0.5], [0.0], [0.5], [1.0 + 5e-10]]
        cfg = load_problem(write_config(tmp_path, dict(
            QUADRATIC_YBT, grid={"points": inside})))
        assert _run(cfg, cfg.build_model()).termination == "epsilon"
        outside = inside + [[1.0 + 2e-9]]
        with pytest.raises(ConfigError, match="outside the design bounds"):
            load_problem(write_config(tmp_path, dict(
                QUADRATIC_YBT, grid={"points": outside})))

    def test_run_and_emit_builds_the_model_once(self, tmp_path, monkeypatch):
        built = []
        original = ProblemConfig.build_model

        def counting(self):
            built.append(self.model)
            return original(self)

        monkeypatch.setattr(ProblemConfig, "build_model", counting)
        cfg = load_problem(write_config(tmp_path, QUADRATIC_YBT))
        built.clear()
        run_and_emit(cfg, tmp_path / "out")
        assert built == ["quadratic"]

    def test_substrate_form_forwarded(self, tmp_path):
        payload = {"model": "yeast", "algorithm": "adagpr", "n_initial": 200,
                   "model_options": {"substrate_form": "classical"}}
        cfg = load_problem(write_config(tmp_path, payload))
        assert cfg.build_model().substrate_form == "classical"

    @pytest.mark.parametrize("payload", [BAD_YEAST_OPTION, BAD_FLASH_OPTION])
    def test_unknown_model_option_rejected(self, tmp_path, payload):
        with pytest.raises(ConfigError, match="unexpected keyword argument"):
            load_problem(write_config(tmp_path, payload))

    def test_summary_echoes_every_key_but_the_grid(self, tmp_path):
        payload = dict(QUADRATIC_YBT, epsilon=1e-4, max_iterations=500,
                       n_initial=4, seed=3, sigma_eps=[[2.0]], out_dir="elsewhere",
                       model_options={"theta_nominal": [1.0, 0.5, -2.0]})
        cfg = load_problem(write_config(tmp_path, payload))
        _, paths = run_and_emit(cfg, tmp_path / "out")
        echo = json.loads(paths["summary"].read_text())["problem"]
        expected = cfg.echo()
        assert echo == expected
        assert echo == {"model": "quadratic", "algorithm": "ybt",
                        "criterion": "logD", "epsilon": 1e-4,
                        "max_iterations": 500, "n_initial": 4, "seed": 3,
                        "sigma_eps": [[2.0]], "out_dir": "elsewhere",
                        "model_options": {"theta_nominal": [1.0, 0.5, -2.0]}}
        assert cfg.grid.shape == (5, 1)

    def test_sigma_eps_accepted(self, tmp_path):
        payload = dict(MINIMAL_FLASH_ADAGPR,
                       sigma_eps=[[1e-4, 0.0], [0.0, 1.0]])
        cfg = load_problem(write_config(tmp_path, payload))
        sigma = cfg.algo_config().sigma_eps
        assert np.allclose(sigma.precision, np.diag([1e4, 1.0]))


def _dummy_report(M=None, criterion=Criterion.LOGD):
    design = Design([[0.2, 1.0], [0.8, 3.0]], [0.25, 0.75])
    M = np.diag([10.0, 10.0]) if M is None else M
    return AlgoReport(
        design=design,
        clustered_design=design,
        objective=criterion_value(M, criterion),
        objective_trace=np.array([3.0, 2.0, 1.0]),
        iterations=3,
        jacobian_evals=12,
        timings=dict.fromkeys(BUCKETS, 0.0) | {"total": 1.0},
        termination="epsilon",
        criterion=criterion,
        information_matrix=M,
        warnings=[],
    )


class TestEmitReport:
    def test_log10_det_objective(self):
        assert summary_objective(_dummy_report()) == pytest.approx(2.0)

    def test_files_and_timing_keys(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        paths = emit_report(_dummy_report(), tmp_path / "out",
                            coord_names=["x_m", "P_bar"])
        summary = json.loads(paths["summary"].read_text())
        assert set(summary["timings"]) == {"jacobian", "phi_scan", "weights",
                                           "acquisition", "hyperparameters", "total"}
        assert summary["jacobian_evaluations"] == 12
        env = summary["environment"]
        assert set(env) == {"python", "numpy", "scipy", "OPENBLAS_NUM_THREADS",
                            "OMP_NUM_THREADS"}
        assert env["python"] == platform.python_version()
        for lib in (np, scipy):
            assert env[lib.__name__]["version"] == lib.__version__
            assert set(env[lib.__name__]) == {"version", "blas", "blas_version"}
            assert all(isinstance(v, str) for v in env[lib.__name__].values())
        assert env["OPENBLAS_NUM_THREADS"] == "2"
        assert env["OMP_NUM_THREADS"] is None
        header = paths["design"].read_text().splitlines()[0]
        assert header == "x_m,P_bar,weight"
        trace_lines = paths["trace"].read_text().splitlines()
        assert trace_lines[0] == "iteration,objective"
        assert len(trace_lines) == 4

    def test_emitted_weights_sum_to_one(self, tmp_path):
        paths = emit_report(_dummy_report(), tmp_path / "out")
        rows = paths["design"].read_text().splitlines()[1:]
        total = sum(float(r.split(",")[-1]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_non_d_criterion_reports_raw_value(self):
        report = _dummy_report(np.diag([2.0, 2.0]), criterion=Criterion.A)
        assert summary_objective(report) == pytest.approx(1.0)


class TestCli:
    def test_check_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, QUADRATIC_YBT)
        assert main(["check", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize("payload", [BAD_YEAST_OPTION, BAD_FLASH_OPTION])
    def test_check_unknown_model_option_exits_2(self, tmp_path, capsys, payload):
        path = write_config(tmp_path, payload)
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error" in err and next(iter(payload["model_options"])) in err

    def test_check_invalid_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"model": "quadratic", "algorithm": "vdm"})
        assert main(["check", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma_eps, message", [
        ([[1.0, 0.0], [0.0, -1.0]], "positive definite"),
        ([[1.0, 0.0], [0.0, 1.0]], "sigma_eps must be 1x1"),
        ([[1.0, 1.0], [1.0, 1.0 + 2.2e-16]], "covariance matrix must be positive definite"),
    ])
    def test_bad_sigma_eps_exits_2(self, tmp_path, capsys, sigma_eps, message):
        # Not positive definite (the last has eigenvalues 2 and 1.1e-16, so
        # it is singular by the relative rule), or 2x2 for the single-output
        # quadratic: both check and run refuse the file.
        path = write_config(tmp_path, dict(QUADRATIC_YBT, sigma_eps=sigma_eps))
        assert main(["check", str(path)]) == 2
        assert main(["run", str(path), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.count(message) == 2

    @pytest.mark.parametrize("payload, run_args, message", [
        (dict(QUADRATIC_YBT, seed=-1), [], "seed must be >= 0"),
        (QUADRATIC_YBT, ["--seed", "-2"], "seed must be >= 0"),
        (dict(THREE_POINT_YBT, n_initial=5), [], "fewer than the 5"),
        (THREE_POINT_YBT, [], "fewer than the 4"),
        (dict(QUADRATIC_YBT, epsilon=float("nan")), [], "epsilon must be positive"),
        (dict(QUADRATIC_YBT, algorithm="vdm", epsilon=float("inf")), [],
         "epsilon must be positive and finite"),
    ], ids=["seed", "seed-override", "grid-below-n-initial", "grid-below-default",
            "nan-epsilon", "infinite-epsilon"])
    def test_values_the_algorithms_cannot_use_exit_2(self, tmp_path, capsys,
                                                     payload, run_args, message):
        # A negative seed, a grid smaller than the initial design and a NaN
        # or infinite epsilon (JSON's Infinity would certify the random start
        # at iteration 1): check refuses the file (the --seed override is
        # run's own) and run refuses it before the algorithm starts.
        path = write_config(tmp_path, payload)
        assert main(["check", str(path)]) == (0 if run_args else 2)
        assert main(["run", str(path), *run_args,
                     "--out", str(tmp_path / "x")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("n_initial", 4.7), ("max_iterations", 2.5), ("seed", 1.9),
        ("max_iterations", "30"), ("epsilon", "0.001"),
        ("epsilon", True), ("seed", True),
    ], ids=["fractional-n-initial", "fractional-max-iterations", "fractional-seed",
            "string-max-iterations", "string-epsilon", "bool-epsilon", "bool-seed"])
    def test_numbers_of_the_wrong_kind_exit_2(self, tmp_path, capsys, key, value):
        # Integer keys take whole numbers and epsilon a real number; none of
        # them takes a bool or a string, which would otherwise be coerced.
        path = write_config(tmp_path, dict(QUADRATIC_YBT, **{key: value}))
        assert main(["check", str(path)]) == 2
        assert main(["run", str(path), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.count(f"{key} must be") == 2

    @pytest.mark.parametrize("payload, message", [
        (dict(QUADRATIC_YBT, out_dir=5), "out_dir must be a string, got 5"),
        (dict(SHORT_YEAST_THETA, model_options=[["y2_0", 0.2]]),
         "model_options must be a JSON object"),
    ], ids=["out-dir-number", "model-options-pairs"])
    def test_keys_of_the_wrong_type_exit_2(self, tmp_path, capsys, payload, message):
        # A number is no output directory, and a list of pairs is no object,
        # though Path() and dict() would otherwise take them apart later.
        path = write_config(tmp_path, payload)
        assert main(["check", str(path)]) == 2
        assert main(["run", str(path), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.count(message) == 2

    @pytest.mark.parametrize("payload, message", [
        (SHORT_QUADRATIC_THETA, "theta_nominal must have 3 entries, got 2"),
        (SHORT_YEAST_THETA, "theta_nominal must have 4 entries, got 3"),
    ], ids=["quadratic", "yeast"])
    def test_theta_nominal_of_the_wrong_length_exits_2(self, tmp_path, capsys,
                                                       payload, message):
        # check refuses the file, and run stops before the algorithm starts
        # instead of designing for the wrong parameter count.
        path = write_config(tmp_path, payload)
        assert main(["check", str(path)]) == 2
        assert main(["run", str(path), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.count(message) == 2

    @pytest.mark.parametrize("payload, message", [
        (dict(SHORT_YEAST_THETA, model_options={"theta_nominal": [float("nan"), 0.5, 0.5, 0.5]}),
         "theta_nominal must be finite"),
        (dict(QUADRATIC_YBT, model_options={"theta_nominal": [float("inf"), 1.0, 1.0]}),
         "theta_nominal must be finite"),
        *((dict(SHORT_YEAST_THETA, model_options={"y2_0": y2_0}), "y2_0 must be a finite")
          for y2_0 in ("abc", float("nan"), -1.0, True)),
    ], ids=["yeast-nan-theta", "quadratic-inf-theta", "y2_0-string", "y2_0-nan",
            "y2_0-negative", "y2_0-bool"])
    def test_model_options_the_model_cannot_use_exit_2(self, tmp_path, capsys,
                                                       payload, message):
        # A non-finite theta_nominal, and a y2_0 that is not a finite real
        # number >= 0 (a bool is not taken as one).
        path = write_config(tmp_path, payload)
        assert main(["check", str(path)]) == 2
        assert main(["run", str(path), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.count(message) == 2

    def test_flash_theta_nominal_of_the_wrong_length_rejected(self):
        # Flash problem files take no model options, so the constructor is
        # the one place a wrong-length NRTL vector can enter.
        with pytest.raises(InvalidInputError, match="must have 4 entries, got 3"):
            FlashModel((METHANOL, WATER), (1.0, 2.0, 3.0))

    def test_whole_floats_accepted_as_integers(self, tmp_path):
        path = write_config(tmp_path, dict(QUADRATIC_YBT, n_initial=4.0, seed=2.0,
                                           epsilon=1))
        config = load_problem(path)
        assert (config.n_initial, config.seed, config.epsilon) == (4, 2, 1.0)
        assert type(config.n_initial) is int and type(config.epsilon) is float

    def test_run_writes_reports(self, tmp_path, capsys):
        path = write_config(tmp_path, QUADRATIC_YBT)
        out = tmp_path / "run-out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert (out / "design.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "trace.csv").exists()

    def test_run_deterministic_outputs(self, tmp_path):
        path = write_config(tmp_path, QUADRATIC_YBT)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(path), "--seed", "7", "--out", str(out1)]) == 0
        assert main(["run", str(path), "--seed", "7", "--out", str(out2)]) == 0
        assert (out1 / "design.csv").read_bytes() == (out2 / "design.csv").read_bytes()

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        # A grid collapsed onto one point cannot yield an invertible start.
        payload = {"model": "quadratic", "algorithm": "vdm",
                   "grid": {"points": [[0.5]] * 20}}
        path = write_config(tmp_path, payload)
        assert main(["run", str(path), "--out", str(tmp_path / "x")]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_bench_unknown_suite_exits_2(self, capsys):
        assert main(["bench", "nope", "--out", "/tmp/unused"]) == 2
        err = capsys.readouterr().err
        for suite in ("quadratic", "flash-water", "flash-acetone", "yeast",
                      "yeast-classical", "all"):
            assert repr(suite) in err

    @pytest.mark.parametrize("command", ["check", "run"])
    def test_undecodable_problem_file_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    @pytest.mark.parametrize("argv", [["run", "{problem}", "--out", "{file}"],
                                      ["run", "{problem}", "--out", "{file}/sub"],
                                      ["bench", "quadratic", "--out", "{file}"]])
    def test_unusable_output_path_exits_2_before_the_run(self, tmp_path, capsys,
                                                         monkeypatch, argv):
        def never(*_):
            raise AssertionError("the algorithm ran")

        monkeypatch.setattr("oed.runner._run", never)
        afile = tmp_path / "afile"
        afile.write_text("not a directory", encoding="utf-8")
        problem = write_config(tmp_path, QUADRATIC_YBT)
        assert main([a.format(problem=problem, file=afile) for a in argv]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_d_at_a_tiny_det_writes_finite_strict_reports(self, tmp_path):
        # det M is about 1e-600 here: det M^-1 would overflow, -log det M does not.
        path = write_config(tmp_path, dict(QUADRATIC_YBT, criterion="D",
                                           sigma_eps=[[1e200]]))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()[1:]
        assert trace and all(np.isfinite(float(row.split(",")[1])) for row in trace)

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        summary = json.loads((tmp_path / "out" / "summary.json").read_text(),
                             parse_constant=reject)
        assert summary["objective"] == -summary["criterion_value"] / np.log(10.0)


# suite -> (model, substrate form, grid shape, ADA-GPR settings) at seed 3.
SUITE_PINS = {
    "quadratic": ("quadratic", None, (201, 1), {"n_initial": 10}),
    "flash-water": ("flash-meoh-water", None, (9191, 2), {"n_initial": 50}),
    "flash-acetone": ("flash-meoh-acetone", None, (9191, 2), {"n_initial": 50}),
    "yeast": ("yeast", "as-printed", (15552, 11),
              {"n_initial": 200, "max_iterations": 600}),
    "yeast-classical": ("yeast", "classical", (15552, 11),
                        {"n_initial": 200, "max_iterations": 600}),
}


def test_suite_run_names_echoes_and_grids_pinned():
    expected = []
    for suite, (model, form, shape, adagpr) in SUITE_PINS.items():
        options = {"model_options": {"substrate_form": form}} if form else {}
        for algorithm in ("vdm", "ybt", "adagpr"):
            echo = {"model": model, "algorithm": algorithm, "criterion": "logD",
                    "epsilon": 1e-3, "max_iterations": 10_000, "seed": 3,
                    **options}
            if algorithm == "adagpr":
                echo.update(adagpr)
            expected.append((f"{suite}-{algorithm}", echo,
                             None if algorithm == "adagpr" else shape))
    runs = suite_configs("all", 3)
    got = [(name, cfg.echo(), None if cfg.grid is None else cfg.grid.shape)
           for name, cfg in runs]
    assert got == expected
    assert [name for suite in SUITE_PINS
            for name, _ in suite_configs(suite, 3)] == [name for name, _ in runs]
