import dataclasses
import json

import numpy as np
import pytest

from oed.algorithms import AlgoConfig, AlgoReport, TimingBreakdown
from oed.cli import main
from oed.config import (
    ProblemConfig,
    config_from_dict,
    grid_from_levels,
    load_problem,
)
from oed.designs import Criterion, Design
from oed.exceptions import ConfigError
from oed.report import emit_report, summary_objective
from oed.runner import run_and_emit, run_problem


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

# A misspelt yeast option ("substrate_from"), and an option for a flash
# model, which takes none.
BAD_YEAST_OPTION = {"model": "yeast", "algorithm": "adagpr", "n_initial": 200,
                    "model_options": {"substrate_from": "classical"}}
BAD_FLASH_OPTION = dict(MINIMAL_FLASH_ADAGPR,
                        model_options={"theta_nominal": [0.0, 0.0, 0.0, 0.0]})


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
            run_problem(config)

    def test_grid_bounds_tolerance_matches_algorithms(self, tmp_path):
        # One tolerance, 1e-9, as in run_ybt: points 5e-10 outside the
        # bounds load and run, a point 2e-9 outside is rejected.
        inside = [[-1.0 - 5e-10], [-0.5], [0.0], [0.5], [1.0 + 5e-10]]
        cfg = load_problem(write_config(tmp_path, dict(
            QUADRATIC_YBT, grid={"points": inside})))
        assert run_problem(cfg).termination == "epsilon"
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

    def test_round_trip_of_normalized_config(self, tmp_path):
        cfg = load_problem(write_config(tmp_path, QUADRATIC_YBT))
        again = config_from_dict(cfg.normalized())
        assert again.normalized() == cfg.normalized()

    def test_sigma_eps_accepted(self, tmp_path):
        payload = dict(MINIMAL_FLASH_ADAGPR,
                       sigma_eps=[[1e-4, 0.0], [0.0, 1.0]])
        cfg = load_problem(write_config(tmp_path, payload))
        sigma = cfg.algo_config().sigma_eps
        assert np.allclose(sigma.precision, np.diag([1e4, 1.0]))


def _dummy_report(M=None, criterion=Criterion.D):
    design = Design([[0.2, 1.0], [0.8, 3.0]], [0.25, 0.75])
    return AlgoReport(
        design=design,
        clustered_design=design,
        objective=1.0,
        objective_trace=np.array([3.0, 2.0, 1.0]),
        iterations=3,
        jacobian_evals=12,
        timings=TimingBreakdown(total=1.0),
        termination="epsilon",
        criterion=criterion,
        information_matrix=np.diag([10.0, 10.0]) if M is None else M,
        warnings=[],
    )


class TestEmitReport:
    def test_log10_det_objective(self):
        assert summary_objective(_dummy_report()) == pytest.approx(2.0)

    def test_files_and_timing_keys(self, tmp_path):
        paths = emit_report(_dummy_report(), tmp_path / "out",
                            coord_names=["x_m", "P_bar"])
        summary = json.loads(paths["summary"].read_text())
        assert set(summary["timings"]) == {"jacobian", "weights", "acquisition",
                                           "hyperparameters", "total"}
        assert summary["jacobian_evaluations"] == 12
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
        report = _dummy_report(criterion=Criterion.A)
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
    ])
    def test_bad_sigma_eps_exits_2(self, tmp_path, capsys, sigma_eps, message):
        # Not positive definite, or 2x2 for the single-output quadratic:
        # both check and run refuse the file.
        path = write_config(tmp_path, dict(QUADRATIC_YBT, sigma_eps=sigma_eps))
        assert main(["check", str(path)]) == 2
        assert main(["run", str(path), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.count(message) == 2

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
