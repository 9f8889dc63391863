"""Benchmark suites reproducing the desk-scale case studies.

Suites pair the two chemical-engineering problems (two-component flash with
methanol-water or methanol-acetone feed; fed-batch yeast fermentation) and the
quadratic toy with the three algorithms, using the published grids: the flash
grid has 9191 points (101 methanol fractions x 91 pressures), the yeast grid
15552 points (2 x 2^5 x 3^5 levels), the toy a 201-point line. Runs are fully
seeded; repeating a suite with the same seed rewrites identical design files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .config import ALGORITHMS, ProblemConfig, grid_from_levels
from .exceptions import ConfigError
from .report import summary_objective
from .runner import run_and_emit


def quadratic_grid(n: int = 201) -> np.ndarray:
    return np.linspace(-1.0, 1.0, n)[:, None]


def flash_grid() -> np.ndarray:
    x_m = [i / 100.0 for i in range(101)]
    p_bar = [(10 + j) / 20.0 for j in range(91)]
    return grid_from_levels([x_m, p_bar])


def yeast_grid() -> np.ndarray:
    levels = ([[1.0, 10.0]] + [[0.05, 0.2]] * 5 + [[5.0, 20.0, 35.0]] * 5)
    return grid_from_levels(levels)


# suite -> (model, model options, grid builder, ADA-GPR settings); each suite
# runs every algorithm, VDM and YBT on the grid.
SUITES = {
    "quadratic": ("quadratic", {}, quadratic_grid, {"n_initial": 10}),
    "flash-water": ("flash-meoh-water", {}, flash_grid, {"n_initial": 50}),
    "flash-acetone": ("flash-meoh-acetone", {}, flash_grid, {"n_initial": 50}),
    "yeast": ("yeast", {"substrate_form": "as-printed"}, yeast_grid,
              {"n_initial": 200, "max_iterations": 600}),
    "yeast-classical": ("yeast", {"substrate_form": "classical"}, yeast_grid,
                        {"n_initial": 200, "max_iterations": 600}),
}


def suite_configs(suite: str, seed: int = 0):
    """Named (run-name, config) pairs for a benchmark suite, or for ``all``."""
    if suite == "all":
        return [run for name in SUITES for run in suite_configs(name, seed)]
    if suite not in SUITES:
        raise ConfigError(
            f"unknown suite {suite!r}; known: {sorted(SUITES) + ['all']}"
        )
    model, options, build_grid, adagpr = SUITES[suite]
    grid = build_grid()
    return [(f"{suite}-{algorithm}",
             ProblemConfig(model, algorithm, model_options=options, seed=seed,
                           **(adagpr if algorithm == "adagpr" else {"grid": grid})))
            for algorithm in ALGORITHMS]


def run_suite(suite: str, out_root, seed: int = 0, echo=print):
    """Run every problem of a suite, emitting reports under ``out_root/<name>``."""
    results = []
    for name, config in suite_configs(suite, seed):
        report, paths = run_and_emit(config, Path(out_root) / name)
        echo(f"{name}: objective={summary_objective(report):.4f} "
             f"iterations={report.iterations} "
             f"jacobians={report.jacobian_evals} "
             f"termination={report.termination}")
        results.append((name, report, paths))
    return results
