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

from .config import ProblemConfig, grid_from_levels
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


def _quadratic_suite(seed):
    grid = quadratic_grid()
    return [
        ("quadratic-vdm", ProblemConfig("quadratic", "vdm", grid=grid, seed=seed)),
        ("quadratic-ybt", ProblemConfig("quadratic", "ybt", grid=grid, seed=seed)),
        ("quadratic-adagpr", ProblemConfig("quadratic", "adagpr", n_initial=10,
                                           seed=seed)),
    ]


def _flash_suite(variant, seed):
    model = f"flash-meoh-{variant}"
    grid = flash_grid()
    return [
        (f"flash-{variant}-vdm", ProblemConfig(model, "vdm", grid=grid, seed=seed)),
        (f"flash-{variant}-ybt", ProblemConfig(model, "ybt", grid=grid, seed=seed)),
        (f"flash-{variant}-adagpr", ProblemConfig(model, "adagpr", n_initial=50,
                                                  seed=seed)),
    ]


def _yeast_suite(substrate_form, seed):
    tag = "yeast" if substrate_form == "as-printed" else "yeast-classical"
    opts = {"substrate_form": substrate_form}
    grid = yeast_grid()
    return [
        (f"{tag}-vdm", ProblemConfig("yeast", "vdm", grid=grid,
                                     model_options=opts, seed=seed)),
        (f"{tag}-ybt", ProblemConfig("yeast", "ybt", grid=grid,
                                     model_options=opts, seed=seed)),
        (f"{tag}-adagpr", ProblemConfig("yeast", "adagpr", n_initial=200,
                                        model_options=opts, max_iterations=600,
                                        seed=seed)),
    ]


SUITES = {
    "quadratic": _quadratic_suite,
    "flash-water": lambda seed: _flash_suite("water", seed),
    "flash-acetone": lambda seed: _flash_suite("acetone", seed),
    "yeast": lambda seed: _yeast_suite("as-printed", seed),
    "yeast-classical": lambda seed: _yeast_suite("classical", seed),
}


def suite_configs(suite: str, seed: int = 0):
    """Named (run-name, config) pairs for a benchmark suite, or for ``all``."""
    if suite == "all":
        return [run for build in SUITES.values() for run in build(seed)]
    if suite not in SUITES:
        raise ConfigError(
            f"unknown suite {suite!r}; known: {sorted(SUITES) + ['all']}"
        )
    return SUITES[suite](seed)


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
