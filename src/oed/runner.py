"""Dispatch a validated problem to its algorithm and persist the report."""

from __future__ import annotations

from pathlib import Path

from .algorithms import AlgoReport, run_adagpr, run_vdm, run_ybt
from .config import ProblemConfig
from .exceptions import ConfigError
from .models import ModelHandle
from .report import emit_report


def _run(config: ProblemConfig, model: ModelHandle) -> AlgoReport:
    algo_cfg = config.algo_config()
    if config.algorithm == "vdm":
        return run_vdm(model, config.grid, algo_cfg)
    if config.algorithm == "ybt":
        return run_ybt(model, config.grid, algo_cfg)
    return run_adagpr(model, algo_cfg)


def run_and_emit(config: ProblemConfig, out_dir):
    """Run the problem and write its report files; returns (report, paths).
    ``out_dir`` is created first, so an unusable path fails before the run."""
    model = config.build_model()
    try:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
    report = _run(config, model)
    paths = emit_report(report, out_dir, coord_names=model.coord_names,
                        config_echo=config.echo())
    return report, paths
