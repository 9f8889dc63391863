"""Report emission: design table, run summary and objective trace files.

The design table lists the clustered support (original units, one row per
point); the summary reports the objective as log10(det M) for log-D, read
off the criterion value -log det M, alongside that value and the environment;
fixed number formats make identical runs write identical CSVs.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import numpy as np
import scipy

from .algorithms import AlgoReport
from .designs import Criterion
from .exceptions import InvalidInputError
from .flash import usable_cpus

_FMT = "%.12g"


def summary_objective(report: AlgoReport) -> float:
    """Headline objective: log10 det M for log-D, the criterion value otherwise."""
    if report.criterion is Criterion.LOGD:
        return -report.objective / np.log(10.0)
    return float(report.objective)


def _environment() -> dict:
    """Python, numpy and scipy versions, their BLAS builds, the BLAS thread
    variables (None when unset) and the CPU count that the flash solve splits
    its rows over: the last bits of a result may depend on all but the CPU
    count, its speed on all of them."""
    env = {"python": platform.python_version(), "cpus": usable_cpus()}
    for lib in (np, scipy):
        blas = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env[lib.__name__] = {"version": lib.__version__, "blas": blas["name"],
                             "blas_version": blas["version"]}
    return env | {var: os.environ.get(var)
                  for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)] + [",".join(_FMT % v for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def emit_report(report: AlgoReport, out_dir, coord_names=None,
                config_echo: dict | None = None) -> dict:
    """Write design.csv, summary.json and trace.csv; returns their paths."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        design_path = out / "design.csv"
        summary_path = out / "summary.json"
        trace_path = out / "trace.csv"

        design = report.clustered_design
        names = (list(coord_names) if coord_names is not None
                 else [f"x{i + 1}" for i in range(design.d_x)])
        if len(names) != design.d_x:
            raise InvalidInputError(
                f"{len(names)} coordinate names for {design.d_x} dimensions"
            )
        _write_csv(design_path, names + ["weight"],
                   np.column_stack([design.points, design.weights]))
        _write_csv(trace_path, ["iteration", "objective"],
                   enumerate(report.objective_trace, 1))

        summary = {
            "criterion": report.criterion.value,
            "objective": summary_objective(report),
            "criterion_value": report.objective,
            "iterations": report.iterations,
            "jacobian_evaluations": report.jacobian_evals,
            "termination": report.termination,
            "n_support": int(design.n_points),
            "timings": report.timings,
            "warnings": list(report.warnings),
            "environment": _environment(),
        }
        if config_echo is not None:
            summary["problem"] = config_echo
        summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                                encoding="utf-8")
    except OSError as exc:
        raise OSError(f"failed writing report under {out}: {exc}") from exc
    return {"design": design_path, "summary": summary_path, "trace": trace_path}
