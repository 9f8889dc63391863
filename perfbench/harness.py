"""Passes, output checks and metrics of the oed benchmark.

A pass runs a workload's problems one after another through
``oed.runner.run_and_emit`` (a closed loop: one problem at a time, in one
process). Every run's reports are parsed back and checked; a run that raises,
writes reports that do not parse, or fails a check counts as failed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oed
import oed.runner
from oed.bench import suite_configs
from oed.designs import directional_derivatives, fisher_at_points

from tracer import Tracer

REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "reference.json").read_text())
# Acceptance criterion 3: flash VDM and YBT agree on log10 det M.
VDM_YBT_TOLERANCE = 2e-3
WEIGHT_SUM_TOLERANCE = 1e-9
# Layer self times must add up to the traced wall time within this share.
RECONCILE_TOLERANCE = 0.05

SELF_TIME_METRICS = {
    "models.jacobian": "models.jacobian.s",
    "designs.phi_scan": "designs.phi_scan.s",
    "designs.fisher": "designs.fisher.s",
    "designs.criterion": "designs.criterion.s",
    "weights": "weights.s",
    "gp.alpha_cv": "gp.alpha_cv.s",
    "gp.lml": "gp.lml.s",
    "gp.fit": "gp.fit.s",
    "acquisition": "acquisition.s",
    "algorithms": "algorithms.self_s",
    "report": "report.s",
    "config": "config.s",
    "runner": "runner.self_s",
}
COUNT_METRICS = (
    "models.jacobian.calls", "models.jacobian.points", "models.rejected",
    "designs.phi_scan.calls", "designs.phi_scan.rows",
    "weights.calls", "weights.candidates", "weights.iterations",
    "weights.unconverged",
    "gp.alpha_cv.calls", "gp.lml.calls", "gp.lml.train_points",
    "gp.fit.calls", "gp.fit.noise_bumps",
    "acquisition.calls", "acquisition.posterior_calls",
    "algorithms.iterations", "trace.hooks",
)


class CheckFailed(Exception):
    """A report that does not parse or a result that fails a check."""


@dataclass
class Run:
    """One problem run inside a pass.

    ``crashed`` runs raised and left no output; other failed runs produced
    output that failed a check.
    """

    name: str
    config: object
    wall_s: float
    report: object = None
    summary: dict = field(default_factory=dict)
    error: str | None = None
    crashed: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def algorithm(self) -> str:
        return self.config.algorithm


def _unbucketed(summary: dict) -> tuple[float, float]:
    """``total`` of the summary's timing buckets and the part in no bucket."""
    timings = {k: float(v) for k, v in summary["timings"].items()}
    total = timings.pop("total")
    return total, total - sum(timings.values())


def _read_report(paths) -> dict:
    """Parse a run's reports back and check them; returns the summary."""
    try:
        summary = json.loads(Path(paths["summary"]).read_text(encoding="utf-8"))
        design = Path(paths["design"]).read_text(encoding="utf-8").splitlines()
        trace = Path(paths["trace"]).read_text(encoding="utf-8").splitlines()
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in design[1:]])
        values = [float(line.split(",")[1]) for line in trace[1:]]
        values.append(float(summary["objective"]))
        _unbucketed(summary)
    except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckFailed(f"reports do not parse: {exc!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise CheckFailed("objective or its trace is not finite")
    if rows.ndim != 2 or rows.shape[0] == 0 or not np.all(np.isfinite(rows)):
        raise CheckFailed("design.csv has no finite rows")
    if abs(rows[:, -1].sum() - 1.0) > WEIGHT_SUM_TOLERANCE:
        raise CheckFailed(f"design weights sum to {rows[:, -1].sum()!r}")
    return summary


def _check_pass(runs, suite: str) -> None:
    """Cross-run checks; a failing check marks the runs it compares."""
    ok = {r.algorithm: r for r in runs if r.ok}
    if "vdm" in ok and "ybt" in ok:
        gap = abs(ok["vdm"].summary["objective"] - ok["ybt"].summary["objective"])
        if gap >= VDM_YBT_TOLERANCE:
            for r in (ok["vdm"], ok["ybt"]):
                r.error = f"VDM and YBT log10 det M differ by {gap:.3e}"
    tolerance = REFERENCE["adagpr_tolerance"].get(suite)
    if "adagpr" in ok and tolerance is not None:
        gap = (REFERENCE["log10_det_M"][suite]
               - ok["adagpr"].summary["objective"])
        if gap > tolerance:
            ok["adagpr"].error = (f"ADA-GPR log10 det M is {gap:.4f} below the "
                                  f"grid-YBT reference")


def run_pass(configs, suite: str, out_dir: Path, tracer: Tracer | None = None):
    """Run every problem once; returns the checked runs."""
    runs = []
    for name, config in configs:
        report = paths = error = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                report, paths = oed.runner.run_and_emit(config, out_dir / name)
            else:
                with tracer.root(name):
                    report, paths = oed.runner.run_and_emit(config,
                                                            out_dir / name)
        except Exception:
            error = traceback.format_exc()
        run = Run(name, config, time.perf_counter() - t0, report, error=error,
                  crashed=error is not None)
        if run.ok:
            try:
                run.summary = _read_report(paths)
            except CheckFailed as exc:
                run.error = str(exc)
        runs.append(run)
    _check_pass(runs, suite)
    return runs


class Auditor:
    """Equivalence-theorem certificate: min phi over the suite's grid.

    The grid's Fisher matrices are computed outside any timed region and
    cached in ``cache_dir``, keyed by the oed sources and the problem, so the
    yeast grid's 15,552 Jacobians are evaluated once per checkout, not once
    per benchmark run.
    """

    def __init__(self, suite: str, cache_dir: Path):
        self.suite = suite
        self.grid = next(c.grid for _, c in suite_configs(suite)
                         if c.grid is not None)
        self.cache_dir = cache_dir
        self._mus = {}

    def _grid_mus(self, config) -> np.ndarray:
        digest = hashlib.sha256(repr((self.suite, config.model,
                                      sorted(config.model_options.items()),
                                      config.sigma_eps)).encode())
        digest.update(self.grid.tobytes())
        for source in sorted(Path(oed.__file__).parent.rglob("*.py")):
            digest.update(source.read_bytes())
        path = self.cache_dir / f"audit-{digest.hexdigest()[:16]}.npy"
        if not path.exists():
            model = config.build_model()
            mus = fisher_at_points(model.jacobian_batch(self.grid),
                                   config.algo_config().sigma_eps)
            partial = path.with_suffix(".partial.npy")
            np.save(partial, mus)
            os.replace(partial, path)
        return np.load(path)

    def min_phi(self, run: Run) -> float:
        key = run.config.model
        if key not in self._mus:
            self._mus[key] = self._grid_mus(run.config)
        M = run.report.information_matrix
        return float(directional_derivatives(M, self._mus[key],
                                             run.report.criterion).min())


def describe(runs, label: str) -> list[str]:
    """One human-readable line per run."""
    lines = []
    for r in runs:
        if not r.ok:
            lines.append(f"{label} {r.name}: FAILED after {r.wall_s:.3f} s: "
                         f"{r.error.strip().splitlines()[-1]}")
            continue
        total, unbucketed = _unbucketed(r.summary)
        lines.append(f"{label} {r.name}: wall {r.wall_s:.3f} s, log10 det M "
                     f"{r.summary['objective']:.6f}, jacobians "
                     f"{r.report.jacobian_evals}, iterations "
                     f"{r.report.iterations} ({r.report.termination}), "
                     f"unbucketed {unbucketed:.3f} of {total:.3f} s")
    return lines


def pass_metrics(runs, suite: str) -> dict:
    """End-to-end figures of one pass.

    Quality figures are the worst over the pass's completed runs; a pass
    with no completed run has no design, so its efficiencies and Jacobian
    count read 0.
    """
    out = {"wall_s": sum(r.wall_s for r in runs), "jacobian_evals": 0,
           "d_eff": 0.0, "cert_eff": 0.0}
    ok = [r for r in runs if r.ok]
    if ok:
        reference = REFERENCE["log10_det_M"][suite]
        p = ok[0].report.information_matrix.shape[0]
        out["jacobian_evals"] = statistics.median(r.report.jacobian_evals
                                                  for r in ok)
        out["d_eff"] = min(10.0 ** ((r.summary["objective"] - reference) / p)
                           for r in ok)
        out["cert_eff"] = min(p / (p - r.summary["min_phi"]) for r in ok)
    return out


def _median_over(figures, key):
    return statistics.median(f[key] for f in figures)


def pass_configs(configs, index: int):
    """The configs of pass ``index``: each pass draws its own seed from the
    workload seed, so a run covers several random initial designs."""
    base = configs[0][1].seed
    seed = int(np.random.SeedSequence([base, index]).generate_state(1)[0])
    return [(name, dataclasses.replace(c, seed=seed)) for name, c in configs]


def _passes(configs, suite: str, seconds: float, out_dir: Path):
    """Untraced passes until ``seconds`` have elapsed (at least one)."""
    passes, lines = [], []
    start = time.perf_counter()
    while True:
        pass_runs = pass_configs(configs, len(passes))
        runs = run_pass(pass_runs, suite, out_dir / f"pass{len(passes)}")
        passes.append(runs)
        lines += describe(runs, f"pass {len(passes)} "
                                f"(seed {pass_runs[0][1].seed})")
        if time.perf_counter() - start >= seconds:
            return passes, lines


def measure(configs, suite: str, seconds: float, out_root: Path):
    """Untraced passes, then the certificates of their designs.

    Returns every run, the end-to-end figures of each pass, and lines.
    """
    with tempfile.TemporaryDirectory(dir=out_root) as tmp:
        passes, lines = _passes(configs, suite, seconds, Path(tmp))
    auditor = Auditor(suite, out_root)
    all_runs = [r for runs in passes for r in runs]
    for r in all_runs:
        if r.ok:
            r.summary["min_phi"] = auditor.min_phi(r)
    lines.append("certificates (min phi over the grid): " + ", ".join(
        f"{r.name} {r.summary['min_phi']:.3e}" for r in passes[-1] if r.ok))
    return all_runs, [pass_metrics(runs, suite) for runs in passes], lines


def end_to_end(all_runs, figures, setup_s: float) -> dict:
    attempted = len(all_runs)
    failed = sum(not r.ok for r in all_runs)
    return {
        "wall_s": (_median_over(figures, "wall_s"), "s"),
        "setup_s": (setup_s, "s"),
        "jacobian_evals": (_median_over(figures, "jacobian_evals"), "count"),
        "ok_share": ((attempted - failed) / attempted, "share"),
        "d_eff": (_median_over(figures, "d_eff"), "ratio"),
        "cert_eff": (_median_over(figures, "cert_eff"), "ratio"),
    }


def traced(configs, suite: str, seconds: float, out_root: Path,
           spans_path: Path, header: dict):
    """Untraced passes for ``seconds``, then pass 0 again, traced.

    Returns the runs, per-layer metrics, reconciliation errors and lines.
    """
    with tempfile.TemporaryDirectory(dir=out_root) as tmp:
        passes, lines = _passes(configs, suite, seconds, Path(tmp))
        tracer = Tracer()
        with tracer:
            runs = run_pass(pass_configs(configs, 0), suite,
                            Path(tmp) / "traced", tracer)
    lines += describe(runs, f"traced pass 1 (seed {runs[0].config.seed})")
    tracer.write(spans_path, header)

    metrics = {}
    self_times = tracer.self_times()
    for layer, name in SELF_TIME_METRICS.items():
        metrics[name] = (self_times.get(layer, 0.0), "s")
    for name in COUNT_METRICS:
        metrics[name] = (tracer.counts.get(name, 0), "count")
    new_points = tracer.counts.get("acquisition.new_points", 0)
    hits = tracer.counts.get("acquisition.hits", 0)
    metrics["acquisition.hit_ratio"] = (hits / new_points if new_points else 0.0,
                                        "share")
    metrics["report.bytes"] = (tracer.counts.get("report.bytes", 0), "B")

    traced_wall = sum(r.wall_s for r in runs)
    untraced_wall = sum(r.wall_s for r in passes[0])
    attributed = sum(self_times.values())
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.unattributed_share"] = (
        (traced_wall - attributed) / traced_wall, "share")
    metrics["trace.spans"] = (len(tracer.spans), "count")

    totals = [_unbucketed(r.summary) for r in passes[0] if r.ok]
    total = sum(t for t, _ in totals)
    unbucketed = sum(u for _, u in totals)
    metrics["summary.total_s"] = (total, "s")
    metrics["summary.unbucketed_s"] = (unbucketed, "s")
    metrics["summary.unbucketed_share"] = (unbucketed / total if total else 0.0,
                                           "share")

    errors = []
    points = tracer.counts.get("models.jacobian.points", 0)
    if all(r.report is not None for r in runs):  # a crashed run has no count
        evals = sum(r.report.jacobian_evals for r in runs)
        if points != evals:
            errors.append(f"traced model points {points} != reported "
                          f"Jacobian evaluations {evals}")
    if abs(traced_wall - attributed) > RECONCILE_TOLERANCE * traced_wall:
        errors.append(f"layer self times add up to {attributed:.3f} s of "
                      f"{traced_wall:.3f} s traced wall")
    all_runs = [r for untraced in passes for r in untraced] + runs
    return all_runs, metrics, errors, lines
