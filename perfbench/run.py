"""Benchmark of the oed design algorithms on the published suite configs.

    python3 perfbench/run.py --workload flash-grid --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. One process runs the workload's problems one after another (a
closed loop) with the BLAS thread count pinned before numpy is imported,
repeating whole passes until ``--seconds`` have elapsed (at least one pass).

``--trace 0`` prints the end-to-end metrics of the untraced passes.
``--trace 1`` runs the untraced passes, then one pass with every layer
wrapped (see ``tracer.py``), and prints per-layer metrics, the tracing
overhead and the reconciliation of the trace against the run's reports.
Spans are written to ``.perfbench-out/``. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads, and what the seed varies. Pass ``k`` of a run uses a config seed
drawn from the workload seed and ``k``, so a run covers several random initial
designs and the same seed always gives the same inputs:

* ``flash-grid``: flash-water VDM then YBT on the 9,191-point grid. VDM runs
  10,000 phi scans; each run makes one batched Jacobian call. The GP layer is
  idle. The seed picks the grid methods' random initial candidates.
* ``flash-adagpr``: flash-water ADA-GPR (n_initial=50). GP hyper-parameters
  dominate; the model is called one point at a time. ADA-GPR draws from an
  unscrambled Sobol stream, so the seed changes nothing.
* ``yeast-grid``: as-printed yeast YBT on the 15,552-point 11-D grid; RK4
  finite-difference Jacobians dominate. The seed picks the initial candidates.

End-to-end metrics (medians over passes):

* ``wall_s``: seconds from the configs being ready to every report being
  written, summed over the pass's runs.
* ``setup_s``: ``import oed``, building the configs and grids and one model
  per run, in a fresh interpreter; median of 1 + ``SETUP_CHILDREN`` probes.
* ``jacobian_evals``: Jacobian evaluations per completed run.
* ``ok_share``: completed, checked runs over runs attempted. A run fails if
  it raises, writes reports that do not parse, or fails a check (design
  weights sum to 1, finite objective, flash VDM and YBT agree within 2e-3,
  flash ADA-GPR within 0.05 of the grid-YBT reference). ``correct`` is false
  only when a run's output fails a check; a run that raises leaves no output
  and counts in ``failed``.
* ``d_eff``: worst D-efficiency of the pass's designs against the stored
  grid-YBT reference, ``10 ** ((log10 det M - reference) / p)``.
* ``cert_eff``: worst equivalence-theorem efficiency bound ``p / (p - min
  phi)``, min phi taken over the suite's grid after the timed passes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# (suite, run names) per workload; the runs are oed.bench.suite_configs'.
WORKLOADS = {
    "flash-grid": ("flash-water", ("flash-water-vdm", "flash-water-ybt")),
    "flash-adagpr": ("flash-water", ("flash-water-adagpr",)),
    "yeast-grid": ("yeast", ("yeast-ybt",)),
}
# The weight solver's iteration count depends on the BLAS thread count
# (flash-water ADA-GPR: 3,735 iterations with 2 threads, 42,287 with 1), so
# the count is part of each workload's definition.
BLAS_THREADS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is timed in this interpreter and in this many fresh ones.
SETUP_CHILDREN = 2


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    threads = min(BLAS_THREADS, nproc())
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def measure_setup(workload: str, seed: int):
    """Time ``import oed``, building the configs and grids, and the models.

    Meaningful only as the first use of numpy in the interpreter.
    """
    suite, names = WORKLOADS[workload]
    t0 = time.perf_counter()
    from oed.bench import suite_configs
    t1 = time.perf_counter()
    configs = [(n, c) for n, c in suite_configs(suite, seed) if n in names]
    for _, config in configs:
        config.build_model()
    t2 = time.perf_counter()
    if [n for n, _ in configs] != list(names):
        raise KeyError(f"suite {suite!r} lacks some of {names}")
    return {"import_s": t1 - t0, "config_s": t2 - t1}, configs


def setup_probes(workload: str, seed: int, first: dict) -> list[dict]:
    probes = [first]
    for _ in range(SETUP_CHILDREN):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        probes.append(json.loads(child.stdout.strip().splitlines()[-1]))
    return probes


def environment(threads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "nproc": nproc()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_blas_threads()
    if not (SRC / "oed" / "__init__.py").is_file():
        print(f"no oed sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    first, configs = measure_setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps(first))
        return 0

    import harness

    probes = setup_probes(args.workload, args.seed, first)
    env = environment(threads)
    print("environment " + json.dumps(env, sort_keys=True))
    print("setup probes " + json.dumps(probes))
    suite = WORKLOADS[args.workload][0]
    OUT.mkdir(exist_ok=True)
    if args.trace:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        runs, metrics, errors, lines = harness.traced(
            configs, suite, args.seconds, OUT, spans,
            {"workload": args.workload, "seed": args.seed, **env})
        for key in ("import_s", "config_s"):
            metrics[f"setup.{key}"] = (
                statistics.median(p[key] for p in probes), "s")
        lines += [f"reconciliation FAILED: {e}" for e in errors]
        lines.append(f"spans written to {spans.relative_to(ROOT)}")
    else:
        runs, figures, lines = harness.measure(configs, suite, args.seconds, OUT)
        setup_s = statistics.median(p["import_s"] + p["config_s"]
                                    for p in probes)
        metrics = harness.end_to_end(runs, figures, setup_s)
        errors = []
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    failed = sum(not r.ok for r in runs)
    print(json.dumps({
        "correct": all(r.ok or r.crashed for r in runs) and not errors,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
