"""Record and compare the bits of the fast bench suites.

    python tools/bits.py record OUT.json
    python tools/bits.py diff A.json B.json

``record`` runs ``oed bench SUITE --seed 0`` for the quadratic, flash-water
and flash-acetone suites (VDM, YBT and ADA-GPR each) with the package under
``src/`` next to this script, in a temporary directory. For every run it
writes the SHA-256 of ``design.csv`` and ``trace.csv`` and the contents of
``summary.json`` without its ``timings`` and ``environment``: the objective
(JSON floats round-trip, so it is the objective's ``repr``), the criterion
value, iterations, Jacobian evaluations, termination, support size, warnings
and the problem echo. It also writes the SHA-256 of the model Jacobians over
the full grid of the flash-water, flash-acetone, yeast (as-printed) and
yeast-classical suites, so that a change in the Jacobian layer shows under its
own name (``jacobians.SUITE``).

``diff`` prints one line per artefact that differs between two records and
exits with status 1 if any does, 0 if none. Two records on one tree and one
machine must not differ; across machines the last bits may (BLAS builds and
CPUs round differently), so compare records made on the same machine.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUITES = ("quadratic", "flash-water", "flash-acetone")
JACOBIAN_SUITES = ("flash-water", "flash-acetone", "yeast", "yeast-classical")
SEED = 0
DROPPED = ("timings", "environment")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _jacobian_digests() -> dict:
    """``{suite: SHA-256 of its model's Jacobians over its full grid}``."""
    sys.path.insert(0, str(ROOT / "src"))
    from oed.bench import SUITES as BENCH_SUITES
    from oed.config import MODEL_BUILDERS

    digests = {}
    for suite in JACOBIAN_SUITES:
        model, options, build_grid, _ = BENCH_SUITES[suite]
        jacobians = MODEL_BUILDERS[model](**options).jacobian_batch(build_grid())
        digests[suite] = hashlib.sha256(jacobians.tobytes()).hexdigest()
    return digests


def record(out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for suite in SUITES:
            subprocess.run([sys.executable, "-m", "oed.cli", "bench", suite,
                            "--seed", str(SEED), "--out", tmp],
                           env=env, check=True)
        for run_dir in sorted(p for p in Path(tmp).iterdir() if p.is_dir()):
            summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
            for key in DROPPED:
                summary.pop(key, None)
            runs[run_dir.name] = {
                "design.csv": _sha256(run_dir / "design.csv"),
                "trace.csv": _sha256(run_dir / "trace.csv"),
                "summary": summary,
            }
    digests = _jacobian_digests()
    out.write_text(json.dumps(runs | {"jacobians": digests}, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {out}: {len(runs)} runs, {len(digests)} grid Jacobian digests")


def _flatten(node, prefix=""):
    """``{dotted.key: leaf}`` over nested dicts."""
    if not isinstance(node, dict):
        return {prefix: node}
    out = {}
    for key, value in node.items():
        out.update(_flatten(value, f"{prefix}.{key}" if prefix else key))
    return out


def diff(a: Path, b: Path) -> int:
    left = _flatten(json.loads(a.read_text(encoding="utf-8")))
    right = _flatten(json.loads(b.read_text(encoding="utf-8")))
    moved = [key for key in sorted(left.keys() | right.keys())
             if left.get(key, "<absent>") != right.get(key, "<absent>")]
    for key in moved:
        print(f"{key}: {left.get(key, '<absent>')!r} -> {right.get(key, '<absent>')!r}")
    print(f"{len(moved)} of {len(left.keys() | right.keys())} artefacts differ")
    return 1 if moved else 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 2 and args[0] == "record":
        record(Path(args[1]))
        return 0
    if len(args) == 3 and args[0] == "diff":
        return diff(Path(args[1]), Path(args[2]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
