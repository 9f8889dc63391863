"""Command-line interface.

Subcommands:
  oed run <config.json> [--seed N] [--out DIR]   run one problem, emit reports
  oed check <config.json>                        validate a problem file
  oed bench <suite> [--out DIR] [--seed N]       run a benchmark suite

Exit codes: 0 success, 2 configuration/validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import SUITES, run_suite
from .config import load_problem
from .exceptions import ConfigError, InvalidInputError, OedError
from .report import summary_objective
from .runner import run_and_emit

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oed",
        description="Locally optimal continuous experimental designs "
                    "(VDM, YBT, ADA-GPR).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a problem file and emit reports")
    run_p.add_argument("config", help="path to the problem JSON file")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the RNG seed from the file")
    run_p.add_argument("--out", default=None,
                       help="output directory (default: from the file, else "
                            "./oed-out/<model>-<algorithm>)")

    check_p = sub.add_parser("check", help="validate a problem file")
    check_p.add_argument("config", help="path to the problem JSON file")

    bench_p = sub.add_parser("bench", help="run a benchmark suite")
    bench_p.add_argument("suite", help="suite name: " + ", ".join([*SUITES, "all"]))
    bench_p.add_argument("--out", default="oed-bench",
                         help="output root directory (default: ./oed-bench)")
    bench_p.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_run(args) -> int:
    config = load_problem(args.config)
    if args.seed is not None:
        config.seed = args.seed
    out_dir = args.out or config.out_dir or \
        Path("oed-out") / f"{config.model}-{config.algorithm}"
    report, paths = run_and_emit(config, out_dir)
    print(f"objective={summary_objective(report):.6g} "
          f"iterations={report.iterations} "
          f"jacobians={report.jacobian_evals} "
          f"termination={report.termination}")
    print(f"wrote {paths['design']}, {paths['summary']}, {paths['trace']}")
    return EXIT_OK


def _cmd_check(args) -> int:
    config = load_problem(args.config)
    grid_note = f", grid={config.grid.shape[0]} points" if config.grid is not None else ""
    print(f"OK: model={config.model}, algorithm={config.algorithm}, "
          f"criterion={config.criterion.value}{grid_note}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    run_suite(args.suite, args.out, seed=args.seed)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "check": _cmd_check, "bench": _cmd_bench}
    try:
        return handlers[args.command](args)
    except (ConfigError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OedError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
