"""Span tracer that times oed's layers from outside the package.

``Tracer.install()`` replaces the functions that ``oed.algorithms``,
``oed.runner`` and ``oed.config`` call into (module attributes and class
methods) with wrappers; ``uninstall()`` puts the originals back. Each wrapper
records a span ``[name, layer, start, end, parent]`` and adds to per-layer
counts. Spans stay in memory until ``write()``.

A layer's self time is its spans' durations minus the part covered by child
spans, so the self times of all layers add up to the root spans' durations.
Nested model Jacobian calls (``jacobian`` calling ``jacobian_batch``) are
recorded once, at the outermost call.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

# Model methods timed as the model layer, on every class that defines them.
MODEL_METHODS = ("jacobian", "jacobian_batch")

# Functions oed.algorithms calls into, by the name it imported them under.
ALGORITHM_CALLEES = {
    "directional_derivatives": "designs.phi_scan",
    "directional_derivative": "designs.phi_scan",
    "fisher_at_points": "designs.fisher",
    "fisher_at_point": "designs.fisher",
    "information_matrix": "designs.fisher",
    "criterion_value": "designs.criterion",
    "is_invertible": "designs.criterion",
    "optimize_weights": "weights",
    "select_alpha_cv": "gp.alpha_cv",
    "select_hypers": "gp.lml",
    "gp_fit": "gp.fit",
    "minimize_acquisition": "acquisition",
}

# Functions oed.runner calls into.
RUNNER_CALLEES = {
    "run_vdm": "algorithms",
    "run_ybt": "algorithms",
    "run_adagpr": "algorithms",
    "emit_report": "report",
}

# ProblemConfig methods the runner calls.
CONFIG_METHODS = ("build_model", "algo_config", "normalized")


def _model_classes(base):
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


class Tracer:
    """In-memory span recorder with install/uninstall of oed wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------
    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, layer, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while {popped} was open")

    def _inside(self, layer: str) -> bool:
        return any(self.spans[i][1] == layer for i in self._stack)

    @contextlib.contextmanager
    def root(self, name: str):
        """A root span recorded by the benchmark itself."""
        index = self._open(name, "runner")
        try:
            yield
        finally:
            self._close(index)

    def self_times(self) -> dict:
        """Self time per layer, in seconds."""
        child = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (_, layer, start, end, _) in enumerate(self.spans):
            out[layer] += (end - start) - child[i]
        return dict(out)

    def write(self, path, header: dict) -> None:
        """Write the header and every span, one JSON object per line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for name, layer, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "layer": layer,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")

    # -- wrappers ------------------------------------------------------
    def _patch(self, owner, attr: str, make) -> None:
        """Wrap ``owner.attr`` if ``owner`` itself defines it."""
        original = owner.__dict__.get(attr)
        if original is None:
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _timed(self, name, layer, fn, *, after=None, on_error=None,
               outermost=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost and tracer._inside(layer):
                return fn(*args, **kwargs)
            tracer.counts[f"{layer}.calls"] += 1
            index = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                tracer._close(index)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _counted(self, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count(args)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap oed's layer entry points; call ``uninstall`` to undo."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        import numpy as np

        import oed.algorithms as algorithms
        import oed.runner as runner
        from oed.config import ProblemConfig
        from oed.exceptions import (
            ConvergenceError,
            NonFiniteModelError,
            SingularKernelError,
        )
        from oed.gp import GPState
        from oed.models import ModelHandle

        counts = self.counts

        def model_points(result, args):
            counts["models.jacobian.points"] += (
                1 if np.ndim(result) == 2 else int(np.shape(result)[0]))

        def model_error(exc):
            if isinstance(exc, NonFiniteModelError):
                counts["models.rejected"] += 1

        for cls in _model_classes(ModelHandle):
            for attr in MODEL_METHODS:
                self._patch(cls, attr, lambda fn, a=attr, c=cls: self._timed(
                    f"{c.__name__}.{a}", "models.jacobian", fn,
                    after=model_points, on_error=model_error, outermost=True))

        def phi_rows(result, args):
            counts["designs.phi_scan.rows"] += int(np.size(result))

        def weight_solve(result, args):
            counts["weights.candidates"] += int(np.shape(args[0])[0])
            counts["weights.iterations"] += int(result.iterations)
            counts["weights.unconverged"] += int(not result.converged)

        def weight_error(exc):
            if isinstance(exc, ConvergenceError):
                counts["weights.unconverged"] += 1
                if exc.best is not None:
                    counts["weights.iterations"] += int(exc.best.iterations)

        def lml_points(result, args):
            counts["gp.lml.train_points"] += int(np.shape(args[0])[0])

        def fit_error(exc):
            if isinstance(exc, SingularKernelError):
                counts["gp.fit.noise_bumps"] += 1

        def algorithm_done(result, args):
            counts["algorithms.iterations"] += int(result.iterations)

        def report_bytes(result, args):
            counts["report.bytes"] += sum(Path(p).stat().st_size
                                          for p in result.values())

        hooks = {
            "designs.phi_scan": {"after": phi_rows},
            "weights": {"after": weight_solve, "on_error": weight_error},
            "gp.lml": {"after": lml_points},
            "gp.fit": {"on_error": fit_error},
            "algorithms": {"after": algorithm_done},
            "report": {"after": report_bytes},
        }
        for module, callees in ((algorithms, ALGORITHM_CALLEES),
                                (runner, RUNNER_CALLEES)):
            for attr, layer in callees.items():
                self._patch(module, attr, lambda fn, a=attr, l=layer: self._timed(
                    a, l, fn, **hooks.get(l, {})))

        def new_point(args):
            counts["acquisition.new_points"] += 1
            counts["acquisition.hits"] += int(args[1] < 0)

        def posterior(args):
            counts["acquisition.posterior_calls"] += 1

        self._patch(algorithms, "next_tau",
                    lambda fn: self._counted(fn, new_point))
        self._patch(GPState, "posterior",
                    lambda fn: self._counted(fn, posterior))

        for attr in CONFIG_METHODS:
            self._patch(ProblemConfig, attr, lambda fn, a=attr: self._timed(
                f"ProblemConfig.{a}", "config", fn))
        counts["trace.hooks"] = len(self._saved)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
