"""Problem-definition files: JSON schema, validation and model construction.

A problem file names a model and an algorithm and carries the algorithm
settings; grids (required for the grid methods, forbidden for the adaptive
one) are given either as explicit points or as per-dimension level sets whose
Cartesian product is expanded on load. ``sigma_eps`` is the measurement-error
covariance matrix and defaults to the identity.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .algorithms import AlgoConfig, check_inputs
from .designs import Criterion, SigmaEps
from .exceptions import ConfigError, InvalidInputError
from .flash import methanol_acetone_flash, methanol_water_flash
from .models import ModelHandle, QuadraticModel
from .yeast import YeastModel

ALGORITHMS = ("vdm", "ybt", "adagpr")

MODEL_BUILDERS = {
    "quadratic": lambda opts: QuadraticModel(
        theta_nominal=opts.get("theta_nominal", (1.0, 1.0, 1.0))
    ),
    "flash-meoh-water": lambda opts: methanol_water_flash(),
    "flash-meoh-acetone": lambda opts: methanol_acetone_flash(),
    "yeast": lambda opts: YeastModel(
        theta_nominal=opts.get("theta_nominal", (0.5, 0.5, 0.5, 0.5)),
        y2_0=opts.get("y2_0", 0.1),
        substrate_form=opts.get("substrate_form", "as-printed"),
    ),
}


def grid_from_levels(levels) -> np.ndarray:
    """Cartesian product of per-dimension level lists, shape (prod(n_i), d).

    The first dimension varies slowest (row-major expansion).
    """
    arrays = [np.asarray(l, dtype=float).ravel() for l in levels]
    if any(a.size == 0 for a in arrays):
        raise ConfigError("every grid dimension needs at least one level")
    mesh = np.meshgrid(*arrays, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@contextmanager
def _as_config_error():
    """Report the algorithm-side input checks as configuration errors."""
    try:
        yield
    except InvalidInputError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class ProblemConfig:
    """Validated problem definition with defaults filled in."""

    model: str
    algorithm: str
    criterion: Criterion = Criterion.LOGD
    epsilon: float = 1e-3
    max_iterations: int = 10_000
    n_initial: int | None = None
    seed: int = 0
    sigma_eps: np.ndarray | None = None  # covariance matrix, None = identity
    grid: np.ndarray | None = None
    model_options: dict = field(default_factory=dict)
    out_dir: str | None = None

    def __post_init__(self):
        if self.model not in MODEL_BUILDERS:
            raise ConfigError(
                f"unknown model {self.model!r}; known: {sorted(MODEL_BUILDERS)}"
            )
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(
                f"unknown algorithm {self.algorithm!r}; known: {ALGORITHMS}"
            )
        if not isinstance(self.criterion, Criterion):
            self.criterion = Criterion.parse(self.criterion)
        if self.algorithm == "adagpr" and self.grid is not None:
            raise ConfigError("adagpr works on the continuous space; remove 'grid'")
        if self.algorithm in ("vdm", "ybt") and self.grid is None:
            raise ConfigError(f"algorithm {self.algorithm!r} requires a 'grid'")
        if self.sigma_eps is not None:
            self.sigma_eps = np.atleast_2d(np.asarray(self.sigma_eps, float))
        self.algo_config()  # epsilon, max_iterations and sigma_eps

    def build_model(self) -> ModelHandle:
        model = MODEL_BUILDERS[self.model](self.model_options)
        with _as_config_error():
            check_inputs(model, self.algo_config(), self.grid)
        return model

    def algo_config(self) -> AlgoConfig:
        with _as_config_error():
            return AlgoConfig(
                criterion=self.criterion,
                epsilon=self.epsilon,
                max_iterations=self.max_iterations,
                n_initial=self.n_initial,
                rng_seed=self.seed,
                sigma_eps=(SigmaEps.from_covariance(self.sigma_eps)
                           if self.sigma_eps is not None else None),
            )

    def normalized(self) -> dict:
        """Canonical JSON-ready dict; loading it back reproduces this config."""
        out = {
            "model": self.model,
            "algorithm": self.algorithm,
            "criterion": self.criterion.value,
            "epsilon": self.epsilon,
            "max_iterations": self.max_iterations,
            "seed": self.seed,
        }
        if self.n_initial is not None:
            out["n_initial"] = self.n_initial
        if self.sigma_eps is not None:
            out["sigma_eps"] = self.sigma_eps.tolist()
        if self.grid is not None:
            out["grid"] = {"points": self.grid.tolist()}
        if self.model_options:
            out["model_options"] = dict(self.model_options)
        if self.out_dir is not None:
            out["out_dir"] = self.out_dir
        return out


_KNOWN_KEYS = {"model", "algorithm", "criterion", "epsilon", "max_iterations",
               "n_initial", "seed", "sigma_eps", "grid", "model_options",
               "out_dir"}


def config_from_dict(raw: dict) -> ProblemConfig:
    if not isinstance(raw, dict):
        raise ConfigError("problem file must contain a JSON object")
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    for key in ("model", "algorithm"):
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")

    grid = None
    if raw.get("grid") is not None:
        spec = raw["grid"]
        if isinstance(spec, dict) and "points" in spec:
            grid = np.atleast_2d(np.asarray(spec["points"], dtype=float))
        elif isinstance(spec, dict) and "levels" in spec:
            grid = grid_from_levels(spec["levels"])
        else:
            raise ConfigError("grid must be {'points': [...]} or {'levels': [...]}")
        if not np.all(np.isfinite(grid)):
            raise ConfigError("grid contains non-finite values")

    try:
        cfg = ProblemConfig(
            model=raw["model"],
            algorithm=raw["algorithm"],
            criterion=raw.get("criterion", "logD"),
            epsilon=float(raw.get("epsilon", 1e-3)),
            max_iterations=int(raw.get("max_iterations", 10_000)),
            n_initial=(int(raw["n_initial"]) if raw.get("n_initial") is not None
                       else None),
            seed=int(raw.get("seed", 0)),
            sigma_eps=raw.get("sigma_eps"),
            grid=grid,
            model_options=dict(raw.get("model_options", {})),
            out_dir=raw.get("out_dir"),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid configuration value: {exc}") from exc
    cfg.build_model()  # validates model-dependent constraints eagerly
    return cfg


def load_problem(path) -> ProblemConfig:
    """Load and validate a problem JSON file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    return config_from_dict(raw)
