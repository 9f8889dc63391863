"""Problem-definition files: JSON schema, validation and model construction.

A problem file names a model and an algorithm and carries the algorithm
settings; grids (required for the grid methods, forbidden for the adaptive
one) are given either as explicit points or as per-dimension level sets whose
Cartesian product is expanded on load. ``sigma_eps`` is the measurement-error
covariance matrix and defaults to the identity.
"""

from __future__ import annotations

import json
import numbers
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .algorithms import AlgoConfig, check_inputs
from .designs import Criterion, SigmaEps
from .exceptions import ConfigError
from .flash import methanol_acetone_flash, methanol_water_flash
from .models import ModelHandle, QuadraticModel
from .yeast import YeastModel

ALGORITHMS = ("vdm", "ybt", "adagpr")

# ``model_options`` are the keyword arguments of these constructors.
MODEL_BUILDERS = {
    "quadratic": QuadraticModel,
    "flash-meoh-water": methanol_water_flash,
    "flash-meoh-acetone": methanol_acetone_flash,
    "yeast": YeastModel,
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
    """Report bad values, unknown model options and the algorithm-side input
    checks as configuration errors."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:  # InvalidInputError is a ValueError
        raise ConfigError(f"invalid configuration value: {exc}") from exc


def _number(key, value, kind):
    """``value`` as ``kind``: an int takes a whole number, a float any real
    one, and neither takes a bool or a string."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or kind is int and not (isinstance(value, numbers.Integral)
                                    or float(value).is_integer())):
        raise ConfigError(f"{key} must be {'an integer' if kind is int else 'a number'}, "
                          f"got {value!r}")
    return kind(value)


@dataclass
class ProblemConfig:
    """Validated problem definition with defaults filled in.

    Its fields are the problem file's keys; the algorithm settings default
    to :class:`AlgoConfig`'s.
    """

    model: str
    algorithm: str
    criterion: Criterion = AlgoConfig.criterion
    epsilon: float = AlgoConfig.epsilon
    max_iterations: int = AlgoConfig.max_iterations
    n_initial: int | None = AlgoConfig.n_initial
    seed: int = AlgoConfig.rng_seed
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
        self.epsilon = _number("epsilon", self.epsilon, float)
        self.max_iterations = _number("max_iterations", self.max_iterations, int)
        if self.n_initial is not None:
            self.n_initial = _number("n_initial", self.n_initial, int)
        self.seed = _number("seed", self.seed, int)
        if not isinstance(self.model_options, dict):
            raise ConfigError("model_options must be a JSON object, got "
                              f"{self.model_options!r}")
        self.model_options = dict(self.model_options)
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {self.out_dir!r}")
        if self.algorithm == "adagpr" and self.grid is not None:
            raise ConfigError("adagpr works on the continuous space; remove 'grid'")
        if self.algorithm in ("vdm", "ybt") and self.grid is None:
            raise ConfigError(f"algorithm {self.algorithm!r} requires a 'grid'")
        if self.sigma_eps is not None:
            self.sigma_eps = np.atleast_2d(np.asarray(self.sigma_eps, float))
        self.algo_config()  # epsilon, max_iterations and sigma_eps

    def build_model(self) -> ModelHandle:
        with _as_config_error():
            model = MODEL_BUILDERS[self.model](**self.model_options)
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

    def echo(self) -> dict:
        """JSON-ready dict of every set key but the grid, as ``summary.json``
        records it (a grid can hold thousands of rows)."""
        out = {}
        for f in fields(self):
            if f.name == "grid":
                continue
            value = getattr(self, f.name)
            if isinstance(value, Criterion):
                value = value.value
            elif isinstance(value, np.ndarray):
                value = value.tolist()
            elif isinstance(value, dict):
                value = dict(value)
            if value is None or value == {}:
                continue
            out[f.name] = value
        return out


def _parse_grid(spec) -> np.ndarray | None:
    if spec is None:
        return None
    if isinstance(spec, dict) and "points" in spec:
        grid = np.atleast_2d(np.asarray(spec["points"], dtype=float))
    elif isinstance(spec, dict) and "levels" in spec:
        grid = grid_from_levels(spec["levels"])
    else:
        raise ConfigError("grid must be {'points': [...]} or {'levels': [...]}")
    if not np.all(np.isfinite(grid)):
        raise ConfigError("grid contains non-finite values")
    return grid


def config_from_dict(raw: dict) -> ProblemConfig:
    if not isinstance(raw, dict):
        raise ConfigError("problem file must contain a JSON object")
    keys = fields(ProblemConfig)
    unknown = set(raw) - {f.name for f in keys}
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    for f in keys:
        if f.default is MISSING and f.default_factory is MISSING \
                and f.name not in raw:
            raise ConfigError(f"missing required key {f.name!r}")
    with _as_config_error():
        cfg = ProblemConfig(**dict(raw, grid=_parse_grid(raw.get("grid"))))
    cfg.build_model()  # validates model-dependent constraints eagerly
    return cfg


def load_problem(path) -> ProblemConfig:
    """Load and validate a problem JSON file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    return config_from_dict(raw)
