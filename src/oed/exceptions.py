"""Exception hierarchy shared across the package."""


class OedError(Exception):
    """Base class for all package errors."""


class InvalidInputError(OedError, ValueError):
    """An argument violates a documented precondition (shape, domain, finiteness)."""


class SingularInformationError(OedError):
    """The information matrix is numerically singular for the requested operation."""


class SingularKernelError(OedError):
    """The GP kernel matrix (plus noise) could not be factorized."""


class ConvergenceError(OedError):
    """Not raised: a capped weight solve returns its best iterate with
    ``converged`` False. Kept importable for ``perfbench/tracer.py``."""


class NonFiniteModelError(OedError):
    """A model returned NaN/inf during evaluation or differentiation."""


class InitializationError(OedError):
    """No invertible initial information matrix could be sampled."""


class NoSolutionError(OedError):
    """A root-finding problem has no solution in its search bracket."""


class UnsupportedDimensionError(OedError):
    """Requested dimension exceeds what the low-discrepancy generator supports."""


class ConfigError(OedError, ValueError):
    """A problem configuration file failed to parse or validate."""
