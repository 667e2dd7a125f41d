"""Exception taxonomy shared by all solver layers, and the checks through
which every scenario value enters the program.

Exit-code mapping used by the CLI: ConfigError and InitialDataError -> 3,
everything derived from SolverError -> 4. A failed audit is reported in the
checks' verdicts, never raised, and exits 2.
"""

import math
import numbers


class FrontTrackError(Exception):
    """Base class for all package errors. event is None, or the failing
    event's index, t, x, incoming ids and solver (set by tracker.run)."""

    event = None


class ConfigError(FrontTrackError):
    """Invalid scenario file or run configuration; names the offending key."""

    def __init__(self, key, message):
        self.key = key
        super().__init__(f"{key}: {message}")


def finite(key, value):
    """A real number that is finite, as a float; bools and strings are
    refused, not coerced."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ConfigError(key, "must be finite (a number, not a string or a "
                               f"bool), got {value!r}")
    return float(value)


def integer(key, value, low=1):
    """An int of at least low; bools and floats are refused."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(key, f"must be an integer >= {low}, got {value!r}")
    return value


def refuse_unknown_keys(where, sec, keys):
    """Refuse the first key of section where ("" at the top) not in keys."""
    unknown = [name for name in sec if name not in keys]
    if unknown:
        raise ConfigError(f"{where}.{unknown[0]}".lstrip("."), "unknown key")


class SolverError(FrontTrackError):
    """Runtime failure inside a solver component."""


class DomainError(SolverError):
    """A state left the model's box domain."""


class NearDegeneracyError(SolverError):
    """Eigenvalue gap fell below gap_tol; strict hyperbolicity not certifiable."""


class ModelAuditError(SolverError):
    """Declared field kind contradicts the measured nonlinearity rates."""


class UnknownModelError(ConfigError):
    """Catalog lookup failed."""

    def __init__(self, model_id):
        super().__init__("model.id", f"unknown flux model {model_id!r}")


class CurveError(SolverError):
    """Elementary-curve evaluation failed (bad branch, no convergence, radius)."""


class RiemannError(SolverError):
    """Riemann solver failed (Newton divergence, jump too large, envelope)."""


class InitialDataError(FrontTrackError):
    """Initial datum rejected (total variation exceeds the model's budget)."""


class CapExceededError(SolverError):
    """Front-count or event-count safety cap hit; usually a mis-set rho."""
