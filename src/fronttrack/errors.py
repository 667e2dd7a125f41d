"""Exception taxonomy shared by all solver layers.

Exit-code mapping used by the CLI: ConfigError and InitialDataError -> 3,
everything derived from SolverError -> 4. A failed audit is reported in the
checks' verdicts, never raised, and exits 2.
"""


class FrontTrackError(Exception):
    """Base class for all package errors."""


class ConfigError(FrontTrackError):
    """Invalid scenario file or run configuration; names the offending key."""

    def __init__(self, key, message):
        self.key = key
        super().__init__(f"{key}: {message}")


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
