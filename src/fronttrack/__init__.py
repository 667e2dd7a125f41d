"""Deterministic wave-front tracking for 1-D hyperbolic conservation laws.

Builds piecewise-constant approximate solutions with accurate / simplified /
crude Riemann solvers, tracks the Glimm functionals and interaction-
cancellation measures, extracts maximal shock fronts and wave-measure
decompositions, and audits decay and tame-oscillation estimates.
"""

from .errors import (CapExceededError, ConfigError, CurveError, DomainError,
                     FrontTrackError, InitialDataError, ModelAuditError,
                     NearDegeneracyError, RiemannError, SolverError,
                     UnknownModelError)
from .flux_core import (EigenSystem, average_eigs, catalog_ids, eig_decompose,
                        gnl_audit, jacobian, make_model)
from .riemann import (CurvePoint, Front, elementary_curve,
                      scalar_envelope_fan, solve_accurate, solve_crude,
                      solve_simplified)
from .tracker import (FrontField, InteractionEvent, RunConfig, Timeline,
                      init_sample, next_collision, run, slice_at, step)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError", "ConfigError", "CurveError", "DomainError",
    "FrontTrackError", "InitialDataError", "ModelAuditError",
    "NearDegeneracyError", "RiemannError", "SolverError", "UnknownModelError",
    "EigenSystem", "average_eigs", "catalog_ids", "eig_decompose", "gnl_audit",
    "jacobian", "make_model",
    "CurvePoint", "Front", "elementary_curve",
    "scalar_envelope_fan", "solve_accurate", "solve_crude", "solve_simplified",
    "FrontField", "InteractionEvent", "RunConfig", "Timeline", "init_sample",
    "next_collision", "run", "slice_at", "step",
    "__version__",
]
