"""Exception hierarchy shared by all solver modules; ``reason`` is the abort code a run records.

Vacuous a-priori bounds are no error: ``kinematics.a_priori_bounds`` returns ``None`` for them."""


class SgnError(Exception):
    """Base class for all errors raised by this package; a run aborts on those whose ``reason`` is set."""
    reason: str | None = None


class ContractViolationError(SgnError):
    """An operation was called with inputs violating its contract (e.g. length mismatch)."""


class PositivityError(SgnError):
    """A quantity that must be strictly positive (usually the depth h) is not."""


class NonFiniteError(ContractViolationError):
    """A state or field holds NaN or infinite entries; unlike a depth collapse, a smaller step cannot cure it."""
    reason = "nonfinite-fields"


class ModeError(SgnError):
    """An operation valid only in one grid mode was called in the other."""


class SolverFailureError(SgnError):
    """A linear solve produced a residual above its guaranteed bound."""
    reason = "solver-failure"


class BoundaryContaminationError(SgnError):
    """Waves reached the boundary of a line-mode grid; the truncation of the real line is no longer valid."""
    reason = "boundary-contamination"


class DepthCollapseError(SgnError):
    """The depth went non-positive during time stepping, even after a retry at half step."""
    reason = "depth-collapse"


class ConfigError(SgnError):
    """A scenario configuration is contradictory or malformed."""
