"""Exception hierarchy shared by all solver modules."""


class SgnError(Exception):
    """Base class for all errors raised by this package."""


class ContractViolationError(SgnError):
    """An operation was called with inputs violating its contract (e.g. length mismatch)."""


class PositivityError(SgnError):
    """A quantity that must be strictly positive (usually the depth h) is not."""


class NonFiniteError(ContractViolationError):
    """A state or field holds NaN or infinite entries; unlike a depth collapse, a smaller step cannot cure it."""


class ModeError(SgnError):
    """An operation valid only in one grid mode was called in the other."""


class SolverFailureError(SgnError):
    """A linear solve produced a residual above its guaranteed bound."""


class BoundaryContaminationError(SgnError):
    """Waves reached the boundary of a line-mode grid; the truncation of the real line is no longer valid."""


class DepthCollapseError(SgnError):
    """The depth went non-positive during time stepping, even after a retry at half step."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


class ThresholdExceededError(SgnError):
    """The measured initial energy exceeds the a-priori bound threshold; the bounds are vacuous."""


class ConfigError(SgnError):
    """A scenario configuration is contradictory or malformed."""
