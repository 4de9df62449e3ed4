"""Exception hierarchy shared by all solver modules; ``reason`` is the abort code a run records.

Vacuous a-priori bounds are no error: ``kinematics.a_priori_bounds`` returns ``None`` for them.
:func:`check_ranges` is the one rule for the range of a numeric setting."""

import math
import sys


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


def check_ranges(owner, error: type[SgnError], positive=(), nonnegative=(), finite=(), squared=()) -> None:
    """Raise ``error`` on the first named field of ``owner`` out of its range: ``positive`` is
    ``0 < v < inf``, ``nonnegative`` ``0 <= v < inf``, ``finite`` every entry finite (NaN is in none),
    ``squared`` (a divisor the code squares) ``tiny <= v*v < inf``, tiny the smallest normal float;
    ``None`` takes the default and passes.  It reads ``<field> must be positive and finite, got <v>``."""
    for names, wording, holds in ((positive, "be positive and finite", lambda v: 0.0 < v < math.inf),
                                  (nonnegative, "be nonnegative and finite", lambda v: 0.0 <= v < math.inf),
                                  (finite, "be finite", lambda v: -math.inf < v < math.inf),
                                  (squared, "have a square above the smallest normal float and below infinity",
                                   lambda v: sys.float_info.min <= float(v) * float(v) < math.inf)):
        for name in names:
            value = getattr(owner, name)
            if value is not None and not all(map(holds, value if isinstance(value, tuple) else (value,))):
                raise error(f"{name} must {wording}, got {value}")
