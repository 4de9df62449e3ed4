"""1D numerical laboratory for the Serre-Green-Naghdi equations with surface tension.

Simulates the unregularized system and its energy-dissipative cut-off
regularization on periodic or truncated-line grids, and verifies the model's
checkable identities: energy conservation/dissipation, a-priori bounds, the
one-sided Oleinik inequality, Riccati dynamics along characteristics, the
linear dispersion relation and the paired blow-up criterion.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    BoundaryContaminationError,
    ConfigError,
    ContractViolationError,
    DepthCollapseError,
    ModeError,
    NonFiniteError,
    PositivityError,
    SgnError,
    SolverFailureError,
)
from .grid import Grid  # noqa: F401
from .kinematics import Bounds, FlowState, Params  # noqa: F401
