"""Uniform 1D cell-centered mesh and the finite-difference calculus on it.

Fields are plain ``float64`` arrays sampled at cell centers
``x_i = x_left + (i + 1/2) dx``.  Two domain modes exist:

* ``periodic``: a torus of circumference ``n*dx``; stencils wrap around.
* ``line``: a truncation of the real line.  All far-field assumptions of the
  continuous problem (constant reference state at infinity) translate into the
  requirement that waves never reach the boundary; callers enforce it with
  :func:`check_far_field`.

Derivatives are one 4th-order central stencil on every cell of both modes;
the mode decides only the two pad values beyond each end, as for the
elliptic systems: the wrapped neighbours on a periodic grid, the field's
far-field value on a line grid (zero unless the caller passes another).  With
zero pads the line-mode matrix is exactly skew, like the periodic one, so
discrete integration by parts holds in both modes.  Integration is the
midpoint rule (spectrally accurate for smooth periodic fields).  The running
primitive ``x -> int_{x_left}^{x} f`` is a trapezoid cumulative sum and exists
only in line mode: on a circle the primitive of a field with nonzero mean is
not single-valued, and we refuse rather than guess.  Public functions check
their input (:func:`as_field`); the stepper differentiates fields derived from
a checked state with the unchecked kernel ``_derivative``, which computes in
place into the one array it returns, repeating the stencil's operations in
order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryContaminationError, ContractViolationError, ModeError, NonFiniteError

__all__ = [
    "Grid",
    "as_field",
    "derivative",
    "integrate",
    "cumulative_integral",
    "check_far_field",
]

PERIODIC = "periodic"
LINE = "line"


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered 1D mesh.

    Immutable after construction; safe to share across threads.
    """

    n: int
    dx: float
    x_left: float = 0.0
    mode: str = PERIODIC

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 8:
            raise ContractViolationError(f"grid needs an integer n >= 8 cells, got {self.n!r}")
        if not 0.0 < self.dx < np.inf:
            raise ContractViolationError(f"grid spacing must be positive and finite, got {self.dx}")
        if not np.isfinite(self.x_left):
            raise ContractViolationError(f"grid origin x_left must be finite, got {self.x_left}")
        if self.mode not in (PERIODIC, LINE):
            raise ContractViolationError(f"unknown grid mode {self.mode!r}")

    @classmethod
    def from_length(cls, n: int, length: float, x_left: float = 0.0, mode: str = PERIODIC) -> "Grid":
        return cls(n=n, dx=length / n, x_left=x_left, mode=mode)

    @property
    def length(self) -> float:
        return self.n * self.dx

    @property
    def x_right(self) -> float:
        return self.x_left + self.length

    def cells(self) -> np.ndarray:
        """Coordinates of the cell centers."""
        return self.x_left + (np.arange(self.n) + 0.5) * self.dx

    @property
    def periodic(self) -> bool:
        return self.mode == PERIODIC


def as_field(values, g: Grid) -> np.ndarray:
    """Validate and return ``values`` as a float64 field on ``g``."""
    f = np.asarray(values, dtype=np.float64)
    if f.shape != (g.n,):
        raise ContractViolationError(f"field has shape {f.shape}, expected ({g.n},)")
    return _finite(f)


def _finite(f: np.ndarray) -> np.ndarray:
    if not np.isfinite(f).all():
        raise NonFiniteError("field contains non-finite entries")
    return f


def derivative(f: np.ndarray, g: Grid, far: tuple[float, float] = (0.0, 0.0)) -> np.ndarray:
    """4th-order first derivative of ``f`` on ``g``.

    One central stencil on every cell.  A periodic grid reads the two wrapped
    neighbours beyond each end; a line grid reads ``far`` (left, right) there,
    the field's limit at minus and plus infinity.  Exact for polynomials up to
    degree 4 on the cells ``[2:-2]``; a constant equal to its pads has a zero
    derivative on every cell.
    """
    left, right = far
    if not (np.isfinite(left) and np.isfinite(right)):
        raise NonFiniteError(f"far-field pads must be finite, got {far!r}")
    return _derivative(as_field(f, g), g, far)


def _derivative(f: np.ndarray, g: Grid, far: tuple[float, float] = (0.0, 0.0)) -> np.ndarray:
    """:func:`derivative` without the input checks: ``f`` is a finite float64 field on ``g``."""
    inv12dx = 1.0 / (12.0 * g.dx)
    # stencils written as combinations of differences so constants are
    # annihilated exactly (flat states must be exact fixed points downstream)
    out = np.empty_like(f)
    interior = out[2:-2]
    np.subtract(f[3:-1], f[1:-3], out=interior)
    interior *= 8.0
    interior -= f[4:] - f[:-4]
    interior *= inv12dx
    # the two cells at each end, in Python floats: the same IEEE operations, in the same order
    f0, f1, f2, f3 = f[:4].tolist()
    e3, e2, e1, e0 = f[-4:].tolist()  # f[-4], ..., f[-1]
    l2, l1, r1, r2 = (e1, e0, f0, f1) if g.periodic else (far[0], far[0], far[1], far[1])  # cells -2, -1, n, n+1
    out[0] = (8.0 * (f1 - l1) - (f2 - l2)) * inv12dx
    out[1] = (8.0 * (f2 - f0) - (f3 - l1)) * inv12dx
    out[-2] = (8.0 * (e0 - e2) - (r1 - e3)) * inv12dx
    out[-1] = (8.0 * (r1 - e1) - (r2 - e2)) * inv12dx
    return out


def integrate(f: np.ndarray, g: Grid) -> float:
    """Midpoint-rule integral ``sum_i f_i dx``."""
    f = as_field(f, g)
    return float(np.sum(f) * g.dx)


def cumulative_integral(f: np.ndarray, g: Grid) -> np.ndarray:
    """Running trapezoid primitive ``F_i ~ int_{x_left}^{x_i} f``.

    Line mode only; ``F_0 = f_0 dx / 2`` (the half cell between the boundary
    and the first center).  Exact for constants: ``f = 1`` gives
    ``F_i = x_i - x_left``.
    """
    f = as_field(f, g)
    if g.periodic:
        raise ModeError("cumulative integral is not single-valued on a periodic domain")
    out = np.empty_like(f)
    out[0] = 0.5 * f[0] * g.dx
    np.cumsum(0.5 * (f[:-1] + f[1:]) * g.dx, out=out[1:])
    out[1:] += out[0]
    return out


def check_far_field(h: np.ndarray, u: np.ndarray, g: Grid, hbar: float,
                    rtol: float = 1e-6, ncells: int = 8) -> None:
    """Abort if waves contaminate the boundary of a line-mode grid.

    ``|h - hbar|`` and ``|u|`` at the ``ncells`` outermost cells on each side
    must stay below ``rtol * hbar``; a violation means the truncation of the
    real line is no longer a faithful model and the run must stop.
    No-op on periodic grids.
    """
    if g.periodic:
        return
    tol = rtol * hbar
    left, right = slice(0, ncells), slice(g.n - ncells, g.n)
    dh = np.maximum(np.abs(h[left] - hbar).max(), np.abs(h[right] - hbar).max())
    du = np.maximum(np.abs(u[left]).max(), np.abs(u[right]).max())
    if dh > tol or du > tol:
        raise BoundaryContaminationError(
            f"far field contaminated: max|h-hbar|={dh:.3e}, max|u|={du:.3e} "
            f"at the {ncells} outermost cells (tolerance {tol:.3e})"
        )
