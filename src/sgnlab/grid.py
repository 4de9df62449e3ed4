"""Uniform 1D cell-centered mesh and the finite-difference calculus on it.

Fields are plain ``float64`` arrays sampled at cell centers
``x_i = x_left + (i + 1/2) dx``.  Two domain modes exist:

* ``periodic``: a torus of circumference ``n*dx``; stencils wrap around.
* ``line``: a truncation of the real line.  All far-field assumptions of the
  continuous problem (constant reference state at infinity) translate into the
  requirement that waves never reach the boundary; callers enforce it with
  :func:`check_far_field`.

Derivatives are one 4th-order central stencil over the field padded by two cells per side;
a ``(k, n)`` block of fields, each row with its own far-field values, is padded and
differenced as one 2-D block, each row bit for bit as if it were alone.  The mode decides
only the cells beyond each end, and ``_pad`` builds them for the derivative and the ``L_h``
faces (the ``L_h`` apply writes its own in place): the wrapped neighbours (periodic) or the
field's far-field value (line; zero unless the caller passes another).  With zero pads the
line-mode matrix is exactly skew, like the periodic one, so discrete integration by parts
holds in both modes.
Integration is the midpoint rule (spectrally accurate for smooth periodic
fields).  The running primitive ``x -> int_{x_left}^{x} f`` is a trapezoid
cumulative sum and exists only in line mode: on a circle the primitive of a
field with nonzero mean is not single-valued, and we refuse rather than guess.
Public functions check their input (:func:`as_field`); ``_derivative``, the
stepper's kernel, skips that check for fields derived from a checked state.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BoundaryContaminationError, ContractViolationError, ModeError, NonFiniteError, check_ranges

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
#: cells per side that :func:`check_far_field` watches on a line grid
FAR_FIELD_CELLS = 8
#: the most cells a grid takes: a state's h and u, 8 bytes a cell each, fit in the machine's physical memory
_MAX_CELLS = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 16


class _cached(cached_property):
    """``functools.cached_property`` without the lock Python 3.11 takes, one for all instances, on a first read;
    it can go once Python 3.12 (whose ``cached_property`` takes no lock) is the minimum version."""

    def __get__(self, *args):  # (instance or None, owner); threads that race store equal values
        return self if args[0] is None else args[0].__dict__.setdefault(self.attrname, self.func(args[0]))


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
        if not isinstance(self.n, (int, np.integer)) or not 8 <= self.n <= _MAX_CELLS:
            raise ContractViolationError(f"grid needs an integer n >= 8 cells whose h and u fit in physical memory "
                                         f"(16 n bytes, n <= {_MAX_CELLS}), got {self.n!r}")
        check_ranges(self, ContractViolationError, positive=("dx",), finite=("x_left",), squared=("dx",))
        if not np.spacing(max(abs(self.x_left), abs(self.x_right))) <= 1e-3 * self.dx:  # nan if x_right is inf
            raise ContractViolationError(f"grid x_left = {self.x_left:g}, x_right = {self.x_right:g}: float64 cannot "
                                         f"place the cell centres to a thousandth of dx = {self.dx:g}")
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

    @_cached
    def periodic(self) -> bool:
        return self.mode == PERIODIC

    def mode_index(self, k: float) -> int | None:
        """m of ``k = 2 pi m / length`` if 1 <= m <= n/2 - 1 (a resolved Fourier mode), else ``None``."""
        m_float = k * self.length / (2.0 * np.pi)
        m = round(m_float) if abs(m_float) < self.n else 0  # also for an infinite or NaN k
        return m if 1 <= m <= self.n // 2 - 1 and abs(m_float - m) <= 1e-8 else None


def as_field(values, g: Grid) -> np.ndarray:
    """Validate and return ``values`` as a float64 field on ``g``."""
    f = np.asarray(values, dtype=np.float64)
    if f.shape != (g.n,):
        raise ContractViolationError(f"field has shape {f.shape}, expected ({g.n},)")
    return _finite(f)


def _finite(f: np.ndarray) -> np.ndarray:
    if not np.logical_and.reduce(np.isfinite(f)):
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
    if not np.isfinite(far).all():
        raise NonFiniteError(f"far-field pads must be finite, got {far!r}")
    return _derivative(as_field(f, g), g, far)


def _derivative(f: np.ndarray, g: Grid, far=(0.0, 0.0)) -> np.ndarray:
    """:func:`derivative` without the input checks: ``f`` is a finite float64 field on ``g`` or a ``(k, n)`` block."""
    fp = _pad(f, g.periodic, 2, far)
    # stencils written as combinations of differences so constants are
    # annihilated exactly (flat states must be exact fixed points downstream)
    out = fp[..., 3:-1] - fp[..., 1:-3]
    out *= 8.0
    out -= fp[..., 4:] - fp[..., :-4]
    out *= 1.0 / (12.0 * g.dx)
    return out


def _pad(f: np.ndarray, periodic: bool, width: int, far) -> np.ndarray:
    """``f`` with ``width`` cells beyond each end: the wrapped neighbours, or ``far = (left, right)`` on a line."""
    if periodic:
        return np.concatenate((f[..., -width:], f, f[..., :width]), axis=-1)
    fp = np.empty(f.shape[:-1] + (f.shape[-1] + 2 * width,))
    fp[..., width:-width] = f
    fp[..., :width], fp[..., -width:] = far
    return fp


def integrate(f: np.ndarray, g: Grid) -> float:
    """Midpoint-rule integral ``sum_i f_i dx``."""
    return float(np.add.reduce(as_field(f, g)) * g.dx)


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


def check_far_field(h: np.ndarray, u: np.ndarray, g: Grid, hbar: float, rtol: float = 1e-6) -> None:
    """Abort if waves contaminate the boundary of a line-mode grid.

    ``|h - hbar|`` and ``|u|`` at the :data:`FAR_FIELD_CELLS` outermost cells on
    each side must stay below ``rtol * hbar``; a violation means the truncation
    of the real line is no longer a faithful model and the run must stop.
    No-op on periodic grids.
    """
    if g.periodic:
        return
    tol = rtol * hbar
    left, right = slice(0, FAR_FIELD_CELLS), slice(g.n - FAR_FIELD_CELLS, g.n)
    dh = np.maximum(np.abs(h[left] - hbar).max(), np.abs(h[right] - hbar).max())
    du = np.maximum(np.abs(u[left]).max(), np.abs(u[right]).max())
    if dh > tol or du > tol:
        raise BoundaryContaminationError(
            f"far field contaminated: max|h-hbar|={dh:.3e}, max|u|={du:.3e} "
            f"at the {FAR_FIELD_CELLS} outermost cells (tolerance {tol:.3e})"
        )
