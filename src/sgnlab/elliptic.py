"""The depth-weighted Sturm-Liouville operator, the Helmholtz operator and their inverses.

Both elliptic operators of the model, ``L_h u = h u - (1/3) (h^3 u_x)_x`` and
``g - gamma d_xx``, share one flux form::

    (A u)_i = order0_i u_i + f_i (u_i - u_{i-1}) + f_{i+1} (u_i - u_{i+1})

with n+1 positive face couplings ``f``: ``order0 = h`` and
``f_i = ((h_{i-1} + h_i)/2)^3 / (3 dx^2)`` for ``L_h`` (average the depth,
then cube: symmetric positive-definite and exact for constant depth), and
``order0 = g``, ``f_i = gamma / dx^2`` for Helmholtz.  The grid mode decides
only the cells beyond the ends, by the derivative's halo rule (``grid._pad``):
the wrapped neighbours on a periodic grid (``f_0 == f_n`` is the wrap face),
the ghost cells on a line grid, whose ``L_h`` depth is ``hbar``.  A line
solve's ghosts are zero for a decaying source (:func:`solve_L`), else the
source's limits over ``order0`` (:func:`solve_limits`, which pads the
solution's derivative with them too), extending the inverse to such sources.

The discrete ``L_h`` is an M-matrix, so it inherits the maximum principle
``|L_h^{-1} psi| <= ||1/h||_inf ||psi||_inf`` exactly.

``(g - gamma d_xx)^{-1}`` is realized as a second-order linear solve rather
than a literal convolution with its exponential kernel
``exp(-sqrt(g/gamma)|x|) / (2 sqrt(g gamma))``: identical on the real line,
well defined on both grid modes, and O(n) instead of O(n^2).

Each system is factored once with LAPACK's ``L D L^T`` (``dpttrf``) and
every solve on it is one ``dpttrs``; periodic systems add a Sherman-Morrison
correction for the wrap face.  The Helmholtz system is built and factored
once per (parameters, grid).  Every solve verifies its own residual and
refuses to return garbage.  Public functions check their inputs; the stepper
assembles with the unchecked ``_assemble_L``, and :func:`solve_L_refined`
scans its defect, so a non-finite field is a ``NonFiniteError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import ContractViolationError, ModeError, PositivityError, SolverFailureError
from .grid import Grid, _derivative, _finite, _pad, as_field, cumulative_integral, derivative
from .kinematics import FlowState, Gradients, Params, curly_c, f_of_h, gradients

__all__ = [
    "TridiagonalSystem",
    "assemble_L",
    "apply_L",
    "solve_L",
    "solve_limits",
    "solve_helmholtz",
    "script_r",
    "psi_identity_residual",
]

# a solve whose verified relative residual exceeds this is reported as failed
RESIDUAL_LIMIT = 1e-10


@dataclass(frozen=True)
class TridiagonalSystem:
    """Symmetric tridiagonal system in the flux form of the module docstring.

    ``faces[i]`` couples cells i-1 and i.  Periodic: ``faces[0] == faces[n]``
    is the wrap face.  Line: the two end faces couple to the ghost values.
    """

    faces: np.ndarray
    order0: np.ndarray  # zeroth-order coefficient (h, or g for the Helmholtz operator)
    periodic: bool

    @property
    def n(self) -> int:
        return self.order0.shape[0]

    @cached_property
    def _factor(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, float, float]:
        """``(d, e, z, r, 1 + v.z)``, made on the first solve: the ``L D L^T`` factor
        ``(d, e)``; periodic, of ``T = A - u v^T`` (SPD) with ``u = (-diag[0], 0, ..., c)``,
        ``c = -faces[0]``, ``v = (1, 0, ..., r)`` and ``z = T^{-1} u`` for Sherman-Morrison (line: ``z = None``)."""
        diag = self.order0 + self.faces[1:] + self.faces[:-1]
        off = -self.faces[1:-1]
        if not self.periodic:
            return (*_checked(dpttrf(diag, off)), None, 0.0, 1.0)
        d0, c = diag[0], -self.faces[0]
        diag[0] += d0
        diag[-1] += c * c / d0
        d, e = _checked(dpttrf(diag, off))
        u = np.zeros(self.n)
        u[0], u[-1] = -d0, c
        (z,) = _checked(dpttrs(d, e, u))
        r = -c / d0
        return d, e, z, r, 1.0 + (z[0] + r * z[-1])


def assemble_L(h: np.ndarray, g: Grid, hbar: float | None = None) -> TridiagonalSystem:
    """Assemble the flux-form ``L_h``; requires ``h > 0``, and ``hbar`` for line-mode ghosts."""
    h = as_field(h, g)
    if not (h > 0.0).all():
        raise PositivityError(f"cannot assemble the operator for non-positive depth; min h = {h.min():.6e}")
    if hbar is None and not g.periodic:
        raise ContractViolationError("line-mode assembly needs the reference depth hbar for ghost cells")
    return _assemble_L(h, g, hbar)


def _assemble_L(h: np.ndarray, g: Grid, hbar: float | None) -> TridiagonalSystem:
    """:func:`assemble_L` without its checks: ``h`` is a finite positive field on ``g``."""
    hp = _pad(h, g.periodic, 1, (hbar, hbar))
    faces = hp[:-1] + hp[1:]
    faces *= 0.5
    faces **= 3
    faces *= 1.0 / (3.0 * g.dx**2)
    return TridiagonalSystem(faces, h, g.periodic)


def apply_L(sys: TridiagonalSystem, u: np.ndarray) -> np.ndarray:
    """Matrix-vector product (ghost values taken as zero in line mode).

    Evaluated in flux form (differences of neighbors) so constant vectors map
    to ``order0 * u`` exactly, not merely to rounding.
    """
    return _apply_L(sys, _finite(_vector(sys, u)))


def _vector(sys: TridiagonalSystem, v: np.ndarray) -> np.ndarray:
    """``v`` as a float64 vector of the system's length."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (sys.n,):
        raise ContractViolationError(f"vector has shape {v.shape}, expected ({sys.n},)")
    return v


def _apply_L(sys: TridiagonalSystem, u: np.ndarray) -> np.ndarray:
    """:func:`apply_L` without its checks: ``u`` is a float64 vector of length ``sys.n``."""
    up = _pad(u, sys.periodic, 1, (0.0, 0.0))
    out, diff = sys.order0 * u, np.subtract(u, up[2:])
    out += np.multiply(diff, sys.faces[1:], out=diff)
    np.subtract(u, up[:-2], out=diff)
    out += np.multiply(diff, sys.faces[:-1], out=diff)
    return out


def _checked(lapack_result: tuple) -> list[np.ndarray]:
    """Outputs of a LAPACK call; ``info != 0`` (not positive definite) raises."""
    *out, info = lapack_result
    if info != 0:
        raise SolverFailureError(f"tridiagonal factor/solve failed (LAPACK info = {info})")
    return out


def _solve(sys: TridiagonalSystem, rhs: np.ndarray, far: tuple[float, float]) -> np.ndarray:
    """The one solve path: line ghost values ``far``; factor (once per system), solve, verify the residual."""
    if sys.periodic:
        adjusted = rhs
    else:
        adjusted = rhs.copy()
        adjusted[0] += sys.faces[0] * far[0]
        adjusted[-1] += sys.faces[-1] * far[1]
    d, e, z, r, denom = sys._factor
    (u,) = _checked(dpttrs(d, e, adjusted))
    if z is not None:
        u -= z * ((u[0] + r * u[-1]) / denom)
    scale = max(float(np.abs(adjusted).max()), 1e-300)
    defect = _apply_L(sys, u)
    defect -= adjusted
    residual = float(np.abs(defect, out=defect).max()) / scale
    if not residual <= RESIDUAL_LIMIT:  # NaN fails too
        raise SolverFailureError(f"solve residual {residual:.3e} exceeds {RESIDUAL_LIMIT:.1e}")
    return u


def solve_L(sys: TridiagonalSystem, rhs: np.ndarray) -> np.ndarray:
    """Solve ``A u = rhs`` for a decaying source, line-mode ghosts zero, on the system's factor; verified residual."""
    return _solve(sys, _vector(sys, rhs), (0.0, 0.0))


def solve_limits(sys: TridiagonalSystem, rhs: np.ndarray, g: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``A u = rhs`` for a source with limits at infinity; return ``u`` and ``u_x``.

    Line mode: ``u``'s ghosts and ``u_x``'s pads are ``rhs[0]/order0[0]`` and ``rhs[-1]/order0[-1]``."""
    rhs = _vector(sys, rhs)
    far = (rhs[0] / sys.order0[0], rhs[-1] / sys.order0[-1])
    u = _solve(sys, rhs, far)
    return u, _derivative(u, g, far)


@lru_cache(maxsize=16)
def _helmholtz_system(p: Params, g: Grid) -> TridiagonalSystem:
    """``g - gamma d_xx`` with the standard second difference; one per (p, g)."""
    return TridiagonalSystem(np.full(g.n + 1, p.gamma / g.dx**2), np.full(g.n, p.g), g.periodic)


def solve_helmholtz(rhs: np.ndarray, p: Params, g: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``(g - gamma d_xx) a = rhs`` with the standard second difference; return ``a`` and ``a_x``.

    Line-mode ghosts ``rhs/g`` (:func:`solve_limits`) make constant sources exact, as is the kernel convolution.
    """
    return solve_limits(_helmholtz_system(p, g), as_field(rhs, g), g)


def apply_L_compatible(d: Gradients, u: np.ndarray, g: Grid) -> np.ndarray:
    """Apply ``h u - (1/3) D(h^3 D u)`` with the 4th-order derivative D; ``h``, ``h^3`` from the bundle ``d``.

    Symmetric positive-definite (by discrete integration by parts) but not an
    M-matrix; used only as the correction target below, never as a solver.
    """
    return d.h * u - (1.0 / 3.0) * _derivative(d.h3 * _derivative(u, g), g)


def solve_L_refined(sys: TridiagonalSystem, d: Gradients, rhs: np.ndarray, g: Grid) -> np.ndarray:
    """Solve ``L_h u = rhs`` with one defect-correction sweep against the
    derivative-compatible operator.

    The flux-form solver alone carries an O(dx^2) symbol mismatch against the
    4th-order derivative used everywhere else; one correction step makes the
    effective inverse compatible with it to O(dx^2)-squared, while the
    guaranteed solver (round trip, maximum principle) stays the plain flux
    form.  It brings criterion 1's energy drift (+5.4e-6 without it) under
    the 1e-6 tolerance, at Bond number 3 too, where ``g hbar - 3 gamma/hbar``
    vanishes; more sweeps do not close the eps = 0.05 energy budget of
    ``configs/steep_sweep.cfg`` (README, numerical notes).  ``d`` is the
    gradient bundle of the state whose depth ``sys`` was assembled from.
    """
    u = solve_L(sys, rhs)
    defect = _finite(rhs - apply_L_compatible(d, u, g))
    return u + solve_L(sys, defect)


def script_r(s: FlowState, p: Params, g: Grid, *, _sys: TridiagonalSystem | None = None) -> np.ndarray:
    """Nonlocal field ``C + (1/3) h^3 d_x L_h^{-1} d_x (C + F(h))``.

    Computed from the operator composition (valid in both grid modes) rather
    than from the cumulative-integral form.  ``_sys`` is private: a caller
    that has already assembled ``L_h`` of ``s.h`` (with ``p.hbar``) passes it
    so the operator is assembled and factored once.
    """
    d = gradients(s, p, g)
    c = curly_c(p, d)
    sys = assemble_L(s.h, g, p.hbar) if _sys is None else _sys
    w = solve_L(sys, derivative(c + f_of_h(s, p), g))
    return c + (1.0 / 3.0) * d.h3 * derivative(w, g)


def psi_identity_residual(h: np.ndarray, psi: np.ndarray, g: Grid, hbar: float) -> float:
    """Max-norm residual of the exchange identity

    ``d_x L_h^{-1} d_x Psi = -3 h^{-3} Psi + 3 d_x L_h^{-1} (h int_{-inf}^x h^{-3} Psi)``

    with both sides discretized independently.  Line mode only (the right side
    needs the primitive from -infinity); ``Psi`` must decay at both ends.
    """
    if g.periodic:
        raise ModeError("the exchange identity needs the primitive from -infinity; line mode only")
    h, psi = as_field(h, g), as_field(psi, g)
    sys = assemble_L(h, g, hbar)
    lhs = derivative(solve_L(sys, derivative(psi, g)), g)
    rhs = -3.0 * psi / h**3 + 3.0 * solve_limits(sys, h * cumulative_integral(psi / h**3, g), g)[1]
    return float(np.max(np.abs(lhs - rhs)))
