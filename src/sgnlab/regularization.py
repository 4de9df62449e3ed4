"""Cut-off machinery of the regularized system.

The cut-off ``chi_eps(z) = (z + 1/eps)^2`` for ``z <= -1/eps`` (zero above)
linearizes the quadratic self-interaction of the gradient invariants near
minus infinity.  It satisfies ``0 <= chi_eps(z) <= z^2`` and
``z chi_eps(z) <= 0``: only steep negative gradients feel it, and the energy
production term ``(P chi(P) + Q chi(Q))/48`` it induces is never positive.

From the cut-off, the source fields of the regularized system::

    A  = (g - gamma d_xx)^{-1} { sqrt(3 gamma)/(48 h^{1/2}) (chi(P) - chi(Q)) }
    B  = L_h^{-1} { -u A_x / 2 + d_x { h^2 u_x A_x / 2 - h (chi(P) + chi(Q))/48 } }
    V1 = (h/2) d_x L_h^{-1} { -u A_x + h int_{-inf}^x [ 3 u_x A_x / h
                               - (chi(P) + chi(Q))/(8 h^2) ] dy }

``chi`` lives in :mod:`sgnlab.kinematics`: a state's cut-off values are part
of its memoized gradient bundle, ``Gradients.cutoff``, the one rule for whether
the cut-off acts (``None`` at eps = 0 or while P and Q stay above ``-1/eps``).
The stepper reads ``A_x`` and ``B``'s flux ``h^2 u_x A_x/2 - h (chi(P) +
chi(Q))/48``: :func:`compute_reg_fields` returns both, and ``dynamics.rhs``
folds ``B``'s source into its one ``L_h`` solve (``L_h^{-1}`` is linear).
:func:`compute_B` solves for ``B`` alone from the same flux.  ``V1``
enters only the Riccati equations along characteristics, whose right-hand
side has one home, ``characteristics._riccati_rhs_fields``: it builds ``A``
and ``A_x`` with :func:`compute_A`, hands ``V1`` the ``L_h`` it shares with
``script_r``, and forms ``V2``, ``M`` and ``N`` itself.

``A``, ``A_x`` and ``B`` are well defined on both grid modes, so ``eps > 0``
runs on either.  ``A``'s source and ``V1``'s primitive have limits at
infinity, so their solve (``elliptic.solve_limits``) sets their line-mode
ghosts and the pads of ``A_x`` and ``V1``'s derivative; ``B``'s source decays
(zero ghosts).  Only ``V1`` needs the primitive from minus infinity: on a
periodic grid :func:`compute_V1` raises :class:`ModeError` (through
``cumulative_integral``), so the Riccati diagnostic of an active cut-off is
line-mode only.  When neither P nor Q dips below ``-1/eps`` every field is
identically zero and the regularized right-hand side coincides with the
unregularized one bitwise.
"""

from __future__ import annotations

import numpy as np

from .elliptic import TridiagonalSystem, solve_helmholtz, solve_L, solve_limits
from .grid import Grid, cumulative_integral, derivative
from .kinematics import FlowState, Params, gradients

__all__ = [
    "compute_A",
    "compute_V1",
    "compute_B",
    "compute_reg_fields",
]


def compute_A(s: FlowState, chiP: np.ndarray, chiQ: np.ndarray, p: Params, g: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Helmholtz solve for the mass-equation source and its derivative."""
    return solve_helmholtz((p.sqrt_3gamma / 48.0) * (chiP - chiQ) / np.sqrt(s.h), p, g)


def compute_V1(s: FlowState, ux: np.ndarray, A_x: np.ndarray, chiP: np.ndarray, chiQ: np.ndarray,
               g: Grid, sys: TridiagonalSystem) -> np.ndarray:
    """Transport-correction field; needs the primitive from -infinity (line mode)."""
    integrand = 3.0 * ux * A_x / s.h - (chiP + chiQ) / (8.0 * s.h**2)
    return 0.5 * s.h * solve_limits(sys, -s.u * A_x + s.h * cumulative_integral(integrand, g), g)[1]


def _b_flux(s: FlowState, ux: np.ndarray, A_x: np.ndarray, chiP: np.ndarray, chiQ: np.ndarray) -> np.ndarray:
    """The flux ``h^2 u_x A_x/2 - h (chiP + chiQ)/48`` under the derivative in ``B``'s source."""
    return 0.5 * s.h**2 * ux * A_x - (1.0 / 48.0) * s.h * (chiP + chiQ)


def compute_B(s: FlowState, ux: np.ndarray, A_x: np.ndarray, chiP: np.ndarray, chiQ: np.ndarray,
              g: Grid, sys: TridiagonalSystem) -> np.ndarray:
    """Momentum-equation source ``L_h^{-1}{ -u A_x/2 + d_x{ h^2 u_x A_x/2 - h(chiP+chiQ)/48 } }``."""
    return solve_L(sys, -0.5 * s.u * A_x + derivative(_b_flux(s, ux, A_x, chiP, chiQ), g))


def compute_reg_fields(s: FlowState, p: Params, g: Grid) -> tuple[np.ndarray, np.ndarray] | None:
    """Stepper sources ``(A_x, b_flux)``, ``b_flux`` being ``B``'s flux, or ``None`` when ``Gradients.cutoff`` is.

    Returning ``None`` (rather than zero fields, at any eps) lets the stepper skip
    the Helmholtz solve and reproduce the unregularized right-hand side bitwise.
    """
    d = gradients(s, p, g)
    if d.cutoff is None:
        return None
    chiP, chiQ = d.cutoff
    _, a_x = compute_A(s, chiP, chiQ, p, g)
    return a_x, _b_flux(s, d.ux, a_x, chiP, chiQ)
