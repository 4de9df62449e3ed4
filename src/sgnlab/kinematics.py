"""Pointwise algebraic quantities of the flow.

Riemann invariants and characteristic speeds::

    R = u + 2 sqrt(3 gamma) h^(-1/2)      S = u - 2 sqrt(3 gamma) h^(-1/2)
    lambda = u - sqrt(3 gamma) h^(-1/2)   eta = u + sqrt(3 gamma) h^(-1/2)

gradient invariants ``P = h R_x``, ``Q = h S_x`` and their exact inverse map

    u_x = (P + Q) / (2 h),    h_x = h^(1/2) (Q - P) / (2 sqrt(3 gamma)),

the sources of the nonlocal momentum term

    C    = (2/3) h^3 u_x^2 - (3/2) gamma h_x^2
    F(h) = (1/2) g h^2 - (1/2) g hbar^2 - 3 gamma ln(h/hbar),

the energy density and flux

    E = (1/2) h u^2 + (1/2) g (h-hbar)^2 + (1/6) h^3 u_x^2 + (1/2) gamma h_x^2
    D = u E + u (R_script + g h^2/2 - g hbar^2/2) + gamma h h_x u_x,

and the a-priori bounds valid whenever the measured initial energy E0 stays
below the threshold ``sqrt(g gamma) hbar^2``::

    h_min = hbar - (g gamma)^(-1/4) sqrt(E0)
    h_max = hbar + (g gamma)^(-1/4) sqrt(E0)
    u_max = -u_min = 3^(1/4) sqrt(E0) / h_min

Every gradient above comes from one per-state bundle, :class:`Gradients`,
built by :func:`gradients`: ``u_x`` and ``h_x`` taken once, ``(P, Q)`` formed
on first use.  ``C``, ``E`` and ``D`` take the bundle and are pointwise.

All functions are pure and operate on immutable inputs.  :class:`FlowState`
checks its fields, so :func:`gradients` uses the unchecked ``_derivative``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractViolationError, NonFiniteError, PositivityError, ThresholdExceededError
from .grid import Grid, _derivative, integrate

__all__ = [
    "Params",
    "FlowState",
    "Bounds",
    "Gradients",
    "gradients",
    "riemann_invariants",
    "char_speeds",
    "pq_fields",
    "pq_to_gradients",
    "curly_c",
    "f_of_h",
    "energy_density",
    "total_energy",
    "energy_flux",
    "a_priori_bounds",
]


@dataclass(frozen=True)
class Params:
    """Physical and regularization constants.

    ``gamma`` is the ratio of the surface tension coefficient to the density
    (must be positive: it controls the H^1 coercivity of the energy),
    ``hbar`` the reference depth and ``epsilon`` the regularization strength;
    ``epsilon = 0`` selects the unregularized system.
    """

    g: float = 9.81
    gamma: float = 9.81
    hbar: float = 1.0
    epsilon: float = 0.0

    def __post_init__(self):
        if not (self.g > 0 and self.gamma > 0 and self.hbar > 0):
            raise ContractViolationError("g, gamma and hbar must all be positive")
        if self.epsilon < 0:
            raise ContractViolationError("epsilon must be >= 0")

    @property
    def e_max(self) -> float:
        """Energy threshold below which the a-priori bounds are non-vacuous."""
        return math.sqrt(self.g * self.gamma) * self.hbar**2

    @property
    def sqrt_3gamma(self) -> float:
        return math.sqrt(3.0 * self.gamma)


@dataclass(frozen=True)
class FlowState:
    """Fields h (depth) and u (depth-averaged velocity) at one time instant."""

    h: np.ndarray
    u: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        h = np.asarray(self.h, dtype=np.float64)
        u = np.asarray(self.u, dtype=np.float64)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "u", u)
        if h.shape != u.shape or h.ndim != 1:
            raise ContractViolationError(f"h and u must be 1d arrays of equal length, got {h.shape} and {u.shape}")
        if not np.isfinite(h).all() or not np.isfinite(u).all():
            raise NonFiniteError("state contains non-finite entries")
        if not (h > 0.0).all():
            raise PositivityError(f"depth must be positive everywhere; min h = {h.min():.6e}")


@dataclass(frozen=True)
class Bounds:
    """Closed-form a-priori bounds implied by a measured initial energy e0."""

    h_min: float
    h_max: float
    u_min: float
    u_max: float


@dataclass(frozen=True)
class Gradients:
    """Gridded gradients of one state: ``ux``, ``hx`` and, on first use, ``pq``."""

    h: np.ndarray
    ux: np.ndarray
    hx: np.ndarray
    sqrt_3gamma: float

    @cached_property
    def pq(self) -> tuple[np.ndarray, np.ndarray]:
        """``P = h u_x - sqrt(3 gamma) h^(-1/2) h_x``, ``Q = h u_x + sqrt(3 gamma) h^(-1/2) h_x``."""
        a = self.h * self.ux
        b = self.sqrt_3gamma * self.hx / np.sqrt(self.h)
        return a - b, a + b


def gradients(s: FlowState, p: Params, g: Grid) -> Gradients:
    """The one place where a state's ``u`` and ``h`` are differentiated."""
    if s.h.shape != (g.n,):
        raise ContractViolationError(f"state has shape {s.h.shape}, grid has {g.n} cells")
    return Gradients(s.h, _derivative(s.u, g), _derivative(s.h, g), p.sqrt_3gamma)


def riemann_invariants(s: FlowState, p: Params) -> tuple[np.ndarray, np.ndarray]:
    """``(R, S)``; their difference ``4 sqrt(3 gamma) h^(-1/2)`` is positive pointwise."""
    c = 2.0 * p.sqrt_3gamma / np.sqrt(s.h)
    return s.u + c, s.u - c


def char_speeds(s: FlowState, p: Params) -> tuple[np.ndarray, np.ndarray]:
    """``(lambda, eta)``, the transport speeds of the minus and plus families."""
    c = p.sqrt_3gamma / np.sqrt(s.h)
    return s.u - c, s.u + c


def pq_fields(s: FlowState, p: Params, g: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Gradient invariants ``(P, Q)`` of ``s``, as :attr:`Gradients.pq`."""
    return gradients(s, p, g).pq


def pq_to_gradients(P: np.ndarray, Q: np.ndarray, h: np.ndarray, p: Params) -> tuple[np.ndarray, np.ndarray]:
    """Exact algebraic inverse of :func:`pq_fields`: recover ``(u_x, h_x)``."""
    ux = (P + Q) / (2.0 * h)
    hx = np.sqrt(h) * (Q - P) / (2.0 * p.sqrt_3gamma)
    return ux, hx


def curly_c(s: FlowState, p: Params, d: Gradients) -> np.ndarray:
    """Quadratic source ``(2/3) h^3 u_x^2 - (3/2) gamma h_x^2``."""
    return (2.0 / 3.0) * s.h**3 * d.ux**2 - 1.5 * p.gamma * d.hx**2


def f_of_h(s: FlowState, p: Params) -> np.ndarray:
    """Potential part ``g h^2/2 - g hbar^2/2 - 3 gamma ln(h/hbar)``; zero at the reference depth."""
    return 0.5 * p.g * s.h**2 - 0.5 * p.g * p.hbar**2 - 3.0 * p.gamma * np.log(s.h / p.hbar)


def energy_density(s: FlowState, p: Params, d: Gradients) -> np.ndarray:
    """Pointwise nonnegative energy density; its integral is the conserved/dissipated total."""
    return (
        0.5 * s.h * s.u**2
        + 0.5 * p.g * (s.h - p.hbar) ** 2
        + (1.0 / 6.0) * s.h**3 * d.ux**2
        + 0.5 * p.gamma * d.hx**2
    )


def total_energy(s: FlowState, p: Params, g: Grid) -> float:
    return integrate(energy_density(s, p, gradients(s, p, g)), g)


def energy_flux(s: FlowState, p: Params, d: Gradients, script_r: np.ndarray) -> np.ndarray:
    """Energy flux ``u E + u (R_script + g(h^2 - hbar^2)/2) + gamma h h_x u_x``.

    ``script_r`` is the nonlocal field produced by :func:`sgnlab.elliptic.script_r`.
    """
    return (
        s.u * energy_density(s, p, d)
        + s.u * (script_r + 0.5 * p.g * (s.h**2 - p.hbar**2))
        + p.gamma * s.h * d.hx * d.ux
    )


def a_priori_bounds(e0: float, p: Params) -> Bounds:
    """Bounds on (h, u) valid for all time while the energy stays below ``e0``.

    Raises :class:`ThresholdExceededError` when ``e0 >= e_max``: the formulas
    below would give ``h_min <= 0`` and the caller must know the bounds are
    vacuous rather than receive nonsense numbers.
    """
    if not e0 >= 0.0:
        raise ContractViolationError(f"e0 must be nonnegative, got {e0}")
    if e0 >= p.e_max:
        raise ThresholdExceededError(
            f"initial energy {e0:.6e} >= threshold sqrt(g gamma) hbar^2 = {p.e_max:.6e}"
        )
    half_width = math.sqrt(e0) / (p.g * p.gamma) ** 0.25
    h_min = p.hbar - half_width
    h_max = p.hbar + half_width
    u_max = 3.0**0.25 * math.sqrt(e0) / h_min
    return Bounds(h_min=h_min, h_max=h_max, u_min=-u_max, u_max=u_max)
