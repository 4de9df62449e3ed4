"""Pointwise algebraic quantities of the flow.

Riemann invariants and characteristic speeds::

    R = u + 2 sqrt(3 gamma) h^(-1/2)      S = u - 2 sqrt(3 gamma) h^(-1/2)
    lambda = u - sqrt(3 gamma) h^(-1/2)   eta = u + sqrt(3 gamma) h^(-1/2)

gradient invariants ``P = h R_x``, ``Q = h S_x``, the sources of the nonlocal
momentum term

    C    = (2/3) h^3 u_x^2 - (3/2) gamma h_x^2
    F(h) = (1/2) g h^2 - (1/2) g hbar^2 - 3 gamma ln(h/hbar),

the energy density

    E = (1/2) h u^2 + (1/2) g (h-hbar)^2 + (1/6) h^3 u_x^2 + (1/2) gamma h_x^2,

and the a-priori bounds ``h_min <= h <= h_max``, ``|u| <= u_max``, valid whenever
the measured initial energy E0 stays below the threshold ``sqrt(g gamma) hbar^2``
(:func:`a_priori_bounds`, the one rule for that, returns ``None`` otherwise)::

    h_min = hbar - (g gamma)^(-1/4) sqrt(E0)
    h_max = hbar + (g gamma)^(-1/4) sqrt(E0)
    u_max = 3^(1/4) sqrt(E0) / h_min

Every gradient above comes from one per-state bundle, :class:`Gradients`,
built by :func:`gradients` and memoized on the state per (params, grid):
``u_x``, ``h_x`` and the mass flux's ``(h u)_x`` taken once, in one call of
the stencil, ``(P, Q)`` and the cut-off values ``chi(P), chi(Q)`` formed on
first use, ``None`` while both stay above ``-1/eps`` (the one test of whether
the cut-off acts).  ``C`` and ``E`` take the bundle and are pointwise.

All functions are pure and operate on immutable inputs: a state's arrays are
never written after construction.  :class:`FlowState` checks its fields, so
:func:`gradients` uses the unchecked ``_derivative``; on a line grid ``h_x``
reads the reference depth ``hbar`` beyond the ends, ``u_x`` and ``(h u)_x``
read zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, NonFiniteError, PositivityError, check_ranges
from .grid import Grid, _cached, _derivative, integrate

__all__ = [
    "Params",
    "FlowState",
    "Bounds",
    "Gradients",
    "gradients",
    "chi",
    "riemann_invariants",
    "char_speeds",
    "pq_fields",
    "curly_c",
    "f_of_h",
    "energy_density",
    "total_energy",
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
        check_ranges(self, ContractViolationError, positive=("g", "gamma", "hbar"), nonnegative=("epsilon",),
                     squared=("hbar",))

    @property
    def e_max(self) -> float:
        """Energy threshold below which the a-priori bounds are non-vacuous."""
        return math.sqrt(self.g * self.gamma) * self.hbar**2

    @property
    def sqrt_3gamma(self) -> float:
        return math.sqrt(3.0 * self.gamma)


@dataclass(frozen=True)
class FlowState:
    """Fields h (depth) and u (depth-averaged velocity) at one time instant.

    The arrays are never written after construction; derived fields are
    memoized on the state once per (params, grid) (:meth:`_derived`).
    ``FlowState(s.h, s.u, s.t)`` shares the arrays with an empty memo.
    """

    h: np.ndarray
    u: np.ndarray
    t: float = 0.0
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        h = np.asarray(self.h, dtype=np.float64)
        u = np.asarray(self.u, dtype=np.float64)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "u", u)
        if h.shape != u.shape or h.ndim != 1:
            raise ContractViolationError(f"h and u must be 1d arrays of equal length, got {h.shape} and {u.shape}")
        lo, hi = np.minimum.reduce(h, initial=np.inf), np.maximum.reduce(h, initial=-np.inf)  # a NaN propagates
        if not (-np.inf < lo and hi < np.inf and np.logical_and.reduce(np.isfinite(u))):
            raise NonFiniteError("state contains non-finite entries")
        if not lo > 0.0:
            raise PositivityError(f"depth must be positive everywhere; min h = {lo:.6e}")

    def _derived(self, fn, p: Params, g: Grid):
        """``fn(self, p, g)``, evaluated on first use and kept in the memo."""
        value = self._memo.get((fn, p, g))
        if value is None:
            value = self._memo[fn, p, g] = fn(self, p, g)
        return value


@dataclass(frozen=True)
class Bounds:
    """A-priori bounds ``h_min <= h <= h_max``, ``|u| <= u_max`` implied by an initial energy below the threshold."""

    h_min: float
    h_max: float
    u_max: float


def chi(zeta, epsilon: float):
    """Cut-off ``(zeta + 1/eps)^2 1_{zeta <= -1/eps}``; scalar or array.

    C^1 across the activation point.  Requires ``epsilon > 0`` (callers bypass
    with zero when the regularization is off).
    """
    if not epsilon > 0.0:
        raise ContractViolationError("chi needs epsilon > 0; the eps = 0 system has no cut-off")
    out = np.minimum(np.asarray(zeta, dtype=np.float64) + 1.0 / epsilon, 0.0)
    out *= out
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Gradients:
    """Gridded gradients of one state: ``ux``, ``hx``, ``hux`` and, on first use, ``h3``, ``pq`` and ``cutoff``."""

    h: np.ndarray
    ux: np.ndarray
    hx: np.ndarray
    hux: np.ndarray
    sqrt_3gamma: float
    epsilon: float

    @_cached
    def h3(self) -> np.ndarray:
        """``h**3``, the one cube of the state's depth."""
        return self.h**3

    @_cached
    def pq(self) -> tuple[np.ndarray, np.ndarray]:
        """``P = h u_x - sqrt(3 gamma) h^(-1/2) h_x``, ``Q = h u_x + sqrt(3 gamma) h^(-1/2) h_x``."""
        a = self.h * self.ux
        b = self.sqrt_3gamma * self.hx / np.sqrt(self.h)
        return a - b, a + b

    @_cached
    def cutoff(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(chi(P), chi(Q))`` once P or Q reaches ``-1/eps``, else ``None``: the one rule for when it acts."""
        if self.epsilon == 0.0:  # without forming P, Q
            return None
        P, Q = self.pq
        thr = -1.0 / self.epsilon
        return (chi(P, self.epsilon), chi(Q, self.epsilon)) if P.min() <= thr or Q.min() <= thr else None


def _gradients(s: FlowState, p: Params, g: Grid) -> Gradients:
    if s.h.shape != (g.n,):
        raise ContractViolationError(f"state has shape {s.h.shape}, grid has {g.n} cells")
    far = 0.0 if g.periodic else np.array(((0.0,), (p.hbar,), (0.0,)))  # each row's value beyond a line
    ux, hx, hux = _derivative(np.array((s.u, s.h, s.h * s.u)), g, (far, far))  # one call of the stencil
    return Gradients(s.h, ux, hx, hux, p.sqrt_3gamma, p.epsilon)


def gradients(s: FlowState, p: Params, g: Grid) -> Gradients:
    """The one place where a state's ``u``, ``h`` and mass flux ``h u`` are differentiated:
    once per (params, grid), memoized on ``s``."""
    return s._derived(_gradients, p, g)


def riemann_invariants(s: FlowState, p: Params) -> tuple[np.ndarray, np.ndarray]:
    """``(R, S)``; their difference ``4 sqrt(3 gamma) h^(-1/2)`` is positive pointwise."""
    c = 2.0 * p.sqrt_3gamma / np.sqrt(s.h)
    return s.u + c, s.u - c


def char_speeds(s: FlowState, p: Params) -> tuple[np.ndarray, np.ndarray]:
    """``(lambda, eta)``, the transport speeds of the minus and plus families."""
    c = p.sqrt_3gamma / np.sqrt(s.h)
    return s.u - c, s.u + c


def pq_fields(s: FlowState, p: Params, g: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Gradient invariants ``(P, Q)`` of ``s``, as :attr:`Gradients.pq`, formed without
    filling its memo: a one-shot read (a snapshot CSV) keeps no fields alive on a history."""
    return _gradients(s, p, g).pq


def curly_c(p: Params, d: Gradients) -> np.ndarray:
    """Quadratic source ``(2/3) h^3 u_x^2 - (3/2) gamma h_x^2``."""
    return (2.0 / 3.0) * d.h3 * d.ux**2 - 1.5 * p.gamma * d.hx**2


def f_of_h(s: FlowState, p: Params) -> np.ndarray:
    """Potential part ``g h^2/2 - g hbar^2/2 - 3 gamma ln(h/hbar)``; exactly zero at the reference depth."""
    # hbar * hbar rounds as numpy's h**2 does; Python's hbar**2 can be an ulp off
    return 0.5 * p.g * s.h**2 - 0.5 * p.g * (p.hbar * p.hbar) - 3.0 * p.gamma * np.log(s.h / p.hbar)


def energy_density(s: FlowState, p: Params, d: Gradients) -> np.ndarray:
    """Pointwise nonnegative energy density; its integral is the conserved/dissipated total."""
    return (
        0.5 * s.h * s.u**2
        + 0.5 * p.g * (s.h - p.hbar) ** 2
        + (1.0 / 6.0) * d.h3 * d.ux**2
        + 0.5 * p.gamma * d.hx**2
    )


def total_energy(s: FlowState, p: Params, g: Grid) -> float:
    return integrate(energy_density(s, p, gradients(s, p, g)), g)


def a_priori_bounds(e0: float, p: Params) -> Bounds | None:
    """Bounds on (h, u) valid for all time while the energy stays below ``e0``.

    ``None`` when ``e0 >= e_max``: the bounds are vacuous there (``h_min <= 0``),
    and this is the one place that decides it.
    """
    if not e0 >= 0.0:
        raise ContractViolationError(f"e0 must be nonnegative, got {e0}")
    half_width = math.sqrt(e0) / (p.g * p.gamma) ** 0.25
    h_min = p.hbar - half_width
    if e0 >= p.e_max or not h_min > 0.0:  # h_min can round to <= 0 a few ulps below e_max
        return None
    h_max = p.hbar + half_width
    u_max = 3.0**0.25 * math.sqrt(e0) / h_min
    return Bounds(h_min=h_min, h_max=h_max, u_max=u_max)
