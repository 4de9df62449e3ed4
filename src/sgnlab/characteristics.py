"""Characteristic tracing and Riccati diagnostics over stored runs.

Characteristics are post-processing: the ODE ``dx/dt = speed(t, x)`` is
integrated through the snapshots of a finished run with midpoint RK2 steps,
one per snapshot interval, using cubic interpolation in space and linear
interpolation in time of the speed field.  The plus branch rides
``eta = u + sqrt(3 gamma/h)``, the minus branch ``lambda = u - sqrt(3 gamma/h)``.

Along the characteristics the gradient invariants obey Riccati-type
equations: P is transported along the minus branch and Q along the plus
branch::

    dP/dt|_lambda = -P^2/(8h) + Q^2/(8h) - 3 h^{-2} R_script
    dQ/dt|_eta    = -Q^2/(8h) + P^2/(8h) - 3 h^{-2} R_script

(with the cut-off, drag and V-field corrections when eps > 0).  The residual
of these ODEs, evaluated on traced paths, measures how faithfully the
discrete dynamics realizes them.

The square-integral diagnostic pairs the branches the other way around
(transversally, as in the energy-flux argument): P^2 is integrated along a
plus-branch path and Q^2 along a minus-branch path that meet.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import regularization as reg
from .elliptic import assemble_L, script_r
from .errors import ContractViolationError
from .grid import Grid
from .kinematics import FlowState, Params, char_speeds, gradients, pq_fields

__all__ = [
    "CharPath",
    "RiccatiResidual",
    "PQSquareIntegral",
    "trace",
    "riccati_residual",
    "pq_square_integral",
    "interp_cubic",
]

PLUS = "plus"
MINUS = "minus"


def interp_cubic(values: np.ndarray, g: Grid, xq) -> np.ndarray:
    """4-point Lagrange (cubic) interpolation of a cell-centered field.

    Periodic grids wrap; line grids clamp the stencil at the boundary (the
    far field is constant there, so clamping is exact to rounding).
    """
    xq = np.atleast_1d(np.asarray(xq, dtype=np.float64))
    s = (xq - g.x_left) / g.dx - 0.5
    j = np.floor(s).astype(int)
    th = s - j
    if g.periodic:
        idx = np.stack([(j - 1) % g.n, j % g.n, (j + 1) % g.n, (j + 2) % g.n])
    else:
        j = np.clip(j, 1, g.n - 3)
        th = s - j
        idx = np.stack([j - 1, j, j + 1, j + 2])
    w = np.stack([
        -th * (th - 1.0) * (th - 2.0) / 6.0,
        (th + 1.0) * (th - 1.0) * (th - 2.0) / 2.0,
        -th * (th + 1.0) * (th - 2.0) / 2.0,
        th * (th + 1.0) * (th - 1.0) / 6.0,
    ])
    return np.sum(values[idx] * w, axis=0)


@dataclass
class CharPath:
    """One traced characteristic: samples at every snapshot time.

    ``speed`` is the branch speed interpolated at the path points; ``P`` and
    ``Q`` both ride along so either Riccati equation (and the transversal
    square integrals) can be evaluated without re-tracing.  In periodic mode
    ``x`` is unwrapped (fields are evaluated modulo the domain length).
    """

    branch: str
    x0: float
    t: np.ndarray
    x: np.ndarray
    speed: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    exited: bool = False


@dataclass
class RiccatiResidual:
    """Per-sample residual of the Riccati equation along one path."""

    values: np.ndarray
    t: np.ndarray
    undersampled: bool = False


@dataclass
class PQSquareIntegral:
    """Trapezoid-in-time integral of P^2 (plus path) + Q^2 (minus path)."""

    value: float
    met: bool
    t_end: float


def _wrap(x: float, g: Grid) -> float:
    if g.periodic:
        return g.x_left + (x - g.x_left) % g.length
    return x


def trace(history, x0: float, branch: str) -> CharPath:
    """Trace one characteristic through the snapshots of ``history``."""
    if branch not in (PLUS, MINUS):
        raise ContractViolationError(f"branch must be 'plus' or 'minus', got {branch!r}")
    snaps = history.snapshots
    if len(snaps) < 2:
        raise ContractViolationError("tracing needs at least two snapshots")
    g: Grid = history.grid
    p: Params = history.params
    if not g.periodic:
        lo, hi = g.x_left + 2 * g.dx, g.x_right - 2 * g.dx
        if not (lo < x0 < hi):
            raise ContractViolationError(f"launch point {x0} outside the domain interior")
    speeds = [char_speeds(s, p)[1 if branch == PLUS else 0] for s in snaps]  # (lambda, eta)
    pqs = [pq_fields(s, p, g) for s in snaps]
    times = np.array([s.t for s in snaps])
    xs = [float(x0)]
    exited = False
    x = float(x0)
    for k in range(len(snaps) - 1):
        dt = times[k + 1] - times[k]
        v0 = float(interp_cubic(speeds[k], g, _wrap(x, g))[0])
        xh = x + 0.5 * dt * v0
        vmid = 0.5 * (
            float(interp_cubic(speeds[k], g, _wrap(xh, g))[0])
            + float(interp_cubic(speeds[k + 1], g, _wrap(xh, g))[0])
        )
        x = x + dt * vmid
        if not g.periodic and not (g.x_left + 2 * g.dx < x < g.x_right - 2 * g.dx):
            exited = True
            break
        xs.append(x)
    m = len(xs)
    xarr = np.asarray(xs)
    xeval = np.array([_wrap(xi, g) for xi in xarr])
    spd = np.array([float(interp_cubic(speeds[k], g, xeval[k])[0]) for k in range(m)])
    pval = np.array([float(interp_cubic(pqs[k][0], g, xeval[k])[0]) for k in range(m)])
    qval = np.array([float(interp_cubic(pqs[k][1], g, xeval[k])[0]) for k in range(m)])
    return CharPath(branch=branch, x0=float(x0), t=times[:m], x=xarr,
                    speed=spd, P=pval, Q=qval, exited=exited)


def _riccati_rhs_field(s: FlowState, p: Params, g: Grid, branch: str) -> np.ndarray:
    """Gridded right-hand side of the Riccati equation for one branch (the stepper's ``B`` is unused)."""
    d = gradients(s, p, g)
    P, Q = d.pq
    own, other = (P, Q) if branch == MINUS else (Q, P)
    out = (-own**2 + other**2) / (8.0 * s.h)
    v1 = v2 = 0.0
    if reg.cutoff_active(P, Q, p.epsilon):
        sys = assemble_L(s.h, g, p.hbar)
        fields = reg.compute_reg_fields(s, d.ux, P, Q, p, g, sys)
        chi_own = fields.chiP if branch == MINUS else fields.chiQ
        out = out + chi_own / (8.0 * s.h) - fields.A_x * own / (2.0 * s.h)
        v1 = reg.compute_V1(s, d.ux, fields.A, fields.A_x, fields.chiP, fields.chiQ, p, g, sys)
        v2 = reg.compute_V2(s, fields.A, p)
    M, N = reg.compute_MN(s, v1, v2, script_r(s, p, g))
    return out + (M if branch == MINUS else N)


def riccati_residual(history, path: CharPath, p: Params) -> RiccatiResidual:
    """Material derivative of P (minus branch) or Q (plus branch) along the
    path minus the interpolated Riccati right-hand side."""
    g: Grid = history.grid
    m = path.t.shape[0]
    undersampled = m < 8
    if undersampled:
        warnings.warn("riccati_residual: fewer than 8 path samples; residual is undersampled")
    snaps = history.snapshots[:m]
    values = path.P if path.branch == MINUS else path.Q
    dval = np.gradient(values, path.t)
    rhs_on_path = np.empty(m)
    for k, s in enumerate(snaps):
        field = _riccati_rhs_field(s, p, g, path.branch)
        rhs_on_path[k] = float(interp_cubic(field, g, _wrap(path.x[k], g))[0])
    return RiccatiResidual(values=dval - rhs_on_path, t=path.t.copy(), undersampled=undersampled)


def pq_square_integral(history, path_plus: CharPath, path_minus: CharPath) -> PQSquareIntegral:
    """``int P^2`` along the plus path plus ``int Q^2`` along the minus path,
    up to their meeting time (transversal pairing).

    Paths that never meet inside the run are integrated over the common time
    window and flagged with ``met = False``.
    """
    if path_plus.branch != PLUS or path_minus.branch != MINUS:
        raise ContractViolationError("pass a plus-branch path first and a minus-branch path second")
    m = min(path_plus.t.shape[0], path_minus.t.shape[0])
    gap0 = path_minus.x[0] - path_plus.x[0]
    met = False
    k_end = m - 1
    for k in range(m):
        if (path_minus.x[k] - path_plus.x[k]) * np.sign(gap0 if gap0 != 0 else 1.0) <= 0.0:
            met = True
            k_end = k
            break
    sl = slice(0, k_end + 1)
    t = path_plus.t[sl]
    if t.shape[0] < 2:
        return PQSquareIntegral(value=0.0, met=met, t_end=float(t[-1]) if t.size else 0.0)
    value = float(np.trapezoid(path_plus.P[sl] ** 2, t) + np.trapezoid(path_minus.Q[sl] ** 2, t))
    return PQSquareIntegral(value=value, met=met, t_end=float(t[-1]))
