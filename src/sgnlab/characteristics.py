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

Everything that does not depend on the path is computed once per (history,
parameters) and shared by every launch point and both branches: the branch
speeds, ``P`` and ``Q`` (one :func:`~sgnlab.kinematics.gradients` call per
snapshot) and, on the first :func:`riccati_residual`, both branches'
right-hand sides (one ``script_r`` per snapshot; with an active cut-off one
``chi``, ``A``, ``A_x`` and one ``L_h`` assembly shared by ``V1`` and
``script_r``).  They are stacked ``(snapshots, n)``, so each path quantity is
one row-wise :func:`interp_cubic` call.  The fields live with the history
(``SimHistory._characteristics``), keyed by :class:`Params` and the grid, and
are rebuilt as soon as ``history.snapshots`` no longer holds the same
:class:`FlowState` objects (a snapshot replaced, added or removed); snapshots
are immutable, so their arrays must not be changed in place.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import regularization as reg
from .elliptic import assemble_L, script_r
from .errors import ContractViolationError
from .grid import Grid
from .kinematics import FlowState, Params, char_speeds, gradients

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
_ROW = {MINUS: 0, PLUS: 1}  # branch -> index of its stacked speed and right-hand side


def interp_cubic(values: np.ndarray, g: Grid, xq) -> np.ndarray:
    """4-point Lagrange (cubic) interpolation of a cell-centered field.

    ``values`` is one field ``(n,)``, evaluated at every point of ``xq``, or
    a stack of fields ``(k, n)``, row ``i`` evaluated at ``xq[i]``; a stacked
    row gets the same arithmetic as a single-field call.  Periodic grids
    wrap; line grids clamp the stencil at the boundary (the far field is
    constant there, so clamping is exact to rounding).
    """
    values = np.asarray(values)
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
    if values.ndim == 2:
        if xq.shape != values.shape[:1]:
            raise ContractViolationError(f"{values.shape[0]} stacked fields need as many points, got {xq.shape}")
        idx = (np.arange(values.shape[0]), idx)
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


class _SnapshotFields:
    """Path-independent fields of one history under one parameter set.

    Every array is stacked ``(snapshots, n)``, row ``k`` belonging to
    ``snaps[k]``; ``speed`` and ``_rhs`` carry a leading branch axis (``_ROW``).
    """

    def __init__(self, snaps: tuple[FlowState, ...], p: Params, g: Grid):
        self.snaps, self.p, self.g = snaps, p, g
        self._rhs = np.empty((2, len(snaps), g.n))
        self._rhs_rows = 0  # leading rows of ``_rhs`` built so far

    def holds(self, snaps: list[FlowState]) -> bool:
        return len(snaps) == len(self.snaps) and all(a is b for a, b in zip(snaps, self.snaps))

    @cached_property
    def speed(self) -> np.ndarray:
        """``(lambda, eta)`` of every snapshot."""
        return np.stack([char_speeds(s, self.p) for s in self.snaps], axis=1)

    @cached_property
    def grads(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(u_x, P, Q)`` of every snapshot, from one :func:`gradients` call each."""
        ds = [gradients(s, self.p, self.g) for s in self.snaps]
        return np.stack([d.ux for d in ds]), np.stack([d.pq[0] for d in ds]), np.stack([d.pq[1] for d in ds])

    def riccati_rhs(self, branch: str, m: int) -> np.ndarray:
        """The branch's Riccati right-hand side at the first ``m`` snapshots."""
        ux, P, Q = self.grads
        for k in range(self._rhs_rows, m):
            self._rhs[:, k] = _riccati_rhs_fields(self.snaps[k], self.p, self.g, ux[k], P[k], Q[k])
            self._rhs_rows = k + 1
        return self._rhs[_ROW[branch], :m]


def _snapshot_fields(history, p: Params) -> _SnapshotFields:
    """The fields of ``history`` under ``p``: kept with the history, rebuilt when its snapshots change."""
    key = (p, history.grid)
    fields = history._characteristics.get(key)
    if fields is None or not fields.holds(history.snapshots):
        fields = history._characteristics[key] = _SnapshotFields(tuple(history.snapshots), p, history.grid)
    return fields


def trace(history, x0: float, branch: str) -> CharPath:
    """Trace one characteristic through the snapshots of ``history``."""
    if branch not in (PLUS, MINUS):
        raise ContractViolationError(f"branch must be 'plus' or 'minus', got {branch!r}")
    snaps = history.snapshots
    if len(snaps) < 2:
        raise ContractViolationError("tracing needs at least two snapshots")
    g: Grid = history.grid
    if not g.periodic:
        lo, hi = g.x_left + 2 * g.dx, g.x_right - 2 * g.dx
        if not (lo < x0 < hi):
            raise ContractViolationError(f"launch point {x0} outside the domain interior")
    fields = _snapshot_fields(history, history.params)
    speed = fields.speed[_ROW[branch]]
    times = np.array([s.t for s in snaps])
    xs = [float(x0)]
    exited = False
    x = float(x0)
    for k in range(len(snaps) - 1):
        dt = times[k + 1] - times[k]
        v0 = float(interp_cubic(speed[k], g, _wrap(x, g))[0])
        xh = _wrap(x + 0.5 * dt * v0, g)
        va, vb = interp_cubic(speed[k:k + 2], g, [xh, xh])
        x = x + dt * (0.5 * (float(va) + float(vb)))
        if not g.periodic and not (g.x_left + 2 * g.dx < x < g.x_right - 2 * g.dx):
            exited = True
            break
        xs.append(x)
    m = len(xs)
    xarr = np.asarray(xs)
    xeval = np.array([_wrap(xi, g) for xi in xarr])
    _, P, Q = fields.grads
    return CharPath(branch=branch, x0=float(x0), t=times[:m], x=xarr,
                    speed=interp_cubic(speed[:m], g, xeval),
                    P=interp_cubic(P[:m], g, xeval), Q=interp_cubic(Q[:m], g, xeval), exited=exited)


def _riccati_rhs_fields(s: FlowState, p: Params, g: Grid, ux: np.ndarray, P: np.ndarray,
                        Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gridded right-hand sides ``(minus, plus)`` of the Riccati equations at one state.

    ``ux``, ``P`` and ``Q`` are the state's gradients.  An active cut-off
    adds ``chi``, ``A``, ``A_x`` and ``V1``, ``V2``; the stepper's ``B`` is
    not needed, and ``V1`` and ``script_r`` share one ``L_h``.
    """
    minus = (-P**2 + Q**2) / (8.0 * s.h)
    plus = (-Q**2 + P**2) / (8.0 * s.h)
    v1 = v2 = 0.0
    sys = None
    if reg.cutoff_active(P, Q, p.epsilon):
        chiP, chiQ = reg.chi(P, p.epsilon), reg.chi(Q, p.epsilon)
        A, A_x = reg.compute_A(s, chiP, chiQ, p, g)
        minus = minus + chiP / (8.0 * s.h) - A_x * P / (2.0 * s.h)
        plus = plus + chiQ / (8.0 * s.h) - A_x * Q / (2.0 * s.h)
        sys = assemble_L(s.h, g, p.hbar)
        v1 = reg.compute_V1(s, ux, A, A_x, chiP, chiQ, p, g, sys)
        v2 = reg.compute_V2(s, A, p)
    M, N = reg.compute_MN(s, v1, v2, script_r(s, p, g, _sys=sys))
    return minus + M, plus + N


def riccati_residual(history, path: CharPath, p: Params) -> RiccatiResidual:
    """Material derivative of P (minus branch) or Q (plus branch) along the
    path minus the interpolated Riccati right-hand side."""
    g: Grid = history.grid
    m = path.t.shape[0]
    if m < 2:
        raise ContractViolationError("riccati_residual needs a path with at least two samples")
    undersampled = m < 8
    if undersampled:
        warnings.warn("riccati_residual: fewer than 8 path samples; residual is undersampled")
    values = path.P if path.branch == MINUS else path.Q
    dval = np.gradient(values, path.t)
    xeval = np.array([_wrap(xi, g) for xi in path.x])
    rhs_on_path = interp_cubic(_snapshot_fields(history, p).riccati_rhs(path.branch, m), g, xeval)
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
