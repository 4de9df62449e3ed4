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

The path-independent fields of a snapshot are memoized on the snapshot
itself (:class:`FlowState`), once per parameters and grid, and shared by
every launch point and both branches: ``u_x``, ``P``, ``Q`` and the cut-off
values (one :func:`~sgnlab.kinematics.gradients` bundle, which ``script_r``
reads too) and both branches' Riccati right-hand sides (one ``script_r``;
with an active cut-off one ``A``, ``A_x`` and one ``L_h`` assembly shared by
``V1`` and ``script_r``).  Each path quantity stacks the rows it needs
``(snapshots, n)`` and is one row-wise :func:`interp_cubic` call: two per
trace (speed and the transported invariant) and one per residual.  The RK2
loop that finds the path points makes no array call: each stage point gets
one scalar cubic stencil, applied to every speed row that stage reads.  A
history whose snapshots are replaced or appended needs no invalidation: a
new snapshot is a new state with its own memo.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import regularization as reg
from .elliptic import _assemble_L, script_r
from .errors import ContractViolationError, NonFiniteError
from .grid import Grid
from .kinematics import FlowState, Params, char_speeds, gradients

__all__ = [
    "CharPath",
    "RiccatiResidual",
    "trace",
    "riccati_residual",
    "interp_cubic",
]

PLUS = "plus"
MINUS = "minus"
_ROW = {MINUS: 0, PLUS: 1}  # branch -> index of its speed, invariant and right-hand side


def _cubic_stencil(x: float, g: Grid) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Columns and weights of the 4-point Lagrange stencil at one point ``x``.

    The stencil starts one cell left of ``floor(s)``, ``s`` being ``x`` in
    cell units from the first centre; periodic grids wrap the columns, line
    grids clamp the stencil inside the grid.  Scalar Python floats, since
    :func:`trace`'s RK2 loop evaluates one point at a time.
    """
    if not math.isfinite(x):
        raise NonFiniteError(f"interpolation point {x} is not finite")
    s = (x - g.x_left) / g.dx - 0.5
    j = math.floor(s)
    if g.periodic:
        n = g.n
        cols = ((j - 1) % n, j % n, (j + 1) % n, (j + 2) % n)
    else:
        j = min(max(j, 1), g.n - 3)
        cols = (j - 1, j, j + 1, j + 2)
    th = s - j
    return cols, (
        -th * (th - 1.0) * (th - 2.0) / 6.0,
        (th + 1.0) * (th - 1.0) * (th - 2.0) / 2.0,
        -th * (th + 1.0) * (th - 2.0) / 2.0,
        th * (th + 1.0) * (th - 1.0) / 6.0,
    )


def _apply(row: np.ndarray, stencil) -> float:
    """One stencil applied to one field, summed in the order of ``np.sum``
    over a stencil axis: left to right from +0.0, so results match a
    vectorized evaluation bit for bit, signed zeros included."""
    (c0, c1, c2, c3), (w0, w1, w2, w3) = stencil
    return 0.0 + w0 * row.item(c0) + w1 * row.item(c1) + w2 * row.item(c2) + w3 * row.item(c3)


def interp_cubic(values: np.ndarray, g: Grid, xq) -> np.ndarray:
    """4-point Lagrange (cubic) interpolation of a cell-centered field.

    ``values`` is one field ``(n,)``, evaluated at every point of ``xq``, or
    a stack of fields ``(k, n)``, row ``i`` evaluated at ``xq[i]``; a stacked
    row gets the same arithmetic as a single-field call.  Periodic grids
    wrap; line grids clamp the stencil at the boundary (the far field is
    constant there, so clamping is exact to rounding).  A non-finite point
    of ``xq`` raises :class:`NonFiniteError`.
    """
    values = np.asarray(values)
    xq = np.atleast_1d(np.asarray(xq, dtype=np.float64))
    if values.ndim == 2 and xq.shape != values.shape[:1]:
        raise ContractViolationError(f"{values.shape[0]} stacked fields need as many points, got {xq.shape}")
    rows = values if values.ndim == 2 else [values] * xq.size
    out = [_apply(row, _cubic_stencil(x, g)) for row, x in zip(rows, xq.ravel().tolist())]
    return np.array(out, dtype=np.float64).reshape(xq.shape)


@dataclass
class CharPath:
    """One traced characteristic: samples at every snapshot time.

    ``speed`` is the branch speed and ``invariant`` the gradient invariant
    the branch transports (P on minus, Q on plus), both interpolated at the
    path points.  In periodic mode ``x`` is unwrapped (fields are evaluated
    modulo the domain length).
    """

    branch: str
    x0: float
    t: np.ndarray
    x: np.ndarray
    speed: np.ndarray
    invariant: np.ndarray
    exited: bool = False


@dataclass
class RiccatiResidual:
    """Per-sample residual of the Riccati equation along one path."""

    values: np.ndarray
    t: np.ndarray
    undersampled: bool = False


def _wrap(x: float, g: Grid) -> float:
    return g.x_left + (x - g.x_left) % g.length if g.periodic else x


def trace(history, x0: float, branch: str) -> CharPath:
    """Trace one characteristic through the snapshots of ``history``."""
    if branch not in (PLUS, MINUS):
        raise ContractViolationError(f"branch must be 'plus' or 'minus', got {branch!r}")
    snaps = history.snapshots
    if len(snaps) < 2:
        raise ContractViolationError("tracing needs at least two snapshots")
    g: Grid = history.grid
    lo, hi = (-math.inf, math.inf) if g.periodic else (g.x_left + 2 * g.dx, g.x_right - 2 * g.dx)
    if not (lo < x0 < hi):
        raise ContractViolationError(f"launch point {x0} is not a finite point of the domain interior")
    p = history.params
    speed = np.stack([char_speeds(s, p)[_ROW[branch]] for s in snaps])
    times = [s.t for s in snaps]
    xs = [float(x0)]
    exited = False
    x = float(x0)
    for k in range(len(snaps) - 1):
        dt = times[k + 1] - times[k]
        xh = _wrap(x + 0.5 * dt * _apply(speed[k], _cubic_stencil(_wrap(x, g), g)), g)
        at_xh = _cubic_stencil(xh, g)
        x = x + dt * (0.5 * (_apply(speed[k], at_xh) + _apply(speed[k + 1], at_xh)))
        if not (lo < x < hi):
            exited = True
            break
        xs.append(x)
    m = len(xs)
    xeval = [_wrap(xi, g) for xi in xs]
    invariant = np.stack([gradients(s, p, g).pq[_ROW[branch]] for s in snaps[:m]])
    return CharPath(branch=branch, x0=float(x0), t=np.array(times[:m]), x=np.array(xs),
                    speed=interp_cubic(speed[:m], g, xeval),
                    invariant=interp_cubic(invariant, g, xeval), exited=exited)


def _riccati_rhs_fields(s: FlowState, p: Params, g: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Gridded right-hand sides ``(minus, plus)`` of the Riccati equations at one state.

    Reads the state's gradient bundle.  An active cut-off adds its ``chi``
    values, ``A``, ``A_x`` and ``V1``, ``V2``; the stepper's ``B`` is not
    needed, and ``V1`` and ``script_r`` share one ``L_h``.
    """
    d = gradients(s, p, g)
    P, Q = d.pq
    minus = (-P**2 + Q**2) / (8.0 * s.h)
    plus = (-Q**2 + P**2) / (8.0 * s.h)
    v1 = v2 = 0.0
    sys = None
    if d.cutoff is not None:
        chiP, chiQ = d.cutoff
        A, A_x = reg.compute_A(s, chiP, chiQ, p, g)
        minus = minus + chiP / (8.0 * s.h) - A_x * P / (2.0 * s.h)
        plus = plus + chiQ / (8.0 * s.h) - A_x * Q / (2.0 * s.h)
        sys = _assemble_L(s.h, g, p.hbar)
        v1 = reg.compute_V1(s, d.ux, A_x, chiP, chiQ, g, sys)
        v2 = reg.compute_V2(s, A, p)
    M, N = reg.compute_MN(s, v1, v2, script_r(s, p, g, _sys=sys))
    return minus + M, plus + N


def riccati_residual(history, path: CharPath, p: Params) -> RiccatiResidual:
    """Material derivative of P (minus branch) or Q (plus branch) along the path minus the
    interpolated Riccati right-hand side of the run: ``p`` must equal ``history.params``."""
    g: Grid = history.grid
    if p != history.params:
        raise ContractViolationError(f"riccati_residual got {p}, not the run's parameters {history.params}")
    m = path.t.shape[0]
    if m < 2:
        raise ContractViolationError("riccati_residual needs a path with at least two samples")
    snaps = history.snapshots[:m]
    if not np.array_equal(path.t, [s.t for s in snaps]):
        raise ContractViolationError(f"the path's {m} sample times are not the history's first {m} snapshot times; "
                                     "trace the path on this history")
    undersampled = m < 8
    if undersampled:
        warnings.warn("riccati_residual: fewer than 8 path samples; residual is undersampled")
    dval = np.gradient(path.invariant, path.t)
    xeval = np.array([_wrap(xi, g) for xi in path.x])
    rows = np.stack([s._derived(_riccati_rhs_fields, history.params, g)[_ROW[path.branch]] for s in snaps])
    rhs_on_path = interp_cubic(rows, g, xeval)
    return RiccatiResidual(values=dval - rhs_on_path, t=path.t.copy(), undersampled=undersampled)

