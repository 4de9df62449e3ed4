"""Semi-discrete right-hand sides and explicit RK4 time stepping.

The evolution solved here, in nonlocal form::

    h_t = -(h u)_x                                  [+ A_x   if eps > 0]
    u_t = -u u_x - 3 gamma h^{-2} h_x
          - L_h^{-1} { d_x (C + F(h) [- b]) [+ u A_x / 2] }

with ``B = L_h^{-1}{ -u A_x/2 + d_x b }``, ``b = h^2 u_x A_x/2 - h (chi(P) +
chi(Q))/48``, folded into the one momentum solve (``L_h^{-1}`` is linear).
The bracketed sources are computed only while the cut-off is active, so in
the quiescent regime the eps > 0 stepper reproduces the eps = 0 stepper
bitwise.  Time integration is the classical four-stage Runge-Kutta scheme
with a CFL step based on the largest of the characteristic speed scale
``sqrt(3 gamma / h)`` and the long-wave speed ``sqrt(g h)``.  No limiters or
filters: steep runs are allowed to steepen and are stopped by the monitors --
that is the experiment.

Flat states are exact fixed points: every spatial operator annihilates
constants exactly (a line grid pads ``h`` with ``hbar``), so a flat state
steps to itself bitwise (only time advances).  ``rhs`` returns ``(h_t, u_t)`` as the
rows of one new array, ``_rk4_raw`` forms RK4's blend, ``_stage`` steps both rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import regularization as reg
from .elliptic import _assemble_L, solve_L_refined
from .errors import ContractViolationError, DepthCollapseError, PositivityError, SgnError, check_ranges
from .grid import Grid, _derivative, check_far_field, integrate
from .kinematics import FlowState, Params, a_priori_bounds, curly_c, f_of_h, gradients, total_energy

__all__ = [
    "StepControl",
    "BlowupThresholds",
    "depth_floor",
    "check_blowup",
    "rhs",
    "cfl_dt",
    "rk4_step",
    "SimHistory",
    "SERIES_COLUMNS",
    "simulate",
]


@dataclass(frozen=True)
class StepControl:
    """Time-stepping control.

    ``output_dt`` snapshots at fixed wall times (the step is clipped to land
    on them exactly, which keeps snapshot times aligned across runs of a
    sweep); without it only the initial and final states are kept.
    ``dt_fixed`` disables the CFL controller (used by convergence studies).
    ``cfl`` lies in (0, 1], ``t_end`` is nonnegative and the rest positive
    (:func:`~sgnlab.errors.check_ranges`), all finite, ``dt_max`` included.
    :meth:`finished` is the one end-of-run rule, for runs and snapshot plans.
    """

    cfl: float = 0.5
    dt_max: float = 0.1
    t_end: float = 1.0
    output_dt: float | None = None
    dt_fixed: float | None = None
    farfield_rtol: float = 1e-6

    def __post_init__(self):
        if not (0.0 < self.cfl <= 1.0):
            raise ContractViolationError(f"cfl must be in (0, 1], got {self.cfl}")
        check_ranges(self, ContractViolationError, nonnegative=("t_end",),
                     positive=("dt_max", "output_dt", "dt_fixed", "farfield_rtol"))

    def finished(self, t: float) -> bool:
        """True once a run at time ``t`` has reached ``t_end``, to a relative ``1e-12`` (absolute below 1)."""
        return t >= self.t_end - 1e-12 * max(1.0, self.t_end)


@dataclass(frozen=True)
class BlowupThresholds:
    """Runtime blow-up detection: the paired criterion only.

    A trigger needs the slope threshold ``ux`` AND one of the companions
    (``|h_x|`` above ``hx``, or the depth below :func:`depth_floor`): a lone
    steep velocity gradient never aborts a run.  Thresholds are
    configuration, not physics; pick them so smooth reference runs never
    come close.  Both must be positive; ``inf`` is allowed and never fires.
    """

    ux: float = 1e3
    hx: float = 1e3

    def __post_init__(self):
        # NaN would switch off half of the pair (it compares False); <= 0 fires on a flat state
        for name in ("ux", "hx"):
            if not getattr(self, name) > 0.0:
                raise ContractViolationError(f"blow-up threshold {name} must be positive, got {getattr(self, name)}")


def depth_floor(e0: float, p: Params) -> float:
    """The depth companion's floor, its one source: a tenth of the a-priori
    ``h_min`` for the run's measured initial energy ``e0``, or ``0.05 hbar``
    when the bounds are vacuous."""
    bounds = a_priori_bounds(e0, p)
    return 0.05 * p.hbar if bounds is None else 0.1 * bounds.h_min


def check_blowup(max_abs_ux: float, max_abs_hx: float, min_h: float,
                 thr: BlowupThresholds, depth_floor: float) -> str | None:
    """Trigger code for the paired criterion, or ``None``."""
    if max_abs_ux <= thr.ux:
        return None
    if max_abs_hx > thr.hx:
        return "gradient-pair"
    if min_h < depth_floor:
        return "depth-pair"
    return None


def rhs(s: FlowState, p: Params, g: Grid) -> np.ndarray:
    """Semi-discrete ``(h_t, u_t)``, one ``(2, n)`` array; regularized sources only while ``Gradients.cutoff`` acts."""
    d = gradients(s, p, g)
    sys = _assemble_L(s.h, g, p.hbar)
    rates = np.empty((2, g.n))
    dh = np.negative(d.hux, out=rates[0])
    fields = reg.compute_reg_fields(s, p, g)
    if fields is None:
        source = _derivative(curly_c(p, d) + f_of_h(s, p), g)
    else:
        a_x, b_flux = fields
        source = _derivative(curly_c(p, d) + f_of_h(s, p) - b_flux, g)
        source += 0.5 * s.u * a_x
        dh += a_x
    np.subtract(-s.u * d.ux - 3.0 * p.gamma * d.hx / s.h**2, solve_L_refined(sys, d, source, g), out=rates[1])
    return rates


def cfl_dt(s: FlowState, p: Params, g: Grid, c: StepControl) -> float:
    """``min(dt_max, cfl dx / s_max)`` with the pointwise speed scale
    ``|u| + max(sqrt(3 gamma / h), sqrt(g h))``."""
    speed = np.abs(s.u) + np.maximum(np.sqrt(3.0 * p.gamma / s.h), np.sqrt(p.g * s.h))
    s_max = float(np.maximum.reduce(speed))
    return min(c.dt_max, c.cfl * g.dx / s_max)


def _stage(s: FlowState, step: float, t: float, rates: np.ndarray) -> FlowState:
    """The one state formed from rates: ``step * rates + s`` at time ``t``, both rows at once."""
    hu = np.multiply(step, rates)
    hu[0] += s.h
    hu[1] += s.u
    return FlowState(hu[0], hu[1], t)


def _rk4_raw(s: FlowState, dt: float, p: Params, g: Grid) -> FlowState:
    k1 = rhs(s, p, g)
    k2 = rhs(_stage(s, 0.5 * dt, s.t + 0.5 * dt, k1), p, g)
    k3 = rhs(_stage(s, 0.5 * dt, s.t + 0.5 * dt, k2), p, g)
    k4 = rhs(_stage(s, dt, s.t + dt, k3), p, g)
    return _stage(s, dt / 6.0, s.t + dt, k1 + 2.0 * k2 + 2.0 * k3 + k4)  # sums ((k1 + 2 k2) + 2 k3) + k4


def rk4_step(s: FlowState, dt: float, p: Params, g: Grid) -> FlowState:
    """One RK4 step; a positivity violation is retried once at dt/2.

    The retried step advances only dt/2 -- callers track time through the
    returned state.  A second violation raises :class:`DepthCollapseError`.
    A non-finite stage raises :class:`NonFiniteError` at once, without retry.
    """
    if not dt > 0:
        raise ContractViolationError(f"dt must be positive, got {dt}")
    try:
        return _rk4_raw(s, dt, p, g)
    except PositivityError:
        pass
    try:
        return _rk4_raw(s, 0.5 * dt, p, g)
    except PositivityError as exc:
        raise DepthCollapseError(f"depth collapsed near t = {s.t:.6g}: {exc}") from exc


@dataclass
class SimHistory:
    """Snapshots plus per-step series of a run.

    ``series`` maps each name of :data:`SERIES_COLUMNS`, in order, to aligned
    arrays, one row per accepted step and the initial state; the blow-up
    monitor reads the last row.  How the run ended is stored once, in
    ``abort_reason`` (``None`` when it completed); an abort keeps everything
    recorded so far and ends at the last recorded state.  A snapshot shares
    the arrays of the stepper's state but not its memo, so the fields that
    post-processing derives from it are memoized on the snapshot itself.
    """

    grid: Grid
    params: Params
    control: StepControl
    snapshots: list[FlowState] = field(default_factory=list)
    series: dict[str, np.ndarray] = field(default_factory=dict)
    abort_reason: str | None = None

    @property
    def status(self) -> str:
        return "completed" if self.abort_reason is None else "aborted"

    @property
    def t_final(self) -> float:
        return self.snapshots[-1].t if self.snapshots else 0.0

    @property
    def abort_time(self) -> float | None:
        return None if self.abort_reason is None else self.t_final

    @property
    def trigger(self) -> tuple[float, str] | None:
        kind, _, code = (self.abort_reason or "").partition(":")
        return (self.t_final, code) if kind == "blowup" else None

    @property
    def e0(self) -> float:
        return float(self.series["energy"][0])

    @property
    def n_steps(self) -> int:
        return len(self.series["t"]) - 1


#: the one series schema: the recorder's row, ``series.csv``'s columns; a new column goes last
SERIES_COLUMNS = ("t", "mass", "energy", "min_h", "min_ux", "max_abs_hx", "sup_P", "sup_Q",
                  "max_h", "max_abs_u", "max_abs_ux", "diss_rate")


def _record(series: dict[str, list], s: FlowState, p: Params, g: Grid) -> None:
    """Append one row to every series column, or to none if a field raises."""
    d = gradients(s, p, g)
    P, Q = d.pq
    diss = 0.0 if d.cutoff is None else integrate(P * d.cutoff[0] + Q * d.cutoff[1], g) / 48.0
    # integrate's scan makes an overflowing energy density raise NonFiniteError
    lo, hi = np.minimum.reduce, np.maximum.reduce  # ufunc reductions, no ndarray-method wrappers
    row = (s.t, integrate(s.h, g), total_energy(s, p, g), float(lo(s.h)), float(lo(d.ux)),
           float(hi(np.abs(d.hx))), float(hi(P)), float(hi(Q)), float(hi(s.h)),
           float(hi(np.abs(s.u))), float(hi(np.abs(d.ux))), diss)
    for column, value in zip(series.values(), row):
        column.append(value)


def simulate(s0: FlowState, p: Params, g: Grid, c: StepControl,
             blowup: BlowupThresholds | None = None) -> SimHistory:
    """March to ``t_end`` or to a monitor abort; never throws past the first step.

    A step and its series row form one guarded unit: the stepped state
    becomes current only once its row is recorded.  A blow-up trigger or an
    error whose class defines a ``reason`` (:mod:`sgnlab.errors`) aborts the
    run, stored as that code at the last recorded state; others propagate.
    Both monitors (far field, blow-up pair) check every recorded state once,
    the first and last included, and snapshots include both.  Invalid inputs
    raise before the first step: an initial state whose derived fields
    overflow (say ``u_x ~ 1e160``) is a :class:`NonFiniteError`.  No cell is
    reset: waves reaching a line grid's far field abort (``check_far_field``).
    """
    check_far_field(s0.h, s0.u, g, p.hbar, rtol=c.farfield_rtol)
    hist = SimHistory(grid=g, params=p, control=c)
    series: dict[str, list] = {k: [] for k in SERIES_COLUMNS}

    def snapshot(s: FlowState):
        hist.snapshots.append(FlowState(s.h, s.u, s.t))

    s = FlowState(s0.h.copy(), s0.u.copy(), s0.t)
    _record(series, s, p, g)
    floor = 0.0 if blowup is None else depth_floor(series["energy"][0], p)
    snapshot(s)
    next_out = c.output_dt
    while True:
        code = None if blowup is None else check_blowup(
            series["max_abs_ux"][-1], series["max_abs_hx"][-1], series["min_h"][-1], blowup, floor)
        if code is not None:
            hist.abort_reason = f"blowup:{code}"
            break
        if c.finished(s.t):
            break  # tested after both monitors, so they check the final state too
        try:
            dt = c.dt_fixed if c.dt_fixed is not None else cfl_dt(s, p, g, c)
            dt = min(dt, c.t_end - s.t)
            if next_out is not None and s.t < next_out:
                dt = min(dt, next_out - s.t)
            stepped = rk4_step(s, dt, p, g)
            _record(series, stepped, p, g)
            s = stepped  # recorded, so current: the far field checks it once, as the first state above
            check_far_field(s.h, s.u, g, p.hbar, rtol=c.farfield_rtol)
        except SgnError as exc:
            if exc.reason is None:
                raise
            hist.abort_reason = exc.reason
            break
        if next_out is not None and s.t >= next_out - 1e-12:
            next_out += c.output_dt
            snapshot(s)
    if hist.snapshots[-1].t != s.t:
        snapshot(s)
    hist.series = {k: np.asarray(v) for k, v in series.items()}
    return hist
