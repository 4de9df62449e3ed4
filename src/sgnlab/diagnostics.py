"""Pass/fail reports for every checkable identity and bound of the model.

Covered:

* mass/energy series and the energy budget, including the signed dissipation
  integral of the regularized system and its closure against E(T) - E(0);
* the a-priori depth/velocity bounds implied by the initial energy;
* the one-sided Oleinik inequality on the gradient invariants, monitored as
  ``sup_x P`` and ``sup_x Q`` normalized by the lower depth bound (the raw
  inequality bounds P/h and Q/h; the two differ by a factor in
  ``[h_min, h_max]``, and P, Q are already recorded every step);
* the paired blow-up criterion (a lone steep velocity gradient never counts);
* local space-time L^(2+alpha) norms of the field gradients on a box;
* the linear dispersion relation
  ``omega^2 = g hbar k^2 (1 + gamma k^2/g) / (1 + hbar^2 k^2 / 3)``
  and its dispersionless collapse at Bond number ``g hbar^2/gamma = 3``.

All reports are read-only over a stored history and read the run's
parameters from it (``history.params``), so a report cannot judge a run by
another run's parameters.  Each is a flat record whose fields are its
``summary.json`` keys, in order: :mod:`sgnlab.io` writes every report's
fields with one serializer, so renaming a field renames its key.  The report
of each check a run makes decides that check's verdict, its ``verdict``
property: ``True``, ``False`` or ``"skipped"`` (bounds that do not apply).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dynamics import SimHistory
from .errors import ContractViolationError, ModeError
from .grid import Grid
from .kinematics import Params, a_priori_bounds, gradients

__all__ = [
    "Box",
    "EnergyReport",
    "BoundsReport",
    "OleinikReport",
    "BlowupReport",
    "PhaseSpeed",
    "energy_budget",
    "bounds_check",
    "oleinik_report",
    "blowup_report",
    "lp_box_norm",
    "dispersion_omega",
    "measure_phase_speed",
    "phase_sampling_refusal",
    "bond_number",
]

#: energy gates of a regularized run, relative to E(0): the largest rise between recorded
#: steps, and the budget-closure tolerance ``max(BUDGET_REL |E(T) - E(0)|, BUDGET_FLOOR E(0))``
MONOTONE_SLACK = 1e-8
BUDGET_REL = 1e-2
BUDGET_FLOOR = 1e-8
#: slack of the a-priori bounds check, relative to hbar (depth) and u_max (velocity)
BOUNDS_TOL_FACTOR = 1e-4


class Box(NamedTuple):
    """Space-time box [t1, t2] x [a, b], and the one rule for whether it fits a grid and a time span."""

    t1: float
    t2: float
    a: float
    b: float

    @property
    def slack(self) -> float:
        """How far ``[t1, t2]`` may reach beyond the time span it is read on."""
        return 1e-9 * max(1.0, abs(self.t2))

    def cells(self, g: Grid) -> np.ndarray:
        """Mask of the cell centres of ``g`` in ``[a, b]``."""
        x = g.cells()
        return (x >= self.a) & (x <= self.b)

    def refusal(self, g: Grid, t_lo: float, t_hi: float) -> str | None:
        """Why the box does not fit ``g`` read on the times ``[t_lo, t_hi]``; ``None`` when it fits.

        It fits when its times are finite with ``t1 < t2``, ``x_left <= a < b <= x_right``, it
        holds a cell centre, and ``[t1, t2]`` lies in ``[t_lo, t_hi]`` up to :attr:`slack`.
        """
        box = f"box [{self.t1}, {self.t2}] x [{self.a}, {self.b}]"
        if not -math.inf < self.t1 < self.t2 < math.inf:
            return f"{box} needs finite times t1 < t2"
        if not g.x_left <= self.a < self.b <= g.x_right:
            return f"{box} needs x_left <= a < b <= x_right on the grid [{g.x_left}, {g.x_right}]"
        if not self.cells(g).any():
            return f"{box} holds no cell centre of the grid (dx = {g.dx})"
        if not t_lo - self.slack <= self.t1 < self.t2 <= t_hi + self.slack:
            return f"{box} reaches outside the times [{t_lo}, {t_hi}] it is read on"
        return None


@dataclass(frozen=True)
class Check:
    passed: bool
    value: float
    tol: float


@dataclass
class EnergyReport:
    e_initial: float
    e_final: float
    mass_initial: float
    mass_final: float
    dissipation_integral: float
    budget_residual: float
    verdicts: dict[str, Check]

    @property
    def verdict(self) -> bool:
        return all(c.passed for c in self.verdicts.values())


@dataclass
class BoundsReport:
    status: str  # "checked" or "skipped" (initial energy at or above the threshold)
    e0: float
    e_max: float
    h_min: float | None = None
    h_max: float | None = None
    u_max: float | None = None
    margins: dict[str, float] = field(default_factory=dict)
    verdicts: dict[str, Check] = field(default_factory=dict)

    @property
    def verdict(self) -> bool | str:
        return "skipped" if self.status == "skipped" else all(c.passed for c in self.verdicts.values())


@dataclass
class OleinikReport:
    fitted_C: float
    normalization_h: float
    bound_form: str = field(default="sup(P,Q)/h_min <= C (1 + 1/t)", init=False)
    violations: int
    user_C: float | None = None

    @property
    def verdict(self) -> bool:
        return math.isfinite(self.fitted_C) and self.violations == 0


@dataclass
class BlowupReport:
    expected: bool
    triggered: bool
    trigger_time: float | None
    trigger_code: str | None
    final_min_ux: float
    final_max_abs_hx: float
    final_min_h: float

    @property
    def verdict(self) -> bool:
        """An expected blow-up passes when it triggers, any other run when it does not."""
        return self.triggered == self.expected


@dataclass
class PhaseSpeed:
    speed: float | None
    status: str  # "ok", "undefined", "nonlinear-warning"


@dataclass
class DispersionReport:
    rtol: float
    modes: list[dict]

    @property
    def verdict(self) -> bool:
        return bool(self.modes) and all(row["pass"] for row in self.modes)


def energy_budget(history: SimHistory, conserve_rtol: float = 1e-6) -> EnergyReport:
    """Energy conservation (eps = 0) or dissipation and budget closure (eps > 0).

    The budget residual is ``E(T) - E(0) - integral of the production term``;
    the production term is nonpositive by construction, so the dissipation
    integral always is too.
    """
    t = history.series["t"]
    e = history.series["energy"]
    rate = history.series["diss_rate"]
    diss = float(np.trapezoid(rate, t)) if t.shape[0] > 1 else 0.0
    delta = float(e[-1] - e[0])
    residual = delta - diss
    e0 = float(e[0])
    scale = max(abs(e0), 1e-300)
    verdicts: dict[str, Check] = {}
    if history.params.epsilon == 0.0:
        verdicts["energy_conservation"] = Check(abs(delta) / scale <= conserve_rtol, abs(delta) / scale, conserve_rtol)
    else:
        max_rise = float(np.max(np.diff(e))) if e.shape[0] > 1 else 0.0
        tol_rise = MONOTONE_SLACK * scale
        verdicts["energy_monotonic"] = Check(max_rise <= tol_rise, max_rise, tol_rise)
        tol_budget = max(BUDGET_REL * abs(delta), BUDGET_FLOOR * scale)
        verdicts["budget_closure"] = Check(abs(residual) <= tol_budget, abs(residual), tol_budget)
    mass = history.series["mass"]
    return EnergyReport(e_initial=e0, e_final=float(e[-1]), mass_initial=float(mass[0]),
                        mass_final=float(mass[-1]), dissipation_integral=diss,
                        budget_residual=residual, verdicts=verdicts)


def bounds_check(history: SimHistory) -> BoundsReport:
    """A-priori depth and velocity bounds over the whole recorded run.

    Skipped (explicitly, not passed) when the measured initial energy reaches
    the threshold: the bounds are vacuous there and silence would mislead.
    """
    e0, p = history.e0, history.params
    bounds = a_priori_bounds(e0, p)
    if bounds is None:
        return BoundsReport(status="skipped", e0=e0, e_max=p.e_max)
    tol_h = BOUNDS_TOL_FACTOR * p.hbar
    tol_u = BOUNDS_TOL_FACTOR * bounds.u_max + 1e-8
    min_h = float(np.min(history.series["min_h"]))
    max_h = float(np.max(history.series["max_h"]))
    max_u = float(np.max(history.series["max_abs_u"]))
    verdicts = {
        "h_lower": Check(min_h >= bounds.h_min - tol_h, min_h, bounds.h_min - tol_h),
        "h_upper": Check(max_h <= bounds.h_max + tol_h, max_h, bounds.h_max + tol_h),
        "u_bound": Check(max_u <= bounds.u_max + tol_u, max_u, bounds.u_max + tol_u),
    }
    margins = {"h_lower": min_h - bounds.h_min, "h_upper": bounds.h_max - max_h, "u_bound": bounds.u_max - max_u}
    return BoundsReport(status="checked", e0=e0, e_max=p.e_max,
                        h_min=bounds.h_min, h_max=bounds.h_max, u_max=bounds.u_max,
                        margins=margins, verdicts=verdicts)


def oleinik_report(history: SimHistory, user_c: float | None = None) -> OleinikReport:
    """One-sided bound ``sup(P, Q)/h_min <= C (1 + 1/t)`` fitted over the run.

    ``fitted_C`` is the smallest constant covering every recorded step with
    t > 0.  When ``user_c`` is given, samples exceeding it are counted as
    violations.
    """
    t = history.series["t"]
    mask = t > 0.0
    bounds = a_priori_bounds(history.e0, history.params)
    h_norm = float(np.min(history.series["min_h"])) if bounds is None else bounds.h_min
    sup = np.maximum(np.maximum(history.series["sup_P"], history.series["sup_Q"]), 0.0)
    fitted = 0.0
    violations = 0
    if np.any(mask):
        ratio = (sup[mask] / h_norm) / (1.0 + 1.0 / t[mask])
        fitted = float(np.max(ratio))
        if user_c is not None:
            violations = int(np.sum(ratio > user_c))
    return OleinikReport(fitted_C=fitted, normalization_h=h_norm, violations=violations, user_C=user_c)


def blowup_report(history: SimHistory, expected: bool = False) -> BlowupReport:
    t, code = history.trigger or (None, None)
    ser = history.series
    return BlowupReport(expected=expected, triggered=history.trigger is not None, trigger_time=t, trigger_code=code,
                        final_min_ux=float(ser["min_ux"][-1]), final_max_abs_hx=float(ser["max_abs_hx"][-1]),
                        final_min_h=float(ser["min_h"][-1]))


def lp_box_norm(history: SimHistory, alpha: float, box: Box) -> float:
    """Space-time integral of ``|h_t|^q + |h_x|^q + |u_t|^q + |u_x|^q`` with
    ``q = 2 + alpha`` over the box.

    Time derivatives come from second-order differences of the snapshots, so
    the snapshot cadence should give at least 16 time samples inside the box
    (the op warns otherwise).  The box must fit the grid and the recorded
    snapshot times (:meth:`Box.refusal`).
    """
    if not (0.0 <= alpha < 1.0):
        raise ContractViolationError(f"alpha must lie in [0, 1), got {alpha}")
    g = history.grid
    snaps = history.snapshots
    times = np.array([s.t for s in snaps])
    why = box.refusal(g, times[0], times[-1])
    if why is not None:
        raise ContractViolationError(why)
    sel = np.nonzero((times >= box.t1 - box.slack) & (times <= box.t2 + box.slack))[0]
    if sel.shape[0] < 3:
        raise ContractViolationError("box needs at least 3 snapshots for time differences")
    if sel.shape[0] < 16:
        warnings.warn(f"lp_box_norm: only {sel.shape[0]} time samples in the box; "
                      "time derivatives are coarsely resolved")
    # central time differences need one neighbor on each side when available
    lo = max(sel[0] - 1, 0)
    hi = min(sel[-1] + 2, len(snaps))
    hs = np.stack([snaps[i].h for i in range(lo, hi)])
    us = np.stack([snaps[i].u for i in range(lo, hi)])
    tt = times[lo:hi]
    h_t = np.gradient(hs, tt, axis=0)
    u_t = np.gradient(us, tt, axis=0)
    inner = sel - lo
    q = 2.0 + alpha
    cols = box.cells(g)
    per_snap = np.empty(inner.shape[0])
    for j, i in enumerate(inner):
        d = gradients(snaps[lo + i], history.params, g)
        integrand = (np.abs(h_t[i]) ** q + np.abs(d.hx) ** q
                     + np.abs(u_t[i]) ** q + np.abs(d.ux) ** q)
        per_snap[j] = np.sum(integrand[cols]) * g.dx
    return float(np.trapezoid(per_snap, tt[inner]))


def dispersion_omega(k: float, p: Params) -> float:
    """Positive root of the linear dispersion relation."""
    if not k > 0:
        raise ContractViolationError("wavenumber must be positive")
    k2 = k * k
    return math.sqrt(p.g * p.hbar * k2 * (1.0 + p.gamma * k2 / p.g) / (1.0 + p.hbar**2 * k2 / 3.0))


def bond_number(p: Params) -> float:
    """``g hbar^2 / gamma``; the value 3 makes the linearized system dispersionless."""
    return p.g * p.hbar**2 / p.gamma


def dispersion_report(history: SimHistory, wavenumbers, rtol: float = 1e-2) -> DispersionReport:
    """Measured vs predicted phase speed for each seeded mode."""
    p = history.params
    modes = []
    for k in wavenumbers:
        meas = measure_phase_speed(history, k)
        predicted = dispersion_omega(k, p) / k
        rel = None if meas.speed is None else float(abs(meas.speed - predicted) / predicted)
        modes.append({
            "k": float(k),
            "measured": meas.speed,
            "predicted": float(predicted),
            "rel_err": rel,  # None for an unmeasured mode
            "status": meas.status,
            "pass": bool(meas.status == "ok" and rel <= rtol),
        })
    return DispersionReport(rtol=float(rtol), modes=modes)


def phase_sampling_refusal(snapshots: int, max_gap: float, k: float, p: Params) -> str | None:
    """Why ``snapshots`` states at most ``max_gap`` apart cannot give the k-mode's phase speed, or
    ``None``; the one rule: 3 or more snapshots, sampling the phase below half its period
    (``max_gap * omega(k) < pi``)."""
    dt_omega = max_gap * dispersion_omega(k, p)
    if snapshots < 3:
        return f"the phase speed of wavenumber {k:g} needs at least 3 snapshots, the run keeps {snapshots}"
    if not dt_omega < math.pi:
        return f"snapshots {max_gap:g} apart alias wavenumber {k:g}: dt * omega = {dt_omega:.3g} >= pi"
    return None


def measure_phase_speed(history: SimHistory, k: float) -> PhaseSpeed:
    """Phase speed of the k-mode from the drift of its Fourier phase.

    The run must be periodic and seeded with (mostly) a single resonant mode;
    the phase of the k-th discrete Fourier coefficient of ``h - hbar`` is
    unwrapped across snapshots and fitted linearly in time: ``undefined`` where
    :func:`phase_sampling_refusal` refuses the snapshots.
    """
    g = history.grid
    p = history.params
    if not g.periodic:
        raise ModeError("phase-speed measurement needs a periodic run")
    m = g.mode_index(k)
    if m is None:
        raise ContractViolationError(f"wavenumber {k} does not fit the periodic domain")
    t = np.array([s.t for s in history.snapshots])
    if phase_sampling_refusal(t.shape[0], float(np.max(np.diff(t), initial=0.0)), k, p) is not None:
        return PhaseSpeed(speed=None, status="undefined")
    coeffs = np.array([np.fft.rfft(s.h - p.hbar)[m] for s in history.snapshots])
    amps = np.abs(coeffs)
    if np.max(amps) < 1e-12 * g.n * p.hbar:
        return PhaseSpeed(speed=None, status="undefined")
    phase = np.unwrap(np.angle(coeffs))
    slope = np.polyfit(t, phase, 1)[0]
    speed = -slope / k
    ratio = float(amps[-1] / amps[0]) if amps[0] > 0 else math.inf
    status = "ok" if 0.1 < ratio < 10.0 else "nonlinear-warning"
    return PhaseSpeed(speed=float(speed), status=status)
