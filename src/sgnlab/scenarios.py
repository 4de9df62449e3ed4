"""Scenario construction, the run driver and the epsilon-sweep experiment.

Initial data families:

* ``flat``     -- the reference state (hbar, 0); the exact fixed point.
* ``gaussian`` -- depth bump ``hbar + a exp(-(x-x0)^2/w^2)``, fluid at rest.
* ``sine``     -- right-moving linear mode ``h = hbar + a sin(kx)``,
                  ``u = a sqrt(g/hbar) sin(kx)``; periodic grids only.
* ``steep``    -- a localized plateau between two tanh ramps of width w, with
                  the velocity chosen so the minus Riemann invariant is
                  spatially constant: a near-simple wave that steepens.  The
                  sign of the amplitude selects which gradient sign blows up.
* ``custom``   -- columns x, h, u read from a CSV file; x must be the grid's
                  cell centres to a thousandth of a cell.

When ``mollifier_epsilon > 0`` the perturbation (h - hbar, u) is convolved
with a normalized Gaussian of that standard deviation, mirroring the mollified
initial data of the regularized construction; each member of an epsilon
sweep is mollified at its own epsilon.  The sum is numpy's, in a stated order
(:func:`_mollify`), bit for bit ``scipy.ndimage.gaussian_filter1d``'s.

Amplitudes can be tuned to a target measured initial energy (bisection on the
discrete energy), which is how runs are placed exactly at a prescribed
distance below the a-priori threshold.

Only a target energy loads scipy beyond the LAPACK tridiagonal routines that
every run uses: ``scipy.optimize`` (``brentq``), inside the function that calls
it.  Importing ``sgnlab``, a mollified run and a sweep load no other subpackage.
"""

from __future__ import annotations

import math
import time as _time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .diagnostics import (
    Box,
    blowup_report,
    bounds_check,
    dispersion_report,
    energy_budget,
    oleinik_report,
    phase_sampling_refusal,
)
from .dynamics import BlowupThresholds, SimHistory, StepControl, simulate
from .errors import ConfigError, check_ranges
from .grid import _MAX_CELLS, Grid
from .kinematics import FlowState, Params, total_energy

__all__ = [
    "ScenarioConfig",
    "RunArtifact",
    "SweepResult",
    "build_initial",
    "judge_run",
    "run_scenario",
    "epsilon_sweep",
    "l2_box_difference",
]

KINDS = ("flat", "gaussian", "sine", "steep", "custom")
CHECKS = ("energy", "bounds", "oleinik", "blowup", "dispersion")
#: time samples of the box window in :func:`l2_box_difference`
BOX_TIME_SAMPLES = 33
#: the directory of each member of a sweep, by its epsilon
SWEEP_LABEL = "eps_{:g}"


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one run.  ``checks`` lists every check the run makes:
    ``expect_blowup`` adds ``blowup``, whose monitor takes ``blowup`` or the default
    thresholds; thresholds without that check are refused."""

    params: Params
    grid: Grid
    step: StepControl
    kind: str = "flat"
    amplitude: float = 0.0
    width: float = 1.0
    center: float = 0.0
    wavenumbers: tuple[float, ...] = (1.0,)
    plateau: float | None = None  # steep: half-length of the flat top, default 4*width
    mollifier_epsilon: float = 0.0
    target_energy: float | None = None
    file: str | None = None
    expect_blowup: bool = False
    checks: tuple[str, ...] = ("energy",)
    energy_rtol: float = 1e-6
    dispersion_rtol: float = 1e-2
    oleinik_C: float | None = None
    blowup: BlowupThresholds | None = None
    box: Box | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        if self.kind == "sine" and not self.grid.periodic:
            raise ConfigError("sine scenarios require a periodic grid")
        if self.kind == "steep" and self.grid.periodic:
            raise ConfigError("steep scenarios require a line-mode grid")
        if self.kind == "custom" and not self.file:
            raise ConfigError("custom scenarios need a file")
        check_ranges(self, ConfigError, finite=("amplitude", "center", "wavenumbers"),
                     positive=("width", "plateau", "target_energy", "energy_rtol", "dispersion_rtol"),
                     nonnegative=("mollifier_epsilon", "oleinik_C"),
                     squared=("width",) if self.kind == "gaussian" else ())  # the profile divides by width^2
        if self.kind in ("gaussian", "steep"):  # _shape's arithmetic, largest at the end cells
            half = 4.0 * self.width if self.plateau is None else self.plateau
            ends = [self.grid.x_left + (i + 0.5) * self.grid.dx - self.center for i in (0, self.grid.n - 1)]
            if not all(math.isfinite(o * o / self.width**2 if self.kind == "gaussian" else (o + d) / self.width)
                       for o in ends for d in (half, -half)):
                raise ConfigError(f"center {self.center:g} is too far from the grid: the {self.kind} profile overflows")
        cells = self.mollifier_epsilon / self.grid.dx  # the filter divides by its square, and spans 12 of them
        if self.mollifier_epsilon > 0.0 and not (cells * cells >= np.finfo(float).tiny
                                                 and self.mollifier_epsilon <= self.grid.length):
            raise ConfigError(f"mollifier_epsilon must be 0 or at most the grid length {self.grid.length:g}, "
                              f"with a square in cells above the smallest normal float, got {self.mollifier_epsilon}")
        unknown = sorted(set(self.checks) - set(CHECKS))
        if unknown:
            raise ConfigError(f"unknown checks {unknown}; known: {', '.join(CHECKS)}")
        if self.expect_blowup and "blowup" not in self.checks:  # an expected blow-up is monitored
            object.__setattr__(self, "checks", tuple(c for c in CHECKS if c in self.checks or c == "blowup"))
        if "blowup" not in self.checks and self.blowup is not None:
            raise ConfigError("blow-up thresholds are given but [checks] blowup is off: nothing would monitor them")
        if "blowup" in self.checks and self.blowup is None:
            object.__setattr__(self, "blowup", BlowupThresholds())
        if "dispersion" in self.checks and self.kind != "sine":
            raise ConfigError("the dispersion check needs a sine scenario")
        for k in self.wavenumbers if self.kind == "sine" else ():
            if self.grid.mode_index(k) is None:
                raise ConfigError(f"wavenumber {k} does not fit the periodic domain as 2 pi m/length, 1 <= m <= n/2-1")
        if "dispersion" in self.checks:  # the run keeps t = 0, one state per output_dt, and its end
            gap = self.step.t_end if self.step.output_dt is None else min(self.step.output_dt, self.step.t_end)
            kept = 1 if self.step.finished(0.0) else 2 if self.step.finished(gap) else 3  # 3 or more
            for why in (phase_sampling_refusal(kept, gap, k, self.params) for k in self.wavenumbers):
                if why is not None:
                    raise ConfigError(why)
        why = None if self.box is None else self.box.refusal(self.grid, 0.0, math.inf)
        if why is not None:  # t_end is the sweep's business: run never reads the box
            raise ConfigError(f"[sweep] {why}")
        s, memory = self.step, 16 * _MAX_CELLS  # the physical memory in bytes, as the grid counts it
        speed = (3.0 * self.params.g * self.params.gamma) ** 0.25  # the least CFL speed: a step <= cfl dx / speed
        rows = s.t_end / s.dt_fixed if s.dt_fixed else s.t_end * max(1.0 / s.dt_max, speed / s.cfl / self.grid.dx)
        snapshots = 0.0 if s.output_dt is None else s.t_end / s.output_dt
        if 96.0 * rows >= memory or 16.0 * self.grid.n * snapshots >= memory:  # a series row, a state
            raise ConfigError(f"the run would keep at least {rows:.3g} rows of 96 bytes and {snapshots:.3g} snapshots "
                              f"of 16 n bytes: more than the {memory:.3g} bytes of physical memory")


@dataclass
class RunArtifact:
    """History plus reports plus provenance for one run."""

    config: ScenarioConfig
    history: SimHistory
    reports: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return all(v in (True, "skipped") for v in self.verdicts.values())


@dataclass
class SweepResult:
    artifacts: list[RunArtifact]
    table: list[dict]

    @property
    def epsilons(self) -> list[float]:
        return [art.config.params.epsilon for art in self.artifacts]


def _mollify(pert: np.ndarray, g: Grid, sigma: float) -> np.ndarray:
    """``pert`` correlated with the normalized Gaussian of ``s = sigma / dx`` cells cut at ``r = int(6 s + 0.5)``,
    wrapped (periodic) or zero-padded (line): ``w_0 x_i + (x_{i-j} + x_{i+j}) w_j`` for j = r..1, ndimage's order."""
    s = sigma / g.dx
    r = int(6.0 * s + 0.5)
    phi = np.exp(-0.5 / (s * s) * np.arange(-r, r + 1) ** 2)
    w, xp, n = phi / phi.sum(), np.pad(pert, r, mode="wrap" if g.periodic else "constant"), pert.size
    out = w[r] * pert
    for j in range(r, 0, -1):
        out += (xp[r - j:r - j + n] + xp[r + j:r + j + n]) * w[r + j]
    return out


def _shape(cfg: ScenarioConfig, amplitude: float) -> tuple[np.ndarray, np.ndarray]:
    g, p = cfg.grid, cfg.params
    x = g.cells()
    if cfg.kind == "flat":
        return np.full(g.n, p.hbar), np.zeros(g.n)
    if cfg.kind == "gaussian":
        h = p.hbar + amplitude * np.exp(-((x - cfg.center) ** 2) / cfg.width**2)
        return h, np.zeros(g.n)
    if cfg.kind == "sine":
        # superposition of right-moving linear modes; at linear amplitudes the
        # modes evolve independently, so one run measures several wavenumbers
        h = np.full(g.n, p.hbar)
        u = np.zeros(g.n)
        for k in cfg.wavenumbers:
            h = h + amplitude * np.sin(k * x)
            u = u + amplitude * math.sqrt(p.g / p.hbar) * np.sin(k * x)
        return h, u
    if cfg.kind == "steep":
        half = cfg.plateau if cfg.plateau is not None else 4.0 * cfg.width
        ramp = 0.5 * (np.tanh((x - cfg.center + half) / cfg.width)
                      - np.tanh((x - cfg.center - half) / cfg.width))
        h = p.hbar + amplitude * ramp
        if np.any(h <= 0):
            raise ConfigError("steep amplitude drives the depth non-positive")
        u = 2.0 * p.sqrt_3gamma * (1.0 / np.sqrt(h) - 1.0 / math.sqrt(p.hbar))
        return h, u
    try:  # custom; a loadtxt warning (a file without data rows) refuses the file like an error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = np.loadtxt(cfg.file, delimiter=",", skiprows=1)
    except (OSError, ValueError, UserWarning) as exc:
        raise ConfigError(f"cannot read custom file {cfg.file}: {exc}") from exc
    if data.shape != (g.n, 3):
        raise ConfigError(f"custom file must hold {g.n} rows of x,h,u; got shape {data.shape}")
    offset = float(np.max(np.abs(data[:, 0] - x)))
    if not offset <= 1e-3 * g.dx:
        raise ConfigError(f"custom file x column is off the grid's cell centres by up to {offset:.3e} "
                          f"(allowed {1e-3 * g.dx:.3e}, a thousandth of a cell)")
    return data[:, 1].copy(), data[:, 2].copy()


def build_initial(cfg: ScenarioConfig) -> FlowState:
    """Initial state per the scenario, mollified and energy-tuned as configured."""
    g, p = cfg.grid, cfg.params

    def assemble(amplitude: float) -> FlowState:
        h, u = _shape(cfg, amplitude)
        if cfg.target_energy is None and amplitude and cfg.kind in ("gaussian", "steep") and np.all(h == p.hbar):
            raise ConfigError(f"the {cfg.kind} profile of amplitude {amplitude:g} at center {cfg.center:g} leaves "
                              f"every cell at (hbar, 0): nothing on the grid would move")  # u is 0 where h is hbar
        if cfg.mollifier_epsilon > 0.0:
            h = p.hbar + _mollify(h - p.hbar, g, cfg.mollifier_epsilon)
            u = _mollify(u, g, cfg.mollifier_epsilon)
        return FlowState(h, u, 0.0)

    if cfg.target_energy is None:
        return assemble(cfg.amplitude)
    if cfg.kind == "flat":
        raise ConfigError("cannot tune a flat scenario to a positive energy")
    from scipy.optimize import brentq
    sign = 1.0 if cfg.amplitude == 0.0 else math.copysign(1.0, cfg.amplitude)
    seed = abs(cfg.amplitude) if cfg.amplitude != 0.0 else 0.05

    def mismatch(a: float) -> float:
        return total_energy(assemble(sign * a), p, g) - cfg.target_energy

    lo, hi = 1e-8 * seed, seed
    if mismatch(lo) > 0.0:
        raise ConfigError(f"target energy {cfg.target_energy:g} unreachable: amplitude {lo:g} already gives more")
    while mismatch(hi) < 0.0:
        hi *= 2.0
        if hi > 1e6 * seed:
            raise ConfigError("target energy unreachable by amplitude scaling")
    a_star = brentq(mismatch, lo, hi, xtol=1e-14, rtol=1e-15)
    return assemble(sign * a_star)


def judge_run(cfg: ScenarioConfig, hist: SimHistory) -> RunArtifact:
    """Evaluate every check in ``cfg.checks`` on ``hist``; each report gives its own verdict."""
    art = RunArtifact(config=cfg, history=hist)
    reports = {  # in the order the verdicts are recorded
        "energy": lambda: energy_budget(hist, conserve_rtol=cfg.energy_rtol),
        "bounds": lambda: bounds_check(hist),
        "oleinik": lambda: oleinik_report(hist, user_c=cfg.oleinik_C),
        "dispersion": lambda: dispersion_report(hist, cfg.wavenumbers, rtol=cfg.dispersion_rtol),
        "blowup": lambda: blowup_report(hist, expected=cfg.expect_blowup),
    }
    for name, report in reports.items():
        if name in cfg.checks:
            art.reports[name] = rep = report()
            art.verdicts[name] = rep.verdict
    if hist.status == "aborted" and not (cfg.expect_blowup and hist.trigger is not None):
        art.verdicts["completed"] = False  # every abort but the expected blow-up
    return art


def run_scenario(cfg: ScenarioConfig) -> RunArtifact:
    """Build, simulate and judge (:func:`judge_run`) ``cfg``; ``wall_time`` spans all three."""
    t0 = _time.perf_counter()
    art = judge_run(cfg, simulate(build_initial(cfg), cfg.params, cfg.grid, cfg.step, blowup=cfg.blowup))
    art.wall_time = _time.perf_counter() - t0
    return art


def _snapshot_at(hist: SimHistory, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Fields at time t, linearly interpolated between snapshots."""
    times = np.array([s.t for s in hist.snapshots])
    if t <= times[0] or t >= times[-1]:
        s = hist.snapshots[0 if t <= times[0] else -1]
        return s.h, s.u
    k = int(np.searchsorted(times, t) - 1)
    th = (t - times[k]) / (times[k + 1] - times[k])
    s0, s1 = hist.snapshots[k], hist.snapshots[k + 1]
    return (1 - th) * s0.h + th * s1.h, (1 - th) * s0.u + th * s1.u


def l2_box_difference(ha: SimHistory, hb: SimHistory, box: Box) -> tuple[float, float]:
    """Space-time L2 norms of (h_a - h_b, u_a - u_b) over the box.

    Histories must share the grid, and the box must fit it and the times both
    runs recorded (:meth:`Box.refusal`); snapshots are interpolated linearly in
    time onto ``BOX_TIME_SAMPLES`` common times of the box's time window.
    """
    g = ha.grid
    if hb.grid != g:
        raise ConfigError("cannot compare runs on different grids")
    why = box.refusal(g, max(ha.snapshots[0].t, hb.snapshots[0].t), min(ha.t_final, hb.t_final))
    if why is not None:
        raise ConfigError(why)
    cols = box.cells(g)
    ts = np.linspace(box.t1, min(box.t2, ha.t_final, hb.t_final), BOX_TIME_SAMPLES)
    dh2 = np.empty(BOX_TIME_SAMPLES)
    du2 = np.empty(BOX_TIME_SAMPLES)
    for i, t in enumerate(ts):
        ha_h, ha_u = _snapshot_at(ha, t)
        hb_h, hb_u = _snapshot_at(hb, t)
        dh2[i] = np.sum((ha_h[cols] - hb_h[cols]) ** 2) * g.dx
        du2[i] = np.sum((ha_u[cols] - hb_u[cols]) ** 2) * g.dx
    return float(math.sqrt(np.trapezoid(dh2, ts))), float(math.sqrt(np.trapezoid(du2, ts)))


def epsilon_sweep(cfg: ScenarioConfig, epsilons: list[float]) -> SweepResult:
    """Run the scenario at each epsilon (strictly decreasing, all positive),
    with epsilon-matched mollification, and tabulate successive L2(box)
    differences of h and u.

    The box (by default the middle half of the domain over ``[0, t_end]``)
    must fit the grid and the members' times ``[0, t_end]``
    (:meth:`Box.refusal`); a sweep refuses it, and any member's config,
    before any member runs.  Aborted runs stay in the artifact list; pairs
    involving them are marked incomparable in the table.
    """
    if not epsilons or any(not e > 0 for e in epsilons):
        raise ConfigError("sweep epsilons must all be positive")
    if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
        raise ConfigError("sweep epsilons must be strictly decreasing")
    if len(set(map(SWEEP_LABEL.format, epsilons))) < len(epsilons):
        raise ConfigError(f"sweep epsilons {list(epsilons)} share a member directory {SWEEP_LABEL}")
    box = cfg.box
    if box is None:
        if not cfg.step.t_end > 0.0:
            raise ConfigError(f"sweep t_end must be > 0 to compare on [0, t_end] without a [sweep] box, "
                              f"got {cfg.step.t_end}")
        box = Box(0.0, cfg.step.t_end, cfg.grid.x_left + 0.25 * cfg.grid.length,
                  cfg.grid.x_right - 0.25 * cfg.grid.length)
    why = box.refusal(cfg.grid, 0.0, cfg.step.t_end)  # the members record [0, t_end]
    if why is not None:
        raise ConfigError(f"[sweep] {why}")
    step = cfg.step
    if step.output_dt is None:
        step = replace(step, output_dt=max((box.t2 - box.t1) / (BOX_TIME_SAMPLES - 1), 1e-6))
    members = [replace(cfg, params=replace(cfg.params, epsilon=e), mollifier_epsilon=e, step=step, box=box)
               for e in epsilons]
    artifacts = [run_scenario(member) for member in members]
    table = []
    for (ea, arta), (eb, artb) in zip(zip(epsilons, artifacts), zip(epsilons[1:], artifacts[1:])):
        row: dict = {"eps_coarse": ea, "eps_fine": eb}
        if arta.history.status == artb.history.status == "completed":
            dh, du = l2_box_difference(arta.history, artb.history, box)
            row.update(dh_l2=dh, du_l2=du, comparable=True)
        else:
            row.update(dh_l2=None, du_l2=None, comparable=False)
        table.append(row)
    return SweepResult(artifacts=artifacts, table=table)
