"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.  Every tolerance below is pinned; the steep-scenario
parameters (domains, widths, thresholds) are tuned so each criterion probes
what it claims at desk scale, and are fixed here, not calibrated at runtime.
"""

import math
import time

import numpy as np
import pytest

from sgnlab import FlowState, Grid, Params
from sgnlab.characteristics import riccati_residual, trace
from sgnlab.diagnostics import (
    Box,
    bounds_check,
    dispersion_omega,
    energy_budget,
    lp_box_norm,
    measure_phase_speed,
    oleinik_report,
)
from sgnlab.dynamics import BlowupThresholds, StepControl, rk4_step, simulate
from sgnlab.elliptic import apply_L, assemble_L, psi_identity_residual, solve_L
from sgnlab.scenarios import ScenarioConfig, build_initial, epsilon_sweep, run_scenario


def report(number, name, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {number} ({name}): {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


# ----------------------------------------------------------------------------
# shared runs (module scope: computed once)

STEEP_BLOWUP = dict(kind="steep", amplitude=-0.45, width=0.08, center=2.0, plateau=0.5)
STEEP_DISSIPATIVE = dict(kind="steep", amplitude=-0.45, width=0.45, center=2.0, plateau=0.7)
BLOWUP_THRESHOLDS = BlowupThresholds(ux=55.0, hx=4.8)


@pytest.fixture(scope="module")
def blowup_pair():
    """Criterion 7 pair: identical steep data, eps = 0 vs eps = 0.1."""
    g = Grid.from_length(4400, 44.0, -20.0, "line")
    out = {}
    for eps in (0.0, 0.1):
        p = Params(g=9.81, gamma=9.81, hbar=1.0, epsilon=eps)
        cfg = ScenarioConfig(
            params=p, grid=g,
            step=StepControl(cfl=0.2, dt_max=0.05, t_end=2.0, output_dt=0.1,
                             farfield_rtol=1e-5),
            **STEEP_BLOWUP)
        s0 = build_initial(cfg)
        out[eps] = (simulate(s0, p, g, cfg.step, blowup=BLOWUP_THRESHOLDS), p)
    return out


@pytest.fixture(scope="module")
def steep_sweep():
    """Criteria 8 and 9: eps sweep on fixed steep data."""
    p = Params(g=9.81, gamma=30.0, hbar=1.0, epsilon=0.1)
    g = Grid.from_length(2048, 36.0, -16.0, "line")
    box = Box(0.1, 0.5, -4.0, 6.0)
    cfg = ScenarioConfig(
        params=p, grid=g,
        step=StepControl(cfl=0.2, dt_max=0.05, t_end=0.6, output_dt=0.02,
                         farfield_rtol=1e-5),
        checks=("energy", "oleinik"), box=box,
        **STEEP_DISSIPATIVE)
    return epsilon_sweep(cfg, [0.2, 0.1, 0.05]), box


def test_criterion_1_energy_conservation_eps0():
    p = Params(g=9.81, gamma=9.81, hbar=1.0, epsilon=0.0)
    g = Grid.from_length(1024, 40.0, -20.0, "periodic")
    x = g.cells()
    s0 = FlowState(1.0 + 0.05 * np.exp(-(x**2)), np.zeros(g.n), 0.0)
    t0 = time.perf_counter()
    hist = simulate(s0, p, g, StepControl(cfl=0.3, dt_max=0.1, t_end=5.0, output_dt=1.0))
    wall = time.perf_counter() - t0
    e = hist.series["energy"]
    drift = abs(e[-1] - e[0]) / e[0]
    report(1, "energy conservation eps=0",
           hist.status == "completed" and drift <= 1e-6 and wall < 60.0,
           f"|E(T)-E(0)|/E0 = {drift:.3e} <= 1e-06, wall {wall:.1f}s < 60s")


def test_criterion_2_energy_dissipation_budget():
    p = Params(g=9.81, gamma=30.0, hbar=1.0, epsilon=0.1)
    g = Grid.from_length(2048, 36.0, -16.0, "line")
    cfg = ScenarioConfig(
        params=p, grid=g,
        step=StepControl(cfl=0.2, dt_max=0.05, t_end=0.6, output_dt=0.05,
                         farfield_rtol=1e-5),
        **STEEP_DISSIPATIVE)
    s0 = build_initial(cfg)
    hist = simulate(s0, p, g, cfg.step)
    rep = energy_budget(hist)
    e = hist.series["energy"]
    max_rise = float(np.max(np.diff(e)))
    ok = (hist.status == "completed"
          and rep.dissipation_integral < 0.0
          and rep.verdicts["energy_monotonic"].passed
          and rep.verdicts["budget_closure"].passed)
    report(2, "energy dissipation + budget closure eps>0", ok,
           f"max step rise = {max_rise:.2e} <= {1e-8 * e[0]:.2e}, "
           f"|residual| = {abs(rep.budget_residual):.2e} <= "
           f"{rep.verdicts['budget_closure'].tol:.2e}, "
           f"dissipation integral = {rep.dissipation_integral:.3e} < 0")


def test_criterion_3_a_priori_bounds():
    p = Params(g=9.81, gamma=9.81, hbar=1.0, epsilon=0.0)
    g = Grid.from_length(512, 40.0, -20.0, "periodic")
    cfg = ScenarioConfig(params=p, grid=g,
                         step=StepControl(cfl=0.3, dt_max=0.05, t_end=5.0),
                         kind="gaussian", amplitude=0.05, width=1.0,
                         target_energy=0.0981)
    s0 = build_initial(cfg)
    hist = simulate(s0, p, g, cfg.step)
    rep = bounds_check(hist)
    min_h = float(np.min(hist.series["min_h"]))
    max_u = float(np.max(hist.series["max_abs_u"]))
    ok = (hist.status == "completed"
          and abs(hist.e0 - 0.0981) < 1e-9
          and min_h >= 0.9 - 1e-4
          and max_u <= 0.45802 + 1e-4
          and rep.status == "checked" and rep.verdict is True)
    report(3, "a-priori bounds at E0 = 0.0981", ok,
           f"min h = {min_h:.6f} >= {0.9 - 1e-4}, max|u| = {max_u:.6f} <= {0.45802 + 1e-4}")


def _phase_speed_for(k, gamma):
    p = Params(g=9.81, gamma=gamma, hbar=1.0, epsilon=0.0)
    g = Grid.from_length(512, 4 * np.pi, 0.0, "periodic")
    x = g.cells()
    a = 1e-4
    s0 = FlowState(1.0 + a * np.sin(k * x), a * math.sqrt(p.g) * np.sin(k * x), 0.0)
    hist = simulate(s0, p, g, StepControl(cfl=0.3, dt_max=0.02, t_end=3.0, output_dt=0.1))
    return measure_phase_speed(hist, k), p


def test_criterion_4_dispersion():
    lines = []
    ok = True
    for k in (0.5, 1.0, 2.0):
        meas, p = _phase_speed_for(k, gamma=1.0)
        target = dispersion_omega(k, p) / k
        rel = abs(meas.speed - target) / target
        ok = ok and meas.status == "ok" and rel <= 0.01
        lines.append(f"k={k}: c={meas.speed:.4f} vs {target:.4f} ({rel:.2%})")
    c0 = math.sqrt(9.81)
    for k in (1.0, 2.0, 4.0):
        meas, p = _phase_speed_for(k, gamma=9.81 / 3.0)
        rel = abs(meas.speed - c0) / c0
        ok = ok and meas.status == "ok" and rel <= 0.01
        lines.append(f"B=3 k={k}: c={meas.speed:.4f} vs {c0:.4f} ({rel:.2%})")
    report(4, "dispersion relation + Bond-3 collapse", ok, "; ".join(lines))


def test_criterion_5_operator_suite():
    rng = np.random.default_rng(7)

    def random_depth(g):
        x = g.cells()
        raw = np.zeros(g.n)
        for k in range(1, 6):
            a, b = rng.standard_normal(2) / k
            raw += a * np.sin(2 * np.pi * k * (x - g.x_left) / g.length)
            raw += b * np.cos(2 * np.pi * k * (x - g.x_left) / g.length)
        raw /= max(np.max(np.abs(raw)), 1e-12)
        return 1.25 + 0.675 * raw  # range inside [0.5, 2]

    worst_rt, worst_mp = 0.0, 0.0
    for case in range(200):
        mode = "periodic" if case % 2 == 0 else "line"
        g = Grid.from_length(128, 20.0, -10.0, mode)
        h = random_depth(g)
        sys = assemble_L(h, g, hbar=1.0)
        psi = rng.standard_normal(g.n)
        u = solve_L(sys, psi)
        rt = np.max(np.abs(apply_L(sys, u) - psi)) / np.max(np.abs(psi))
        mp = np.max(np.abs(u)) / (np.max(1.0 / h) * np.max(np.abs(psi)))
        worst_rt = max(worst_rt, rt)
        worst_mp = max(worst_mp, mp)
    residuals = []
    for n in (256, 512, 1024):
        g = Grid.from_length(n, 40.0, -20.0, "line")
        x = g.cells()
        residuals.append(psi_identity_residual(
            1.0 + 0.1 * np.exp(-(x**2)), np.exp(-(x**2) / 2.0), g, 1.0))
    orders = [math.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    ok = worst_rt <= 1e-10 and worst_mp <= 1.0 + 1e-12 and min(orders) >= 1.5
    report(5, "operator suite", ok,
           f"round-trip {worst_rt:.2e} <= 1e-10, max-principle ratio {worst_mp:.6f} <= 1, "
           f"exchange-identity orders {orders[0]:.2f}, {orders[1]:.2f} >= 1.5")


def test_criterion_6_riccati_consistency():
    worsts = []
    for n, dtf, odt in [(256, 4e-3, 0.05), (512, 2e-3, 0.025)]:
        p = Params(g=9.81, gamma=9.81, hbar=1.0, epsilon=0.0)
        g = Grid.from_length(n, 40.0, -20.0, "periodic")
        x = g.cells()
        s0 = FlowState(1.0 + 0.05 * np.exp(-(x**2)), np.zeros(g.n), 0.0)
        hist = simulate(s0, p, g, StepControl(cfl=0.3, dt_max=1.0, t_end=1.0,
                                              dt_fixed=dtf, output_dt=odt))
        worst = 0.0
        for x0 in np.linspace(-4.0, 4.0, 8):
            for branch in ("plus", "minus"):
                res = riccati_residual(hist, trace(hist, float(x0), branch), p)
                worst = max(worst, float(np.max(np.abs(res.values[1:-1]))))
        worsts.append(worst)
    order = math.log2(worsts[0] / worsts[1])
    report(6, "Riccati consistency along characteristics", order >= 1.0,
           f"max residual {worsts[0]:.3e} -> {worsts[1]:.3e}, combined order {order:.2f} >= 1")


def test_criterion_7_blowup_vs_regularization(blowup_pair):
    hist0, p0 = blowup_pair[0.0]
    hist1, p1 = blowup_pair[0.1]
    trig = hist0.trigger
    ok0 = (hist0.status == "aborted" and trig is not None
           and trig[1] == "gradient-pair" and trig[0] < 2.0)
    sup_pq = max(np.max(np.abs(hist1.series["sup_P"])),
                 np.max(np.abs(hist1.series["sup_Q"])),
                 np.max(np.abs(hist1.series["min_ux"])) * 2.0 * np.max(hist1.series["max_h"]))
    olk = oleinik_report(hist1)
    ok1 = (hist1.status == "completed" and hist1.t_final >= 2.0 - 1e-9
           and np.isfinite(sup_pq) and math.isfinite(olk.fitted_C) and olk.violations == 0)
    report(7, "blow-up (eps=0) vs global regularized run (eps=0.1)", ok0 and ok1,
           f"eps=0 triggered '{trig[1] if trig else None}' at t={trig[0] if trig else None:.3f} < 2; "
           f"eps=0.1 reached t={hist1.t_final:.3f} with finite invariants "
           f"(fitted Oleinik C = {olk.fitted_C:.2f})")


def test_criterion_8_uniform_in_eps_diagnostics(steep_sweep):
    result, box = steep_sweep
    cs, lps = [], []
    for art in result.artifacts:
        assert art.history.status == "completed"
        cs.append(art.reports["oleinik"].fitted_C)
        lps.append(lp_box_norm(art.history, 0.5, box))
    common_c = max(cs)
    covers = all(math.isfinite(c) and c <= common_c for c in cs)
    lp_ratio = max(lps) / min(lps)
    ok = covers and math.isfinite(common_c) and lp_ratio <= 3.0
    report(8, "uniform-in-eps Oleinik and L^{2+alpha}", ok,
           f"common C = {common_c:.3f} covers fitted C's {['%.3f' % c for c in cs]}; "
           f"L^2.5 box-norm max/min = {lp_ratio:.2f} <= 3")


def test_criterion_9_cauchy_behavior(steep_sweep):
    result, box = steep_sweep
    rows = result.table
    ok = (all(r["comparable"] for r in rows)
          and rows[0]["dh_l2"] > rows[1]["dh_l2"]
          and rows[0]["du_l2"] > rows[1]["du_l2"])
    report(9, "eps -> 0 Cauchy behavior", ok,
           f"|h(0.2)-h(0.1)| = {rows[0]['dh_l2']:.3e} > |h(0.1)-h(0.05)| = {rows[1]['dh_l2']:.3e}; "
           f"|u(0.2)-u(0.1)| = {rows[0]['du_l2']:.3e} > |u(0.1)-u(0.05)| = {rows[1]['du_l2']:.3e}")


def test_criterion_10_convergence_orders():
    # temporal: Richardson triple at fixed dt on a smooth periodic run
    p = Params(g=9.81, gamma=9.81, hbar=1.0, epsilon=0.0)
    g = Grid.from_length(256, 40.0, -20.0, "periodic")
    x = g.cells()
    s0 = FlowState(1.0 + 0.05 * np.exp(-(x**2)), np.zeros(g.n), 0.0)
    sols = {}
    for m in (1, 2, 4):
        dt = 0.005 / m
        s = s0
        for _ in range(int(round(0.2 / dt))):
            s = rk4_step(s, dt, p, g)
        sols[m] = s
    e1 = np.max(np.abs(sols[1].u - sols[2].u)) + np.max(np.abs(sols[1].h - sols[2].h))
    e2 = np.max(np.abs(sols[2].u - sols[4].u)) + np.max(np.abs(sols[2].h - sols[4].h))
    temporal = math.log2(e1 / e2)

    # spatial: variable-coefficient solve, self-convergence via cubic restriction
    from sgnlab.characteristics import interp_cubic

    def depth(xx):
        return 1.0 + 0.3 * np.sin(2 * np.pi * xx / 30.0) * np.exp(-((xx / 8.0) ** 2))

    sols2, grids = {}, {}
    for n in (256, 512, 1024):
        gg = Grid.from_length(n, 30.0, -15.0, "line")
        xx = gg.cells()
        sys = assemble_L(depth(xx), gg, hbar=1.0)
        sols2[n] = solve_L(sys, np.exp(-(xx**2) / 9.0) * np.cos(xx))
        grids[n] = gg
    coarse_x = grids[256].cells()
    d1 = np.max(np.abs(sols2[256] - interp_cubic(sols2[512], grids[512], coarse_x)))
    d2 = np.max(np.abs(interp_cubic(sols2[512], grids[512], coarse_x)
                       - interp_cubic(sols2[1024], grids[1024], coarse_x)))
    spatial = math.log2(d1 / d2)
    ok = temporal >= 3.8 and spatial >= 1.9
    report(10, "temporal and spatial convergence orders", ok,
           f"RK4 order {temporal:.2f} >= 3.8; elliptic self-convergence order {spatial:.2f} >= 1.9")
