import math

import numpy as np
import pytest

from sgnlab import FlowState, Grid, Params
from sgnlab.diagnostics import (
    Box,
    blowup_report,
    bond_number,
    bounds_check,
    dispersion_omega,
    energy_budget,
    lp_box_norm,
    measure_phase_speed,
    oleinik_report,
)
from sgnlab.dynamics import BlowupThresholds, StepControl, depth_floor, simulate
from sgnlab.errors import ContractViolationError, ModeError
from sgnlab.grid import derivative


def flat_history(t_end=1.0, n=256):
    p = Params(g=9.81, gamma=9.81, hbar=1.0)
    g = Grid.from_length(n, 20.0, -10.0, "periodic")
    s0 = FlowState(np.ones(g.n), np.zeros(g.n), 0.0)
    return simulate(s0, p, g, StepControl(cfl=0.4, dt_max=0.05, t_end=t_end, output_dt=0.1)), p, g


def gaussian_history(t_end=1.0, n=512, a=0.05):
    p = Params(g=9.81, gamma=9.81, hbar=1.0)
    g = Grid.from_length(n, 40.0, -20.0, "periodic")
    x = g.cells()
    s0 = FlowState(1.0 + a * np.exp(-(x**2)), np.zeros(g.n), 0.0)
    return simulate(s0, p, g, StepControl(cfl=0.3, dt_max=0.05, t_end=t_end, output_dt=0.05)), p, g


class TestEnergyBudget:
    def test_flat_run_all_pass(self):
        hist, p, g = flat_history()
        rep = energy_budget(hist)
        assert rep.verdict is True
        assert rep.dissipation_integral == 0.0
        assert rep.budget_residual == 0.0

    def test_smooth_conservation(self):
        hist, p, g = gaussian_history()
        # 1e-6 is the n = 1024 contract; this module test runs at n = 512
        rep = energy_budget(hist, conserve_rtol=4e-6)
        assert rep.verdicts["energy_conservation"].passed
        assert rep.dissipation_integral == 0.0

    def test_dissipative_run_monotone_and_closed(self):
        # regularized steep run with the cut-off active from the start
        p = Params(g=9.81, gamma=30.0, hbar=1.0, epsilon=0.1)
        g = Grid.from_length(2048, 36.0, -16.0, "line")
        from sgnlab.scenarios import ScenarioConfig, build_initial

        cfg = ScenarioConfig(
            params=p, grid=g,
            step=StepControl(cfl=0.2, dt_max=0.05, t_end=0.3, output_dt=0.05, farfield_rtol=1e-5),
            kind="steep", amplitude=-0.45, width=0.45, center=2.0, plateau=0.7)
        hist = simulate(build_initial(cfg), p, g, cfg.step)
        rep = energy_budget(hist)
        assert rep.dissipation_integral < 0.0
        assert rep.verdicts["energy_monotonic"].passed
        assert rep.verdicts["budget_closure"].passed

    def test_periodic_dissipative_run_monotone_and_closed(self):
        # the same steep data on a periodic grid: the cut-off needs no line mode
        p = Params(g=9.81, gamma=30.0, hbar=1.0, epsilon=0.1)
        line = Grid.from_length(2048, 36.0, -16.0, "line")
        from sgnlab.scenarios import ScenarioConfig, build_initial

        cfg = ScenarioConfig(
            params=p, grid=line,
            step=StepControl(cfl=0.2, dt_max=0.05, t_end=0.15, output_dt=0.05, farfield_rtol=1e-5),
            kind="steep", amplitude=-0.45, width=0.45, center=2.0, plateau=0.7)
        g = Grid.from_length(2048, 36.0, -16.0, "periodic")
        hist = simulate(build_initial(cfg), p, g, cfg.step)
        rep = energy_budget(hist)
        assert hist.status == "completed"
        assert rep.dissipation_integral < 0.0
        assert rep.verdicts["energy_monotonic"].passed
        assert rep.verdicts["budget_closure"].passed

    def test_dissipation_integral_never_positive(self):
        hist, p, g = gaussian_history(t_end=0.3)
        rep = energy_budget(hist)
        assert rep.dissipation_integral <= 0.0


class TestBoundsCheck:
    def test_flat_run_margins_full_width(self):
        hist, p, g = flat_history()
        rep = bounds_check(hist)
        assert rep.status == "checked" and rep.verdict is True
        assert rep.margins["h_lower"] == pytest.approx(p.hbar - rep.h_min, abs=1e-12)

    def test_gaussian_tuned_energy(self):
        # measured E0 = 0.0981 gives h >= 0.9 - 1e-4 over the run
        from sgnlab.scenarios import ScenarioConfig, build_initial

        p = Params(g=9.81, gamma=9.81, hbar=1.0)
        g = Grid.from_length(512, 40.0, -20.0, "periodic")
        cfg = ScenarioConfig(params=p, grid=g,
                             step=StepControl(cfl=0.3, dt_max=0.05, t_end=2.0),
                             kind="gaussian", amplitude=0.05, width=1.0,
                             target_energy=0.0981)
        s0 = build_initial(cfg)
        hist = simulate(s0, p, g, cfg.step)
        assert hist.e0 == pytest.approx(0.0981, rel=1e-9)
        rep = bounds_check(hist)
        assert rep.verdict is True
        assert np.min(hist.series["min_h"]) >= 0.9 - 1e-4

    def test_over_threshold_skipped(self):
        p = Params(g=9.81, gamma=9.81, hbar=1.0)
        g = Grid.from_length(512, 40.0, -20.0, "periodic")
        x = g.cells()
        s0 = FlowState(1.0 + 0.9 * np.exp(-((x / 4) ** 2)), np.zeros(g.n), 0.0)
        hist = simulate(s0, p, g, StepControl(cfl=0.3, dt_max=0.05, t_end=0.05))
        assert hist.e0 >= p.e_max
        rep = bounds_check(hist)
        assert rep.status == "skipped"
        assert rep.verdict == "skipped"  # a skip is not a pass


class TestOleinik:
    def test_flat_run_zero(self):
        hist, p, g = flat_history()
        rep = oleinik_report(hist)
        assert rep.fitted_C == 0.0
        assert rep.violations == 0

    def test_fitted_constant_covers_series(self):
        hist, p, g = gaussian_history()
        rep = oleinik_report(hist)
        mask = hist.series["t"] > 0.0
        t = hist.series["t"][mask]
        sup = np.maximum(np.maximum(hist.series["sup_P"][mask], hist.series["sup_Q"][mask]), 0.0)
        assert np.all(sup / rep.normalization_h <= rep.fitted_C * (1 + 1.0 / t) * (1 + 1e-12))

    def test_user_constant_violations_counted(self):
        hist, p, g = gaussian_history()
        rep = oleinik_report(hist)
        tight = oleinik_report(hist, user_c=rep.fitted_C * 0.5)
        assert tight.violations > 0
        loose = oleinik_report(hist, user_c=rep.fitted_C * 2.0)
        assert loose.violations == 0

    def test_fitted_c_stable_under_refinement(self):
        # steep regularized run: fitted constant within +-20% across n and 2n
        from sgnlab.scenarios import ScenarioConfig, build_initial

        values = []
        for n in (1024, 2048):
            p = Params(g=9.81, gamma=30.0, hbar=1.0, epsilon=0.1)
            g = Grid.from_length(n, 36.0, -16.0, "line")
            cfg = ScenarioConfig(
                params=p, grid=g,
                step=StepControl(cfl=0.2, dt_max=0.05, t_end=0.4, output_dt=0.1, farfield_rtol=1e-5),
                kind="steep", amplitude=-0.45, width=0.45, center=2.0, plateau=0.7)
            hist = simulate(build_initial(cfg), p, g, cfg.step)
            values.append(oleinik_report(hist).fitted_C)
        assert abs(values[1] - values[0]) <= 0.2 * abs(values[0])


def first_trigger(s, p, g, thr=None):
    """The paired criterion's code on ``s``: the monitor of a one-step run checks its initial state first."""
    thr = thr if thr is not None else BlowupThresholds()
    hist = simulate(s, p, g, StepControl(t_end=1e-6, dt_fixed=1e-6), blowup=thr)
    return hist.trigger[1] if hist.trigger else None


class TestBlowupDiagnostics:
    def test_flat_never_triggers(self):
        p = Params()
        g = Grid.from_length(256, 20.0, -10.0, "periodic")
        s = FlowState(np.ones(g.n), np.zeros(g.n))
        assert first_trigger(s, p, g) is None

    def test_monitor_requires_pairing(self):
        p = Params()
        g = Grid.from_length(256, 20.0, -10.0, "periodic")
        x = g.cells()
        # steep u alone: no trigger even far beyond the slope threshold
        s = FlowState(np.ones(g.n), 100.0 * np.sin(2 * np.pi * x / 20.0))
        assert first_trigger(s, p, g, BlowupThresholds(ux=1.0, hx=1e9)) is None

    def test_depth_floor_agrees_with_simulate(self):
        # min h = 0.042 lies between the a-priori floor (0.1 h_min = 0.002)
        # and 0.05 hbar: the monitor reads the a-priori floor, so nothing triggers
        p = Params()
        g = Grid.from_length(1024, 40.0, -20.0, "periodic")
        x = g.cells()
        s = FlowState(1.0 - 0.96 * np.exp(0.1 - np.sqrt(x**2 + 0.01)), 1e-3 * np.sin(2 * np.pi * x / 20.0))
        e0 = simulate(s, p, g, StepControl(t_end=0.0)).e0  # the energy the run measures
        assert depth_floor(e0, p) < s.h.min() < 0.05 * p.hbar
        assert depth_floor(p.e_max, p) == 0.05 * p.hbar  # vacuous bounds
        assert first_trigger(s, p, g, BlowupThresholds(ux=1e-6, hx=1e9)) is None

    def test_report_carries_series(self):
        hist, p, g = gaussian_history(t_end=0.3)
        rep = blowup_report(hist)
        assert rep.triggered is False
        assert rep.trigger_time is None and rep.trigger_code is None
        assert (rep.final_min_ux, rep.final_max_abs_hx, rep.final_min_h) == (
            hist.series["min_ux"][-1], hist.series["max_abs_hx"][-1], hist.series["min_h"][-1])


class TestLpBoxNorm:
    def test_flat_run_zero(self):
        hist, p, g = flat_history()
        val = lp_box_norm(hist, 0.5, Box(0.2, 0.8, -5.0, 5.0))
        # nonuniform time-difference weights leave 1e-16-level dust in h_t
        assert val < 1e-30

    def test_alpha_zero_matches_plain_l2(self):
        hist, p, g = gaussian_history(t_end=0.6)
        box = Box(0.1, 0.5, -5.0, 5.0)
        val = lp_box_norm(hist, 0.0, box)
        # independent computation of the plain space-time L2 norm
        snaps = hist.snapshots
        times = np.array([s.t for s in snaps])
        sel = np.nonzero((times >= box.t1 - 1e-12) & (times <= box.t2 + 1e-12))[0]
        hs = np.stack([snaps[i].h for i in range(sel[0] - 1, sel[-1] + 2)])
        us = np.stack([snaps[i].u for i in range(sel[0] - 1, sel[-1] + 2)])
        tt = times[sel[0] - 1 : sel[-1] + 2]
        h_t = np.gradient(hs, tt, axis=0)
        u_t = np.gradient(us, tt, axis=0)
        x = g.cells()
        cols = (x >= box.a) & (x <= box.b)
        per = []
        for j, i in enumerate(range(1, len(tt) - 1)):
            hx = derivative(hs[i], g)
            ux = derivative(us[i], g)
            per.append(np.sum((h_t[i] ** 2 + hx**2 + u_t[i] ** 2 + ux**2)[cols]) * g.dx)
        expected = float(np.trapezoid(per, tt[1:-1]))
        assert val == pytest.approx(expected, rel=1e-12)

    def test_box_outside_history_rejected(self):
        hist, p, g = gaussian_history(t_end=0.3)
        with pytest.raises(ContractViolationError):
            lp_box_norm(hist, 0.5, Box(0.0, 5.0, -5.0, 5.0))
        with pytest.raises(ContractViolationError):
            lp_box_norm(hist, 0.5, Box(0.0, 0.2, -500.0, 5.0))

    @pytest.mark.parametrize("alpha", [-0.1, 1.0, 2.5, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        hist, p, g = flat_history(t_end=0.3)
        with pytest.raises(ContractViolationError, match="alpha"):
            lp_box_norm(hist, alpha, Box(0.0, 0.3, -5.0, 5.0))

    def test_box_with_two_snapshots_rejected(self):
        hist, p, g = flat_history(t_end=0.3)  # snapshots every 0.1
        with pytest.raises(ContractViolationError, match="3 snapshots"):
            lp_box_norm(hist, 0.5, Box(0.05, 0.2, -5.0, 5.0))

    def test_sparse_sampling_warns(self):
        hist, p, g = gaussian_history(t_end=0.3)
        with pytest.warns(UserWarning, match="time samples"):
            lp_box_norm(hist, 0.5, Box(0.0, 0.15, -5.0, 5.0))


class TestDispersion:
    def test_long_wave_limit(self):
        p = Params(g=9.81, gamma=1.0, hbar=1.0)
        k = 1e-6
        assert dispersion_omega(k, p) / k == pytest.approx(math.sqrt(9.81), rel=1e-9)

    def test_hand_value(self):
        p = Params(g=9.81, gamma=1.0, hbar=1.0)
        w = dispersion_omega(2.0, p)
        assert w**2 == pytest.approx(39.24 * 1.407747 / 2.333333, rel=1e-5)
        assert w == pytest.approx(4.8656, abs=2e-4)

    def test_bond_three_collapse(self):
        p = Params(g=9.81, gamma=9.81 / 3.0, hbar=1.0)
        c0 = math.sqrt(9.81)
        for k in (0.5, 1.0, 2.0, 4.0, 8.0):
            assert dispersion_omega(k, p) / k == pytest.approx(c0, rel=1e-12)

    @pytest.mark.parametrize("k", [0.0, -1.0, float("nan")])
    def test_nonpositive_wavenumber_rejected(self, k):
        with pytest.raises(ContractViolationError, match="wavenumber"):
            dispersion_omega(k, Params())

    def test_bond_number(self):
        assert bond_number(Params(g=9.81, gamma=3.27, hbar=1.0)) == pytest.approx(3.0)
        assert bond_number(Params(g=5.0, gamma=5.0, hbar=1.0)) == pytest.approx(1.0)
        b1 = bond_number(Params(g=9.81, gamma=2.0, hbar=1.3))
        b2 = bond_number(Params(g=3 * 9.81, gamma=6.0, hbar=1.3))
        assert b1 == pytest.approx(b2)


class TestPhaseSpeed:
    @staticmethod
    def sine_history(k, gamma, amplitude=1e-4, t_end=3.0, output_dt=0.1):
        p = Params(g=9.81, gamma=gamma, hbar=1.0)
        g = Grid.from_length(512, 4 * np.pi, 0.0, "periodic")
        x = g.cells()
        h = 1.0 + amplitude * np.sin(k * x)
        u = amplitude * math.sqrt(p.g / p.hbar) * np.sin(k * x)
        hist = simulate(FlowState(h, u, 0.0), p, g,
                        StepControl(cfl=0.3, dt_max=0.02, t_end=t_end, output_dt=output_dt))
        return hist, p

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_matches_linear_theory(self, k):
        hist, p = self.sine_history(k, gamma=1.0)
        out = measure_phase_speed(hist, k)
        assert out.status == "ok"
        assert out.speed == pytest.approx(dispersion_omega(k, p) / k, rel=0.01)

    @pytest.mark.parametrize("t_end, output_dt, status", [
        (0.0, None, "undefined"),  # one snapshot
        (0.1, None, "undefined"),  # two snapshots: no fit to check
        (1.4, 0.7, "undefined"),  # dt * omega = 3.41 >= pi: the phase unwrap aliases
        (3.0, 0.6, "ok"),  # dt * omega = 2.92 < pi
    ])
    def test_sparse_snapshots_undefined(self, t_end, output_dt, status):
        k = 2.0
        hist, p = self.sine_history(k, gamma=1.0, t_end=t_end, output_dt=output_dt)
        out = measure_phase_speed(hist, k)
        assert out.status == status
        if status == "ok":
            assert out.speed == pytest.approx(dispersion_omega(k, p) / k, rel=0.01)
        else:
            assert out.speed is None

    def test_flat_run_undefined(self):
        hist, p, g = flat_history()
        k = 3 * 2 * np.pi / g.length
        out = measure_phase_speed(hist, k)
        assert out.status == "undefined"
        assert out.speed is None

    def test_mode_error_on_line(self):
        p = Params()
        g = Grid.from_length(256, 20.0, -10.0, "line")
        hist = simulate(FlowState(np.ones(g.n), np.zeros(g.n), 0.0), p, g,
                        StepControl(cfl=0.3, dt_max=0.05, t_end=0.2))
        with pytest.raises(ModeError):
            measure_phase_speed(hist, 1.0)

    def test_unresolvable_wavenumber_rejected(self):
        hist, p = self.sine_history(1.0, gamma=1.0, t_end=0.3)
        with pytest.raises(ContractViolationError):
            measure_phase_speed(hist, 0.77)
