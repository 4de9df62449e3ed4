import pathlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sgnlab import FlowState, Grid, Params, dynamics, elliptic, errors, grid, kinematics, regularization
from sgnlab.dynamics import (
    BlowupThresholds,
    StepControl,
    cfl_dt,
    check_blowup,
    rhs,
    rk4_step,
    simulate,
)
from sgnlab.errors import ContractViolationError, DepthCollapseError, ModeError, NonFiniteError
from sgnlab.grid import derivative, integrate
from sgnlab.kinematics import pq_fields, total_energy

from conftest import assert_bitwise, convergence_orders, count_derivative_calls, cutoff_reached


def gaussian_state(g, a=0.05, w=1.0, hbar=1.0):
    x = g.cells()
    return FlowState(hbar + a * np.exp(-((x / w) ** 2)), np.zeros(g.n), 0.0)


class TestRhs:
    def test_flat_equilibrium(self, params):
        for mode in ("periodic", "line"):
            g = Grid.from_length(256, 20.0, -10.0, mode)
            ev = rhs(FlowState(np.full(g.n, params.hbar), np.zeros(g.n)), params, g)
            assert np.all(ev.dh_dt == 0.0)
            assert np.all(ev.du_dt == 0.0)

    def test_flat_equilibrium_nonunit_depth(self):
        p = Params(g=3.0, gamma=2.0, hbar=1.7)
        g = Grid.from_length(256, 20.0, -10.0, "periodic")
        ev = rhs(FlowState(np.full(g.n, 1.7), np.zeros(g.n)), p, g)
        assert np.all(ev.dh_dt == 0.0)
        assert np.all(ev.du_dt == 0.0)

    def test_linearized_momentum_prediction(self):
        # tiny sinusoid: u_t = -g h_x (1 + gamma k^2/g) / (1 + hbar^2 k^2/3)
        p = Params(g=9.81, gamma=1.0, hbar=1.0)
        k = 1.0
        g = Grid.from_length(512, 4 * np.pi, 0.0, "periodic")
        x = g.cells()
        amp = 1e-6
        s = FlowState(1.0 + amp * np.sin(k * x), np.zeros(g.n))
        ev = rhs(s, p, g)
        h_x = derivative(s.h, g)
        predicted = -p.g * h_x * (1 + p.gamma * k**2 / p.g) / (1 + k**2 / 3)
        rel = np.max(np.abs(ev.du_dt - predicted)) / np.max(np.abs(predicted))
        assert rel < 0.01

    def test_epsilon_inactive_matches_eps0_bitwise(self, periodic_grid):
        # quiescent regime: the regularized right-hand side is the plain one, signed zeros included
        for mode in ("line", "periodic"):
            g = Grid.from_length(512, 40.0, -20.0, mode)
            x = g.cells()
            s = FlowState(1.0 + 0.02 * np.exp(-(x**2)), 0.01 * np.exp(-(x**2)), 0.0)
            assert regularization.compute_reg_fields(s, Params(epsilon=0.1), g) is None
            ev0 = rhs(s, Params(epsilon=0.0), g)
            ev1 = rhs(s, Params(epsilon=0.1), g)
            assert_bitwise(ev1.dh_dt, ev0.dh_dt)
            assert_bitwise(ev1.du_dt, ev0.du_dt)

    @pytest.mark.parametrize("n", [128, 256])
    def test_flat_line_state_has_no_growing_mode(self, params, n):
        # central-difference Jacobian of rhs about the flat state: the far-field
        # pads leave no wall mode, so the linearized spectrum stays on the
        # imaginary axis to rounding
        g = Grid.from_length(n, 40.0, -20.0, "line")
        flat, delta = np.concatenate((np.full(n, params.hbar), np.zeros(n))), 1e-6
        jac = np.empty((2 * n, 2 * n))
        for j in range(2 * n):
            rates = []
            for step in (delta, -delta):
                z = flat.copy()
                z[j] += step
                ev = rhs(FlowState(z[:n], z[n:]), params, g)
                rates.append(np.concatenate((ev.dh_dt, ev.du_dt)))
            jac[:, j] = (rates[0] - rates[1]) / (2.0 * delta)
        assert np.linalg.eigvals(jac).real.max() <= 1e-6

    @pytest.mark.parametrize("mode", ["periodic", "line"])
    def test_state_of_another_grid_rejected(self, params, mode):
        g = Grid.from_length(128, 20.0, -10.0, mode)
        s = gaussian_state(Grid.from_length(129, 20.0, -10.0, mode))
        with pytest.raises(ContractViolationError):
            rhs(s, params, g)


class TestCflDt:
    def test_hand_value(self):
        p = Params(g=9.81, gamma=9.81, hbar=1.0)
        g = Grid(n=100, dx=0.1, x_left=0.0, mode="periodic")
        s = FlowState(np.ones(100), np.zeros(100))
        dt = cfl_dt(s, p, g, StepControl(cfl=0.5, dt_max=1.0, t_end=1.0))
        assert dt == pytest.approx(0.5 * 0.1 / np.sqrt(3 * 9.81), rel=1e-12)
        assert dt == pytest.approx(0.009217, abs=2e-6)

    def test_clamped_by_dt_max(self):
        p = Params()
        g = Grid(n=100, dx=0.1, mode="periodic")
        s = FlowState(np.ones(100), np.zeros(100))
        dt = cfl_dt(s, p, g, StepControl(cfl=0.5, dt_max=1e-4, t_end=1.0))
        assert dt == 1e-4

    def test_linear_in_dx(self):
        p = Params()
        s1 = FlowState(np.ones(128), np.zeros(128))
        c = StepControl(cfl=0.4, dt_max=10.0, t_end=1.0)
        dt1 = cfl_dt(s1, p, Grid(n=128, dx=0.1, mode="periodic"), c)
        dt2 = cfl_dt(s1, p, Grid(n=128, dx=0.05, mode="periodic"), c)
        assert dt1 == pytest.approx(2 * dt2, rel=1e-12)


class TestRk4Step:
    def test_flat_state_bitwise_fixed_point(self, params, periodic_grid):
        s = FlowState(np.full(periodic_grid.n, params.hbar), np.zeros(periodic_grid.n), 0.0)
        out = rk4_step(s, 0.01, params, periodic_grid)
        assert np.array_equal(out.h, s.h)
        assert np.array_equal(out.u, s.u)
        assert out.t == 0.01

    def test_mass_preserved_per_step(self, params):
        g = Grid.from_length(512, 40.0, -20.0, "periodic")
        s = gaussian_state(g)
        out = rk4_step(s, 0.002, params, g)
        m0, m1 = integrate(s.h, g), integrate(out.h, g)
        assert abs(m1 - m0) <= 1e-13 * abs(m0)

    def test_rejects_nonpositive_dt(self, params, periodic_grid):
        s = FlowState(np.ones(periodic_grid.n), np.zeros(periodic_grid.n))
        with pytest.raises(ContractViolationError):
            rk4_step(s, 0.0, params, periodic_grid)

    def test_depth_collapse_error(self, params):
        # drive h through zero with a huge step; the retry also fails
        g = Grid.from_length(256, 20.0, -10.0, "periodic")
        x = g.cells()
        s = FlowState(0.02 + 0.01 * np.cos(x), 5.0 * np.sin(x), 0.0)
        with pytest.raises(DepthCollapseError) as err:
            rk4_step(s, 0.5, params, g)
        assert "near t = 0:" in str(err.value)

    def test_retry_advances_half_step(self, params, monkeypatch):
        # fault injection: the full step's final blend takes a step a million times
        # too long, so its depth goes negative and the step is retried from scratch at dt/2
        g = Grid.from_length(128, 20.0, -10.0, "periodic")
        s = gaussian_state(g)
        dt = cfl_dt(s, params, g, StepControl(cfl=0.3))
        half = rk4_step(s, 0.5 * dt, params, g)
        calls = _count_calls(monkeypatch, "rhs")
        real, stages = dynamics._stage, []

        def overlong_blend(s, step, t, *k):
            stages.append(1)
            return real(s, 1e6 * step if len(stages) == 4 else step, t, *k)

        monkeypatch.setattr(dynamics, "_stage", overlong_blend)
        retried = rk4_step(s, dt, params, g)
        assert len(calls) == 8 and len(stages) == 8
        assert retried.t == half.t == 0.5 * dt
        assert np.array_equal(retried.h, half.h) and np.array_equal(retried.u, half.u)

    @pytest.mark.parametrize("n", [128, 256])
    def test_flat_line_state_has_no_growing_mode(self, params, n):
        # twin of the rhs-level test on the one-step map: its central-difference
        # Jacobian about the flat state has no eigenvalue beyond exp(1e-6 dt)
        g = Grid.from_length(n, 40.0, -20.0, "line")
        flat, delta = np.concatenate((np.full(n, params.hbar), np.zeros(n))), 1e-6
        dt = cfl_dt(FlowState(flat[:n], flat[n:]), params, g, StepControl())
        jac = np.empty((2 * n, 2 * n))
        for j in range(2 * n):
            states = []
            for step in (delta, -delta):
                z = flat.copy()
                z[j] += step
                out = rk4_step(FlowState(z[:n], z[n:]), dt, params, g)
                states.append(np.concatenate((out.h, out.u)))
            jac[:, j] = (states[0] - states[1]) / (2.0 * delta)
        assert np.abs(np.linalg.eigvals(jac)).max() <= np.exp(1e-6 * dt)

    def test_temporal_self_convergence_order(self, params):
        # Richardson triple on a smooth periodic run with fixed dt
        g = Grid.from_length(256, 40.0, -20.0, "periodic")
        s0 = gaussian_state(g)
        t_end = 0.2
        sols = {}
        for m in (1, 2, 4):
            dt = 0.005 / m
            s = s0
            for _ in range(int(round(t_end / dt))):
                s = rk4_step(s, dt, params, g)
            sols[m] = s
        e1 = np.max(np.abs(sols[1].u - sols[2].u)) + np.max(np.abs(sols[1].h - sols[2].h))
        e2 = np.max(np.abs(sols[2].u - sols[4].u)) + np.max(np.abs(sols[2].h - sols[4].h))
        assert np.log2(e1 / e2) >= 3.8


def _restrict(f):
    """4th-order value at each coarse cell centre, midway between fine cells 2i and 2i+1
    (the stencil wraps; in line mode the wrapped cells lie in the flat far field)."""
    return (9.0 * (f[0::2] + f[1::2]) - np.roll(f, 1)[0::2] - np.roll(f, -1)[1::2]) / 16.0


class TestSpatialOrder:
    # self-convergence of the full semi-discretization: the bump at eps = 0 with
    # dt = 1e-3 to t = 1 at n = 128 ... 1024, each n against 2n restricted; the
    # time error (~dt^4) stays far below the space error, so the orders are spatial
    @pytest.mark.parametrize("mode", ["periodic", "line"])
    def test_last_pair_is_fourth_order(self, mode):
        p = Params(g=9.81, gamma=9.81, hbar=1.0, epsilon=0.0)
        finals = {}
        for n in (128, 256, 512, 1024):
            g = Grid.from_length(n, 40.0, -20.0, mode)
            hist = simulate(gaussian_state(g, a=0.1), p, g, StepControl(t_end=1.0, dt_fixed=1e-3))
            assert hist.status == "completed"
            finals[n] = hist.snapshots[-1]
        diffs = [max(np.max(np.abs(c.h - _restrict(f.h))), np.max(np.abs(c.u - _restrict(f.u))))
                 for c, f in ((finals[n], finals[2 * n]) for n in (128, 256, 512))]
        # today's operators give 3.55 and 3.94; a 2nd-order central derivative gives 1.95 last
        assert convergence_orders(diffs)[-1] >= 3.5


class TestStepControl:
    @pytest.mark.parametrize("field, value", [
        ("t_end", float("nan")), ("t_end", float("inf")), ("t_end", -float("inf")),
        ("output_dt", 0.0), ("output_dt", -1.0), ("output_dt", float("nan")), ("output_dt", float("inf")),
        ("dt_fixed", 0.0), ("dt_fixed", -1.0), ("dt_fixed", float("nan")),
        ("farfield_rtol", -1.0), ("farfield_rtol", 0.0), ("farfield_rtol", float("inf")),
        ("cfl", 0.0), ("cfl", 1.5), ("cfl", float("nan")), ("dt_max", 0.0), ("dt_max", float("nan")),
        ("dt_max", float("inf")),
    ])
    def test_malformed_setting_rejected(self, field, value):
        with pytest.raises(ContractViolationError, match=field):
            StepControl(**{field: value})

    @pytest.mark.parametrize("t_end", [0.0, 1e-13, 0.3, 1.0, 3.0, 1e6])
    def test_finished_from_the_end_tolerance_on(self, t_end):
        # the one end-of-run rule: t_end less 1e-12 max(1, t_end), and not one ulp below
        c = StepControl(t_end=t_end)
        edge = t_end - 1e-12 * max(1.0, t_end)
        assert c.finished(edge) and c.finished(t_end)
        assert not c.finished(np.nextafter(edge, -np.inf))


class TestBlowupCheck:
    def test_never_on_slope_alone(self):
        thr = BlowupThresholds(ux=10.0, hx=10.0)
        assert check_blowup(50.0, 1.0, 1.0, thr, depth_floor=0.1) is None

    def test_gradient_pair(self):
        thr = BlowupThresholds(ux=10.0, hx=10.0)
        assert check_blowup(50.0, 20.0, 1.0, thr, depth_floor=0.1) == "gradient-pair"

    def test_depth_pair(self):
        thr = BlowupThresholds(ux=10.0, hx=10.0)
        assert check_blowup(50.0, 1.0, 0.05, thr, depth_floor=0.1) == "depth-pair"

    @pytest.mark.parametrize("field", ["ux", "hx"])
    def test_nan_threshold_rejected(self, field):
        # a NaN slope threshold would let a lone companion trigger the pair
        with pytest.raises(ContractViolationError, match=field):
            BlowupThresholds(**{field: float("nan")})


class TestSimulate:
    def test_zero_time_single_snapshot(self, params):
        g = Grid.from_length(256, 20.0, -10.0, "periodic")
        hist = simulate(gaussian_state(g), params, g,
                        StepControl(cfl=0.3, dt_max=0.1, t_end=0.0))
        assert len(hist.snapshots) == 1
        assert hist.status == "completed"
        assert hist.n_steps == 0

    def test_flat_run_stays_flat(self, params):
        g = Grid.from_length(256, 20.0, -10.0, "periodic")
        s0 = FlowState(np.ones(g.n), np.zeros(g.n))
        hist = simulate(s0, params, g, StepControl(cfl=0.4, dt_max=0.05, t_end=1.0))
        assert np.all(hist.series["energy"] == 0.0)
        for s in hist.snapshots:
            assert np.all(s.h == 1.0) and np.all(s.u == 0.0)

    def test_mass_conservation_periodic(self, params):
        g = Grid.from_length(512, 40.0, -20.0, "periodic")
        hist = simulate(gaussian_state(g), params, g,
                        StepControl(cfl=0.3, dt_max=0.1, t_end=1.0))
        m = hist.series["mass"]
        assert np.max(np.abs(m - m[0])) <= 1e-13 * abs(m[0])

    def test_mass_conservation_line(self, params):
        g = Grid.from_length(1024, 40.0, -20.0, "line")
        hist = simulate(gaussian_state(g), params, g,
                        StepControl(cfl=0.3, dt_max=0.1, t_end=1.0))
        m = hist.series["mass"]
        assert np.max(np.abs(m - m[0])) <= 1e-8 * abs(m[0])

    def test_energy_conservation_smooth_run(self, params):
        # the 1e-6 contract holds at n = 1024 (acceptance suite); at n = 512
        # the leading spatial wobble is 4x larger
        g = Grid.from_length(512, 40.0, -20.0, "periodic")
        hist = simulate(gaussian_state(g), params, g,
                        StepControl(cfl=0.3, dt_max=0.1, t_end=1.0))
        e = hist.series["energy"]
        assert np.max(np.abs(e - e[0])) <= 4e-6 * e[0]

    def test_output_dt_snapshot_times(self, params):
        g = Grid.from_length(256, 20.0, -10.0, "periodic")
        hist = simulate(gaussian_state(g), params, g,
                        StepControl(cfl=0.3, dt_max=0.1, t_end=1.0, output_dt=0.25))
        times = [s.t for s in hist.snapshots]
        assert times[0] == 0.0
        for expected in (0.25, 0.5, 0.75, 1.0):
            assert any(abs(t - expected) < 1e-9 for t in times)

    def test_step_counter_and_final_time(self, params):
        g = Grid.from_length(256, 20.0, -10.0, "periodic")
        hist = simulate(gaussian_state(g), params, g,
                        StepControl(cfl=0.3, dt_max=0.1, t_end=0.5))
        assert hist.t_final == pytest.approx(0.5, abs=1e-12)
        assert hist.n_steps == len(hist.series["t"]) - 1

    def test_abort_recorded_not_raised(self):
        # a state violating the far-field contract at start must raise early
        # (never silently truncate), but mid-run contamination is recorded
        p = Params(g=9.81, gamma=9.81, hbar=1.0)
        g = Grid.from_length(512, 20.0, -10.0, "line")
        x = g.cells()
        # wave where tails already reach near the boundary: decays too slowly
        s0 = FlowState(1.0 + 0.2 * np.exp(-((x / 6.0) ** 2)), np.zeros(g.n), 0.0)
        from sgnlab.errors import BoundaryContaminationError

        with pytest.raises(BoundaryContaminationError):
            simulate(s0, p, g, StepControl(cfl=0.3, dt_max=0.1, t_end=0.5))

    def test_far_field_checks_each_recorded_state_once(self, params, monkeypatch):
        # the initial state's check, which raises before the first step, is also its only one
        calls = _count_calls(monkeypatch, "check_far_field")
        g = Grid.from_length(128, 40.0, -20.0, "line")
        hist = simulate(gaussian_state(g), params, g, StepControl(t_end=0.01, dt_fixed=1e-3))
        assert hist.status == "completed" and hist.n_steps == 10
        assert len(calls) == hist.n_steps + 1

    def test_epsilon_consistency_over_run(self):
        # eps > 0 without cut-off activity reproduces the eps = 0 run bitwise
        g = Grid.from_length(512, 40.0, -20.0, "line")
        x = g.cells()
        s0 = FlowState(1.0 + 0.02 * np.exp(-(x**2)), np.zeros(g.n), 0.0)
        c = StepControl(cfl=0.3, dt_max=0.1, t_end=0.3)
        h0 = simulate(s0, Params(epsilon=0.0), g, c)
        h1 = simulate(s0, Params(epsilon=0.05), g, c)
        assert np.array_equal(h0.snapshots[-1].h, h1.snapshots[-1].h)
        assert np.array_equal(h0.snapshots[-1].u, h1.snapshots[-1].u)

    def test_blowup_trigger_aborts_with_code(self):
        p = Params(g=9.81, gamma=9.81, hbar=1.0)
        g = Grid.from_length(512, 20.0, -10.0, "periodic")
        x = g.cells()
        s0 = FlowState(1.0 + 0.3 * np.sin(2 * np.pi * x / 20.0),
                       2.0 * np.sin(2 * np.pi * x / 20.0), 0.0)
        thr = BlowupThresholds(ux=0.1, hx=0.01)  # absurdly low: fire at once
        hist = simulate(s0, p, g, StepControl(cfl=0.3, dt_max=0.01, t_end=1.0), blowup=thr)
        assert hist.status == "aborted"
        assert hist.abort_reason == "blowup:gradient-pair"
        assert hist.trigger is not None

    def test_blowup_mid_run_aborts_with_code(self, params, monkeypatch):
        # fault injection: the monitor reports a gradient pair only once five
        # steps have been accepted (the real criterion never fires on this run)
        real = dynamics.check_blowup
        calls = []

        def late(*args):
            calls.append(1)
            assert real(*args) is None
            return "gradient-pair" if len(calls) > 5 else None

        monkeypatch.setattr(dynamics, "check_blowup", late)
        g = Grid.from_length(128, 20.0, -10.0, "periodic")
        hist = simulate(gaussian_state(g), params, g,
                        StepControl(t_end=1.0, dt_fixed=4e-3, output_dt=4e-3),
                        blowup=BlowupThresholds())
        assert hist.status == "aborted"
        assert hist.abort_reason == "blowup:gradient-pair"
        assert hist.n_steps == 5 and len(calls) == 6
        assert hist.trigger == (hist.abort_time, "gradient-pair")
        _assert_abort_history_consistent(hist)

    def test_final_state_blowup_aborts_at_t_end(self, params):
        # a fluid at rest has u_x = 0; the pair fires on the state its one step ends in
        g = Grid.from_length(256, 40.0, -20.0, "periodic")
        hist = simulate(gaussian_state(g), params, g, StepControl(t_end=2e-3, dt_fixed=2e-3),
                        blowup=BlowupThresholds(ux=1e-9, hx=1e-9))
        assert hist.abort_reason == "blowup:gradient-pair"
        assert hist.trigger == (2e-3, "gradient-pair") and hist.n_steps == 1
        _assert_abort_history_consistent(hist)

    def test_final_state_contamination_aborts(self, params, monkeypatch):
        # fault injection: the run's one and last step leaves a disturbance in the far-field strip
        real = dynamics.rk4_step

        def contaminating(s, dt, p, g):
            out = real(s, dt, p, g)
            return FlowState(out.h, np.where(np.arange(g.n) == 3, 1e-3, out.u), out.t)

        monkeypatch.setattr(dynamics, "rk4_step", contaminating)
        g = Grid.from_length(256, 40.0, -20.0, "line")
        hist = simulate(gaussian_state(g), params, g, StepControl(t_end=2e-3, dt_fixed=2e-3))
        assert hist.abort_reason == "boundary-contamination" and hist.abort_time == 2e-3
        _assert_abort_history_consistent(hist)

    def test_smooth_run_never_triggers_default_thresholds(self, params):
        g = Grid.from_length(256, 40.0, -20.0, "periodic")
        hist = simulate(gaussian_state(g), params, g,
                        StepControl(cfl=0.3, dt_max=0.1, t_end=1.0),
                        blowup=BlowupThresholds())
        assert hist.trigger is None and hist.status == "completed"

    def test_solver_failure_aborts_with_code(self, params, monkeypatch):
        # fault injection: after the first steps every LAPACK solve is off by 1e-6
        import sgnlab.elliptic as elliptic

        real = elliptic.dpttrs
        calls = []

        def perturbed(d, e, b):
            calls.append(1)
            x, info = real(d, e, b)
            return (x * (1.0 + 1e-6) if len(calls) > 40 else x), info

        monkeypatch.setattr(elliptic, "dpttrs", perturbed)
        g = Grid.from_length(256, 20.0, -10.0, "periodic")
        hist = simulate(gaussian_state(g), params, g,
                        StepControl(t_end=1.0, dt_fixed=4e-3, output_dt=4e-3))
        assert hist.status == "aborted"
        assert hist.abort_reason == "solver-failure"
        t = hist.series["t"]
        assert hist.n_steps > 0 and len(t) == hist.n_steps + 1
        assert all(len(col) == len(t) for col in hist.series.values())
        assert [s.t for s in hist.snapshots] == list(t)
        assert hist.abort_time == hist.t_final == t[-1]

    def test_nonfinite_stage_aborts_with_code(self, params, monkeypatch):
        # fault injection: from the sixth step on every stage takes a NaN step; the
        # first poisoned stage aborts the run at once, with no dt/2 retry
        steps = _count_calls(monkeypatch, "rk4_step")
        real, poisoned = dynamics._stage, []

        def nan_step(s, step, t, *k):
            if len(steps) > 5:
                poisoned.append(1)
                step = np.nan
            return real(s, step, t, *k)

        monkeypatch.setattr(dynamics, "_stage", nan_step)
        g = Grid.from_length(128, 20.0, -10.0, "periodic")
        hist = simulate(gaussian_state(g), params, g,
                        StepControl(t_end=1.0, dt_fixed=4e-3, output_dt=4e-3))
        assert hist.status == "aborted"
        assert hist.abort_reason == "nonfinite-fields"
        assert len(poisoned) == 1
        t = hist.series["t"]
        assert hist.n_steps == 5 and len(t) == hist.n_steps + 1
        assert all(len(col) == len(t) for col in hist.series.values())
        assert [s.t for s in hist.snapshots] == list(t)
        assert hist.abort_time == hist.t_final == t[-1]
        for s in hist.snapshots:
            assert np.all(np.isfinite(s.h)) and np.all(np.isfinite(s.u))

    def test_nonfinite_derived_field_aborts_with_code(self, params, monkeypatch):
        # fault injection: from the third step on a non-finite field that is not a
        # state enters the momentum solve's source, which the solve refuses; the run records it
        steps = _count_calls(monkeypatch, "rk4_step")
        real, poisoned = elliptic._solve, []

        def overflowing(sys, source, far):
            if len(steps) > 2:
                poisoned.append(1)
                source = source.copy()
                source[7] = np.inf
            return real(sys, source, far)

        monkeypatch.setattr(elliptic, "_solve", overflowing)
        g = Grid.from_length(128, 20.0, -10.0, "periodic")
        hist = simulate(gaussian_state(g), params, g,
                        StepControl(t_end=1.0, dt_fixed=4e-3, output_dt=4e-3))
        assert hist.status == "aborted"
        assert hist.abort_reason == "nonfinite-fields"
        assert hist.n_steps == 2 and len(poisoned) == 1
        _assert_abort_history_consistent(hist)

    def test_nonfinite_initial_fields_raise_before_first_step(self, params):
        # |u_x| ~ 1e160 overflows the energy density of the initial record
        g = Grid.from_length(128, 20.0, -10.0, "periodic")
        s0 = FlowState(np.ones(g.n), 1e160 * np.sin(2 * np.pi * g.cells() / 20.0), 0.0)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            simulate(s0, params, g, StepControl(cfl=0.3, dt_max=0.1, t_end=1.0))

    @pytest.mark.parametrize("source", ["helmholtz", "B"])
    def test_nonfinite_cutoff_source_aborts_with_code(self, monkeypatch, source):
        # fault injection on an active line-mode run: after 8 firings an inf
        # enters the Helmholtz source (through chi(P)) or the B source (through
        # A_x); the finiteness check, not the solver's residual check, stops it
        real = regularization.compute_A
        calls = []

        def poisoned(s, chiP, chiQ, p, g):
            calls.append(1)
            if len(calls) > 8 and source == "helmholtz":
                chiP = chiP.copy()
                chiP[128] = np.inf
            a, a_x = real(s, chiP, chiQ, p, g)
            if len(calls) > 8 and source == "B":
                a_x[128] = np.inf
            return a, a_x

        monkeypatch.setattr(regularization, "compute_A", poisoned)
        s, p, g = _active_line_state()
        hist = simulate(s, p, g, StepControl(t_end=1.0, dt_fixed=4e-3, output_dt=4e-3))
        assert hist.status == "aborted"
        assert hist.abort_reason == "nonfinite-fields"
        assert len(calls) == 9 and hist.n_steps == 2
        _assert_abort_history_consistent(hist)

    @pytest.mark.parametrize("mode", ["periodic", "line"])
    def test_nonfinite_record_aborts_with_code(self, params, monkeypatch, mode):
        # fault injection: the energy density of the fourth recorded state
        # overflows; the step whose row fails is not accepted, and no column
        # keeps a partial row
        real = kinematics.energy_density
        calls = []

        def overflowing(s, p, d):
            out = real(s, p, d)
            calls.append(1)
            if len(calls) == 4:
                out[20] = np.inf
            return out

        monkeypatch.setattr(kinematics, "energy_density", overflowing)
        g = Grid.from_length(256, 40.0, -20.0, mode)
        hist = simulate(gaussian_state(g), params, g,
                        StepControl(t_end=1.0, dt_fixed=4e-3, output_dt=4e-3))
        assert hist.status == "aborted"
        assert hist.abort_reason == "nonfinite-fields"
        assert len(calls) == 4 and hist.n_steps == 2
        _assert_abort_history_consistent(hist)

    def test_depth_collapse_aborts_with_code(self, params, monkeypatch):
        # fault injection: from the sixth step on every stage takes a step a million
        # times too long, which drains the depth; neither the step nor its dt/2 retry survives
        steps = _count_calls(monkeypatch, "rk4_step")
        real, drained = dynamics._stage, []

        def overlong(s, step, t, *k):
            if len(steps) > 5:
                drained.append(1)
                step *= 1e6
            return real(s, step, t, *k)

        monkeypatch.setattr(dynamics, "_stage", overlong)
        g = Grid.from_length(256, 20.0, -10.0, "periodic")
        hist = simulate(gaussian_state(g), params, g,
                        StepControl(t_end=1.0, dt_fixed=4e-3, output_dt=4e-3))
        assert hist.status == "aborted"
        assert hist.abort_reason == "depth-collapse"
        assert hist.n_steps == 5 and len(drained) == 2  # the step's first stage, then the retry's
        _assert_abort_history_consistent(hist)

    def test_boundary_contamination_aborts_with_code(self, params, monkeypatch):
        # fault injection: from the sixth step on every derivative is forced at
        # cell 5, which lies in the checked far-field strip (8 cells per side)
        steps = _count_calls(monkeypatch, "rk4_step")
        real = grid._derivative

        def forced(*args):
            out = real(*args)
            if len(steps) > 5:
                out[5] += 1.0
            return out

        for mod in (grid, dynamics, elliptic, kinematics):
            monkeypatch.setattr(mod, "_derivative", forced)
        g = Grid.from_length(256, 40.0, -20.0, "line")
        hist = simulate(gaussian_state(g), params, g,
                        StepControl(t_end=1.0, dt_fixed=4e-3, output_dt=4e-3))
        assert hist.status == "aborted"
        assert hist.abort_reason == "boundary-contamination"
        assert hist.n_steps == 6
        _assert_abort_history_consistent(hist)

    def test_periodic_epsilon_runs_like_eps0_while_inactive(self):
        # eps > 0 runs on a periodic grid; with the cut-off quiescent it steps like eps = 0
        g = Grid.from_length(256, 20.0, -10.0, "periodic")
        runs = [simulate(gaussian_state(g), Params(epsilon=eps), g, StepControl(t_end=0.1))
                for eps in (0.0, 0.5)]
        assert runs[1].status == "completed" and runs[1].n_steps > 0
        assert np.all(runs[1].series["diss_rate"] == 0.0)
        assert np.array_equal(runs[0].snapshots[-1].h, runs[1].snapshots[-1].h)
        assert np.array_equal(runs[0].snapshots[-1].u, runs[1].snapshots[-1].u)


def _count_calls(monkeypatch, name: str) -> list:
    """Count the calls of ``dynamics.<name>``; simulate makes one ``rk4_step`` call per step."""
    real, calls = getattr(dynamics, name), []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(dynamics, name, counting)
    return calls


def _assert_abort_history_consistent(hist):
    """Series rows, snapshots and abort time agree after an aborted run."""
    t = hist.series["t"]
    assert hist.n_steps > 0 and len(t) == hist.n_steps + 1
    assert all(len(col) == len(t) for col in hist.series.values())
    assert [s.t for s in hist.snapshots] == list(t)
    assert hist.abort_time == hist.t_final == t[-1]


# the classes of sgnlab.errors that define an abort reason, one class per reason
_ABORTS = [cls for cls in vars(errors).values()
           if isinstance(cls, type) and issubclass(cls, errors.SgnError) and getattr(cls, "reason", None)]
# abort code -> the error a failing step raises for it (blow-up codes come from the monitor)
_STEP_FAULTS = {cls.reason: cls for cls in _ABORTS}


def test_abort_reasons_are_distinct_and_documented():
    # each reason names one class, and the README's list of abort reasons names each reason
    assert len(_STEP_FAULTS) == len(_ABORTS) >= 4
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    listed = readme[readme.index("* `simulate` never throws past the first step."):]
    listed = listed[:listed.index("\n* ")]
    assert [code for code in [*_STEP_FAULTS, "blowup:<code>"] if f"`{code}`" not in listed] == []


class TestAbortProperties:
    @given(code=st.sampled_from([*_STEP_FAULTS, "blowup:gradient-pair", "blowup:depth-pair"]),
           steps=st.integers(1, 8))
    def test_every_abort_leaves_consistent_history(self, code, steps):
        # fault injection: the drawn abort fires once ``steps`` steps have been accepted
        real_step, real_check = dynamics.rk4_step, dynamics.check_blowup
        attempts = []

        def failing_step(*args):
            if len(attempts) > steps and code in _STEP_FAULTS:
                raise _STEP_FAULTS[code]("injected")
            return real_step(*args)

        def failing_check(*args):
            attempts.append(1)
            assert real_check(*args) is None
            return code.removeprefix("blowup:") if len(attempts) > steps and code not in _STEP_FAULTS else None

        p = Params(g=9.81, gamma=9.81, hbar=1.0)
        g = Grid.from_length(64, 20.0, -10.0, "periodic")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "rk4_step", failing_step)
            mp.setattr(dynamics, "check_blowup", failing_check)
            hist = simulate(gaussian_state(g), p, g, StepControl(t_end=5.0, dt_fixed=4e-3, output_dt=4e-3),
                            blowup=BlowupThresholds())
        assert hist.status == "aborted" and hist.abort_reason == code
        assert hist.n_steps == steps
        assert (hist.trigger is not None) == code.startswith("blowup:")
        _assert_abort_history_consistent(hist)

    @pytest.mark.parametrize("error", [ContractViolationError, ModeError, ValueError])
    def test_error_without_reason_propagates(self, monkeypatch, error):
        # only an error whose class defines a reason stops a run with a record; any other leaves simulate
        real = dynamics.rk4_step
        calls = []

        def failing_step(*args):
            calls.append(1)
            if len(calls) > 2:
                raise error("injected")
            return real(*args)

        monkeypatch.setattr(dynamics, "rk4_step", failing_step)
        g = Grid.from_length(64, 20.0, -10.0, "periodic")
        with pytest.raises(error, match="injected"):
            simulate(gaussian_state(g), Params(), g, StepControl(cfl=0.3, dt_max=0.1, t_end=5.0))


def _active_line_state():
    """Line-mode state on which the cut-off is active."""
    g = Grid.from_length(256, 40.0, -20.0, "line")
    x = g.cells()
    p = Params(epsilon=1.0)
    s = FlowState(1.0 + 0.1 * np.exp(-(x**2)), -2.0 * x * np.exp(-(x**2)))
    assert cutoff_reached(*pq_fields(s, p, g), p.epsilon)
    return s, p, g


class TestOneHome:
    """Each per-state quantity is computed in one place, once per state."""

    def test_derivative_calls_per_rhs(self, monkeypatch):
        calls = count_derivative_calls(monkeypatch)
        for mode in ("periodic", "line"):
            g = Grid.from_length(128, 20.0, -10.0, mode)
            calls.clear()
            rhs(gaussian_state(g), Params(), g)
            assert len(calls) == 6
        # line mode, cut-off active: A_x adds one more (B's flux joins the momentum source)
        s, p, g = _active_line_state()
        calls.clear()
        rhs(s, p, g)
        assert len(calls) == 7

    def test_field_checks_below_rhs(self, monkeypatch):
        # rhs hands the fields of its checked state to the unchecked kernels, and
        # each solve decides itself whether its source is finite: no field scan
        # runs below rhs, with or without an active cut-off
        calls = []

        def counting(real):
            def scan(*args):
                calls.append(1)
                return real(*args)
            return scan

        scans = {name: counting(getattr(grid, name)) for name in ("as_field", "_finite")}
        for mod in (grid, elliptic):
            for name, scan in scans.items():
                monkeypatch.setattr(mod, name, scan)
        cases = [(gaussian_state(g), Params(), g)
                 for g in (Grid.from_length(128, 20.0, -10.0, mode) for mode in ("periodic", "line"))]
        for s, p, g in cases + [_active_line_state()]:
            calls.clear()
            rhs(s, p, g)
            assert len(calls) == 0

    def test_active_rhs_skips_riccati_sources(self, monkeypatch):
        # V1 (and the primitive it needs) enters only the Riccati equations
        def refuse(*args):
            pytest.fail("the stepper computed a Riccati-only source")

        monkeypatch.setattr(regularization, "compute_V1", refuse)
        monkeypatch.setattr(regularization, "cumulative_integral", refuse)
        s, p, g = _active_line_state()
        ev = rhs(s, p, g)
        assert np.all(np.isfinite(ev.dh_dt)) and np.all(np.isfinite(ev.du_dt))

    def test_derivative_calls_per_record(self, monkeypatch):
        calls = count_derivative_calls(monkeypatch)
        for mode, eps in (("periodic", 0.0), ("line", 0.0), ("line", 1.0)):
            g = Grid.from_length(256, 40.0, -20.0, mode)
            x = g.cells()
            s = FlowState(1.0 + 0.1 * np.exp(-(x**2)), -2.0 * x * np.exp(-(x**2)))
            calls.clear()
            assert dynamics._record({k: [] for k in dynamics._SERIES_COLUMNS}, s, Params(epsilon=eps), g) is None
            assert len(calls) == 2

    @pytest.mark.parametrize("mode", ["periodic", "line"])
    def test_eps0_rhs_leaves_pq_unformed(self, mode):
        # the bundle answers the cut-off question at eps = 0 without forming P and Q
        g = Grid.from_length(128, 20.0, -10.0, mode)
        s, p = gaussian_state(g), Params()
        rhs(s, p, g)
        d = kinematics.gradients(s, p, g)
        assert "pq" not in vars(d) and d.cutoff is None

    def test_recorded_state_reuses_its_gradients(self, monkeypatch):
        # the recorder fills the state's memo; the next step's first rhs reads
        # it: 4 kernel calls instead of 6, plus A_x's 1 when active
        calls = count_derivative_calls(monkeypatch)
        cases = [(gaussian_state(g), Params(), g, 0)
                 for g in (Grid.from_length(128, 20.0, -10.0, mode) for mode in ("periodic", "line"))]
        for s, p, g, active in cases + [(*_active_line_state(), 1)]:
            dynamics._record({k: [] for k in dynamics._SERIES_COLUMNS}, s, p, g)
            calls.clear()
            recorded = rhs(s, p, g)
            assert len(calls) == 4 + active
            calls.clear()
            fresh = rhs(FlowState(s.h, s.u, s.t), p, g)
            assert len(calls) == 6 + active
            assert np.array_equal(recorded.dh_dt, fresh.dh_dt) and np.array_equal(recorded.du_dt, fresh.du_dt)

    @pytest.mark.parametrize("mode", ["periodic", "line"])
    def test_derivative_calls_per_fixed_step_run(self, monkeypatch, params, mode):
        # 2 for the initial record, then per step 4 rhs (the first on the
        # recorded state) plus the new state's record: 4 + 3 * 6 + 2 = 24
        calls = count_derivative_calls(monkeypatch)
        g = Grid.from_length(128, 20.0, -10.0, mode)
        hist = simulate(gaussian_state(g), params, g, StepControl(t_end=0.01, dt_fixed=1e-3))
        assert hist.status == "completed" and hist.n_steps == 10
        assert len(calls) == 2 + 24 * hist.n_steps

    def test_one_bundle_per_params_and_grid(self, monkeypatch):
        g = Grid.from_length(128, 20.0, -10.0, "line")
        p = Params(epsilon=0.1)
        s = gaussian_state(g)
        d = kinematics.gradients(s, p, g)
        calls = count_derivative_calls(monkeypatch)
        assert kinematics.gradients(s, p, g) is d and not calls
        other_p = Params(gamma=5.0, epsilon=0.1)
        other_g = Grid.from_length(128, 40.0, -20.0, "line")
        for q, h in ((other_p, g), (p, other_g)):
            calls.clear()
            e = kinematics.gradients(s, q, h)
            assert e is not d and len(calls) == 2
            assert kinematics.gradients(s, q, h) is e and len(calls) == 2
        assert np.array_equal(kinematics.gradients(s, other_p, g).ux, d.ux)
        assert not np.array_equal(kinematics.gradients(s, other_p, g).pq[0], d.pq[0])
        assert np.allclose(kinematics.gradients(s, p, other_g).ux, 0.5 * d.ux, rtol=1e-14, atol=0.0)
        assert kinematics.gradients(s, p, g) is d

    @pytest.mark.parametrize("mode", ["periodic", "line"])
    def test_series_agree_with_snapshots_bitwise(self, params, mode):
        g = Grid.from_length(512, 40.0, -20.0, mode)
        hist = simulate(gaussian_state(g), params, g, StepControl(cfl=0.3, dt_max=0.1, t_end=0.2))
        assert hist.status == "completed" and hist.n_steps > 0
        for k in (0, -1):
            s = hist.snapshots[k]
            assert s.t == hist.series["t"][k]
            assert hist.series["energy"][k] == total_energy(s, params, g)
            P, Q = pq_fields(s, params, g)
            assert hist.series["sup_P"][k] == float(P.max())
            assert hist.series["sup_Q"][k] == float(Q.max())
            assert hist.series["max_abs_ux"][k] == float(np.max(np.abs(kinematics.gradients(s, params, g).ux)))


def _active_periodic_state():
    """Periodic-mode state on which the cut-off is active."""
    g = Grid.from_length(256, 40.0, -20.0, "periodic")
    x = g.cells()
    p = Params(epsilon=1.0)
    s = FlowState(1.0 + 0.1 * np.exp(-(x**2)), -2.0 * x * np.exp(-(x**2)))
    assert cutoff_reached(*pq_fields(s, p, g), p.epsilon)
    return s, p, g


class TestFoldedMomentumSolve:
    """B's source joins the nonlocal source in the one refined L_h solve of an active rhs."""

    @staticmethod
    def count_solves(monkeypatch):
        real = elliptic._solve
        systems = []

        def counting(sys, rhs_, far_field):
            systems.append(sys)
            return real(sys, rhs_, far_field)

        monkeypatch.setattr(elliptic, "_solve", counting)
        return systems

    @pytest.mark.parametrize("state", [_active_line_state, _active_periodic_state])
    def test_active_rhs_makes_three_solves(self, monkeypatch, state):
        s, p, g = state()
        systems = self.count_solves(monkeypatch)
        rhs(s, p, g)
        helmholtz = elliptic._helmholtz_system(p, g)
        assert len(systems) == 3
        assert [sys is helmholtz for sys in systems].count(True) == 1
        L_h = [sys for sys in systems if sys is not helmholtz]
        assert L_h[0] is L_h[1] and np.array_equal(L_h[0].order0, s.h)

    @pytest.mark.parametrize("mode", ["periodic", "line"])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_inactive_rhs_makes_two_solves(self, monkeypatch, mode, eps):
        g = Grid.from_length(128, 20.0, -10.0, mode)
        systems = self.count_solves(monkeypatch)
        rhs(gaussian_state(g), Params(epsilon=eps), g)
        assert len(systems) == 2 and systems[0] is systems[1]

    @pytest.mark.parametrize("state", [_active_line_state, _active_periodic_state])
    def test_fold_is_linear_superposition(self, state):
        # -u u_x - 3 gamma h_x/h^2 - L^{-1} D(C + F) + L^{-1}{-u A_x/2 + D(h^2 u_x A_x/2 - h (chiP+chiQ)/48)}
        s, p, g = state()
        d = kinematics.gradients(s, p, g)
        chiP, chiQ = d.cutoff
        sys = elliptic.assemble_L(s.h, g, p.hbar)
        _, A_x = regularization.compute_A(s, chiP, chiQ, p, g)
        nonlocal_source = derivative(kinematics.curly_c(p, d) + kinematics.f_of_h(s, p), g)
        b_source = -0.5 * s.u * A_x + derivative(0.5 * s.h**2 * d.ux * A_x - s.h * (chiP + chiQ) / 48.0, g)
        expected = (-s.u * d.ux - 3.0 * p.gamma * d.hx / s.h**2
                    - elliptic.solve_L_refined(sys, d, nonlocal_source, g)
                    + elliptic.solve_L_refined(sys, d, b_source, g))
        ev = rhs(s, p, g)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(b_source)) > 1e-3 * np.max(np.abs(nonlocal_source))  # the fold is not vacuous
        assert np.max(np.abs(ev.du_dt - expected)) <= 1e-12 * scale
        assert np.array_equal(ev.dh_dt, -derivative(s.h * s.u, g) + A_x)


class _ReadOnlyState(FlowState):
    """A state whose arrays refuse every write."""

    def __post_init__(self):
        super().__post_init__()
        self.h.flags.writeable = False
        self.u.flags.writeable = False


class TestNoWritesIntoStates:
    """The kernels write in place only into arrays they allocate: with every
    stepper state read-only, nothing raises."""

    @pytest.mark.parametrize("case", ["periodic", "line", "line-cutoff"])
    def test_read_only_states(self, monkeypatch, case):
        if case == "line-cutoff":
            s, p, g = _active_line_state()
        else:
            g = Grid.from_length(128, 20.0, -10.0, case)
            s, p = gaussian_state(g), Params(epsilon=0.1)
        monkeypatch.setattr(dynamics, "FlowState", _ReadOnlyState)
        s = _ReadOnlyState(s.h.copy(), s.u.copy())
        assert (kinematics.gradients(s, p, g).cutoff is not None) == (case == "line-cutoff")
        rhs(s, p, g)
        rk4_step(s, 1e-3, p, g)
        hist = simulate(s, p, g, StepControl(t_end=5e-3, dt_fixed=1e-3, output_dt=2e-3))
        assert hist.status == "completed" and hist.n_steps == 5
        assert all(not snap.h.flags.writeable and not snap.u.flags.writeable for snap in hist.snapshots)


_MODES = st.sampled_from(["periodic", "line"])
_PARAMS = st.builds(Params, g=st.floats(1.0, 20.0), gamma=st.floats(0.5, 20.0),
                    hbar=st.floats(0.5, 2.0))


def _smooth_state(g: Grid, p: Params, amp_h: float, amp_u: float, shift: float, width: float) -> FlowState:
    """Smooth state near rest: one periodic mode, or a bump with a quiet far field."""
    x = g.cells()
    if g.periodic:
        phase = 2.0 * np.pi * (x - shift) / g.length
        return FlowState(p.hbar * (1.0 + amp_h * np.cos(phase)), amp_u * np.sin(2.0 * phase))
    bump = np.exp(-(((x - shift) / width) ** 2))
    return FlowState(p.hbar * (1.0 + amp_h * bump), amp_u * bump)


class TestStepProperties:
    """One RK4 step on random smooth admissible states (E0 < e_max)."""

    @given(p=_PARAMS, amp_h=st.floats(-0.1, 0.1), amp_u=st.floats(-0.2, 0.2), shift=st.floats(-3.0, 3.0))
    def test_one_step_conserves_mass_periodic(self, p, amp_h, amp_u, shift):
        # periodic only: on the line the nonlocal term has exponential tails,
        # so mass leaves through the far field at a small physical rate
        g = Grid.from_length(128, 40.0, -20.0, "periodic")
        s = _smooth_state(g, p, amp_h, amp_u, shift, 1.0)
        assume(total_energy(s, p, g) < p.e_max)
        out = rk4_step(s, cfl_dt(s, p, g, StepControl(cfl=0.3)), p, g)
        m0, m1 = integrate(s.h, g), integrate(out.h, g)
        assert abs(m1 - m0) <= 1e-13 * abs(m0)

    @given(p=_PARAMS, eps=st.floats(0.01, 1.0), amp_h=st.floats(-0.1, 0.1), amp_u=st.floats(-0.2, 0.2),
           shift=st.floats(-3.0, 3.0), width=st.floats(0.8, 2.0))
    def test_inactive_cutoff_matches_eps0_bitwise_line(self, p, eps, amp_h, amp_u, shift, width):
        g = Grid.from_length(128, 40.0, -20.0, "line")
        s = _smooth_state(g, p, amp_h, amp_u, shift, width)
        assume(total_energy(s, p, g) < p.e_max)
        assume(min(P.min() for P in pq_fields(s, p, g)) > -0.5 / eps)  # inactive with margin
        dt = cfl_dt(s, p, g, StepControl(cfl=0.3))
        out0 = rk4_step(s, dt, p, g)
        out1 = rk4_step(s, dt, Params(g=p.g, gamma=p.gamma, hbar=p.hbar, epsilon=eps), g)
        assert np.array_equal(out0.h, out1.h) and np.array_equal(out0.u, out1.u)

    @given(mode=_MODES, p=_PARAMS, eps=st.floats(0.0, 1.0), dt=st.floats(1e-4, 0.1))
    # a depth whose Python square hbar**2 is an ulp off numpy's h**2: F(hbar) must still be exactly 0
    @example(mode="line", p=Params(g=1.0, gamma=1.0, hbar=1.5443358483803993), eps=0.0, dt=0.0625)
    def test_flat_state_bitwise_fixed(self, mode, p, eps, dt):
        g = Grid.from_length(128, 40.0, -20.0, mode)
        if mode == "line":
            p = Params(g=p.g, gamma=p.gamma, hbar=p.hbar, epsilon=eps)
        s = FlowState(np.full(g.n, p.hbar), np.zeros(g.n))
        out = rk4_step(s, dt, p, g)
        assert np.array_equal(out.h, s.h) and np.array_equal(out.u, s.u)
        assert out.t == dt


def _final_states_by_mode(eps, amp, width, centre, velocity):
    """Final states of one localized run on a periodic and on a line grid of the
    same cells, and the number of records on which the cut-off was active."""
    p = Params(epsilon=eps)
    out, active = {}, {}
    for mode in ("periodic", "line"):
        g = Grid.from_length(256, 60.0, -30.0, mode)
        bump = np.exp(-(((g.cells() - centre) / width) ** 2))
        hist = simulate(FlowState(1.0 + amp * bump, velocity * bump), p, g, StepControl(t_end=0.2, dt_fixed=2e-3))
        assert hist.status == "completed" and hist.n_steps == 100
        out[mode] = hist.snapshots[-1]
        active[mode] = int(np.sum(hist.series["diss_rate"] < 0.0))
    assert active["periodic"] == active["line"]
    return out["periodic"], out["line"], active["line"]


def _assert_modes_agree(per: FlowState, line: FlowState):
    for a, b in ((per.h, line.h), (per.u, line.u)):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


class TestGridModeAgreement:
    """Data that stay far from the ends evolve alike on both grid modes: the line
    mode's far-field pads and ghost rows against the periodic mode's wrapped
    neighbours and Sherman-Morrison correction."""

    @settings(max_examples=10)
    @given(eps=st.sampled_from([0.0, 0.5, 1.0, 2.0]), amp=st.floats(-0.1, 0.1), width=st.floats(0.8, 2.0),
           centre=st.floats(-3.0, 3.0), velocity=st.floats(-2.0, 2.0))
    def test_localized_run_agrees(self, eps, amp, width, centre, velocity):
        per, line, _ = _final_states_by_mode(eps, amp, width, centre, velocity)
        _assert_modes_agree(per, line)

    def test_active_cutoff_run_agrees(self):
        per, line, active = _final_states_by_mode(2.0, 0.1, 1.0, 0.5, -2.0)
        assert active == 101  # every record, the initial one included
        _assert_modes_agree(per, line)
