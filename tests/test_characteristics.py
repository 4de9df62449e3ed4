import dataclasses

import numpy as np
import pytest

from sgnlab import FlowState, Grid, Params, characteristics, elliptic, regularization
from sgnlab.characteristics import (
    _riccati_rhs_fields,
    _wrap,
    interp_cubic,
    pq_square_integral,
    riccati_residual,
    trace,
)
from sgnlab.dynamics import StepControl, simulate
from sgnlab.elliptic import assemble_L, script_r
from sgnlab.errors import ContractViolationError, ModeError
from sgnlab.kinematics import char_speeds, gradients, pq_fields
from sgnlab.regularization import (
    chi,
    compute_A,
    compute_MN,
    compute_V1,
    compute_V2,
    cutoff_active,
)

from conftest import count_derivative_calls


def flat_history(gamma=3.0, t_end=1.0, n=256, mode="periodic"):
    p = Params(g=9.81, gamma=gamma, hbar=1.0)
    g = Grid.from_length(n, 40.0, -20.0, mode)
    s0 = FlowState(np.ones(g.n), np.zeros(g.n), 0.0)
    return simulate(s0, p, g, StepControl(cfl=0.4, dt_max=0.02, t_end=t_end, output_dt=0.1)), p, g


def gaussian_history(n=384, t_end=1.0, output_dt=0.05, dt_fixed=None, gamma=9.81):
    p = Params(g=9.81, gamma=gamma, hbar=1.0)
    g = Grid.from_length(n, 40.0, -20.0, "periodic")
    x = g.cells()
    s0 = FlowState(1.0 + 0.05 * np.exp(-(x**2)), np.zeros(g.n), 0.0)
    c = StepControl(cfl=0.3, dt_max=1.0, t_end=t_end, output_dt=output_dt, dt_fixed=dt_fixed)
    return simulate(s0, p, g, c), p, g


def active_line_history():
    """Line-mode eps = 1 run on which the cut-off fires."""
    p = Params(epsilon=1.0)
    g = Grid.from_length(256, 40.0, -20.0, "line")
    x = g.cells()
    s0 = FlowState(1.0 + 0.1 * np.exp(-(x**2)), -2.0 * x * np.exp(-(x**2)))
    return simulate(s0, p, g, StepControl(cfl=0.3, dt_max=0.01, t_end=0.05, output_dt=0.005)), p, g


def unshared_rhs_field(s, p, g, branch):
    """One branch's Riccati right-hand side at one state, built from scratch."""
    s = FlowState(s.h, s.u, s.t)  # same arrays, empty memo
    d = gradients(s, p, g)
    P, Q = d.pq
    own, other = (P, Q) if branch == "minus" else (Q, P)
    out = (-own**2 + other**2) / (8.0 * s.h)
    v1 = v2 = 0.0
    if cutoff_active(P, Q, p.epsilon):
        sys = assemble_L(s.h, g, p.hbar)
        chiP, chiQ = chi(P, p.epsilon), chi(Q, p.epsilon)
        A, A_x = compute_A(s, chiP, chiQ, p, g)
        out = out + (chiP if branch == "minus" else chiQ) / (8.0 * s.h) - A_x * own / (2.0 * s.h)
        v1 = compute_V1(s, d.ux, A, A_x, chiP, chiQ, p, g, sys)
        v2 = compute_V2(s, A, p)
    M, N = compute_MN(s, v1, v2, script_r(s, p, g))
    return out + (M if branch == "minus" else N)


def unshared_residual(hist, x0, branch, p):
    """Path points and Riccati residual, every field built per snapshot and per
    branch and every sample interpolated by its own scalar call."""
    g, snaps = hist.grid, hist.snapshots

    def at(field, x):
        return float(interp_cubic(field, g, _wrap(x, g))[0])

    speeds = [char_speeds(s, hist.params)[1 if branch == "plus" else 0] for s in snaps]
    times = np.array([s.t for s in snaps])
    x, xs = float(x0), [float(x0)]
    for k in range(len(snaps) - 1):
        dt = times[k + 1] - times[k]
        xh = x + 0.5 * dt * at(speeds[k], x)
        x = x + dt * (0.5 * (at(speeds[k], xh) + at(speeds[k + 1], xh)))
        if not g.periodic and not (g.x_left + 2 * g.dx < x < g.x_right - 2 * g.dx):
            break
        xs.append(x)
    xarr = np.asarray(xs)
    m = len(xs)
    own = [pq_fields(s, hist.params, g)[0 if branch == "minus" else 1] for s in snaps[:m]]
    values = np.array([at(f, xi) for f, xi in zip(own, xarr)])
    rhs = np.array([at(unshared_rhs_field(s, p, g, branch), xi) for s, xi in zip(snaps, xarr)])
    return xarr, np.gradient(values, times[:m]) - rhs


class TestInterpCubic:
    @pytest.mark.parametrize("mode", ["periodic", "line"])
    def test_stacked_rows_match_single_field_calls(self, mode, rng):
        g = Grid.from_length(64, 8.0, -4.0, mode)
        fields = rng.standard_normal((5, g.n))
        xq = rng.uniform(g.x_left, g.x_right, 5)
        expected = [interp_cubic(f, g, x)[0] for f, x in zip(fields, xq)]
        assert np.array_equal(interp_cubic(fields, g, xq), expected)
        with pytest.raises(ContractViolationError):
            interp_cubic(fields, g, xq[:4])

    def test_reproduces_cubic_polynomials(self):
        g = Grid.from_length(64, 8.0, -4.0, "line")
        x = g.cells()
        f = x**3 - 2 * x**2 + 0.5
        xq = np.linspace(-3.0, 3.0, 37)
        out = interp_cubic(f, g, xq)
        assert np.max(np.abs(out - (xq**3 - 2 * xq**2 + 0.5))) < 1e-11

    def test_periodic_wrap(self):
        g = Grid.from_length(128, 2 * np.pi, 0.0, "periodic")
        f = np.sin(g.cells())
        out = interp_cubic(f, g, np.array([2 * np.pi - 0.01, 0.01]))
        assert np.allclose(out, np.sin([-0.01, 0.01]), atol=1e-6)


class TestTrace:
    def test_flat_plus_branch_constant_speed(self):
        hist, p, g = flat_history()
        path = trace(hist, 0.0, "plus")
        assert np.max(np.abs(path.x - 3.0 * path.t)) < 1e-12

    def test_flat_minus_branch(self):
        hist, p, g = flat_history()
        path = trace(hist, 0.0, "minus")
        assert np.max(np.abs(path.x + 3.0 * path.t)) < 1e-12

    def test_branches_separate_monotonically(self):
        hist, p, g = gaussian_history()
        plus = trace(hist, 0.5, "plus")
        minus = trace(hist, 0.5, "minus")
        m = min(plus.t.shape[0], minus.t.shape[0])
        gap = plus.x[:m] - minus.x[:m]
        assert np.all(np.diff(gap) > 0)
        assert np.all(gap[1:] > 0)

    def test_path_speed_consistency(self):
        hist, p, g = gaussian_history()
        path = trace(hist, 1.0, "plus")
        slope = np.gradient(path.x, path.t)
        # interpolation tolerance: speed varies smoothly; generous factor two
        assert np.max(np.abs(slope[1:-1] - path.speed[1:-1])) < 0.05

    def test_samples_strictly_increasing_in_time(self):
        hist, p, g = gaussian_history()
        path = trace(hist, -2.0, "minus")
        assert np.all(np.diff(path.t) > 0)

    def test_line_mode_exit_truncates(self):
        p = Params(g=9.81, gamma=9.81, hbar=1.0)
        g = Grid.from_length(512, 20.0, -10.0, "line")
        s0 = FlowState(np.ones(g.n), np.zeros(g.n), 0.0)
        hist = simulate(s0, p, g, StepControl(cfl=0.4, dt_max=0.02, t_end=4.0, output_dt=0.2))
        path = trace(hist, 8.0, "plus")  # exits right boundary quickly
        assert path.exited
        assert path.t.shape[0] < len(hist.snapshots)

    def test_rejects_bad_branch_and_launch(self):
        hist, p, g = flat_history(mode="line")
        with pytest.raises(ContractViolationError):
            trace(hist, 0.0, "sideways")
        with pytest.raises(ContractViolationError):
            trace(hist, g.x_right + 1.0, "plus")

    def test_single_snapshot_refused(self):
        hist, p, g = flat_history(t_end=0.0)
        assert len(hist.snapshots) == 1
        with pytest.raises(ContractViolationError, match="two snapshots"):
            trace(hist, 0.0, "plus")


class TestRiccatiResidual:
    def test_flat_run_zero(self):
        hist, p, g = flat_history()
        for branch in ("plus", "minus"):
            res = riccati_residual(hist, trace(hist, 0.0, branch), p)
            assert np.max(np.abs(res.values)) == 0.0

    def test_refinement_order(self):
        worsts = []
        for n, dtf, odt in [(256, 4e-3, 0.05), (512, 2e-3, 0.025)]:
            hist, p, g = gaussian_history(n=n, dt_fixed=dtf, output_dt=odt)
            worst = 0.0
            for x0 in np.linspace(-4, 4, 8):
                for branch in ("plus", "minus"):
                    res = riccati_residual(hist, trace(hist, x0, branch), p)
                    worst = max(worst, np.max(np.abs(res.values[1:-1])))
            worsts.append(worst)
        assert np.log2(worsts[0] / worsts[1]) >= 1.0

    def test_epsilon_inactive_matches_eps0(self):
        hist, p, g = gaussian_history(n=256, t_end=0.5)
        path = trace(hist, 0.5, "minus")
        r0 = riccati_residual(hist, path, Params(g=9.81, gamma=9.81, hbar=1.0, epsilon=0.0))
        r1 = riccati_residual(hist, path, Params(g=9.81, gamma=9.81, hbar=1.0, epsilon=0.1))
        assert np.array_equal(r0.values, r1.values)

    def test_active_cutoff_branch_pairing(self):
        # minus rides P with M = -3R/h^2 + V1 - V2, plus rides Q with N = M + 2 V2:
        # their difference keeps only the branch-odd terms
        g = Grid.from_length(256, 40.0, -20.0, "line")
        x = g.cells()
        p = Params(epsilon=1.0)
        s = FlowState(1.0 + 0.1 * np.exp(-(x**2)), -2.0 * x * np.exp(-(x**2)))
        d = gradients(s, p, g)
        P, Q = d.pq
        assert cutoff_active(P, Q, p.epsilon)
        minus, plus = _riccati_rhs_fields(s, p, g)
        chiP, chiQ = chi(P, p.epsilon), chi(Q, p.epsilon)
        A, A_x = compute_A(s, chiP, chiQ, p, g)
        expected = (2.0 * (Q**2 - P**2) / (8.0 * s.h) + (chiP - chiQ) / (8.0 * s.h)
                    - A_x * (P - Q) / (2.0 * s.h) - 2.0 * compute_V2(s, A, p))
        scale = np.max(np.abs(minus)) + np.max(np.abs(plus))
        assert np.max(np.abs((minus - plus) - expected)) <= 1e-13 * scale
        assert np.max(np.abs(chiP - chiQ)) > 0.0

    def test_periodic_active_cutoff_refused(self):
        # V1 needs the primitive from -infinity: the one line-mode restriction
        p = Params(epsilon=1.0)
        g = Grid.from_length(256, 40.0, -20.0, "periodic")
        x = g.cells()
        s0 = FlowState(1.0 + 0.1 * np.exp(-(x**2)), -2.0 * x * np.exp(-(x**2)))
        hist = simulate(s0, p, g, StepControl(cfl=0.3, dt_max=0.01, t_end=0.05, output_dt=0.005))
        assert hist.status == "completed" and hist.series["diss_rate"][0] < 0.0
        path = trace(hist, 0.0, "minus")
        with pytest.raises(ModeError):
            riccati_residual(hist, path, p)

    def test_single_sample_path_refused(self):
        p = Params(g=9.81, gamma=9.81, hbar=1.0)
        g = Grid.from_length(512, 20.0, -10.0, "line")
        s0 = FlowState(np.ones(g.n), np.zeros(g.n), 0.0)
        hist = simulate(s0, p, g, StepControl(cfl=0.4, dt_max=0.02, t_end=1.0, output_dt=0.2))
        path = trace(hist, 9.5, "plus")  # leaves the interior in the first interval
        assert path.exited and path.t.shape == (1,)
        with pytest.raises(ContractViolationError, match="two samples"):
            riccati_residual(hist, path, p)

    def test_undersampled_warns(self):
        hist, p, g = gaussian_history(n=256, t_end=0.2, output_dt=0.1)
        path = trace(hist, 0.0, "minus")
        with pytest.warns(UserWarning, match="undersampled"):
            res = riccati_residual(hist, path, p)
        assert res.undersampled


def fresh_history(hist):
    """``hist`` over new snapshot states: the same arrays, empty memos."""
    return dataclasses.replace(hist, snapshots=[FlowState(s.h, s.u, s.t) for s in hist.snapshots])


class TestSharedFields:
    """Path-independent fields are built once per (snapshot, params) and
    shared by every path; the results equal the unshared formulas bitwise."""

    def test_post_processing_kernel_calls_per_snapshot(self, monkeypatch):
        # per snapshot: u_x and h_x once (P, Q for tracing, read again by
        # script_r), then script_r's two derivatives; nothing on a second pass
        hist, p, g = gaussian_history(n=256)
        calls = count_derivative_calls(monkeypatch)
        for _ in range(2):
            for x0 in np.linspace(-4.0, 4.0, 8):
                for b in ("plus", "minus"):
                    riccati_residual(hist, trace(hist, x0, b), p)
            assert len(calls) == 4 * len(hist.snapshots)

    def test_second_params_gets_own_fields(self, monkeypatch):
        hist, p, g = gaussian_history(n=256, t_end=0.5)
        path = trace(hist, 0.5, "minus")
        first = riccati_residual(hist, path, p).values
        calls = count_derivative_calls(monkeypatch)
        changed = dataclasses.replace(p, gamma=5.0)
        second = riccati_residual(hist, path, changed).values
        assert len(calls) == 4 * len(hist.snapshots)
        assert np.array_equal(riccati_residual(hist, path, p).values, first)
        assert len(calls) == 4 * len(hist.snapshots)
        assert not np.array_equal(first, second)
        for s in hist.snapshots:
            assert gradients(s, p, g) is not gradients(s, changed, g)

    def test_one_script_r_per_snapshot_bitwise(self, monkeypatch):
        hist, p, g = gaussian_history(n=256)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return script_r(*args, **kwargs)

        monkeypatch.setattr(characteristics, "script_r", counting)
        paths = [trace(hist, x0, b) for x0 in np.linspace(-4.0, 4.0, 8) for b in ("plus", "minus")]
        residuals = [riccati_residual(hist, path, p).values for path in paths]
        assert len(calls) == len(hist.snapshots)
        monkeypatch.undo()
        for path, values in zip(paths, residuals):
            x_ref, res_ref = unshared_residual(hist, path.x0, path.branch, p)
            assert np.array_equal(path.x, x_ref)
            assert np.array_equal(values, res_ref)

    def test_active_cutoff_one_assembly_per_snapshot_bitwise(self, monkeypatch):
        hist, p, g = active_line_history()
        assert any(cutoff_active(*pq_fields(s, p, g), p.epsilon) for s in hist.snapshots)
        assemblies = []

        def counting(*args, **kwargs):
            assemblies.append(1)
            return assemble_L(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("the Riccati field needs no B")

        monkeypatch.setattr(characteristics, "assemble_L", counting)
        monkeypatch.setattr(elliptic, "assemble_L", counting)
        monkeypatch.setattr(regularization, "compute_B", refuse)
        monkeypatch.setattr(regularization, "compute_reg_fields", refuse)
        paths = [trace(hist, x0, b) for x0 in (-1.0, 0.0, 1.0) for b in ("plus", "minus")]
        residuals = [riccati_residual(hist, path, p).values for path in paths]
        assert len(assemblies) == len(hist.snapshots)
        monkeypatch.undo()
        for path, values in zip(paths, residuals):
            x_ref, res_ref = unshared_residual(hist, path.x0, path.branch, p)
            assert np.array_equal(path.x, x_ref)
            assert np.array_equal(values, res_ref)

    def test_each_params_matches_fresh_history(self):
        hist, p, g = active_line_history()
        path = trace(hist, 0.0, "minus")
        changed = dataclasses.replace(p, gamma=5.0)
        first = riccati_residual(hist, path, p).values
        second = riccati_residual(hist, path, changed).values
        assert not np.array_equal(first, second)
        for params, values in ((p, first), (changed, second)):
            fresh = fresh_history(hist)
            assert np.array_equal(riccati_residual(fresh, path, params).values, values)
        assert np.array_equal(riccati_residual(hist, path, p).values, first)

    def test_replaced_or_appended_snapshots_rebuild(self):
        hist, p, g = gaussian_history(n=256)
        before = riccati_residual(hist, trace(hist, 0.5, "minus"), p).values
        s = hist.snapshots[5]
        hist.snapshots[5] = FlowState(s.h, 1.5 * s.u, s.t)
        last = hist.snapshots[-1]
        for change in ("replaced", "appended"):
            if change == "appended":
                hist.snapshots.append(FlowState(last.h, last.u, last.t + 0.05))
            path = trace(hist, 0.5, "minus")
            values = riccati_residual(hist, path, p).values
            fresh = fresh_history(hist)
            fresh_path = trace(fresh, 0.5, "minus")
            assert path.t.shape == (len(hist.snapshots),)
            assert np.array_equal(path.x, fresh_path.x) and np.array_equal(path.P, fresh_path.P)
            assert np.array_equal(values, riccati_residual(fresh, fresh_path, p).values)
            assert not np.array_equal(values[:before.shape[0]], before)


class TestPqSquareIntegral:
    def test_flat_run_zero_and_met(self):
        hist, p, g = flat_history(t_end=2.0)
        plus = trace(hist, -3.0, "plus")
        minus = trace(hist, 3.0, "minus")
        out = pq_square_integral(hist, plus, minus)
        assert out.value == 0.0
        assert out.met  # crossing at x = 0, t = 1

    def test_nonnegative(self):
        hist, p, g = gaussian_history(t_end=1.5)
        plus = trace(hist, -3.0, "plus")
        minus = trace(hist, 3.0, "minus")
        out = pq_square_integral(hist, plus, minus)
        assert out.value >= 0.0

    def test_branch_order_enforced(self):
        hist, p, g = flat_history()
        plus = trace(hist, -3.0, "plus")
        minus = trace(hist, 3.0, "minus")
        with pytest.raises(ContractViolationError):
            pq_square_integral(hist, minus, plus)

    def test_never_meeting_flagged(self):
        hist, p, g = flat_history(t_end=0.5)
        plus = trace(hist, 3.0, "plus")    # to the right of the minus path,
        minus = trace(hist, -3.0, "minus")  # moving apart: they never meet
        out = pq_square_integral(hist, plus, minus)
        assert not out.met

    def test_affine_bound_across_epsilon_sweep(self):
        # the square integrals admit one affine-in-elapsed-time bound A t + B
        # across a sweep; realized here as a fit with zero violations
        p0 = Params(g=9.81, gamma=9.81, hbar=1.0)
        g = Grid.from_length(512, 40.0, -20.0, "line")
        x = g.cells()
        s0 = FlowState(1.0 + 0.1 * np.exp(-(x**2)),
                       0.2 * np.exp(-(x**2)), 0.0)
        values, spans = [], []
        for eps in (0.2, 0.1, 0.05):
            p = Params(g=9.81, gamma=9.81, hbar=1.0, epsilon=eps)
            hist = simulate(s0, p, g, StepControl(cfl=0.3, dt_max=0.05, t_end=1.0, output_dt=0.05))
            plus = trace(hist, -2.5, "plus")
            minus = trace(hist, 2.5, "minus")
            out = pq_square_integral(hist, plus, minus)
            values.append(out.value)
            spans.append(out.t_end)
        # fit A, B >= 0 covering all points: A from the pair maximizing slope
        A = max(v / s for v, s in zip(values, spans))
        B = max(0.0, max(v - A * s for v, s in zip(values, spans)))
        violations = sum(v > A * s + B + 1e-12 for v, s in zip(values, spans))
        assert violations == 0
