import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sgnlab import FlowState, Grid, Params, characteristics, elliptic, regularization
from sgnlab.characteristics import (
    _riccati_rhs_fields,
    _wrap,
    interp_cubic,
    riccati_residual,
    trace,
)
from sgnlab.dynamics import StepControl, simulate
from sgnlab.elliptic import assemble_L, script_r
from sgnlab.errors import ContractViolationError, ModeError, NonFiniteError
from sgnlab.kinematics import char_speeds, chi, gradients, pq_fields
from sgnlab.regularization import compute_A, compute_MN, compute_V1, compute_V2

from conftest import assert_bitwise, count_derivative_calls, cutoff_reached, kernel_fields


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
    if cutoff_reached(P, Q, p.epsilon):
        sys = assemble_L(s.h, g, p.hbar)
        chiP, chiQ = chi(P, p.epsilon), chi(Q, p.epsilon)
        A, A_x = compute_A(s, chiP, chiQ, p, g)
        out = out + (chiP if branch == "minus" else chiQ) / (8.0 * s.h) - A_x * own / (2.0 * s.h)
        v1 = compute_V1(s, d.ux, A_x, chiP, chiQ, g, sys)
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


def _interp_cubic_reference(values, g, xq):
    """Cubic interpolation as it was written before each point got its own
    scalar stencil: index and weight stacks, summed over the stencil axis."""
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
        idx = (np.arange(values.shape[0]), idx)
    w = np.stack([
        -th * (th - 1.0) * (th - 2.0) / 6.0,
        (th + 1.0) * (th - 1.0) * (th - 2.0) / 2.0,
        -th * (th + 1.0) * (th - 2.0) / 2.0,
        th * (th + 1.0) * (th - 1.0) / 6.0,
    ])
    return np.sum(values[idx] * w, axis=0)


@given(mode=st.sampled_from(["periodic", "line"]), n=st.integers(8, 64), dx=st.floats(1e-2, 1e2),
       x_left=st.floats(-1e3, 1e3), data=st.data())
def test_interp_cubic_pinned_bitwise_hypothesis(mode, n, dx, x_left, data):
    # the periodic seam, exact cell centres, and points up to three lengths
    # past either end (several wraps; far outside a line grid's clamped stencil)
    g = Grid(n=n, dx=dx, x_left=x_left, mode=mode)
    lo, hi = g.x_left, g.x_right
    seam = [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf),
            np.nextafter(hi, -np.inf), np.nextafter(hi, np.inf)]
    points = st.floats(lo - 3 * g.length, hi + 3 * g.length) | st.sampled_from(seam + g.cells().tolist())
    xq = np.array(data.draw(st.lists(points, min_size=1, max_size=12)))
    f = data.draw(kernel_fields(n))
    assert_bitwise(interp_cubic(f, g, xq), _interp_cubic_reference(f, g, xq))
    stack = np.stack([data.draw(kernel_fields(n)) for _ in xq])
    assert_bitwise(interp_cubic(stack, g, xq), _interp_cubic_reference(stack, g, xq))


class TestInterpCubic:
    @pytest.mark.parametrize("mode", ["periodic", "line"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_points_refused(self, mode, bad):
        g = Grid.from_length(64, 8.0, -4.0, mode)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="not finite"):
                interp_cubic(np.ones(g.n), g, [0.0, bad])
            with pytest.raises(NonFiniteError, match="not finite"):
                interp_cubic(np.ones((2, g.n)), g, [bad, 0.0])

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

    @pytest.mark.parametrize("x0", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("mode", ["periodic", "line"])
    def test_nonfinite_launch_refused(self, mode, x0):
        hist, p, g = flat_history(t_end=0.2, mode=mode)
        with pytest.raises(ContractViolationError, match="finite point"):
            trace(hist, x0, "plus")

    def test_two_interp_calls_per_trace(self, monkeypatch):
        # one row-wise call per path quantity (speed, invariant), whatever the
        # number of snapshots: the RK2 loop makes no array call
        real = characteristics.interp_cubic
        calls = []

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(characteristics, "interp_cubic", counting)
        for t_end in (0.2, 2.0):
            hist, p, g = flat_history(t_end=t_end)
            calls.clear()
            path = trace(hist, 0.0, "plus")
            assert path.t.shape == (len(hist.snapshots),) and len(calls) == 2

    @pytest.mark.parametrize("branch, row", [("minus", 0), ("plus", 1)])
    def test_invariant_is_the_branch_row_at_each_point(self, branch, row):
        # P on minus, Q on plus: each sample is the snapshot's invariant at
        # the path point, as one scalar call would interpolate it
        hist, p, g = gaussian_history(t_end=0.5)
        path = trace(hist, 0.3, branch)
        expected = [interp_cubic(pq_fields(s, p, g)[row], g, _wrap(x, g))[0]
                    for s, x in zip(hist.snapshots, path.x)]
        assert path.invariant.shape == path.t.shape and np.any(path.invariant != 0.0)
        assert np.array_equal(path.invariant, expected)

    def test_single_snapshot_refused(self):
        hist, p, g = flat_history(t_end=0.0)
        assert len(hist.snapshots) == 1
        with pytest.raises(ContractViolationError, match="two snapshots"):
            trace(hist, 0.0, "plus")


@pytest.fixture(scope="module")
def two_samplings():
    """One periodic run stored at output_dt 0.05 and again at 0.025."""
    coarse, p, g = gaussian_history(n=128, output_dt=0.05)
    fine, _, _ = gaussian_history(n=128, output_dt=0.025)
    return coarse, fine, p


class TestRiccatiResidual:
    def test_path_from_other_snapshot_times_refused(self, two_samplings):
        coarse, fine, p = two_samplings
        for traced_on, evaluated_on in ((coarse, fine), (fine, coarse)):
            path = trace(traced_on, 0.5, "plus")
            with pytest.raises(ContractViolationError, match="snapshot times"):
                riccati_residual(evaluated_on, path, p)
            assert np.all(np.isfinite(riccati_residual(traced_on, path, p).values))

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
        # the same snapshots labelled with an inactive eps = 0.1
        hist, p, g = gaussian_history(n=256, t_end=0.5)
        path = trace(hist, 0.5, "minus")
        inactive = dataclasses.replace(p, epsilon=0.1)
        r0 = riccati_residual(hist, path, p)
        r1 = riccati_residual(dataclasses.replace(hist, params=inactive), path, inactive)
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
        assert cutoff_reached(P, Q, p.epsilon)
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
        # the residual is the run's: other parameters are refused, equal ones share the memo;
        # a snapshot still keeps one gradient bundle per parameters
        hist, p, g = gaussian_history(n=256, t_end=0.5)
        path = trace(hist, 0.5, "minus")
        first = riccati_residual(hist, path, p).values
        calls = count_derivative_calls(monkeypatch)
        changed = dataclasses.replace(p, gamma=5.0)
        with pytest.raises(ContractViolationError, match="not the run's parameters"):
            riccati_residual(hist, path, changed)
        assert np.array_equal(riccati_residual(hist, path, dataclasses.replace(p)).values, first)
        assert calls == []
        for s in hist.snapshots:
            assert gradients(s, p, g) is not gradients(s, changed, g)
        assert len(calls) == 2 * len(hist.snapshots)

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
        assert any(cutoff_reached(*pq_fields(s, p, g), p.epsilon) for s in hist.snapshots)
        assemblies = []
        real = elliptic._assemble_L

        def counting(*args, **kwargs):
            assemblies.append(1)
            return real(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("the Riccati field needs no B")

        monkeypatch.setattr(characteristics, "_assemble_L", counting)
        monkeypatch.setattr(elliptic, "_assemble_L", counting)
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

    def test_no_checked_assembly_below_riccati_residual(self, monkeypatch):
        # a snapshot's depth was checked when its FlowState was built: post-processing
        # assembles L_h unchecked, at eps = 0 in both grid modes and with an active cut-off
        line = Grid.from_length(128, 40.0, -20.0, "line")
        x = line.cells()
        s0 = FlowState(1.0 + 0.05 * np.exp(-(x**2)), np.zeros(line.n))
        line_run = simulate(s0, Params(), line, StepControl(cfl=0.3, t_end=0.1, output_dt=0.01))
        runs = [gaussian_history(n=128, t_end=0.1, output_dt=0.01)[:2], (line_run, Params()),
                active_line_history()[:2]]
        checked = []

        def counting(*args, **kwargs):
            checked.append(1)
            return assemble_L(*args, **kwargs)

        for mod in (elliptic, characteristics, regularization):
            if getattr(mod, "assemble_L", None) is assemble_L:
                monkeypatch.setattr(mod, "assemble_L", counting)
        for hist, p in runs:
            for b in ("plus", "minus"):
                assert np.all(np.isfinite(riccati_residual(hist, trace(hist, 0.5, b), p).values))
        assert checked == []

    def test_each_params_matches_fresh_history(self):
        hist, p, g = active_line_history()
        path = trace(hist, 0.0, "minus")
        changed = dataclasses.replace(p, gamma=5.0)
        relabelled = dataclasses.replace(hist, params=changed)  # the same snapshots and their memos
        first = riccati_residual(hist, path, p).values
        second = riccati_residual(relabelled, path, changed).values
        assert not np.array_equal(first, second)
        for params, values in ((p, first), (changed, second)):
            fresh = dataclasses.replace(fresh_history(hist), params=params)
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
            assert np.array_equal(path.x, fresh_path.x) and np.array_equal(path.invariant, fresh_path.invariant)
            assert np.array_equal(values, riccati_residual(fresh, fresh_path, p).values)
            assert not np.array_equal(values[:before.shape[0]], before)

