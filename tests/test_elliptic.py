import numpy as np
import pytest
from hypothesis import given, strategies as st

import sgnlab.elliptic as elliptic
from sgnlab import FlowState, Grid, Params
from sgnlab.elliptic import (
    TridiagonalSystem,
    apply_L,
    apply_L_compatible,
    assemble_L,
    psi_identity_residual,
    script_r,
    solve_L,
    solve_L_refined,
    solve_helmholtz,
)
from sgnlab.errors import ContractViolationError, ModeError, NonFiniteError, PositivityError, SolverFailureError
from sgnlab.grid import cumulative_integral, derivative
from sgnlab.kinematics import gradients

from conftest import assert_bitwise, convergence_orders, kernel_fields


def random_depth(g, rng, lo=0.5, hi=2.0):
    """Smooth random depth field in [lo, hi] on either grid mode."""
    x = g.cells()
    raw = np.zeros(g.n)
    for k in range(1, 6):
        a, b = rng.standard_normal(2) / k
        raw += a * np.sin(2 * np.pi * k * (x - g.x_left) / g.length)
        raw += b * np.cos(2 * np.pi * k * (x - g.x_left) / g.length)
    raw /= max(np.max(np.abs(raw)), 1e-12)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + 0.9 * half * raw


def depth_bundle(h, g):
    """The gradient bundle of depth ``h`` at rest: what the refined solve reads ``h`` and ``h^3`` from."""
    return gradients(FlowState(h, np.zeros(g.n)), Params(), g)


def dense_matrix(sys):
    f = sys.faces
    A = np.diag(sys.order0 + f[1:] + f[:-1])
    A -= np.diag(f[1:-1], -1)
    A -= np.diag(f[1:-1], 1)
    if sys.periodic:
        A[0, -1] = -f[0]
        A[-1, 0] = -f[0]
    return A


class TestAssembleApply:
    def test_flat_depth_constant_field(self, periodic_grid):
        h = np.full(periodic_grid.n, 1.3)
        sys = assemble_L(h, periodic_grid)
        out = apply_L(sys, np.full(periodic_grid.n, 2.0))
        assert np.max(np.abs(out - 1.3 * 2.0)) < 1e-13

    def test_eigenfunction_second_order(self):
        errs = []
        k = 3.0
        for n in (256, 512):
            g = Grid.from_length(n, 2 * np.pi, 0.0, "periodic")
            x = g.cells()
            sys = assemble_L(np.ones(n), g)
            out = apply_L(sys, np.sin(k * x))
            errs.append(np.max(np.abs(out - (1 + k**2 / 3) * np.sin(k * x))))
        assert convergence_orders(errs)[0] >= 1.9

    def test_symmetry(self, periodic_grid, line_grid, rng):
        for g in (periodic_grid, line_grid):
            sys = assemble_L(random_depth(g, rng), g, hbar=1.0)
            A = dense_matrix(sys)
            assert np.array_equal(A, A.T)

    def test_spd_on_random_depths(self, rng):
        for mode in ("periodic", "line"):
            g = Grid.from_length(64, 10.0, 0.0, mode)
            for _ in range(100):
                sys = assemble_L(random_depth(g, rng), g, hbar=1.0)
                eigs = np.linalg.eigvalsh(dense_matrix(sys))
                assert eigs.min() > 0

    def test_positivity_enforced(self, periodic_grid):
        h = np.ones(periodic_grid.n)
        h[5] = 0.0
        with pytest.raises(PositivityError):
            assemble_L(h, periodic_grid)

    def test_line_mode_needs_hbar(self, line_grid):
        with pytest.raises(ContractViolationError):
            assemble_L(np.ones(line_grid.n), line_grid)

    def test_apply_zero_field(self, periodic_grid, rng):
        sys = assemble_L(random_depth(periodic_grid, rng), periodic_grid)
        assert np.all(apply_L(sys, np.zeros(periodic_grid.n)) == 0.0)

    def test_apply_linear(self, periodic_grid, rng):
        sys = assemble_L(random_depth(periodic_grid, rng), periodic_grid)
        u, v = rng.standard_normal((2, periodic_grid.n))
        lhs = apply_L(sys, 2.0 * u - 3.0 * v)
        rhs = 2.0 * apply_L(sys, u) - 3.0 * apply_L(sys, v)
        assert np.max(np.abs(lhs - rhs)) < 1e-13 * (1 + np.max(np.abs(lhs)))

    def test_line_bump_against_symbolic(self):
        # h = 1, u = exp(-x^2): L u = u - (1/3) u'' evaluated symbolically
        errs = []
        for n in (512, 1024, 2048):
            g = Grid.from_length(n, 40.0, -20.0, "line")
            x = g.cells()
            u = np.exp(-(x**2))
            sys = assemble_L(np.ones(g.n), g, hbar=1.0)
            expected = u - (1.0 / 3.0) * (4 * x**2 - 2) * u
            errs.append(np.max(np.abs(apply_L(sys, u) - expected)))
        assert min(convergence_orders(errs)) >= 1.9


class TestSolve:
    def test_round_trip_random(self, rng):
        for mode in ("periodic", "line"):
            g = Grid.from_length(256, 30.0, -15.0, mode)
            for _ in range(20):
                sys = assemble_L(random_depth(g, rng), g, hbar=1.0)
                u = rng.standard_normal(g.n)
                psi = apply_L(sys, u)
                back = solve_L(sys, psi)
                assert np.max(np.abs(back - u)) < 1e-11 * (1 + np.max(np.abs(u)))

    def test_max_principle_random(self, rng):
        # |L^-1 psi| <= ||1/h|| ||psi|| pointwise; the one quantitative operator bound
        for mode in ("periodic", "line"):
            g = Grid.from_length(128, 20.0, -10.0, mode)
            for _ in range(100):
                h = random_depth(g, rng, 0.5, 2.0)
                sys = assemble_L(h, g, hbar=1.0)
                psi = rng.standard_normal(g.n)
                u = solve_L(sys, psi)
                bound = np.max(1.0 / h) * np.max(np.abs(psi))
                assert np.max(np.abs(u)) <= bound * (1 + 1e-12)

    def test_eigenfunction_solve(self):
        errs = []
        k = 2.0
        for n in (256, 512):
            g = Grid.from_length(n, 2 * np.pi, 0.0, "periodic")
            x = g.cells()
            sys = assemble_L(np.ones(n), g)
            u = solve_L(sys, (1 + k**2 / 3) * np.sin(k * x))
            errs.append(np.max(np.abs(u - np.sin(k * x))))
        assert convergence_orders(errs)[0] >= 1.9

    def test_cyclic_matches_dense(self, rng):
        g = Grid.from_length(64, 10.0, 0.0, "periodic")
        sys = assemble_L(random_depth(g, rng), g)
        psi = rng.standard_normal(g.n)
        u = solve_L(sys, psi)
        u_dense = np.linalg.solve(dense_matrix(sys), psi)
        assert np.max(np.abs(u - u_dense)) < 1e-12 * (1 + np.max(np.abs(u_dense)))

    def test_line_far_field_makes_constants_exact(self, rng):
        g = Grid.from_length(128, 20.0, -10.0, "line")
        h = np.ones(g.n)
        sys = assemble_L(h, g, hbar=1.0)
        rhs = np.full(g.n, 2.0)  # L(2) = 2 h for h = 1
        u = solve_L(sys, rhs, far_field=(2.0, 2.0))
        assert np.max(np.abs(u - 2.0)) < 1e-12

    def test_spatial_self_convergence(self, rng):
        # variable-coefficient solve, cubic interpolation of the fine solution
        from sgnlab.characteristics import interp_cubic

        def depth(x):
            return 1.0 + 0.3 * np.sin(2 * np.pi * x / 30.0) * np.exp(-((x / 8.0) ** 2))

        def rhs_fn(x):
            return np.exp(-(x**2) / 9.0) * np.cos(x)

        sols = {}
        grids = {}
        for n in (256, 512, 1024):
            g = Grid.from_length(n, 30.0, -15.0, "line")
            x = g.cells()
            sys = assemble_L(depth(x), g, hbar=1.0)
            sols[n] = solve_L(sys, rhs_fn(x))
            grids[n] = g
        coarse_x = grids[256].cells()
        e1 = np.max(np.abs(sols[256] - interp_cubic(sols[512], grids[512], coarse_x)))
        e2 = np.max(np.abs(interp_cubic(sols[512], grids[512], coarse_x)
                           - interp_cubic(sols[1024], grids[1024], coarse_x)))
        assert np.log2(e1 / e2) >= 1.9


class TestFactorSolve:
    """The one factor -> solve -> verify path behind every L_h and Helmholtz solve."""

    @pytest.mark.parametrize("mode", ["periodic", "line"])
    @pytest.mark.parametrize("n", [8, 9, 256])
    def test_matches_dense(self, rng, mode, n):
        g = Grid.from_length(n, 10.0, -5.0, mode)
        p = Params(g=9.81, gamma=2.0, hbar=1.0)
        for _ in range(10):
            hbar = rng.uniform(0.5, 2.0)
            systems = [assemble_L(random_depth(g, rng), g, hbar=hbar), elliptic._helmholtz_system(p, g)]
            for sys in systems:
                psi = rng.standard_normal(g.n)
                far = tuple(rng.standard_normal(2)) if mode == "line" else (0.0, 0.0)
                u = solve_L(sys, psi, far_field=far)
                b = psi.copy()
                b[0] += sys.faces[0] * far[0]
                b[-1] += sys.faces[-1] * far[1]
                A = dense_matrix(sys)
                u_dense = np.linalg.solve(A, b)
                assert np.max(np.abs(u - u_dense)) <= 1e-12 * np.max(np.abs(u_dense))
                assert np.max(np.abs(apply_L(sys, psi) - A @ psi)) <= 1e-13 * np.max(np.abs(A @ psi))

    @pytest.mark.parametrize("mode", ["periodic", "line"])
    def test_nan_rhs_fails_closed(self, rng, mode):
        g = Grid.from_length(64, 10.0, -5.0, mode)
        sys = assemble_L(random_depth(g, rng), g, hbar=1.0)
        psi = rng.standard_normal(g.n)
        psi[17] = np.nan
        with pytest.raises(SolverFailureError):
            solve_L(sys, psi)

    @pytest.mark.parametrize("periodic", [True, False])
    def test_non_spd_system_refused(self, periodic):
        # tridiag(-1, 1, -1) in flux form: order0 = -1, unit couplings; indefinite
        n = 16
        sys = TridiagonalSystem(np.ones(n + 1), np.full(n, -1.0), periodic)
        assert np.linalg.eigvalsh(dense_matrix(sys)).min() < 0
        with pytest.raises(SolverFailureError):
            solve_L(sys, np.ones(n))

    def test_one_factorization_per_rhs(self, monkeypatch):
        from sgnlab.dynamics import rhs as rhs_eval

        calls = []
        real = elliptic.dpttrf
        monkeypatch.setattr(elliptic, "dpttrf", lambda d, e: calls.append(d.shape) or real(d, e))
        for mode in ("periodic", "line"):
            g = Grid.from_length(128, 20.0, -10.0, mode)
            x = g.cells()
            s = FlowState(1.0 + 0.1 * np.exp(-(x**2)), 0.05 * np.exp(-(x**2)))
            for k in range(1, 4):
                calls.clear()
                for _ in range(k):
                    rhs_eval(s, Params(), g)
                assert len(calls) == k

    def test_helmholtz_factored_once(self, monkeypatch, rng):
        calls = []
        real = elliptic.dpttrf
        monkeypatch.setattr(elliptic, "dpttrf", lambda d, e: calls.append(d.shape) or real(d, e))
        elliptic._helmholtz_system.cache_clear()
        p = Params(g=9.81, gamma=2.0, hbar=1.0)
        for mode in ("periodic", "line"):
            g = Grid.from_length(128, 20.0, -10.0, mode)
            calls.clear()
            for _ in range(5):
                solve_helmholtz(rng.standard_normal(g.n), p, g)
            assert len(calls) == 1


@pytest.mark.parametrize("call", [lambda f, g: assemble_L(f, g, hbar=1.0),
                                  lambda f, g: solve_helmholtz(f, Params(), g),
                                  lambda f, g: apply_L(assemble_L(np.ones(g.n), g, hbar=1.0), f)],
                         ids=["assemble_L", "solve_helmholtz", "apply_L"])
@pytest.mark.parametrize("mode", ["periodic", "line"])
def test_public_entry_rejects_wrong_length_and_nonfinite(call, mode):
    g = Grid.from_length(64, 10.0, -5.0, mode)
    with pytest.raises(ContractViolationError):
        call(np.ones(g.n + 1), g)
    f = np.ones(g.n)
    f[17] = np.nan
    with pytest.raises(NonFiniteError):
        call(f, g)


@pytest.mark.parametrize("op", [apply_L, solve_L], ids=["apply_L", "solve_L"])
@pytest.mark.parametrize("mode", ["periodic", "line"])
def test_operator_rejects_wrong_shape(op, mode):
    g = Grid.from_length(64, 10.0, -5.0, mode)
    sys = assemble_L(np.ones(g.n), g, hbar=1.0)
    for bad in (np.ones(g.n + 1), np.ones(g.n - 1), np.ones((g.n, 1))):
        with pytest.raises(ContractViolationError, match="shape"):
            op(sys, bad)


class TestHelmholtz:
    def test_constant(self, periodic_grid, line_grid, params):
        for g in (periodic_grid, line_grid):
            a = solve_helmholtz(np.full(g.n, 3.0), params, g)
            assert np.max(np.abs(a - 3.0 / params.g)) < 1e-12

    def test_symbol_periodic(self):
        p = Params(g=9.81, gamma=2.0, hbar=1.0)
        errs = []
        k = 3.0
        for n in (256, 512):
            g = Grid.from_length(n, 2 * np.pi, 0.0, "periodic")
            x = g.cells()
            a = solve_helmholtz(np.sin(k * x), p, g)
            errs.append(np.max(np.abs(a - np.sin(k * x) / (p.g + p.gamma * k**2))))
        assert convergence_orders(errs)[0] >= 1.9

    def test_line_matches_kernel_convolution(self):
        # direct convolution with the exponential kernel of (g - gamma dxx)^{-1}
        p = Params(g=9.81, gamma=2.0, hbar=1.0)
        g = Grid.from_length(2048, 60.0, -30.0, "line")
        x = g.cells()
        rhs = np.exp(-(x**2) * 4.0)
        a = solve_helmholtz(rhs, p, g)
        kappa = np.sqrt(p.g / p.gamma)
        kernel = np.exp(-kappa * np.abs(x - x[:, None])) / (2.0 * np.sqrt(p.g * p.gamma))
        conv = kernel @ rhs * g.dx
        inner = slice(200, -200)
        rel = np.max(np.abs(a[inner] - conv[inner])) / np.max(np.abs(conv))
        assert rel < 0.01


class TestInvLdx:
    """``L_h^{-1} d_x psi``: the composition behind the nonlocal term of the momentum equation."""

    def test_constant_killed(self, periodic_grid):
        out = solve_L(assemble_L(np.ones(periodic_grid.n), periodic_grid),
                      derivative(np.full(periodic_grid.n, 4.2), periodic_grid))
        assert np.all(out == 0.0)

    def test_flat_state_source_zero(self, periodic_grid, params):
        from sgnlab.kinematics import curly_c, f_of_h, gradients

        s = FlowState(np.ones(periodic_grid.n), np.zeros(periodic_grid.n))
        psi = curly_c(params, gradients(s, params, periodic_grid)) + f_of_h(s, params)
        out = solve_L(assemble_L(s.h, periodic_grid), derivative(psi, periodic_grid))
        assert np.all(out == 0.0)

    def test_eigenfunction(self):
        errs = []
        k = 2.0
        for n in (256, 512):
            g = Grid.from_length(n, 2 * np.pi, 0.0, "periodic")
            x = g.cells()
            out = solve_L(assemble_L(np.ones(n), g), derivative(np.cos(k * x), g))
            expected = -k * np.sin(k * x) / (1 + k**2 / 3)
            errs.append(np.max(np.abs(out - expected)))
        assert convergence_orders(errs)[0] >= 1.9


class TestRefinedSolve:
    def test_matches_plain_on_smooth_low_k(self):
        # the defect correction is a higher-order consistency fix, not a new operator
        g = Grid.from_length(512, 2 * np.pi * 8, 0.0, "periodic")
        x = g.cells()
        h = np.ones(g.n)
        sys = assemble_L(h, g)
        k = 0.5
        rhs = (1 + k**2 / 3) * np.sin(k * x)
        plain = solve_L(sys, rhs)
        refined = solve_L_refined(sys, depth_bundle(h, g), rhs, g)
        assert np.max(np.abs(refined - np.sin(k * x))) <= np.max(np.abs(plain - np.sin(k * x)))

    def test_nonfinite_defect_is_nonfinite_error(self, monkeypatch):
        # fault injection: an overflow in the compatible apply must not reach
        # the second solve, which would report it as a solver failure
        g = Grid.from_length(64, 10.0, -5.0, "periodic")
        h = np.ones(g.n)
        real = apply_L_compatible

        def overflowing(d, u, g):
            out = real(d, u, g)
            out[17] = np.inf
            return out

        monkeypatch.setattr(elliptic, "apply_L_compatible", overflowing)
        with pytest.raises(NonFiniteError):
            solve_L_refined(assemble_L(h, g), depth_bundle(h, g), np.sin(g.cells()), g)

    def test_compatible_apply_is_symmetric(self, rng):
        g = Grid.from_length(128, 2 * np.pi, 0.0, "periodic")
        d = depth_bundle(random_depth(g, rng), g)
        A = np.empty((g.n, g.n))
        for j in range(g.n):
            e = np.zeros(g.n)
            e[j] = 1.0
            A[:, j] = apply_L_compatible(d, e, g)
        assert np.max(np.abs(A - A.T)) < 1e-10


class TestSolveFaults:
    """Fault injection below the residual check: a LAPACK solve that returns a
    wrong solution must be caught by the solve's own residual verification."""

    @pytest.mark.parametrize("mode", ["periodic", "line"])
    @pytest.mark.parametrize("operator", ["L_h", "helmholtz"])
    @pytest.mark.parametrize("fault", ["perturbed", "nan"])
    def test_corrupted_solution_fails_residual(self, monkeypatch, rng, mode, operator, fault):
        g = Grid.from_length(128, 20.0, -10.0, mode)
        p = Params(gamma=2.0)
        rhs = np.sin(2 * np.pi * g.cells() / g.length) + 0.5
        if operator == "L_h":
            sys = assemble_L(random_depth(g, rng), g, hbar=1.0)
            solve = lambda: solve_L(sys, rhs)
        else:
            solve = lambda: solve_helmholtz(rhs, p, g)
        solve()  # the factor is made (and the Helmholtz system cached) before the fault
        real = elliptic.dpttrs

        def corrupted(d, e, b):
            x, info = real(d, e, b)
            if fault == "perturbed":
                return x * (1.0 + 1e-6), info
            x[len(x) // 2] = np.nan
            return x, info

        monkeypatch.setattr(elliptic, "dpttrs", corrupted)
        with pytest.raises(SolverFailureError, match="solve residual .* exceeds"):
            solve()


def _apply_L_reference(sys, u):
    """The flux-form apply as it was written before it shared the unchecked kernel."""
    up = np.concatenate(([u[-1]], u, [u[0]])) if sys.periodic else np.concatenate(([0.0], u, [0.0]))
    return sys.order0 * u + sys.faces[1:] * (u - up[2:]) + sys.faces[:-1] * (u - up[:-2])


def _faces_reference(h, g, hbar):
    """The ``L_h`` faces as they were assembled before they were built in place."""
    hp = np.concatenate(([h[-1]], h, [h[0]])) if g.periodic else np.concatenate(([hbar], h, [hbar]))
    return (0.5 * (hp[:-1] + hp[1:])) ** 3 * (1.0 / (3.0 * g.dx**2))


class TestKernelsPinned:
    """The lean kernels equal the expressions they replaced, bit for bit."""

    @given(mode=st.sampled_from(["periodic", "line"]), n=st.integers(8, 64), dx=st.floats(1e-2, 1e2), hbar=st.floats(1e-6, 1e6),
           data=st.data())
    def test_assembled_faces_hypothesis(self, mode, n, dx, hbar, data):
        g = Grid(n=n, dx=dx, mode=mode)
        h = data.draw(kernel_fields(n, positive=True))
        sys = elliptic._assemble_L(h, g, hbar)
        assert_bitwise(sys.faces, _faces_reference(h, g, hbar))
        assert sys.order0 is h

    @given(periodic=st.booleans(), n=st.integers(8, 64), data=st.data())
    def test_flux_form_apply_hypothesis(self, periodic, n, data):
        faces = data.draw(kernel_fields(n + 1, positive=True))
        if periodic:
            faces[-1] = faces[0]
        sys = TridiagonalSystem(faces, data.draw(kernel_fields(n, positive=True)), periodic)
        u = data.draw(kernel_fields(n))
        expected = _apply_L_reference(sys, u)
        assert_bitwise(apply_L(sys, u), expected)
        assert_bitwise(elliptic._apply_L(sys, u), expected)


class TestScriptR:
    def test_flat_state(self, periodic_grid, params):
        s = FlowState(np.ones(periodic_grid.n), np.zeros(periodic_grid.n))
        assert np.all(script_r(s, params, periodic_grid) == 0.0)

    def test_consistency_with_time_derivative_form(self):
        # same field from the operator form and from the time-derivative form,
        # with u_t taken from the momentum right-hand side
        from sgnlab.dynamics import rhs as rhs_eval

        p = Params(g=9.81, gamma=2.0, hbar=1.0)
        errs = []
        for n in (256, 512):
            g = Grid.from_length(n, 2 * np.pi * 4, 0.0, "periodic")
            x = g.cells()
            s = FlowState(1.0 + 0.1 * np.sin(x), 0.05 * np.cos(x))
            r_op = script_r(s, p, g)
            ev = rhs_eval(s, p, g)
            u_tx = derivative(ev.du_dt, g)
            u_x = derivative(s.u, g)
            u_xx = derivative(u_x, g)
            h_x = derivative(s.h, g)
            h_xx = derivative(h_x, g)
            r_td = ((1.0 / 3.0) * s.h**3 * (-u_tx - s.u * u_xx + u_x**2)
                    - p.gamma * (s.h * h_xx - 0.5 * h_x**2))
            errs.append(np.max(np.abs(r_op - r_td)))
        assert convergence_orders(errs)[0] >= 1.5

    def test_bounded_on_energetic_state(self, params):
        g = Grid.from_length(512, 40.0, -20.0, "periodic")
        x = g.cells()
        s = FlowState(1.0 + 0.2 * np.exp(-(x**2)), 0.3 * np.exp(-(x**2)) * np.sin(x))
        r = script_r(s, params, g)
        assert np.all(np.isfinite(r))


class TestPsiIdentity:
    def test_zero_psi(self, params):
        g = Grid.from_length(256, 40.0, -20.0, "line")
        res = psi_identity_residual(np.ones(g.n), np.zeros(g.n), g, 1.0)
        assert res == 0.0

    def test_mode_error_on_periodic(self, periodic_grid):
        with pytest.raises(ModeError):
            psi_identity_residual(np.ones(periodic_grid.n), np.ones(periodic_grid.n),
                                  periodic_grid, 1.0)

    @pytest.mark.parametrize("variable_h", [False, True])
    def test_refinement(self, variable_h):
        errs = []
        for n in (256, 512, 1024):
            g = Grid.from_length(n, 40.0, -20.0, "line")
            x = g.cells()
            h = np.ones(n) + (0.1 * np.exp(-(x**2)) if variable_h else 0.0)
            psi = np.exp(-(x**2) / 2.0)
            errs.append(psi_identity_residual(h, psi, g, 1.0))
        assert min(convergence_orders(errs)) >= 1.5
