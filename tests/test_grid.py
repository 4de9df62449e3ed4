import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from sgnlab import Grid
from sgnlab.errors import BoundaryContaminationError, ContractViolationError, ModeError, NonFiniteError
from sgnlab.grid import _derivative, check_far_field, cumulative_integral, derivative, integrate

from conftest import assert_bitwise, convergence_orders, kernel_fields


class TestGridConstruction:
    def test_rejects_tiny_grids(self):
        with pytest.raises(ContractViolationError):
            Grid(n=4, dx=0.1)

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ContractViolationError):
            Grid(n=64, dx=0.0)

    @pytest.mark.parametrize("dx, x_left", [(np.inf, 0.0), (np.nan, 0.0), (0.1, np.inf), (0.1, -np.inf),
                                            (0.1, np.nan)])
    def test_rejects_nonfinite_spacing_or_origin(self, dx, x_left):
        with pytest.raises(ContractViolationError):
            Grid(n=64, dx=dx, x_left=x_left, mode="line")
        with pytest.raises(ContractViolationError):
            Grid.from_length(64, 64 * dx, x_left, "periodic")

    @pytest.mark.parametrize("n", [64.0, "64", np.float64(64.0)])
    def test_rejects_noninteger_cell_count(self, n):
        with pytest.raises(ContractViolationError, match="integer n"):
            Grid(n=n, dx=0.5)

    @pytest.mark.parametrize("dx", [1e-160, 1e155], ids=["square-underflows", "square-overflows"])
    def test_rejects_spacing_whose_square_leaves_the_normal_floats(self, dx):
        # the Laplacian divides by dx*dx: it must be a normal float, neither subnormal, zero nor inf
        with pytest.raises(ContractViolationError, match="dx must have a square above the smallest normal"):
            Grid(n=64, dx=dx)

    def test_square_rule_edge_is_tiny(self):
        root = math.sqrt(sys.float_info.min)
        for dx in (np.nextafter(root, 0.0), root, np.nextafter(root, 1.0), 2.0 * root):
            if dx * dx >= sys.float_info.min:
                assert Grid(n=64, dx=float(dx)).dx == dx
            else:
                with pytest.raises(ContractViolationError, match="square"):
                    Grid(n=64, dx=float(dx))
        Grid(n=64, dx=1e154)  # square 1e308, still finite

    @pytest.mark.parametrize("x_left, dx", [(1e308, 0.04), (-1e308, 0.04), (1e17, 0.039), (-1e17, 0.039)])
    def test_rejects_origin_whose_cell_centres_collapse(self, x_left, dx):
        # far from 0 neighbouring cell centres round to one float64: x_left = 1e17, dx = 0.039
        # once gave 3 distinct centres out of 1024
        for mode in ("line", "periodic"):
            with pytest.raises(ContractViolationError, match="float64 cannot place the cell centres"):
                Grid(n=1024, dx=dx, x_left=x_left, mode=mode)

    def test_cell_centre_rule_edge(self):
        # the coordinates' float64 spacing may reach a thousandth of a cell, not more
        for sign in (1.0, -1.0):
            g = Grid(n=1024, dx=1.0, x_left=sign * 2.0**42)  # spacing 2^-10 < 1e-3 on the whole grid
            assert np.unique(g.cells()).size == g.n
            with pytest.raises(ContractViolationError, match="thousandth of dx = 1"):
                Grid(n=1024, dx=1.0, x_left=sign * 2.0**43)  # spacing 2^-9

    def test_rejects_unknown_mode(self):
        with pytest.raises(ContractViolationError):
            Grid(n=64, dx=0.1, mode="moebius")

    def test_cell_centers(self):
        g = Grid(n=8, dx=0.5, x_left=-2.0, mode="line")
        x = g.cells()
        assert x[0] == -2.0 + 0.25
        assert np.allclose(np.diff(x), 0.5)
        assert g.length == 4.0


class TestDerivative:
    def test_constant_field_is_flat(self, periodic_grid, line_grid):
        # a line grid reads its pads beyond the ends: flat when they carry the constant
        for g in (periodic_grid, line_grid):
            d = derivative(np.full(g.n, 3.7), g, far=(3.7, 3.7))
            assert np.all(d == 0.0)

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_periodic_sine_fourth_order(self, k):
        errs = []
        for n in (128, 256):
            g = Grid.from_length(n, 2 * np.pi, 0.0, "periodic")
            x = g.cells()
            d = derivative(np.sin(k * x), g)
            errs.append(np.max(np.abs(d - k * np.cos(k * x))))
        orders = convergence_orders(errs)
        assert orders[0] >= 3.9

    def test_linear_exact_in_line_mode(self):
        g = Grid.from_length(64, 10.0, 0.0, "line")
        d = derivative(g.cells(), g)
        # exact wherever the stencil stays on the grid; the edge cells read the pads
        assert np.max(np.abs(d[2:-2] - 1.0)) < 1e-12

    def test_quartic_exact_everywhere_in_line_mode(self):
        # exact for polynomials up to degree 4 on every cell whose stencil
        # stays on the grid; the two cells per side read the pads instead
        g = Grid.from_length(64, 2.0, -1.0, "line")
        x = g.cells()
        d = derivative(x**4 - 2 * x**3 + x, g)
        assert np.max(np.abs(d - (4 * x**3 - 6 * x**2 + 1))[2:-2]) < 1e-11

    def test_linearity(self, periodic_grid, rng):
        g = periodic_grid
        f1 = rng.standard_normal(g.n)
        f2 = rng.standard_normal(g.n)
        a, b = 1.7, -0.3
        lhs = derivative(a * f1 + b * f2, g)
        rhs = a * derivative(f1, g) + b * derivative(f2, g)
        scale = np.max(np.abs(lhs)) + 1.0
        assert np.max(np.abs(lhs - rhs)) < 1e-14 * scale

    @pytest.mark.parametrize("n", [8, 9, 1024])
    def test_periodic_stencil_matches_roll_reference_bitwise(self, n, rng):
        # the wrap-padded interior stencil performs the same operations in the
        # same order as the four-roll periodic formula
        g = Grid.from_length(n, 3.0, -1.0, "periodic")
        for _ in range(3):
            f = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
            ref = (8.0 * (np.roll(f, -1) - np.roll(f, 1))
                   - (np.roll(f, -2) - np.roll(f, 2))) * (1.0 / (12.0 * g.dx))
            assert np.array_equal(derivative(f, g), ref)

    def test_length_mismatch_rejected(self, periodic_grid):
        with pytest.raises(ContractViolationError):
            derivative(np.ones(periodic_grid.n + 1), periodic_grid)

    def test_nonfinite_rejected(self, periodic_grid):
        f = np.ones(periodic_grid.n)
        f[3] = np.nan
        with pytest.raises(ContractViolationError):
            derivative(f, periodic_grid)


class TestIntegrate:
    def test_length_mismatch_and_nonfinite_rejected(self, periodic_grid):
        with pytest.raises(ContractViolationError):
            integrate(np.ones(periodic_grid.n - 1), periodic_grid)
        f = np.ones(periodic_grid.n)
        f[3] = np.nan
        with pytest.raises(NonFiniteError):
            integrate(f, periodic_grid)

    def test_constant(self):
        g = Grid.from_length(100, 7.0, 0.0, "periodic")
        assert integrate(np.full(g.n, 2.5), g) == pytest.approx(2.5 * 7.0, abs=1e-12)

    def test_sine_over_full_periods(self):
        g = Grid.from_length(256, 2 * np.pi, 0.0, "periodic")
        val = integrate(np.sin(3 * g.cells()), g)
        assert abs(val) < 1e-12 * g.length

    def test_gaussian_closed_form(self):
        g = Grid.from_length(512, 40.0, -20.0, "line")
        x = g.cells()
        a, w = 1.3, 1.1
        val = integrate(a * np.exp(-(x**2) / w**2), g)
        exact = a * w * np.sqrt(np.pi)
        assert val == pytest.approx(exact, rel=1e-10)

    def test_integral_of_derivative_vanishes_periodic(self, periodic_grid, rng):
        from conftest import smooth_periodic_field

        f = smooth_periodic_field(periodic_grid, rng)
        val = integrate(derivative(f, periodic_grid), periodic_grid)
        assert abs(val) < 1e-12 * (np.max(np.abs(f)) + 1) * periodic_grid.length


class TestCumulativeIntegral:
    def test_zero_field(self, line_grid):
        F = cumulative_integral(np.zeros(line_grid.n), line_grid)
        assert np.all(F == 0.0)

    def test_constant_is_exact(self, line_grid):
        F = cumulative_integral(np.ones(line_grid.n), line_grid)
        assert np.max(np.abs(F - (line_grid.cells() - line_grid.x_left))) < 1e-12

    def test_gaussian_endpoint_matches_integrate(self, line_grid):
        x = line_grid.cells()
        f = np.exp(-(x**2))
        F = cumulative_integral(f, line_grid)
        assert abs(F[-1] - integrate(f, line_grid)) < 1e-12

    def test_refused_on_periodic(self, periodic_grid):
        with pytest.raises(ModeError):
            cumulative_integral(np.ones(periodic_grid.n), periodic_grid)

    def test_differentiation_recovers_integrand(self):
        # 2nd-order central difference of the primitive recovers f at order >= 1.9
        errs = []
        for n in (256, 512, 1024):
            g = Grid.from_length(n, 40.0, -20.0, "line")
            x = g.cells()
            f = np.exp(-(x**2) / 4.0) * np.cos(x)
            F = cumulative_integral(f, g)
            recovered = (F[2:] - F[:-2]) / (2 * g.dx)
            errs.append(np.max(np.abs(recovered - f[1:-1])))
        orders = convergence_orders(errs)
        assert min(orders) >= 1.9


class TestFarFieldGuard:
    def test_clean_state_passes(self, line_grid):
        h = np.ones(line_grid.n)
        u = np.zeros(line_grid.n)
        check_far_field(h, u, line_grid, 1.0)

    def test_contaminated_depth_aborts(self, line_grid):
        h = np.ones(line_grid.n)
        h[0] += 1e-4
        with pytest.raises(BoundaryContaminationError):
            check_far_field(h, np.zeros(line_grid.n), line_grid, 1.0)

    def test_contaminated_velocity_aborts(self, line_grid):
        u = np.zeros(line_grid.n)
        u[-2] = 1e-4
        with pytest.raises(BoundaryContaminationError):
            check_far_field(np.ones(line_grid.n), u, line_grid, 1.0)

    def test_interior_waves_allowed(self, line_grid):
        h = 1.0 + 0.5 * np.exp(-(line_grid.cells() ** 2))
        check_far_field(h, np.zeros(line_grid.n), line_grid, 1.0)

    def test_noop_on_periodic(self, periodic_grid):
        h = 2.0 * np.ones(periodic_grid.n)
        check_far_field(h, h, periodic_grid, 1.0)


@given(c=st.floats(-10, 10, allow_nan=False))
def test_derivative_of_constant_hypothesis(c):
    g = Grid.from_length(64, 5.0, 0.0, "line")
    assert np.all(derivative(np.full(g.n, c), g, far=(c, c)) == 0.0)


@given(mode=st.sampled_from(["periodic", "line"]), n=st.integers(8, 300), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-6, 1e6))
def test_unchecked_kernel_equals_public_derivative_hypothesis(mode, n, seed, scale):
    g = Grid.from_length(n, 3.0, -1.0, mode)
    f = scale * np.random.default_rng(seed).standard_normal(n)
    assert np.array_equal(_derivative(f, g), derivative(f, g))


def _derivative_reference(f, g, far):
    """The central stencil on the field padded by two cells per side: wrapped, or ``far`` on a line grid."""
    inv12dx = 1.0 / (12.0 * g.dx)
    pads = (f[-2:], f[:2]) if g.periodic else (np.full(2, far[0]), np.full(2, far[1]))
    fp = np.concatenate((pads[0], f, pads[1]))
    return (8.0 * (fp[3:-1] - fp[1:-3]) - (fp[4:] - fp[:-4])) * inv12dx


@given(mode=st.sampled_from(["periodic", "line"]), n=st.integers(8, 64), k=st.integers(1, 4),
       dx=st.floats(1e-2, 1e2), data=st.data())
def test_derivative_kernel_pinned_bitwise_hypothesis(mode, n, k, dx, data):
    g = Grid(n=n, dx=dx, x_left=-1.0, mode=mode)
    f = data.draw(kernel_fields(n))
    far = tuple(data.draw(kernel_fields(2)).tolist())
    assert_bitwise(_derivative(f, g, far), _derivative_reference(f, g, far))
    # a (k, n) block with one far-field pair per row: each row as if it were differentiated alone
    block = np.stack([data.draw(kernel_fields(n)) for _ in range(k)])
    fars = data.draw(kernel_fields(2 * k)).reshape(k, 2)
    stacked = _derivative(block, g, (fars[:, :1], fars[:, 1:]))
    assert stacked.shape == (k, n)
    for row, far_row, out in zip(block, fars, stacked):
        assert_bitwise(out, _derivative_reference(row, g, tuple(far_row.tolist())))


@given(mode=st.sampled_from(["periodic", "line"]), n=st.integers(8, 300), dx=st.floats(1e-2, 1e2), data=st.data())
def test_derivative_is_skew_hypothesis(mode, n, dx, data):
    # with zero pads D is skew in both modes: discrete integration by parts leaves no boundary term
    g = Grid(n=n, dx=dx, x_left=-1.0, mode=mode)
    # magnitudes from 1e-3 to 1e3 and zeros: no product underflows below the relative bound
    values = st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3) | st.just(0.0)
    f, w = (data.draw(hnp.arrays(np.float64, n, elements=values)) for _ in range(2))
    bound = 1e-12 * np.linalg.norm(f) * np.linalg.norm(w) / dx
    assert abs(f @ derivative(w, g) + w @ derivative(f, g)) <= bound


@pytest.mark.parametrize("far", [(np.nan, 0.0), (0.0, np.inf)])
def test_nonfinite_pads_rejected(far):
    g = Grid.from_length(64, 5.0, 0.0, "line")
    with pytest.raises(NonFiniteError, match="pads"):
        derivative(np.zeros(g.n), g, far=far)
