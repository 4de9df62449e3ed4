import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from sgnlab import FlowState, Grid, Params
from sgnlab.errors import ContractViolationError, PositivityError
from sgnlab.grid import derivative
from sgnlab.kinematics import (
    a_priori_bounds,
    char_speeds,
    chi,
    curly_c,
    energy_density,
    f_of_h,
    gradients,
    pq_fields,
    riemann_invariants,
    total_energy,
)

from conftest import assert_bitwise, cutoff_reached, kernel_fields


def make_state(g, h, u, t=0.0):
    return FlowState(np.broadcast_to(h, (g.n,)).copy() if np.isscalar(h) else h,
                     np.broadcast_to(u, (g.n,)).copy() if np.isscalar(u) else u, t)


class TestParams:
    def test_validation(self):
        with pytest.raises(ContractViolationError):
            Params(g=0.0)
        with pytest.raises(ContractViolationError):
            Params(gamma=-1.0)
        with pytest.raises(ContractViolationError):
            Params(epsilon=-0.1)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_epsilon_rejected(self, epsilon):
        with pytest.raises(ContractViolationError):
            Params(epsilon=epsilon)

    @pytest.mark.parametrize("field", ["g", "gamma", "hbar"])
    def test_infinite_constant_rejected(self, field):
        with pytest.raises(ContractViolationError, match="finite"):
            Params(**{field: float("inf")})

    @pytest.mark.parametrize("hbar", [1e-200, 1e200], ids=["square-underflows", "square-overflows"])
    def test_depth_whose_square_leaves_the_normal_floats_rejected(self, hbar):
        with pytest.raises(ContractViolationError, match="hbar must have a square above the smallest normal"):
            Params(hbar=hbar)

    def test_small_depth_with_normal_square_accepted(self):
        p = Params(hbar=1e-150)
        assert 0.0 < p.e_max < math.inf

    def test_threshold(self):
        p = Params(g=9.81, gamma=9.81, hbar=1.0)
        assert p.e_max == pytest.approx(9.81)

    def test_state_positivity(self):
        with pytest.raises(PositivityError):
            FlowState(np.array([1.0, -1.0] * 8), np.zeros(16))

    @pytest.mark.parametrize("h, u", [(np.ones(16), np.zeros(15)), (np.ones((4, 4)), np.zeros((4, 4)))],
                             ids=["unequal-length", "two-dimensional"])
    def test_state_shape_rejected(self, h, u):
        with pytest.raises(ContractViolationError, match="1d arrays of equal length"):
            FlowState(h, u)


class TestRiemannInvariants:
    def test_flat_unit_depth(self, periodic_grid):
        p = Params(g=9.81, gamma=3.0, hbar=1.0)
        R, S = riemann_invariants(make_state(periodic_grid, 1.0, 0.0), p)
        assert np.allclose(R, 6.0) and np.allclose(S, -6.0)

    def test_depth_four(self, periodic_grid):
        p = Params(g=9.81, gamma=3.0, hbar=1.0)
        R, S = riemann_invariants(make_state(periodic_grid, 4.0, 1.0), p)
        assert np.allclose(R, 4.0) and np.allclose(S, -2.0)

    def test_gap_positive(self, periodic_grid, rng):
        p = Params(gamma=2.3)
        h = 1.0 + 0.5 * np.sin(periodic_grid.cells())
        u = rng.standard_normal(periodic_grid.n)
        R, S = riemann_invariants(make_state(periodic_grid, h, u), p)
        gap = R - S
        assert np.all(gap > 0)
        assert np.allclose(gap, 4.0 * math.sqrt(3 * p.gamma) / np.sqrt(h))


class TestCharSpeeds:
    def test_flat_unit_depth(self, periodic_grid):
        p = Params(gamma=3.0)
        lam, eta = char_speeds(make_state(periodic_grid, 1.0, 0.0), p)
        assert np.allclose(lam, -3.0) and np.allclose(eta, 3.0)

    def test_depth_nine_speed_two(self, periodic_grid):
        p = Params(gamma=3.0)
        lam, eta = char_speeds(make_state(periodic_grid, 9.0, 2.0), p)
        assert np.allclose(lam, 1.0) and np.allclose(eta, 3.0)

    def test_ordering(self, periodic_grid, rng):
        p = Params(gamma=1.7)
        h = 1.0 + 0.4 * np.cos(periodic_grid.cells())
        lam, eta = char_speeds(make_state(periodic_grid, h, rng.standard_normal(periodic_grid.n)), p)
        assert np.all(eta - lam > 0)


class TestPQFields:
    def test_flat_state_zero(self, periodic_grid, params):
        P, Q = pq_fields(make_state(periodic_grid, 1.0, 0.0), params, periodic_grid)
        assert np.all(P == 0.0) and np.all(Q == 0.0)

    def test_unit_depth_sine_velocity(self, periodic_grid):
        p = Params(gamma=2.0)
        x = periodic_grid.cells()
        k = 3.0
        s = make_state(periodic_grid, 1.0, np.sin(k * x))
        P, Q = pq_fields(s, p, periodic_grid)
        expected = k * np.cos(k * x)
        assert np.max(np.abs(P - expected)) < 5e-5
        assert np.max(np.abs(Q - expected)) < 5e-5

    def test_round_trip(self, periodic_grid, rng):
        p = Params(gamma=4.2)
        x = periodic_grid.cells()
        h = 1.0 + 0.3 * np.sin(x) + 0.1 * np.cos(2 * x)
        u = 0.5 * np.sin(2 * x)
        s = make_state(periodic_grid, h, u)
        P, Q = pq_fields(s, p, periodic_grid)
        ux = (P + Q) / (2.0 * h)
        hx = np.sqrt(h) * (Q - P) / (2.0 * p.sqrt_3gamma)
        assert np.max(np.abs(ux - derivative(u, periodic_grid))) < 1e-12 * (1 + np.max(np.abs(ux)))
        assert np.max(np.abs(hx - derivative(h, periodic_grid))) < 1e-12 * (1 + np.max(np.abs(hx)))


class TestCutoffRule:
    @given(mode=st.sampled_from(["periodic", "line"]), which=st.sampled_from(["zero", "drawn", "edge"]),
           eps=st.floats(0.05, 5.0), ulps=st.integers(-2, 2), amp_h=st.floats(-0.3, 0.3),
           amp_u=st.floats(-3.0, 3.0), width=st.floats(0.5, 3.0))
    # the lowest invariant exactly at -1/eps (-1/(-1/lowest) rounds back to lowest), where the cut-off acts
    @example(mode="periodic", which="edge", eps=1.0, ulps=0, amp_h=0.1, amp_u=-1.5, width=1.0)
    @example(mode="line", which="edge", eps=1.0, ulps=0, amp_h=0.1, amp_u=-2.0, width=1.0)
    def test_cutoff_is_none_exactly_when_no_invariant_reaches_the_threshold(self, mode, which, eps, ulps,
                                                                             amp_h, amp_u, width):
        # "edge" puts -1/eps within rounding of the lowest invariant, then ``ulps`` ulps off it
        g = Grid.from_length(128, 20.0, -10.0, mode)
        x = g.cells()
        bump = np.exp(-((x / width) ** 2))
        s = FlowState(1.0 + amp_h * bump, amp_u * x * bump)
        P, Q = pq_fields(s, Params(), g)
        lowest = min(P.min(), Q.min())
        if which == "zero":
            eps = 0.0
        elif which == "edge" and lowest < 0.0:
            eps = -1.0 / lowest
            for _ in range(abs(ulps)):
                eps = np.nextafter(eps, np.copysign(np.inf, ulps))
        d = gradients(s, Params(epsilon=eps), g)
        if not cutoff_reached(P, Q, eps):
            assert d.cutoff is None
        else:
            assert_bitwise(d.cutoff[0], chi(P, eps))
            assert_bitwise(d.cutoff[1], chi(Q, eps))


class TestCurlyCAndF:
    def test_flat_state(self, periodic_grid, params):
        s = make_state(periodic_grid, 1.0, 0.0)
        c = curly_c(params, gradients(s, params, periodic_grid))
        assert np.all(c == 0.0)

    def test_pure_shear(self):
        # unit depth, linear velocity: C = (2/3) c^2
        g = Grid.from_length(64, 8.0, -4.0, "line")
        p = Params(gamma=1.0)
        u = 0.7 * g.cells()
        s = make_state(g, 1.0, u)
        c = curly_c(p, gradients(s, p, g))
        # a linear field has no far-field limit: the two cells per side that read the pads differ
        assert np.max(np.abs(c[2:-2] - (2.0 / 3.0) * 0.49)) < 1e-10

    def test_pure_depth_gradient(self):
        g = Grid.from_length(64, 8.0, -4.0, "line")
        p = Params(g=9.81, gamma=2.0, hbar=1.0)
        h = 5.0 + 0.3 * g.cells()
        s = make_state(g, h, 0.0)
        c = curly_c(p, gradients(s, p, g))
        assert np.max(np.abs(c[2:-2] - (-1.5 * p.gamma * 0.09))) < 1e-9

    def test_f_reference_state(self, periodic_grid):
        p = Params(g=2.0, gamma=1.0, hbar=1.0)
        f = f_of_h(make_state(periodic_grid, 1.0, 0.0), p)
        assert np.all(f == 0.0)

    def test_f_hand_value(self, periodic_grid):
        p = Params(g=2.0, gamma=1.0, hbar=1.0)
        f = f_of_h(make_state(periodic_grid, math.e, 0.0), p)
        assert np.allclose(f, math.e**2 - 4.0)

    def test_f_convex_near_reference(self, periodic_grid):
        # second difference positive (F'' = g + 3 gamma/h^2 > 0) for any params
        p = Params(g=9.81, gamma=9.81, hbar=1.0)
        fp = f_of_h(make_state(periodic_grid, 1.01, 0.0), p)
        fm = f_of_h(make_state(periodic_grid, 0.99, 0.0), p)
        assert np.all(fp + fm > 0.0)
        # at Bond number 3 the reference depth is a critical point of F, so
        # both one-sided values are positive outright
        p3 = Params(g=9.81, gamma=3.27, hbar=1.0)
        for sign in (+1, -1):
            f = f_of_h(make_state(periodic_grid, 1.0 + sign * 0.01, 0.0), p3)
            assert np.all(f > 0.0)


@given(mode=st.sampled_from(["periodic", "line"]), n=st.integers(8, 64), dx=st.floats(1e-2, 1e2),
       data=st.data())
def test_shared_cube_pinned_bitwise_hypothesis(mode, n, dx, data):
    # curly_c and energy_density read h^3 from the state's bundle; the values
    # equal the s.h**3 forms they replaced, bit for bit
    g = Grid(n=n, dx=dx, mode=mode)
    s = FlowState(data.draw(kernel_fields(n, positive=True)), data.draw(kernel_fields(n)))
    p = Params(g=9.81, gamma=2.0, hbar=1.0)
    d = gradients(s, p, g)
    assert d.h3 is d.h3
    assert_bitwise(d.h3, s.h**3)
    assert_bitwise(curly_c(p, d), (2.0 / 3.0) * s.h**3 * d.ux**2 - 1.5 * p.gamma * d.hx**2)
    expected = (0.5 * s.h * s.u**2 + 0.5 * p.g * (s.h - p.hbar) ** 2
                + (1.0 / 6.0) * s.h**3 * d.ux**2 + 0.5 * p.gamma * d.hx**2)
    assert_bitwise(energy_density(s, p, d), expected)


class TestEnergy:
    def test_flat_state_zero(self, periodic_grid, params):
        s = make_state(periodic_grid, 1.0, 0.0)
        e = energy_density(s, params, gradients(s, params, periodic_grid))
        assert np.all(e == 0.0)

    def test_nonnegative(self, periodic_grid, rng):
        p = Params(gamma=3.3)
        x = periodic_grid.cells()
        s = make_state(periodic_grid, 1.0 + 0.4 * np.sin(x), 0.7 * np.cos(2 * x))
        assert np.all(energy_density(s, p, gradients(s, p, periodic_grid)) >= 0.0)

    def test_pq_equivalence(self, periodic_grid):
        # E = h u^2/2 + g (h-hbar)^2/2 + (h/12)(P^2 + Q^2)
        p = Params(g=9.81, gamma=2.5, hbar=1.0)
        x = periodic_grid.cells()
        h = 1.0 + 0.3 * np.sin(x)
        u = 0.4 * np.cos(x)
        s = make_state(periodic_grid, h, u)
        e = energy_density(s, p, gradients(s, p, periodic_grid))
        P, Q = pq_fields(s, p, periodic_grid)
        e_pq = 0.5 * h * u**2 + 0.5 * p.g * (h - 1.0) ** 2 + (h / 12.0) * (P**2 + Q**2)
        assert np.max(np.abs(e - e_pq)) < 1e-12 * (1 + np.max(e))


class TestAPrioriBounds:
    def test_small_energy_limit(self):
        p = Params(g=9.81, gamma=9.81, hbar=1.0)
        b = a_priori_bounds(1e-12, p)
        assert b.h_min == pytest.approx(1.0, abs=1e-5)
        assert b.h_max == pytest.approx(1.0, abs=1e-5)
        assert b.u_max == pytest.approx(0.0, abs=1e-5)

    def test_hand_values(self):
        p = Params(g=9.81, gamma=9.81, hbar=1.0)
        b = a_priori_bounds(0.0981, p)
        assert b.h_min == pytest.approx(0.9, abs=1e-12)
        assert b.h_max == pytest.approx(1.1, abs=1e-12)
        assert b.u_max == pytest.approx(0.458010, abs=1e-5)
        assert [f.name for f in dataclasses.fields(b)] == ["h_min", "h_max", "u_max"]  # |u| <= u_max

    def test_threshold_rejected(self):
        # vacuous at and above the threshold, applicable just below it
        p = Params(g=9.81, gamma=9.81, hbar=1.0)
        for e0 in (p.e_max, np.nextafter(p.e_max, np.inf), 10.0 * p.e_max, np.inf):
            assert a_priori_bounds(e0, p) is None
        assert a_priori_bounds(0.999 * p.e_max, p) is not None

    @given(g=st.floats(0.1, 100.0), gamma=st.floats(0.1, 100.0), hbar=st.floats(0.1, 10.0))
    def test_no_degenerate_bounds_below_threshold_hypothesis(self, g, gamma, hbar):
        # a few ulps below e_max, h_min can round to zero or below: such bounds are vacuous too
        p = Params(g=g, gamma=gamma, hbar=hbar)
        for e0 in (np.nextafter(p.e_max, 0.0), np.nextafter(np.nextafter(p.e_max, 0.0), 0.0)):
            b = a_priori_bounds(e0, p)
            assert b is None or 0.0 < b.h_min < b.h_max and 0.0 < b.u_max < math.inf

    @pytest.mark.parametrize("e0", [-1e-12, float("nan")])
    def test_negative_energy_rejected(self, e0):
        with pytest.raises(ContractViolationError, match="e0 must be nonnegative"):
            a_priori_bounds(e0, Params())

    @given(e0=st.floats(1e-6, 0.99), scale=st.floats(0.1, 10.0))
    def test_bounds_ordering_hypothesis(self, e0, scale):
        p = Params(g=9.81 * scale, gamma=9.81 * scale, hbar=1.0)
        b = a_priori_bounds(e0 * p.e_max, p)
        assert 0.0 < b.h_min < p.hbar < b.h_max < 2 * p.hbar
        assert b.u_max > 0


class TestBoundsHoldOverRun:
    def test_gaussian_run_respects_bounds(self):
        # a-priori bounds checked against an actual simulation
        from sgnlab.dynamics import StepControl, simulate

        p = Params(g=9.81, gamma=9.81, hbar=1.0)
        g = Grid.from_length(512, 40.0, -20.0, "periodic")
        x = g.cells()
        s0 = FlowState(1.0 + 0.05 * np.exp(-(x**2)), np.zeros(g.n), 0.0)
        hist = simulate(s0, p, g, StepControl(cfl=0.3, dt_max=0.1, t_end=2.0))
        b = a_priori_bounds(hist.e0, p)
        tol_h = 1e-4 * p.hbar
        tol_u = 1e-4 * b.u_max + 1e-8
        assert np.min(hist.series["min_h"]) >= b.h_min - tol_h
        assert np.max(hist.series["max_h"]) <= b.h_max + tol_h
        assert np.max(hist.series["max_abs_u"]) <= b.u_max + tol_u
