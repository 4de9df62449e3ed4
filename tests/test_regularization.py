import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

from sgnlab import FlowState, Grid, Params
from sgnlab.elliptic import _helmholtz_system, assemble_L, solve_helmholtz, solve_L
from sgnlab.errors import ContractViolationError, ModeError
from sgnlab.grid import derivative
from sgnlab.kinematics import chi, gradients, pq_fields
from sgnlab.regularization import (
    compute_A,
    compute_B,
    compute_reg_fields,
    compute_V1,
)

from conftest import assert_bitwise, convergence_orders, cutoff_reached, dense_matrix


class TestChi:
    def test_above_threshold(self):
        assert chi(-1.0, 0.5) == 0.0

    def test_below_threshold(self):
        assert chi(-3.0, 0.5) == 1.0

    def test_continuous_at_threshold(self):
        assert chi(-2.0, 0.5) == 0.0

    def test_array_input(self):
        z = np.array([-3.0, -2.0, -1.0, 0.0, 5.0])
        out = chi(z, 0.5)
        assert np.allclose(out, [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_requires_positive_epsilon(self):
        for eps in (0.0, -0.0, -1.0, float("nan"), -float("inf")):
            for z in (-1.0, np.array([-3.0, 1.0])):
                with pytest.raises(ContractViolationError):
                    chi(z, eps)

    @given(z=st.floats(-1e6, 1e6, allow_nan=False),
           eps=st.floats(1e-3, 10.0, allow_nan=False))
    def test_bounded_by_square_hypothesis(self, z, eps):
        v = chi(z, eps)
        assert 0.0 <= v <= z * z * (1 + 1e-12) + 1e-300
        if z >= -1.0 / eps:
            assert v == 0.0

    def test_sign_property_bulk(self, rng):
        # z * chi(z) <= 0: the energy production term is never positive
        z = rng.uniform(-100, 100, size=10_000)
        for eps in (0.05, 0.2, 1.0):
            assert np.all(z * chi(z, eps) <= 0.0)
            v = chi(z, eps)
            assert np.all(v >= 0.0) and np.all(v <= z * z)

    @given(z=st.lists(st.floats(allow_nan=False), max_size=64), eps=st.floats(1e-300, 1e300))
    @example(z=[], eps=0.05)
    @example(z=[], eps=0.1)
    @example(z=[], eps=0.2)
    @example(z=[], eps=1.0 / 3.0)
    @example(z=[], eps=0.7)
    @example(z=[], eps=3.0)
    @example(z=[-1e308, 1e308], eps=1e-300)
    @example(z=[-90821017.46178226], eps=134217729.0)
    def test_two_pass_form_pinned_bitwise_hypothesis(self, z, eps):
        # chi squares min(z + 1/eps, 0) in place: bit for bit the where-form, signbits included
        c = 1.0 / eps
        edge = [-c, np.nextafter(-c, -np.inf), np.nextafter(-c, np.inf), 0.0, -0.0]
        zz = np.array(z + edge, dtype=np.float64)
        with np.errstate(over="ignore"):  # squares of huge shifts overflow to inf in both forms
            assert_bitwise(chi(zz, eps), np.where(zz <= -1.0 / eps, (zz + 1.0 / eps) ** 2, 0.0))
            for value in zz[-5:].tolist() + z[:4]:
                out = chi(value, eps)
                assert type(out) is float
                # reference on a one-element array: a float64 scalar's ``** 2`` calls libm pow,
                # which can sit one ulp off the exact square that the array form and chi take
                v = np.array([value], dtype=np.float64)
                assert_bitwise(np.array(out), np.where(v <= -c, (v + c) ** 2, 0.0)[0])

    def test_c1_at_activation(self):
        # finite-difference slope tends to zero approaching the threshold
        eps = 0.5
        zs = -2.0 - np.logspace(-8, -2, 7)
        slopes = (chi(zs + 1e-10, eps) - chi(zs, eps)) / 1e-10
        assert np.max(np.abs(slopes)) < 0.05


def make_line_setup(n=512, gamma=9.81, eps=0.25):
    g = Grid.from_length(n, 40.0, -20.0, "line")
    p = Params(g=9.81, gamma=gamma, hbar=1.0, epsilon=eps)
    return g, p


class TestComputeA:
    def test_inactive_cutoff_gives_zero(self):
        g, p = make_line_setup()
        x = g.cells()
        s = FlowState(np.ones(g.n), np.zeros(g.n))
        P = np.full(g.n, -1.0)
        Q = np.full(g.n, -0.5)
        A, A_x = compute_A(s, chi(P, p.epsilon), chi(Q, p.epsilon), p, g)
        assert np.all(A == 0.0) and np.all(A_x == 0.0)

    def test_odd_bracket_gives_odd_field(self):
        g, p = make_line_setup()
        x = g.cells()
        s = FlowState(np.ones(g.n), np.zeros(g.n))
        # chi(P) - chi(Q) odd about the domain center: P active on the left
        # half, Q mirror-active on the right half
        bump = 2.0 * np.exp(-((np.abs(x) - 5.0) ** 2))
        P = np.where(x < 0, -1.0 / p.epsilon - bump, 0.0)
        Q = np.where(x > 0, -1.0 / p.epsilon - bump[::-1], 0.0)
        A, _ = compute_A(s, chi(P, p.epsilon), chi(Q, p.epsilon), p, g)
        assert np.max(np.abs(A + A[::-1])) <= 1e-10 * np.max(np.abs(A))

    def test_matches_helmholtz_bitwise(self):
        g, p = make_line_setup(eps=0.5)
        x = g.cells()
        h = np.ones(g.n)
        s = FlowState(h, np.zeros(g.n))
        spike = 1.5 * np.exp(-(x**2))
        P = -1.0 / p.epsilon - spike
        Q = np.zeros(g.n)
        r = (p.sqrt_3gamma / 48.0) * (chi(P, p.epsilon) - chi(Q, p.epsilon)) / np.sqrt(h)
        A, A_x = compute_A(s, chi(P, p.epsilon), chi(Q, p.epsilon), p, g)
        a, a_x = solve_helmholtz(r, p, g)
        assert np.array_equal(A, a) and np.array_equal(A_x, a_x)

    def test_constant_source_has_flat_derivative(self):
        # chi(P) = 4, chi(Q) = 0 everywhere: A = rhs/g, and A_x pads with that limit, not with zero
        g = Grid.from_length(64, 20.0, -10.0, "line")
        p = Params(g=9.81, gamma=9.81, hbar=1.0, epsilon=0.25)
        s = FlowState(np.ones(g.n), np.zeros(g.n))
        A, A_x = compute_A(s, np.full(g.n, 4.0), np.zeros(g.n), p, g)
        assert np.max(np.abs(A - (p.sqrt_3gamma / 12.0) / p.g)) <= 1e-14
        assert np.max(np.abs(A_x)) <= 1e-14

    @given(n=st.integers(8, 64), gamma=st.floats(0.1, 30.0), data=st.data())
    def test_limits_rule_hypothesis(self, n, gamma, data):
        # a source with nonzero ends: A's line ghosts and A_x's pads are the source's limits over g
        g = Grid.from_length(n, 20.0, -10.0, "line")
        p = Params(g=9.81, gamma=gamma, hbar=1.0, epsilon=0.25)
        h = data.draw(hnp.arrays(np.float64, n, elements=st.floats(0.5, 2.0)))
        chis = hnp.arrays(np.float64, n, elements=st.floats(0.0, 10.0))
        chiP, chiQ = data.draw(chis), data.draw(chis)
        chiP[0] = chiQ[0] + data.draw(st.floats(0.1, 10.0))
        chiQ[-1] = chiP[-1] + data.draw(st.floats(0.1, 10.0))
        A, A_x = compute_A(FlowState(h, np.zeros(n)), chiP, chiQ, p, g)
        rhs = (p.sqrt_3gamma / 48.0) * (chiP - chiQ) / np.sqrt(h)
        limits = (rhs[0] / p.g, rhs[-1] / p.g)
        assert_bitwise(A_x, derivative(A, g, limits))
        sys = _helmholtz_system(p, g)
        b = rhs.copy()
        b[0] += sys.faces[0] * limits[0]
        b[-1] += sys.faces[-1] * limits[1]
        dense = np.linalg.solve(dense_matrix(sys), b)
        assert np.max(np.abs(A - dense)) <= 1e-12 * np.max(np.abs(dense))


@pytest.mark.parametrize("which", ["A", "B"])
def test_state_of_another_grid_rejected(which):
    g, p = make_line_setup(n=128)
    other = Grid.from_length(129, 40.0, -20.0, "line")
    s = FlowState(np.ones(other.n), np.zeros(other.n))
    z = np.zeros(other.n)
    with pytest.raises(ContractViolationError):
        if which == "A":
            compute_A(s, z, z, p, g)
        else:
            compute_B(s, z, z, z, z, g, assemble_L(s.h, other, p.hbar))


class TestComputeV1:
    def test_zero_when_inactive(self):
        g, p = make_line_setup()
        s = FlowState(np.ones(g.n), np.zeros(g.n))
        z = np.zeros(g.n)
        v1 = compute_V1(s, z, z, z, z, g, assemble_L(s.h, g, p.hbar))
        assert np.all(v1 == 0.0)

    def test_mode_error_on_periodic(self):
        g = Grid.from_length(128, 10.0, 0.0, "periodic")
        p = Params(epsilon=0.1)
        s = FlowState(np.ones(g.n), np.zeros(g.n))
        z = np.zeros(g.n)
        with pytest.raises(ModeError):
            compute_V1(s, z, z, z, z, g, assemble_L(s.h, g))

    def test_decays_toward_boundaries(self):
        g, p = make_line_setup(n=1024)
        x = g.cells()
        h = 1.0 + 0.05 * np.exp(-(x**2))
        u = 0.1 * np.exp(-(x**2))
        s = FlowState(h, u)
        A = 0.3 * np.exp(-(x**2) / 4.0)
        A_x = derivative(A, g)
        chiP = 4.0 * np.exp(-(x**2))
        chiQ = np.zeros(g.n)
        v1 = compute_V1(s, derivative(u, g), A_x, chiP, chiQ, g, assemble_L(h, g, p.hbar))
        edge = max(np.max(np.abs(v1[:4])), np.max(np.abs(v1[-4:])))
        assert edge <= 1e-6 * np.max(np.abs(v1))

    def test_self_convergence(self):
        diffs = []
        prev = None
        for n in (512, 1024, 2048):
            g = Grid.from_length(n, 40.0, -20.0, "line")
            p = Params(g=9.81, gamma=9.81, hbar=1.0, epsilon=0.25)
            x = g.cells()
            h = 1.0 + 0.05 * np.exp(-(x**2))
            u = 0.1 * np.sin(x) * np.exp(-(x**2) / 4)
            s = FlowState(h, u)
            A = 0.3 * np.exp(-(x**2) / 4.0)
            v1 = compute_V1(s, derivative(u, g), derivative(A, g), 4.0 * np.exp(-(x**2)),
                            np.zeros(g.n), g, assemble_L(h, g, p.hbar))
            if prev is not None:
                diffs.append(np.max(np.abs(0.5 * (v1[::2] + v1[1::2]) - prev)))
            prev = v1
        assert convergence_orders(diffs)[0] >= 1.5


class TestComputeB:
    def test_zero_when_inactive(self):
        g, p = make_line_setup()
        s = FlowState(np.ones(g.n), np.zeros(g.n))
        z = np.zeros(g.n)
        b = compute_B(s, z, z, z, z, g, assemble_L(s.h, g, p.hbar))
        assert np.all(b == 0.0)

    def test_finite_on_active_state(self):
        g, p = make_line_setup(n=1024)
        x = g.cells()
        h = 1.0 + 0.05 * np.exp(-(x**2))
        u = 0.1 * np.exp(-(x**2))
        s = FlowState(h, u)
        A_x = derivative(0.3 * np.exp(-(x**2) / 4.0), g)
        b = compute_B(s, derivative(u, g), A_x, 4.0 * np.exp(-(x**2)), np.zeros(g.n), g,
                          assemble_L(h, g, p.hbar))
        assert np.all(np.isfinite(b)) and np.max(np.abs(b)) > 0

    def test_self_convergence(self):
        diffs = []
        prev = None
        for n in (512, 1024, 2048):
            g = Grid.from_length(n, 40.0, -20.0, "line")
            p = Params(g=9.81, gamma=9.81, hbar=1.0, epsilon=0.25)
            x = g.cells()
            h = 1.0 + 0.05 * np.exp(-(x**2))
            u = 0.1 * np.sin(x) * np.exp(-(x**2) / 4)
            s = FlowState(h, u)
            A_x = derivative(0.3 * np.exp(-(x**2) / 4.0), g)
            b = compute_B(s, derivative(u, g), A_x, 4.0 * np.exp(-(x**2)), np.zeros(g.n), g,
                          assemble_L(h, g, p.hbar))
            if prev is not None:
                diffs.append(np.max(np.abs(0.5 * (b[::2] + b[1::2]) - prev)))
            prev = b
        assert convergence_orders(diffs)[0] >= 1.5


class TestOrchestration:
    def test_inactive_returns_none(self):
        g, p = make_line_setup(eps=0.1)
        x = g.cells()
        h = 1.0 + 0.01 * np.exp(-(x**2))
        s = FlowState(h, np.zeros(g.n))
        P, Q = pq_fields(s, p, g)
        assert not cutoff_reached(P, Q, p.epsilon)
        assert gradients(s, p, g).cutoff is None
        assert compute_reg_fields(s, p, g) is None

    def test_epsilon_zero_never_active(self, rng):
        # a state far past any threshold: at eps = 0 the bundle says no without forming P and Q
        g, p = make_line_setup(n=64, eps=0.0)
        s = FlowState(np.ones(g.n), rng.uniform(-1e6, 0.0, g.n))
        d = gradients(s, p, g)
        assert d.cutoff is None and "pq" not in vars(d)
        assert cutoff_reached(*pq_fields(s, p, g), 1.0)  # the same state reaches -1 at eps = 1
        assert compute_reg_fields(s, p, g) is None

    def test_active_fields_all_finite(self):
        g, p = make_line_setup(n=1024, eps=0.2)
        x = g.cells()
        h = 1.0 + 0.2 * np.exp(-(x**2))
        u = -6.0 * np.tanh(x) * np.exp(-(x**2) / 9)  # u_x(0) = -6: P and Q reach -1/eps
        s = FlowState(h, u)
        d = gradients(s, p, g)
        sys = assemble_L(h, g, p.hbar)
        fields = compute_reg_fields(s, p, g)
        assert fields is not None and d.cutoff is not None
        A_x, b_flux = fields
        chiP, chiQ = d.cutoff
        A, A_x_direct = compute_A(s, chiP, chiQ, p, g)
        assert np.array_equal(A_x, A_x_direct)
        # B's source has one home: compute_B solves over the flux the stepper folds in
        B = compute_B(s, d.ux, A_x, chiP, chiQ, g, sys)
        assert np.array_equal(B, solve_L(sys, -0.5 * s.u * A_x + derivative(b_flux, g)))
        # V1 belongs to the Riccati equations, not to the stepper sources
        v1 = compute_V1(s, d.ux, A_x, chiP, chiQ, g, sys)
        for v in (A, A_x, b_flux, B, v1):
            assert np.all(np.isfinite(v))
        P, Q = d.pq
        assert np.all(chiP >= 0) and np.all(chiQ >= 0)
        assert np.all(chiP <= P**2) and np.all(chiQ <= Q**2)
        assert np.max(chiP) > 0.0 and np.max(chiQ) > 0.0

    def test_periodic_activation_matches_line(self):
        # the stepper sources need no primitive: an active cut-off works on a
        # periodic grid and, for a localized state, agrees with line mode
        g = Grid.from_length(128, 10.0, 0.0, "periodic")
        p = Params(epsilon=0.5)
        s = FlowState(np.ones(g.n), np.zeros(g.n))
        assert compute_reg_fields(s, p, g) is None
        p = Params(epsilon=1.0)
        fields = {}
        for mode in ("periodic", "line"):
            g = Grid.from_length(256, 40.0, -20.0, mode)
            x = g.cells()
            s = FlowState(1.0 + 0.1 * np.exp(-(x**2)), -2.0 * x * np.exp(-(x**2)))
            A_x, b_flux = compute_reg_fields(s, p, g)
            d = gradients(s, p, g)
            chiP, chiQ = d.cutoff
            B = compute_B(s, d.ux, A_x, chiP, chiQ, g, assemble_L(s.h, g, p.hbar))
            fields[mode] = {"A": compute_A(s, chiP, chiQ, p, g)[0], "A_x": A_x, "b_flux": b_flux, "B": B,
                            "chiP": chiP, "chiQ": chiQ}
        for name in fields["line"]:
            per, line = fields["periodic"][name], fields["line"][name]
            assert np.max(np.abs(line)) > 0.0
            assert np.max(np.abs(per - line)) <= 1e-8 * np.max(np.abs(line))
