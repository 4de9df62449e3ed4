import signal

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.extra import numpy as hnp

from sgnlab import Grid, Params, dynamics, elliptic, grid, kinematics

# derandomized: every run draws the same examples, so a run's outcome never depends on an earlier one
settings.register_profile("suite", max_examples=50, deadline=None, derandomize=True)
settings.load_profile("suite")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Arm ``@pytest.mark.time_limit(seconds)``: a test still running after ``seconds`` of wall time
    fails from a ``SIGALRM``, so a run that never ends fails its test instead of hanging the session."""
    marker = item.get_closest_marker("time_limit")
    if marker is None:
        yield
        return
    seconds = marker.args[0]

    def expire(signum, frame):
        pytest.fail(f"still running after its time limit of {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def periodic_grid():
    return Grid.from_length(256, 2.0 * np.pi, 0.0, "periodic")


@pytest.fixture
def line_grid():
    return Grid.from_length(512, 40.0, -20.0, "line")


@pytest.fixture
def params():
    return Params(g=9.81, gamma=9.81, hbar=1.0, epsilon=0.0)


def smooth_periodic_field(g, rng, kmax=6, amplitude=1.0):
    """Random band-limited field on a periodic grid."""
    x = g.cells()
    f = np.zeros(g.n)
    for k in range(1, kmax + 1):
        a, b = rng.standard_normal(2) / k**2
        f += a * np.cos(2 * np.pi * k * x / g.length) + b * np.sin(2 * np.pi * k * x / g.length)
    return amplitude * f


def bump_field(g, rng=None, width=3.0, amplitude=1.0, center=None):
    """Smooth compactly-decaying field for line-mode tests."""
    x = g.cells()
    c = 0.5 * (g.x_left + g.x_right) if center is None else center
    return amplitude * np.exp(-(((x - c) / width) ** 2))


def dense_matrix(sys):
    """The flux-form system as a dense matrix (line ghosts left out)."""
    f = sys.faces
    A = np.diag(sys.order0 + f[1:] + f[:-1])
    A -= np.diag(f[1:-1], -1)
    A -= np.diag(f[1:-1], 1)
    if sys.periodic:
        A[0, -1] = -f[0]
        A[-1, 0] = -f[0]
    return A


def convergence_orders(errors):
    e = np.asarray(errors, dtype=float)
    return list(np.log2(e[:-1] / e[1:]))


def count_derivative_calls(monkeypatch) -> list:
    """Count every call of the derivative kernel, through the public ``derivative`` or not."""
    real = grid._derivative
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for mod in (grid, dynamics, elliptic, kinematics):
        monkeypatch.setattr(mod, "_derivative", counting)
    return calls


def kernel_fields(n: int, positive: bool = False):
    """Random fields of length ``n`` whose values mix magnitudes from 1e-6 to 1e6
    with subnormals and (unless ``positive``) both signs and signed zeros."""
    values = st.floats(1e-6, 1e6) | st.sampled_from((5e-324, 1e-310, 2.2250738585072009e-308))
    if not positive:
        values = values | values.map(lambda v: -v) | st.sampled_from((0.0, -0.0))
    return hnp.arrays(np.float64, n, elements=values)


def cutoff_reached(P: np.ndarray, Q: np.ndarray, epsilon: float) -> bool:
    """The paper's activation test, written here apart from ``Gradients.cutoff``:
    eps > 0 and some gradient invariant at or below ``-1/eps``."""
    return epsilon > 0.0 and bool(min(P.min(), Q.min()) <= -1.0 / epsilon)


def assert_bitwise(actual: np.ndarray, expected: np.ndarray) -> None:
    """Equal bit for bit: signed zeros must agree too."""
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()
