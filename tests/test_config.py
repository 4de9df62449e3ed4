"""The configuration contract: every value the format can state survives the
echo, typos and malformed values are rejected, and nothing is silently dropped."""

import math
import os
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from sgnlab import Grid, Params, scenarios
from sgnlab.cli import main
from sgnlab.config import _SCHEMA, config_echo, parse_config, parse_config_text
from sgnlab.diagnostics import Box, dispersion_omega
from sgnlab.dynamics import BlowupThresholds, StepControl
from sgnlab.errors import ConfigError, SgnError
from sgnlab.scenarios import CHECKS, ScenarioConfig

CONFIGS = sorted((pathlib.Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))

_REAL = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(1e-6, 1e6)
_FILE = st.from_regex(r"[a-z0-9_/%]{1,12}\.csv", fullmatch=True)


def _boxes(g: Grid):
    """``None`` or a comparison box valid on ``g``: finite 0 <= t1 < t2, and
    x_left <= a <= x_i <= x_j <= b <= x_right with a < b around cell centres x_i, x_j."""
    x = g.cells()
    times = st.lists(st.floats(0.0, allow_infinity=False), min_size=2, max_size=2, unique=True).map(sorted)
    centres = st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2).map(sorted)
    sides = centres.flatmap(lambda ij: st.tuples(st.floats(g.x_left, x[ij[0]]), st.floats(x[ij[1]], g.x_right)))
    return st.none() | st.builds(lambda t, ab: Box(*t, *ab), times, sides.filter(lambda ab: ab[0] < ab[1]))


@st.composite
def scenario_settings(draw):
    """Random settings of a ``ScenarioConfig``, including every optional left as ``None``; each
    is valid, but a gaussian or steep center may lie too far from the grid (``_profile_overflows``)."""
    mode = draw(st.sampled_from(("periodic", "line")))
    kind = draw(st.sampled_from(("flat", "gaussian", "custom", "sine" if mode == "periodic" else "steep")))
    switches = draw(st.sets(st.sampled_from(CHECKS)))
    if kind != "sine":
        switches.discard("dispersion")
    expect_blowup = draw(st.booleans())
    thresholds = st.builds(BlowupThresholds, _POSITIVE, _POSITIVE)
    params = Params(g=draw(_POSITIVE), gamma=draw(_POSITIVE), hbar=draw(_POSITIVE),
                    epsilon=draw(st.floats(0.0, 1.0)))
    n, dx = draw(st.integers(8, 10**6)), draw(_POSITIVE)
    # an origin whose grid float64 resolves to a thousandth of a cell: spacing(x) <= eps |x| on [x_left, x_right]
    reach = 2.5e-4 * dx / np.finfo(float).eps
    grid = Grid(n=n, dx=dx, x_left=draw(st.floats(-reach, reach)), mode=mode)
    # a sine scenario's wavenumbers are resolved modes 2 pi m / L, 1 <= m <= n/2 - 1
    modes = st.integers(1, grid.n // 2 - 1).map(lambda m: 2.0 * math.pi * m / grid.length)
    wavenumbers = tuple(draw(st.lists(modes if kind == "sine" else _REAL, min_size=1, max_size=4)))
    t_end, output_dt = draw(st.floats(0.0, 1e3)), draw(st.none() | _POSITIVE)
    if "dispersion" in switches:  # snapshots that resolve every mode: 3 or more, each gap * omega < pi
        t_end = draw(st.floats(1e-3, 1e3))
        resolved = math.pi / max(dispersion_omega(k, params) for k in wavenumbers)
        output_dt = draw(st.floats(0.01, 0.99)) * min(t_end, resolved)
    return dict(
        params=params,
        grid=grid,
        step=StepControl(cfl=draw(st.floats(1e-3, 1.0)), dt_max=draw(_POSITIVE), t_end=t_end,
                         output_dt=output_dt, dt_fixed=draw(st.none() | _POSITIVE),
                         farfield_rtol=draw(_POSITIVE)),
        kind=kind,
        amplitude=draw(_REAL),
        width=draw(_POSITIVE),
        center=draw(_REAL),
        wavenumbers=wavenumbers,
        plateau=draw(st.none() | _POSITIVE),
        # a mollifier is at most the grid length, and far wider than the smallest normal float in cells
        mollifier_epsilon=draw(st.just(0.0) | st.floats(1e-6, min(10.0, grid.length))),
        target_energy=draw(st.none() | _POSITIVE),
        file=draw(_FILE if kind == "custom" else st.none() | _FILE),
        expect_blowup=expect_blowup,
        checks=tuple(name for name in CHECKS if name in switches),  # the order parsing yields
        energy_rtol=draw(_POSITIVE),
        dispersion_rtol=draw(_POSITIVE),
        oleinik_C=draw(st.none() | st.floats(0.0, allow_infinity=False)),
        # thresholds only where the blow-up monitor runs; None there takes the defaults
        blowup=draw(st.none() | thresholds) if "blowup" in switches or expect_blowup else None,
        box=draw(_boxes(grid)),
    )


def _settings(**kw):
    base = dict(params=Params(), grid=Grid.from_length(256, 40.0, -20.0, "line"),
                step=StepControl(), kind="gaussian", amplitude=0.05)
    base.update(kw)
    return base


def _cfg(**kw):
    return ScenarioConfig(**_settings(**kw))


def _profile_overflows(settings: dict) -> bool:
    """Whether a gaussian or steep profile's arithmetic overflows on some cell of the grid,
    computed here on every cell, apart from the rule that refuses such a center."""
    x, c, w = settings["grid"].cells(), settings["center"], settings["width"]
    half = 4.0 * w if settings["plateau"] is None else settings["plateau"]
    with np.errstate(over="raise"):
        try:
            if settings["kind"] == "gaussian":
                (x - c) ** 2 / w**2
            else:
                (x - c + half) / w, (x - c - half) / w
        except FloatingPointError:
            return True
    return False


def _record_outgrows_memory(settings: dict) -> bool:
    """Whether the least record a run keeps reaches the physical memory: 96 bytes a series row, at least
    ``t_end / dt_fixed`` or ``t_end / min(dt_max, cfl dx / (3 g gamma)^(1/4))`` of them, or 16 n bytes a
    snapshot, ``t_end / output_dt`` of them; computed here in numpy, apart from the rule that refuses it."""
    step, p, g = settings["step"], settings["params"], settings["grid"]
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        longest = step.cfl * g.dx / np.float64(3.0 * p.g * p.gamma) ** 0.25
        rows = step.t_end / np.float64(step.dt_fixed or min(step.dt_max, longest))
        snapshots = 0.0 if step.output_dt is None else step.t_end / np.float64(step.output_dt)
    return bool(96.0 * rows >= memory or 16.0 * g.n * snapshots >= memory)


class TestEchoRoundTrip:
    @given(settings=scenario_settings())
    @example(settings=_settings())
    @example(settings=_settings(box=Box(0.1, 0.5, -4.0, 6.0)))
    @example(settings=_settings(expect_blowup=True))
    @example(settings=_settings(expect_blowup=True, blowup=BlowupThresholds(55.0, 4.8)))
    @example(settings=_settings(checks=("blowup",), blowup=BlowupThresholds(55.0, math.inf)))
    @example(settings=_settings(kind="custom", file="run%1.csv"))
    def test_echo_reproduces_config(self, settings):
        try:
            cfg = ScenarioConfig(**settings)
        except ConfigError as exc:  # the two refusals a drawn setting meets
            if str(exc).startswith("center"):
                assert str(exc).startswith(f"center {settings['center']:g} is too far from the grid")
                assert settings["kind"] in ("gaussian", "steep") and _profile_overflows(settings)
            else:
                assert str(exc).startswith("the run would keep at least") and _record_outgrows_memory(settings)
            return
        assert not _record_outgrows_memory(settings)
        if cfg.kind in ("gaussian", "steep"):
            scenarios._shape(cfg, 0.0)  # an overflow would warn, and a warning fails the suite
        assert parse_config_text(config_echo(cfg)) == cfg

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_shipped_config(self, path, capsys):
        cfg = parse_config(str(path))
        assert parse_config_text(config_echo(cfg)) == cfg
        assert main(["check", "--config", str(path)]) == 0
        assert "OK" in capsys.readouterr().out


class TestNothingSilentlyDropped:
    SWEEP = CONFIGS[0].parent / "steep_sweep.cfg"
    BLOWUP = CONFIGS[0].parent / "steep_eps0.cfg"

    def test_empty_sweep_section_not_echoed(self):
        text = self.SWEEP.read_text().split("[sweep]")[0] + "[sweep]\n"
        cfg = parse_config_text(text)
        assert cfg.box is None and "[sweep]" not in config_echo(cfg)
        assert parse_config_text(config_echo(cfg)) == cfg

    def test_thresholds_kept_without_blowup_check(self, monkeypatch):
        # an expected blow-up switches the monitor on whatever [checks] blowup says
        cfg = parse_config(str(self.BLOWUP), ["checks.blowup=false"])
        assert "blowup" in cfg.checks and cfg.expect_blowup
        assert cfg.blowup == BlowupThresholds(ux=55.0, hx=4.8)
        # the run monitors with the configured thresholds, not the defaults
        seen = []

        def stop(s0, p, g, c, blowup=None):
            seen.append(blowup)
            raise ConfigError("stop before stepping")

        monkeypatch.setattr(scenarios, "simulate", stop)
        with pytest.raises(ConfigError, match="stop before stepping"):
            scenarios.run_scenario(cfg)
        assert seen == [BlowupThresholds(ux=55.0, hx=4.8)]

    def test_expected_blowup_echoes_its_monitor(self):
        # the echo states the check and the thresholds the run monitors with
        cfg = parse_config(str(CONFIGS[0].parent / "flat.cfg"), ["scenario.expect_blowup=true"])
        assert "blowup" in cfg.checks and cfg.blowup == BlowupThresholds()
        echo = config_echo(cfg)
        assert "blowup = true\n" in echo
        assert "ux_threshold = 1000\n" in echo and "hx_threshold = 1000\n" in echo

    @pytest.mark.parametrize("drop", [("box_b",), ("box_t2", "box_a", "box_b")])
    def test_partial_box_rejected(self, drop):
        text = self.SWEEP.read_text()
        text = "\n".join(line for line in text.splitlines() if not line.startswith(drop))
        with pytest.raises(ConfigError, match="box"):
            parse_config_text(text)

    @pytest.mark.parametrize("override", ["grid.n=2048.9"])
    def test_non_integer_rejected(self, override):
        with pytest.raises(ConfigError, match="not an integer"):
            parse_config(str(self.SWEEP), [override])

    def test_integral_float_accepted(self):
        cfg = parse_config(str(self.SWEEP), ["grid.n=1024.0"])
        assert cfg.grid.n == 1024 and type(cfg.grid.n) is int

    def test_grid_without_n_exits_two(self, tmp_path, capsys):
        path = tmp_path / "no_n.cfg"
        path.write_text(self.SWEEP.read_text().replace("n = 2048\n", ""))
        with pytest.raises(ConfigError, match=r"\[grid\] needs n"):
            parse_config(str(path))
        assert main(["check", "--config", str(path)]) == 2
        assert "error: [grid] needs n" in capsys.readouterr().err


class TestRefusals:
    """Every malformed entry is a ConfigError, which the CLI reports as one ``error:`` line, exit 2."""

    FLAT = CONFIGS[0].parent / "flat.cfg"

    @pytest.mark.parametrize("override, message", [
        ("params.g=abc", "not a number"),
        ("scenario.wavenumber=,", "not a number list"),
        ("checks.energy=maybe", "not a boolean"),
        ("grid_n=3", "must look like section.key=value"),
        ("grid.wavelength=3", r"unknown keys in \[grid\]"),
    ])
    def test_malformed_override_exit_two(self, override, message, capsys):
        with pytest.raises(ConfigError, match=message):
            parse_config(str(self.FLAT), [override])
        assert main(["check", "--config", str(self.FLAT), "--override", override]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_grid_section_rejected(self):
        text = self.FLAT.read_text()
        text = text[:text.index("[grid]")] + text[text.index("[scenario]"):]
        with pytest.raises(ConfigError, match=r"needs a \[grid\] section"):
            parse_config_text(text)

    def test_unreadable_config_exit_two(self, tmp_path, capsys):
        assert main(["check", "--config", str(tmp_path / "missing.cfg")]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read config")


class TestPercentInValues:
    """A ``%`` is an ordinary character in a value, not an interpolation."""

    FLAT = CONFIGS[0].parent / "flat.cfg"

    def test_check_accepts_percent(self, tmp_path, capsys):
        path = tmp_path / "percent.cfg"
        path.write_text(self.FLAT.read_text().replace("kind = flat\n", "kind = flat\nfile = run%1.csv\n"))
        assert parse_config(str(path)).file == "run%1.csv"
        assert main(["check", "--config", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_override_accepts_percent(self):
        assert parse_config(str(self.FLAT), ["scenario.file=run%1.csv"]).file == "run%1.csv"


def test_unknown_check_name_rejected():
    with pytest.raises(ConfigError, match="energie"):
        _cfg(checks=("energie",))


class TestRangeRule:
    """One rule, ``errors.check_ranges``, decides every numeric setting's range and words its refusal."""

    @pytest.mark.parametrize("build, message", [
        (lambda: Grid(n=64, dx=math.inf), "dx must be positive and finite, got inf"),
        (lambda: Grid(n=64, dx=0.1, x_left=math.nan), "x_left must be finite, got nan"),
        (lambda: Params(gamma=0.0), "gamma must be positive and finite, got 0.0"),
        (lambda: Params(epsilon=-1.0), "epsilon must be nonnegative and finite, got -1.0"),
        (lambda: StepControl(dt_max=math.inf), "dt_max must be positive and finite, got inf"),
        (lambda: StepControl(t_end=-1.0), "t_end must be nonnegative and finite, got -1.0"),
        (lambda: _cfg(width=math.nan), "width must be positive and finite, got nan"),
        (lambda: _cfg(oleinik_C=math.inf), "oleinik_C must be nonnegative and finite, got inf"),
        (lambda: _cfg(wavenumbers=(1.0, -math.inf)), r"wavenumbers must be finite, got \(1.0, -inf\)"),
        (lambda: Grid(n=64, dx=1e155), "dx must have a square above the smallest normal float and below infinity, "
                                        r"got 1e\+155"),
        (lambda: Params(hbar=1e-200), "hbar must have a square above the smallest normal float and below infinity, "
                                      "got 1e-200"),
    ])
    def test_refusal_wording(self, build, message):
        with pytest.raises(SgnError, match=f"^{message}$"):
            build()


def test_every_key_is_documented():
    # the README's configuration paragraph names each key the format accepts
    readme = (CONFIGS[0].parent.parent / "README.md").read_text(encoding="utf-8")
    assert [key for table in _SCHEMA.values() for key in table if f"`{key}`" not in readme] == []
