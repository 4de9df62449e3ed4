"""The configuration contract: every value the format can state survives the
echo, typos and malformed values are rejected, and nothing is silently dropped."""

import math
import pathlib

import pytest
from hypothesis import example, given, strategies as st

from sgnlab import Grid, Params, scenarios
from sgnlab.cli import main
from sgnlab.config import config_echo, parse_config, parse_config_text
from sgnlab.diagnostics import Box
from sgnlab.dynamics import BlowupThresholds, StepControl
from sgnlab.errors import ConfigError
from sgnlab.scenarios import CHECKS, ScenarioConfig

CONFIGS = sorted((pathlib.Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))

_REAL = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(1e-6, 1e6)
_FILE = st.from_regex(r"[a-z0-9_/%]{1,12}\.csv", fullmatch=True)


def _boxes(g: Grid):
    """``None`` or a comparison box valid on ``g``: finite 0 <= t1 < t2 and x_left <= a < b <= x_right."""
    if not g.x_left < g.x_right:  # a far-off origin can absorb the whole length in rounding
        return st.none()

    def pairs(elements):
        return st.lists(elements, min_size=2, max_size=2, unique=True).map(sorted)

    times = pairs(st.floats(0.0, allow_infinity=False))
    return st.none() | st.builds(lambda t, x: Box(*t, *x), times, pairs(st.floats(g.x_left, g.x_right)))


@st.composite
def scenario_configs(draw):
    """Random valid configurations, including every optional left as ``None``."""
    mode = draw(st.sampled_from(("periodic", "line")))
    kind = draw(st.sampled_from(("flat", "gaussian", "custom", "sine" if mode == "periodic" else "steep")))
    switches = draw(st.sets(st.sampled_from(CHECKS)))
    if kind != "sine":
        switches.discard("dispersion")
    thresholds = st.builds(BlowupThresholds, _POSITIVE, _POSITIVE, st.none() | _POSITIVE)
    params = Params(g=draw(_POSITIVE), gamma=draw(_POSITIVE), hbar=draw(_POSITIVE),
                    epsilon=draw(st.floats(0.0, 1.0)))
    grid = Grid(n=draw(st.integers(8, 10**6)), dx=draw(_POSITIVE), x_left=draw(_REAL), mode=mode)
    # a sine scenario's wavenumbers are resolved modes 2 pi m / L, 1 <= m <= n/2 - 1
    modes = st.integers(1, grid.n // 2 - 1).map(lambda m: 2.0 * math.pi * m / grid.length)
    return ScenarioConfig(
        params=params,
        grid=grid,
        step=StepControl(cfl=draw(st.floats(1e-3, 1.0)), dt_max=draw(_POSITIVE),
                         t_end=draw(st.floats(0.0, 1e3)), output_every=draw(st.integers(0, 100)),
                         output_dt=draw(st.none() | _POSITIVE), dt_fixed=draw(st.none() | _POSITIVE),
                         farfield_rtol=draw(_POSITIVE)),
        kind=kind,
        amplitude=draw(_REAL),
        width=draw(_POSITIVE),
        center=draw(_REAL),
        wavenumbers=tuple(draw(st.lists(modes if kind == "sine" else _REAL, min_size=1, max_size=4))),
        plateau=draw(st.none() | _POSITIVE),
        mollifier_epsilon=draw(st.floats(0.0, 10.0)),
        target_energy=draw(st.none() | _POSITIVE),
        file=draw(_FILE if kind == "custom" else st.none() | _FILE),
        expect_blowup=draw(st.booleans()),
        checks=tuple(name for name in CHECKS if name in switches),  # the order parsing yields
        energy_rtol=draw(_POSITIVE),
        dispersion_rtol=draw(_POSITIVE),
        oleinik_C=draw(st.none() | st.floats(0.0, allow_infinity=False)),
        # parsing builds thresholds whenever the blow-up check is on
        blowup=draw(thresholds if "blowup" in switches else st.none() | thresholds),
        box=draw(_boxes(grid)),
        sweep_mollifier_tied=draw(st.booleans()),
    )


def _cfg(**kw):
    base = dict(params=Params(), grid=Grid.from_length(256, 40.0, -20.0, "line"),
                step=StepControl(), kind="gaussian", amplitude=0.05)
    base.update(kw)
    return ScenarioConfig(**base)


class TestEchoRoundTrip:
    @given(cfg=scenario_configs())
    @example(cfg=_cfg())
    @example(cfg=_cfg(sweep_mollifier_tied=False))
    @example(cfg=_cfg(sweep_mollifier_tied=False, box=Box(0.1, 0.5, -4.0, 6.0)))
    @example(cfg=_cfg(blowup=BlowupThresholds(55.0, 4.8)))
    @example(cfg=_cfg(checks=("blowup",), blowup=BlowupThresholds(55.0, 4.8, 0.3)))
    @example(cfg=_cfg(kind="custom", file="run%1.csv"))
    def test_echo_reproduces_config(self, cfg):
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

    def test_untied_mollifier_without_box_echoed(self):
        text = self.SWEEP.read_text().split("[sweep]")[0] + "[sweep]\ntie_mollifier = false\n"
        cfg = parse_config_text(text)
        assert cfg.box is None and cfg.sweep_mollifier_tied is False
        assert parse_config_text(config_echo(cfg)) == cfg

    def test_thresholds_kept_without_blowup_check(self, monkeypatch):
        cfg = parse_config(str(self.BLOWUP), ["checks.blowup=false"])
        assert "blowup" not in cfg.checks and cfg.expect_blowup
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

    @pytest.mark.parametrize("drop", [("box_b",), ("box_t2", "box_a", "box_b")])
    def test_partial_box_rejected(self, drop):
        text = self.SWEEP.read_text()
        text = "\n".join(line for line in text.splitlines() if not line.startswith(drop))
        with pytest.raises(ConfigError, match="box"):
            parse_config_text(text)

    @pytest.mark.parametrize("override", ["grid.n=2048.9", "step.output_every=2.7"])
    def test_non_integer_rejected(self, override):
        with pytest.raises(ConfigError, match="not an integer"):
            parse_config(str(self.SWEEP), [override])

    def test_integral_float_accepted(self):
        cfg = parse_config(str(self.SWEEP), ["grid.n=1024.0", "step.output_every=3.0"])
        assert cfg.grid.n == 1024 and type(cfg.grid.n) is int
        assert cfg.step.output_every == 3 and type(cfg.step.output_every) is int

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
