import contextlib
import io
import json
import math
import os
import pathlib
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.ndimage import gaussian_filter1d  # the reference for the mollifier's bits

from sgnlab import FlowState, Grid, Params, cli, scenarios
from sgnlab.cli import main
from sgnlab.config import config_echo, parse_config, parse_config_text
from sgnlab.diagnostics import Box, lp_box_norm
from sgnlab.dynamics import SERIES_COLUMNS, SimHistory, StepControl
from sgnlab.errors import ConfigError, ContractViolationError, SgnError
from sgnlab.grid import integrate
from sgnlab.io import write_run_artifact, write_series_csv, write_snapshot_csv
from sgnlab.kinematics import pq_fields, riemann_invariants, total_energy
from sgnlab.scenarios import (
    ScenarioConfig,
    build_initial,
    epsilon_sweep,
    l2_box_difference,
    run_scenario,
)

BASE_CFG = """
[params]
g = 9.81
gamma = 9.81
hbar = 1.0
epsilon = 0.0

[grid]
n = 256
length = 40.0
x_left = -20.0
mode = periodic

[scenario]
kind = gaussian
amplitude = 0.05
width = 1.0
center = 0.0

[step]
cfl = 0.3
dt_max = 0.05
t_end = 0.2
output_dt = 0.1

[checks]
energy = true
energy_rtol = 1e-4
"""


CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def shipped_run(tmp_path_factory):
    """``sgnlab run`` of a shipped config, made once per config for the module: ``(exit code, stdout, out dir)``."""
    runs = {}

    def run(name: str):
        if name not in runs:
            out_dir, stdout = tmp_path_factory.mktemp(name) / "o", io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(["run", "--config", str(CONFIGS / f"{name}.cfg"), "--out", str(out_dir)])
            runs[name] = code, stdout.getvalue(), out_dir
        return runs[name]

    return run


def default_cfg(**kw):
    base = dict(
        params=Params(),
        grid=Grid.from_length(256, 40.0, -20.0, "periodic"),
        step=StepControl(cfl=0.3, dt_max=0.05, t_end=0.2),
        kind="gaussian", amplitude=0.05, width=1.0,
    )
    base.update(kw)
    return ScenarioConfig(**base)


class TestBuildInitial:
    def test_flat(self):
        cfg = default_cfg(kind="flat", amplitude=0.0)
        s = build_initial(cfg)
        assert np.all(s.h == 1.0) and np.all(s.u == 0.0)

    def test_gaussian_energy_flag(self):
        cfg = default_cfg()
        s = build_initial(cfg)
        e0 = total_energy(s, cfg.params, cfg.grid)
        assert 0 < e0 < cfg.params.e_max  # a = 0.05, w = 1 sits below threshold

    def test_sine_right_moving_pair(self):
        g = Grid.from_length(256, 4 * np.pi, 0.0, "periodic")
        cfg = default_cfg(kind="sine", amplitude=1e-3, wavenumbers=(1.0,), grid=g)
        s = build_initial(cfg)
        x = g.cells()
        assert np.allclose(s.h, 1.0 + 1e-3 * np.sin(x))
        assert np.allclose(s.u, 1e-3 * math.sqrt(9.81) * np.sin(x))

    def test_sine_requires_periodic(self):
        with pytest.raises(ConfigError):
            default_cfg(kind="sine", grid=Grid.from_length(256, 40.0, -20.0, "line"))

    def test_steep_minus_invariant_constant(self):
        g = Grid.from_length(512, 40.0, -20.0, "line")
        cfg = default_cfg(kind="steep", amplitude=0.3, width=0.3, grid=g,
                          step=StepControl(cfl=0.2, dt_max=0.05, t_end=0.1))
        s = build_initial(cfg)
        R, S = riemann_invariants(s, cfg.params)
        s_ref = -2.0 * cfg.params.sqrt_3gamma / math.sqrt(cfg.params.hbar)
        assert np.max(np.abs(S - s_ref)) < 1e-12

    def test_steep_requires_line(self):
        with pytest.raises(ConfigError):
            default_cfg(kind="steep")

    def test_epsilon_accepted_on_periodic_grid(self):
        cfg = default_cfg(params=Params(epsilon=0.1))
        assert cfg.grid.periodic and build_initial(cfg).h.shape == (cfg.grid.n,)

    def test_target_energy_tuning(self):
        cfg = default_cfg(target_energy=0.0981)
        s = build_initial(cfg)
        assert total_energy(s, cfg.params, cfg.grid) == pytest.approx(0.0981, rel=1e-9)

    def test_mollified_energy_monotone_toward_unmollified(self):
        g = Grid.from_length(1024, 40.0, -20.0, "line")
        base = default_cfg(kind="steep", amplitude=0.3, width=0.2, grid=g,
                           step=StepControl(cfl=0.2, dt_max=0.05, t_end=0.1))
        e_exact = total_energy(build_initial(base), base.params, g)
        energies = []
        for mol in (0.4, 0.2, 0.1):
            cfg = default_cfg(kind="steep", amplitude=0.3, width=0.2, grid=g,
                              step=base.step, mollifier_epsilon=mol)
            energies.append(total_energy(build_initial(cfg), cfg.params, g))
        assert energies[0] < energies[1] < energies[2] < e_exact
        assert abs(energies[-1] - e_exact) < 0.2 * e_exact

    def test_mollification_preserves_mass(self):
        g = Grid.from_length(512, 40.0, -20.0, "line")
        plain = default_cfg(kind="gaussian", grid=g,
                            step=StepControl(cfl=0.3, dt_max=0.05, t_end=0.1))
        smeared = default_cfg(kind="gaussian", grid=g, mollifier_epsilon=0.3,
                              step=plain.step)
        m0 = integrate(build_initial(plain).h, g)
        m1 = integrate(build_initial(smeared).h, g)
        assert m1 == pytest.approx(m0, rel=1e-12)

    @given(periodic=st.booleans(), n=st.integers(8, 300), sigma=st.floats(1e-5, 36.0), seed=st.integers(0, 2**32 - 1))
    @example(periodic=False, n=64, sigma=0.04, seed=1)  # radius 0: 6 sigma / dx = 0.43 cells
    @example(periodic=True, n=64, sigma=18.0, seed=2)  # radius 192 on a 64-cell circle
    @example(periodic=False, n=2048, sigma=0.2, seed=3)  # the README sweep's radii: 68, 34 and 17 cells
    @example(periodic=False, n=2048, sigma=0.1, seed=4)
    @example(periodic=False, n=2048, sigma=0.05, seed=5)
    def test_mollify_is_ndimage_gaussian_bitwise(self, periodic, n, sigma, seed):
        g = Grid.from_length(n, 36.0, -16.0, "periodic" if periodic else "line")
        pert = np.random.default_rng(seed).standard_normal(n)
        ref = gaussian_filter1d(pert, sigma / g.dx, mode="wrap" if periodic else "constant", truncate=6.0)
        assert scenarios._mollify(pert, g, sigma).tobytes() == ref.tobytes()

    def test_custom_file(self, tmp_path):
        g = Grid.from_length(256, 40.0, -20.0, "line")
        x = g.cells()
        path = tmp_path / "state.csv"
        h = 1.0 + 0.01 * np.exp(-(x**2))
        u = np.zeros(g.n)
        with open(path, "w") as fh:
            fh.write("x,h,u\n")
            for row in zip(x, h, u):
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        cfg = default_cfg(kind="custom", file=str(path), grid=g,
                          step=StepControl(cfl=0.3, dt_max=0.05, t_end=0.1))
        s = build_initial(cfg)
        assert np.allclose(s.h, h)


class TestScenarioConfig:
    @pytest.mark.parametrize("field", ["energy_rtol", "dispersion_rtol", "oleinik_C"])
    def test_nan_tolerance_rejected(self, field):
        # a NaN oleinik_C would count no violations and pass silently
        with pytest.raises(ConfigError, match=field):
            default_cfg(**{field: float("nan")})

    @pytest.mark.parametrize("value", [math.inf, -math.inf, -1.0, 0.0])
    @pytest.mark.parametrize("field", ["energy_rtol", "dispersion_rtol"])
    def test_rtol_must_be_positive_and_finite(self, field, value):
        # an infinite tolerance passes every run; a non-positive one fails every run
        with pytest.raises(ConfigError, match=field):
            default_cfg(**{field: value})

    @pytest.mark.parametrize("value", [math.inf, -math.inf, -1.0])
    def test_oleinik_constant_must_be_finite_and_nonnegative(self, value):
        with pytest.raises(ConfigError, match="oleinik_C"):
            default_cfg(oleinik_C=value)

    def test_zero_oleinik_constant_accepted(self):
        assert default_cfg(oleinik_C=0.0).oleinik_C == 0.0

    @pytest.mark.parametrize("field, value", [
        ("amplitude", math.inf), ("amplitude", math.nan),
        ("center", math.inf), ("center", -math.inf), ("center", math.nan),
        ("wavenumbers", (1.0, math.inf)), ("wavenumbers", (math.nan,)),
        ("width", -1.0), ("width", 0.0), ("width", math.inf), ("width", math.nan),
        ("plateau", -1.0), ("plateau", 0.0), ("plateau", math.inf), ("plateau", math.nan),
        ("target_energy", -1.0), ("target_energy", 0.0), ("target_energy", math.inf), ("target_energy", math.nan),
        ("mollifier_epsilon", -1.0), ("mollifier_epsilon", math.inf), ("mollifier_epsilon", math.nan),
    ])
    def test_shape_value_out_of_range_rejected(self, field, value):
        # a negative plateau turns a steep dip into a bump; an infinite centre runs a flat state
        with pytest.raises(ConfigError, match=field):
            default_cfg(**{field: value})

    def test_shape_values_in_range_accepted(self):
        cfg = default_cfg(amplitude=-0.45, center=-3.0, wavenumbers=(-1.0, 0.0), width=1e-3, plateau=1e-3,
                          target_energy=1e-9, mollifier_epsilon=0.0)
        assert cfg.plateau == 1e-3 and cfg.mollifier_epsilon == 0.0


class TestCsvBytes:
    """The CSV writers format every row with one ``%``; the bytes are ``np.savetxt``'s."""

    SPECIAL = np.array([-0.0, 0.0, 5e-324, -1e-310, 2.2250738585072009e-308, np.inf, -np.inf, np.nan,
                        1.0 / 3.0, -2.5e300, 1e-6, 123456789.0])

    @staticmethod
    def savetxt_bytes(columns):
        buf = io.StringIO()
        np.savetxt(buf, np.column_stack(columns), fmt="%.17g", delimiter=",")
        return buf.getvalue()

    def test_series_csv_matches_savetxt(self, tmp_path):
        rng = np.random.default_rng(3)
        columns = [rng.permutation(self.SPECIAL) for _ in SERIES_COLUMNS]
        hist = SimHistory(grid=Grid.from_length(16, 1.0), params=Params(), control=StepControl(),
                          series=dict(zip(SERIES_COLUMNS, columns)))
        path = tmp_path / "series.csv"
        write_series_csv(hist, str(path))
        assert path.read_text() == ",".join(SERIES_COLUMNS) + "\n" + self.savetxt_bytes(columns)

    def test_series_columns_keep_their_order(self):
        # columns are only appended: a reader of an older series.csv finds each of its columns in place
        assert SERIES_COLUMNS[:12] == ("t", "mass", "energy", "min_h", "min_ux", "max_abs_hx", "sup_P", "sup_Q",
                                       "max_h", "max_abs_u", "max_abs_ux", "diss_rate")

    def test_snapshot_csv_matches_savetxt(self, tmp_path):
        g = Grid.from_length(16, 8.0, -4.0, "line")
        u = np.resize(self.SPECIAL[np.isfinite(self.SPECIAL)], g.n)
        s = FlowState(1.0 + 1e-6 * np.arange(g.n), u, -0.0)
        hist = SimHistory(grid=g, params=Params(), control=StepControl(), snapshots=[s])
        path = tmp_path / "snap.csv"
        write_snapshot_csv(hist, 0, str(path))
        P, Q = pq_fields(s, hist.params, g)
        expected = "# t = -0\nx,h,u,P,Q\n" + self.savetxt_bytes([g.cells(), s.h, s.u, P, Q])
        assert path.read_text() == expected


class TestRunScenario:
    def test_flat_run_passes(self):
        art = run_scenario(default_cfg(kind="flat", amplitude=0.0, checks=("energy",)))
        assert art.passed
        assert np.all(art.history.series["energy"] == 0.0)

    def test_reports_selected_by_checks(self):
        art = run_scenario(default_cfg(checks=("energy", "bounds", "oleinik")))
        assert set(art.reports) == {"energy", "bounds", "oleinik"}

    def test_determinism(self):
        cfg = default_cfg()
        a1 = run_scenario(cfg)
        a2 = run_scenario(cfg)
        assert np.array_equal(a1.history.snapshots[-1].h, a2.history.snapshots[-1].h)
        assert np.array_equal(a1.history.series["energy"], a2.history.series["energy"])


class TestSummarySchema:
    """The ordered keys of each report in summary.json: renaming a report field fails here."""

    REPORTS = {
        "energy": ["e_initial", "e_final", "mass_initial", "mass_final", "dissipation_integral",
                   "budget_residual", "verdicts"],
        "bounds": ["status", "e0", "e_max", "h_min", "h_max", "u_max", "margins", "verdicts"],
        "oleinik": ["fitted_C", "normalization_h", "bound_form", "violations", "user_C"],
        "blowup": ["expected", "triggered", "trigger_time", "trigger_code", "final_min_ux", "final_max_abs_hx",
                   "final_min_h"],
        "dispersion": ["rtol", "modes"],
    }

    def test_report_keys(self, tmp_path):
        k = 2.0 * math.pi * 4 / 40.0  # four periods of the 40-long domain
        cfgs = {"checks": default_cfg(checks=("energy", "bounds", "oleinik", "blowup"), oleinik_C=1.0),
                "sine": default_cfg(kind="sine", amplitude=1e-4, wavenumbers=(k,), checks=("dispersion",),
                                    step=StepControl(cfl=0.3, dt_max=0.05, t_end=0.2, output_dt=0.1))}
        reports = {}
        for name, cfg in cfgs.items():
            write_run_artifact(run_scenario(cfg), str(tmp_path / name))
            with open(tmp_path / name / "summary.json") as fh:
                reports.update(json.load(fh)["reports"])
        assert {name: list(rep) for name, rep in reports.items()} == self.REPORTS
        for name in ("energy", "bounds"):
            assert all(list(v) == ["pass", "value", "tol"] for v in reports[name]["verdicts"].values())
        assert list(reports["dispersion"]["modes"][0]) == ["k", "measured", "predicted", "rel_err", "status", "pass"]


class TestSweep:
    def test_epsilons_validated(self):
        cfg = default_cfg(grid=Grid.from_length(256, 40.0, -20.0, "line"),
                          kind="gaussian")
        with pytest.raises(ConfigError):
            epsilon_sweep(cfg, [0.1, 0.2])
        with pytest.raises(ConfigError):
            epsilon_sweep(cfg, [0.1, 0.0])
        res = epsilon_sweep(default_cfg(), [0.2, 0.1])  # periodic grids sweep too
        assert [a.history.status for a in res.artifacts] == ["completed", "completed"]
        assert [a.config.params.epsilon for a in res.artifacts] == [0.2, 0.1]

    @pytest.mark.parametrize("epsilons, message", [([0.2, math.nan], "sweep epsilons must all be positive"),
                                                   ([0.1, 1e-320], "mollifier_epsilon must be 0 or")],
                             ids=["nan", "mollifier"])
    def test_every_member_refused_before_any_runs(self, monkeypatch, epsilons, message):
        def refuse(*args, **kwargs):
            raise AssertionError("a member ran before the sweep refused a later one")

        monkeypatch.setattr(scenarios, "simulate", refuse)
        with pytest.raises(ConfigError, match=message):
            epsilon_sweep(default_cfg(), epsilons)

    def test_box_difference_needs_one_grid(self):
        runs = [run_scenario(default_cfg(grid=Grid.from_length(n, 40.0, -20.0, "periodic"),
                                         step=StepControl(t_end=0.0))).history for n in (256, 128)]
        with pytest.raises(ConfigError, match="different grids"):
            l2_box_difference(*runs, Box(0.0, 0.0, -5.0, 5.0))

    @pytest.mark.parametrize("t1", [0.1, 0.0], ids=["after-the-runs", "at-their-end"])
    def test_box_difference_needs_a_nonempty_window(self, t1):
        # both runs end at t = 0, so a box up to t2 = 0.5 holds times they never recorded
        runs = [run_scenario(default_cfg(step=StepControl(t_end=0.0))).history for _ in range(2)]
        with pytest.raises(ConfigError, match=r"reaches outside the times \[0.0, 0.0\]"):
            l2_box_difference(*runs, Box(t1, 0.5, -5.0, 5.0))

    def test_box_difference_starts_at_the_first_snapshots(self):
        # before the first snapshot, interpolation would clamp to the initial data
        runs = [run_scenario(default_cfg(step=StepControl(cfl=0.3, dt_max=0.05, t_end=0.1))).history
                for _ in range(2)]
        with pytest.raises(ConfigError, match=r"reaches outside the times \[0.0, 0.1\]"):
            l2_box_difference(*runs, Box(-1.0, 0.1, -5.0, 5.0))
        assert l2_box_difference(*runs, Box(0.0, 0.1, -5.0, 5.0)) == (0.0, 0.0)

    @pytest.mark.parametrize("box, why", [(Box(0.0, 0.1, 0.001, 0.002), "holds no cell centre"),
                                          (Box(0.05, 0.3, -5.0, 5.0), "reaches outside the times")],
                             ids=["between-cell-centres", "past-the-runs"])
    def test_both_norms_refuse_a_box_that_does_not_fit(self, box, why):
        # dx = 0.156 puts the cell centres nearest 0 at +-0.078; the runs end at t = 0.1
        runs = [run_scenario(default_cfg(step=StepControl(cfl=0.3, dt_max=0.05, t_end=0.1, output_dt=0.01))).history
                for _ in range(2)]
        with pytest.raises(ConfigError, match=why):
            l2_box_difference(*runs, box)
        with pytest.raises(ContractViolationError, match=why):
            lp_box_norm(runs[0], 0.5, box)

    @given(data=st.data())
    def test_norms_refuse_exactly_the_boxes_a_sweep_refuses(self, data):
        # on histories spanning [0, t_end], a box is refused for its range or its cells by both
        # norms exactly when a sweep to t_end refuses it
        g = Grid(n=data.draw(st.integers(8, 48)), dx=data.draw(st.floats(0.01, 1.0)),
                 x_left=data.draw(st.floats(-10.0, 10.0)), mode=data.draw(st.sampled_from(("periodic", "line"))))
        t_end = data.draw(st.floats(0.1, 10.0))
        hist = SimHistory(g, Params(), StepControl(t_end=t_end),
                          [FlowState(np.ones(g.n), np.zeros(g.n), t) for t in np.linspace(0.0, t_end, 11)])
        x = g.cells()
        near = st.builds(lambda i, f: float(x[i] + f * g.dx), st.integers(0, g.n - 1), st.floats(-0.6, 0.6))
        wide = st.floats(g.x_left - 0.1 * g.length, g.x_right + 0.1 * g.length)
        a = data.draw(near | wide | st.sampled_from((g.x_left, math.nan)))
        b = data.draw(st.floats(-0.2, 1.5).map(lambda w: a + w * g.dx) | wide | st.just(g.x_right))
        t1 = data.draw(st.floats(-0.1 * t_end, 1.1 * t_end) | st.sampled_from((0.0, -1e-10, math.nan)))
        t2 = data.draw(st.floats(1e-3, 1.0).map(lambda w: t1 + w * t_end)
                       | st.sampled_from((t_end, t_end * (1.0 + 1e-10), math.inf)))
        box = Box(t1, t2, a, b)

        def refused(call) -> bool:
            try:
                call()
            except RuntimeError:  # the sweep accepted the box and started its first member
                return False
            except SgnError as exc:  # a box too short for lp_box_norm's time differences still fits
                return "at least 3 snapshots" not in str(exc)
            return False

        def sweep():
            cfg = ScenarioConfig(params=Params(), grid=g, step=StepControl(t_end=t_end), kind="flat", box=box)
            with mock.patch.object(scenarios, "run_scenario", side_effect=RuntimeError):
                epsilon_sweep(cfg, [0.04, 0.02])  # mollifiers that fit every drawn grid (length >= 0.08)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # lp_box_norm warns on coarse time sampling
            lp = refused(lambda: lp_box_norm(hist, 0.5, box))
        assert refused(lambda: l2_box_difference(hist, hist, box)) == lp == refused(sweep)

    def test_quiescent_sweep_differences_at_mollification_level(self):
        # no cut-off activity: runs differ only through the mollified data
        g = Grid.from_length(512, 40.0, -20.0, "line")
        cfg = default_cfg(kind="gaussian", amplitude=0.01, grid=g,
                          step=StepControl(cfl=0.3, dt_max=0.05, t_end=0.3),
                          box=Box(0.05, 0.25, -5.0, 5.0))
        res = epsilon_sweep(cfg, [0.2, 0.1])
        assert all(row["comparable"] for row in res.table)
        assert res.table[0]["dh_l2"] < 0.01  # mollifier-difference level


class TestConfigParsing:
    def test_round_trip(self):
        cfg = parse_config_text(BASE_CFG)
        assert cfg.kind == "gaussian"
        assert cfg.grid.n == 256
        assert cfg.step.t_end == 0.2
        assert cfg.energy_rtol == 1e-4
        echo = config_echo(cfg)
        cfg2 = parse_config_text(echo)
        assert cfg2 == cfg  # the echo reproduces the run exactly

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text(BASE_CFG + "\n[grid]\nwavelength = 3\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text(BASE_CFG + "\n[plasma]\nq = 3\n")

    def test_override(self):
        cfg = parse_config_text(BASE_CFG, overrides=["step.t_end=0.5", "params.gamma=3.27"])
        assert cfg.step.t_end == 0.5
        assert cfg.params.gamma == 3.27

    def test_mode_mismatch_caught(self):
        with pytest.raises(ConfigError):
            parse_config_text(BASE_CFG, overrides=["scenario.kind=steep"])

    def test_grid_requires_one_of_length_dx(self):
        bad = BASE_CFG.replace("length = 40.0", "length = 40.0\ndx = 0.1")
        with pytest.raises(ConfigError):
            parse_config_text(bad)


class TestCli:
    def write_cfg(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return str(path)

    def test_check_command(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, BASE_CFG)
        assert main(["check", "--config", path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_check_command_bad_config(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, BASE_CFG + "\n[plasma]\nq=1\n")
        assert main(["check", "--config", path]) == 2

    @pytest.mark.time_limit(10)
    def test_run_flat_exit_zero(self, tmp_path, capsys):
        text = BASE_CFG.replace("kind = gaussian", "kind = flat")
        path = self.write_cfg(tmp_path, text)
        out_dir = str(tmp_path / "out")
        assert main(["run", "--config", path, "--out", out_dir]) == 0
        out = capsys.readouterr().out
        assert "[PASS] energy" in out
        assert os.path.exists(os.path.join(out_dir, "series.csv"))
        assert os.path.exists(os.path.join(out_dir, "summary.json"))
        assert os.path.exists(os.path.join(out_dir, "run.cfg"))
        with open(os.path.join(out_dir, "summary.json")) as fh:
            summary = json.load(fh)
        assert summary["status"] == "completed"
        assert summary["verdicts"]["energy"] is True
        assert summary["e0"] == 0.0 and summary["bounds_applicable"] is True
        # flat run: energy series identically zero
        series = np.genfromtxt(os.path.join(out_dir, "series.csv"),
                               delimiter=",", names=True)
        assert np.all(series["energy"] == 0.0)

    def test_run_emits_snapshot_schema(self, tmp_path):
        path = self.write_cfg(tmp_path, BASE_CFG)
        out_dir = str(tmp_path / "out")
        assert main(["run", "--config", path, "--out", out_dir]) == 0
        with open(os.path.join(out_dir, "snap_0000.csv")) as fh:
            fh.readline()  # "# t = ..." comment
            header = fh.readline().strip()
        assert header == "x,h,u,P,Q"

    def test_run_deterministic_outputs(self, tmp_path):
        path = self.write_cfg(tmp_path, BASE_CFG)
        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["run", "--config", path, "--out", d1]) == 0
        assert main(["run", "--config", path, "--out", d2]) == 0
        for name in ("series.csv", "snap_0001.csv"):
            with open(os.path.join(d1, name)) as f1, open(os.path.join(d2, name)) as f2:
                assert f1.read() == f2.read()

    @pytest.mark.time_limit(10)
    def test_usage_error_exit_two(self):
        assert main(["run"]) == 2

    @pytest.mark.time_limit(10)
    def test_nonfinite_override_exit_two(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, BASE_CFG)
        out_dir = tmp_path / "o"
        assert main(["run", "--config", path, "--override", "step.t_end=nan", "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith("error: t_end")
        assert not out_dir.exists()

    @pytest.mark.parametrize("overrides, message", [
        (["checks.energy_rtol=nan"], "error: energy_rtol"),
        (["checks.blowup=true", "checks.ux_threshold=nan", "checks.hx_threshold=0.01"],
         "error: blow-up threshold ux"),
    ])
    @pytest.mark.time_limit(10)
    def test_nan_check_setting_exit_two(self, tmp_path, capsys, overrides, message):
        path = self.write_cfg(tmp_path, BASE_CFG)
        out_dir = tmp_path / "o"
        args = [a for o in overrides for a in ("--override", o)]
        assert main(["run", "--config", path, *args, "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not out_dir.exists()

    @pytest.mark.parametrize("override, message", [
        ("checks.energy_rtol=inf", "error: energy_rtol"),
        ("checks.energy_rtol=-1", "error: energy_rtol"),
        ("checks.dispersion_rtol=-inf", "error: dispersion_rtol"),
        ("checks.oleinik_c=inf", "error: oleinik_C"),
        ("checks.oleinik_c=-1", "error: oleinik_C"),
    ])
    @pytest.mark.time_limit(10)
    def test_unbounded_tolerance_exit_two(self, tmp_path, capsys, override, message):
        path = self.write_cfg(tmp_path, BASE_CFG)
        out_dir = tmp_path / "o"
        assert main(["run", "--config", path, "--override", override, "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not out_dir.exists()

    @pytest.mark.parametrize("config, override, message", [
        ("steep_eps01.cfg", "scenario.mollifier_epsilon=inf", "error: mollifier_epsilon"),
        ("steep_eps01.cfg", "scenario.target_energy=nan", "error: target_energy"),
        ("steep_eps01.cfg", "scenario.plateau=-1", "error: plateau"),
        ("steep_eps01.cfg", "scenario.width=-1", "error: width"),
        ("steep_eps01.cfg", "scenario.amplitude=inf", "error: amplitude"),
        ("gaussian_energy.cfg", "scenario.center=inf", "error: center"),
        ("dispersion_b3.cfg", "scenario.wavenumber=1,inf", "error: wavenumbers"),
        ("gaussian_energy.cfg", "grid.length=inf", "error: dx must be positive and finite, got inf"),
        ("gaussian_energy.cfg", "grid.x_left=-inf", "error: x_left must be finite, got -inf"),
        ("gaussian_energy.cfg", "step.dt_max=inf", "error: dt_max must be positive and finite, got inf"),
        # finite values the arithmetic that uses them cannot take: each once ended in a traceback
        ("gaussian_energy.cfg", "scenario.width=1e200", "error: width must have a square above the smallest normal"),
        ("gaussian_energy.cfg", "scenario.width=1e-160", "error: width must have a square above the smallest normal"),
        ("gaussian_energy.cfg", "scenario.mollifier_epsilon=1e-300", "error: mollifier_epsilon must be 0 or"),
        ("gaussian_energy.cfg", "scenario.mollifier_epsilon=1e300", "error: mollifier_epsilon must be 0 or"),
        ("gaussian_energy.cfg", "grid.length=1e-300", "error: dx must have a square above the smallest normal"),
        ("gaussian_energy.cfg", "grid.length=1e308", "error: dx must have a square above the smallest normal"),
        ("gaussian_energy.cfg", "params.hbar=1e-200", "error: hbar must have a square above the smallest normal"),
        # refused before anything is allocated: h and u alone would take 1.6 TB
        ("gaussian_energy.cfg", "grid.n=100000000000",
         "error: grid needs an integer n >= 8 cells whose h and u fit in physical memory"),
        # a slope threshold <= 0 fires on a flat state
        ("flat.cfg", "checks.ux_threshold=-1", "error: blow-up threshold ux must be positive"),
        ("flat.cfg", "checks.hx_threshold=0", "error: blow-up threshold hx must be positive"),
        ("flat.cfg", "checks.ux_threshold=-inf", "error: blow-up threshold ux must be positive"),
        # the depth floor has one source, dynamics.depth_floor: no key sets it
        ("flat.cfg", "checks.depth_threshold=0.3", "error: unknown keys in [checks]: ['depth_threshold']"),
        # thresholds that no monitor reads
        ("flat.cfg", "checks.ux_threshold=5", "error: blow-up thresholds are given but [checks] blowup is off"),
        # refused by the scenario or while building the initial state: ``check`` refuses what ``run`` refuses
        ("flat.cfg", "scenario.kind=cnoidal", "error: unknown scenario kind"),
        ("flat.cfg", "scenario.kind=custom", "error: custom scenarios need a file"),
        ("gaussian_energy.cfg", "checks.dispersion=true", "error: the dispersion check needs a sine scenario"),
        ("dispersion_b3.cfg", "scenario.wavenumber=1.1", "error: wavenumber 1.1 does not fit"),
        # n = 512 on a 4 pi domain: the mode index is 2k, resolved for 1 <= 2k <= 255
        ("dispersion_b3.cfg", "scenario.wavenumber=0", "error: wavenumber 0.0 does not fit"),
        ("dispersion_b3.cfg", "scenario.wavenumber=-1", "error: wavenumber -1.0 does not fit"),
        ("dispersion_b3.cfg", "scenario.wavenumber=128", "error: wavenumber 128.0 does not fit"),
        ("steep_sweep.cfg", "scenario.amplitude=-1.5", "error: steep amplitude drives the depth non-positive"),
        ("flat.cfg", "scenario.target_energy=0.1", "error: cannot tune a flat scenario"),
        ("gaussian_energy.cfg", "scenario.target_energy=1e300", "error: target energy unreachable"),
        ("gaussian_energy.cfg", "scenario.target_energy=1e-30",
         "error: target energy 1e-30 unreachable: amplitude 5e-10 already gives more"),
        # a center whose offset from the grid overflows the profile: a warning and a flat state before
        ("gaussian_energy.cfg", "scenario.center=1e308", "error: center 1e+308 is too far from the grid"),
        ("gaussian_energy.cfg", "grid.x_left=1e308", "error: grid x_left = 1e+308, x_right = 1e+308: float64 cannot"),
        # cell centres that collapse in float64: a uniform depth run and passed, or numpy warnings and exit 2
        ("gaussian_energy.cfg", "grid.x_left=1e17", "error: grid x_left = 1e+17, x_right = 1e+17: float64 cannot"),
        ("dispersion_b3.cfg", "grid.x_left=-1e308", "error: grid x_left = -1e+308, x_right = -1e+308: float64"),
        ("steep_sweep.cfg", "scenario.center=1e308", "error: center 1e+308 is too far from the grid"),
        # a representable center whose profile leaves every cell at (hbar, 0): a flat run that passed
        ("gaussian_energy.cfg", "scenario.center=1e6",
         "error: the gaussian profile of amplitude 0.05 at center 1e+06 leaves every cell at (hbar, 0)"),
        ("steep_sweep.cfg", "scenario.center=1e6",
         "error: the steep profile of amplitude -0.45 at center 1e+06 leaves every cell at (hbar, 0)"),
        # a record that cannot fit in physical memory: check said OK and run never finished
        ("gaussian_energy.cfg", "params.gamma=1e300", "error: the run would keep at least 3.98e+74 rows"),
        ("gaussian_energy.cfg", "params.gamma=1e308", "error: the run would keep at least inf rows"),
        ("gaussian_energy.cfg", "step.output_dt=1e-300", "error: the run would keep at least 0.703 rows of 96 bytes "
                                                         "and 2e+297 snapshots"),
        ("gaussian_energy.cfg", "step.dt_fixed=1e-300", "error: the run would keep at least 2e+297 rows"),
    ])
    @pytest.mark.time_limit(10)
    def test_nonfinite_shape_or_grid_exit_two(self, tmp_path, capsys, config, override, message):
        path = pathlib.Path(__file__).resolve().parent.parent / "configs" / config
        out_dir = tmp_path / "o"
        args = ["--config", str(path), "--override", "step.t_end=0.002", "--override", override]
        assert main(["run", *args, "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not out_dir.exists()
        assert main(["check", *args]) == 2
        assert "OK" not in capsys.readouterr().out

    @pytest.mark.parametrize("overrides, message", [
        (["step.t_end=0"], "error: the phase speed of wavenumber 1 needs at least 3 snapshots, the run keeps 1"),
        (["step.output_dt="], "error: the phase speed of wavenumber 1 needs at least 3 snapshots, the run keeps 2"),
        (["step.output_dt=1.5"], "error: snapshots 1.5 apart alias wavenumber 1: dt * omega = 4.7 >= pi"),
        # the first output lands within the run's end tolerance, so the run ends there
        (["grid.n=128", "step.t_end=0.1", "step.output_dt=0.09999999999999"],
         "error: the phase speed of wavenumber 1 needs at least 3 snapshots, the run keeps 2"),
    ], ids=["one-snapshot", "two-snapshots", "aliased", "output-within-end-tolerance"])
    @pytest.mark.time_limit(10)
    def test_dispersion_snapshots_that_cannot_measure_exit_two(self, tmp_path, capsys, overrides, message):
        # check once said OK here, and run could only report three unmeasured modes
        args = ["--config", str(CONFIGS / "dispersion_b3.cfg"), *(a for o in overrides for a in ("--override", o))]
        assert main(["run", *args, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not (tmp_path / "o").exists()
        assert main(["check", *args]) == 2
        check = capsys.readouterr()
        assert check.err.startswith(message) and "OK" not in check.out

    @pytest.mark.parametrize("content", [None, "x,h,u\n1,one,0\n", "x,h,u\n0,1,0\n1,1,0\n", "x,h,u\n"],
                             ids=["missing", "non-numeric", "wrong-shape", "empty"])
    @pytest.mark.time_limit(10)
    def test_unreadable_custom_file_exit_two(self, tmp_path, capsys, content):
        path = tmp_path / "state.csv"
        if content is not None:
            path.write_text(content)
        cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" / "gaussian_energy.cfg"
        overrides = ["scenario.kind=custom", f"scenario.file={path}"]
        with pytest.raises(ConfigError, match="custom file"):
            build_initial(parse_config(str(cfg), overrides))
        args = ["--config", str(cfg), "--override", overrides[0], "--override", overrides[1]]
        with warnings.catch_warnings(record=True) as caught:  # numpy's warning on the empty file is the error
            warnings.simplefilter("always")
            assert main(["run", *args, "--out", str(tmp_path / "o")]) == 2
            run_err = capsys.readouterr().err
            assert main(["check", *args]) == 2
        assert [str(w.message) for w in caught] == []
        for err in (run_err, capsys.readouterr().err):  # one line each: the error, nothing before it
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("x_left, length", [(-20.0 + 7.3, 40.0), (-5.0, 10.0)], ids=["shifted", "narrower"])
    @pytest.mark.time_limit(10)
    def test_custom_file_off_the_grid_exit_two(self, tmp_path, capsys, x_left, length):
        # the x column must be the configured grid's cell centres; a file written
        # for another grid would put its data at the wrong places without a word
        cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" / "gaussian_energy.cfg"
        grid = parse_config(str(cfg)).grid
        path = tmp_path / "state.csv"

        def write(x, fmt):
            h = 1.0 + 0.01 * np.exp(-((x - 7.0) ** 2))
            rows = "".join(f"{fmt % a},{fmt % b},0\n" for a, b in zip(x, h))
            path.write_text("x,h,u\n" + rows)

        overrides = ["scenario.kind=custom", f"scenario.file={path}"]
        write(grid.cells(), "%.8g")  # rounded to 8 digits: within a thousandth of a cell
        assert build_initial(parse_config(str(cfg), overrides)).h.shape == (grid.n,)
        write(Grid.from_length(grid.n, length, x_left, grid.mode).cells(), "%.17g")
        with pytest.raises(ConfigError, match="x column"):
            build_initial(parse_config(str(cfg), overrides))
        args = ["--config", str(cfg), "--override", overrides[0], "--override", overrides[1]]
        assert main(["run", *args, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: custom file x column")
        assert not (tmp_path / "o").exists()
        assert main(["check", *args]) == 2

    @pytest.mark.parametrize("box", [("nan", "0.5", "-4", "6"), ("0.5", "0.1", "-4", "6"),
                                     ("0.1", "0.5", "6", "-4"), ("0.1", "0.5", "-40", "6"),
                                     ("0.1", "inf", "-4", "6"), ("-1", "0.5", "-4", "6")],
                             ids=["nan-t1", "reversed-t", "reversed-x", "outside-grid", "infinite-t2",
                                  "before-the-runs"])
    @pytest.mark.time_limit(10)
    def test_malformed_sweep_box_exit_two(self, tmp_path, capsys, box):
        cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" / "flat.cfg"
        args = ["--config", str(cfg)]
        for key, value in zip(("box_t1", "box_t2", "box_a", "box_b"), box):
            args += ["--override", f"sweep.{key}={value}"]
        out_dir = tmp_path / "sweep"
        assert main(["sweep", *args, "--epsilons", "0.2,0.1", "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith("error: [sweep] box")
        assert not out_dir.exists()
        assert main(["check", *args]) == 2

    @pytest.mark.parametrize("config", ["gaussian_energy.cfg", "steep_sweep.cfg"])
    @pytest.mark.time_limit(10)
    def test_profile_off_the_grid_sweep_exit_two(self, tmp_path, capsys, monkeypatch, config):
        # the first member refuses its initial state before it steps, and nothing is written
        monkeypatch.setattr(scenarios, "simulate", lambda *args, **kw: pytest.fail("a member ran"))
        out_dir = tmp_path / "sweep"
        assert main(["sweep", "--config", str(CONFIGS / config), "--override", "scenario.center=1e6",
                     "--epsilons", "0.2,0.1", "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the ") and err.endswith(" leaves every cell at (hbar, 0): nothing on the grid "
                                                               "would move\n") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_sweep_without_box_needs_positive_t_end(self, tmp_path, capsys):
        # the default box is [0, t_end]: with t_end = 0 the refusal names t_end, not a box never given
        cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" / "flat.cfg"
        out_dir = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--override", "step.t_end=0",
                     "--epsilons", "0.2,0.1", "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith("error: sweep t_end must be > 0")
        assert not out_dir.exists()

    @pytest.mark.time_limit(10)
    def test_sweep_box_from_t_end_on_exit_two(self, tmp_path, capsys, monkeypatch):
        # a box ending after t_end holds times the members never record: the sweep refuses it before any
        # member runs, whether it starts after t_end, at it or before it; check (like run) never reads it
        cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" / "flat.cfg"
        monkeypatch.setattr(scenarios, "run_scenario", lambda cfg: pytest.fail("a member ran"))
        out_dir = tmp_path / "sweep"
        for t_end in ("0.05", "0.1", "0.3"):
            args = ["--config", str(cfg), "--override", f"step.t_end={t_end}"]
            for key, value in (("box_t1", "0.1"), ("box_t2", "0.5"), ("box_a", "-4"), ("box_b", "6")):
                args += ["--override", f"sweep.{key}={value}"]
            assert main(["sweep", *args, "--epsilons", "0.2,0.1", "--out", str(out_dir)]) == 2
            assert capsys.readouterr().err == (f"error: [sweep] box [0.1, 0.5] x [-4.0, 6.0] reaches outside "
                                               f"the times [0.0, {t_end}] it is read on\n")
            assert not out_dir.exists()
            assert main(["check", *args]) == 0

    @pytest.mark.time_limit(10)
    def test_sweep_box_between_cell_centres_exit_two(self, tmp_path, capsys, monkeypatch):
        # at n = 512, dx = 0.0703 and no cell centre lies in [0.001, 0.002]: the box would read zero
        cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" / "steep_sweep.cfg"
        monkeypatch.setattr(scenarios, "run_scenario", lambda cfg: pytest.fail("a member ran"))
        args = ["--config", str(cfg)]
        for override in ("grid.n=512", "step.t_end=0.1", "sweep.box_t1=0", "sweep.box_t2=0.1", "sweep.box_a=0.001",
                         "sweep.box_b=0.002"):
            args += ["--override", override]
        out_dir = tmp_path / "sweep"
        assert main(["sweep", *args, "--epsilons", "0.2,0.1", "--out", str(out_dir)]) == 2
        why = "error: [sweep] box [0.0, 0.1] x [0.001, 0.002] holds no cell centre of the grid (dx = 0.0703125)\n"
        assert capsys.readouterr().err == why
        assert not out_dir.exists()
        assert main(["check", *args]) == 2
        assert capsys.readouterr().err == why

    def test_run_never_reads_the_box(self, tmp_path, capsys):
        # the shipped box (0.1, 0.5) ends after this run's t_end
        cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" / "steep_sweep.cfg"
        assert main(["run", "--config", str(cfg), "--override", "step.t_end=0.002", "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.time_limit(10)
    def test_unusable_out_exit_two_before_running(self, tmp_path, capsys, monkeypatch, command):
        cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" / "flat.cfg"
        monkeypatch.setattr(cli, "run_scenario", lambda cfg: pytest.fail("the run started"))
        monkeypatch.setattr(scenarios, "run_scenario", lambda cfg: pytest.fail("a member ran"))
        blocker = tmp_path / "file"
        blocker.write_text("")
        sweep = ["--epsilons", "0.2,0.1"] if command == "sweep" else []
        assert main([command, "--config", str(cfg), *sweep, "--out", str(blocker / "x")]) == 2
        assert capsys.readouterr().err == (f"error: output directory {blocker / 'x'}: "
                                           f"{blocker} is not a writable directory\n")

    def test_reused_run_directory_holds_one_run(self, tmp_path, capsys):
        cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" / "flat.cfg"
        out_dir = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
        assert (out_dir / "snap_0004.csv").read_text().startswith("# t = 1\n")
        (out_dir / "snap_notes.txt").write_text("not a snapshot")
        assert main(["run", "--config", str(cfg), "--override", "step.t_end=0.3", "--out", str(out_dir)]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["run.cfg", "series.csv", "snap_0000.csv", "snap_0001.csv",
                                                             "snap_0002.csv", "snap_notes.txt", "summary.json"]
        assert (out_dir / "snap_0002.csv").read_text().startswith("# t = 0.29999999999999999\n")

    def test_single_snapshot_mode_is_unmeasured(self, tmp_path, capsys):
        # one snapshot holds no phase drift: each mode prints n/a instead of a least-squares traceback.
        # A config that plans one is refused, so the blow-up pair stops the run at its first state
        overrides = ["checks.blowup=true", "checks.ux_threshold=1e-9", "checks.hx_threshold=1e-9"]
        args = [arg for ov in overrides for arg in ("--override", ov)]
        assert main(["run", "--config", str(CONFIGS / "dispersion_b3.cfg"), *args, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().out.count("measured c=n/a, predicted 3.1321, rel err n/a (off)") == 3

    def test_final_state_is_monitored(self, tmp_path, capsys):
        # the one step's state is the run's last: the blow-up pair still checks it
        cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" / "gaussian_energy.cfg"
        overrides = ["step.t_end=0.002", "checks.blowup=true", "checks.ux_threshold=1e-9", "checks.hx_threshold=1e-9"]
        args = [arg for ov in overrides for arg in ("--override", ov)]
        assert main(["run", "--config", str(cfg), *args, "--out", str(tmp_path / "o")]) == 1
        assert "[FAIL] blowup: triggered at t=0.002 (gradient-pair)" in capsys.readouterr().out

    def test_unmeasured_mode_is_null_in_summary(self, tmp_path, capsys):
        # with no wave there is no phase speed to measure, so no relative error either
        cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" / "dispersion_b3.cfg"
        out_dir = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--override", "scenario.amplitude=0", "--override",
                     "step.t_end=0.3", "--out", str(out_dir)]) == 1
        assert capsys.readouterr().out.count("measured c=n/a, predicted 3.1321, rel err n/a (off)") == 3

        def refuse(constant):
            raise ValueError(f"{constant} is not standard JSON")

        summary = json.loads((out_dir / "summary.json").read_text(), parse_constant=refuse)
        assert [mode["rel_err"] for mode in summary["reports"]["dispersion"]["modes"]] == [None] * 3

    def test_skip_and_detail_lines(self, tmp_path, capsys):
        # above the energy threshold the bounds check is skipped, and the run still passes
        path = self.write_cfg(tmp_path, BASE_CFG + "bounds = true\noleinik = true\n")
        args = ["run", "--config", path, "--out", str(tmp_path / "o"), "--override", "step.t_end=0"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "[PASS] bounds: h_lower: margin=" in out and "[PASS] oleinik: fitted_C=" in out
        assert main([*args, "--override", "scenario.target_energy=10"]) == 0
        assert "[SKIP] bounds: initial energy 10 >= threshold 9.81" in capsys.readouterr().out

    def test_aborted_members_fail_and_are_incomparable(self, tmp_path, capsys):
        # absurdly low thresholds abort every member after its first step
        path = self.write_cfg(tmp_path, BASE_CFG)
        out_dir = tmp_path / "sweep"
        args = ["--override", "checks.blowup=true", "--override", "checks.ux_threshold=1e-12",
                "--override", "checks.hx_threshold=1e-12"]
        assert main(["sweep", "--config", path, *args, "--epsilons", "0.2,0.1", "--out", str(out_dir)]) == 1
        out = capsys.readouterr().out
        assert out.count("[FAIL] completed: aborted: blowup:gradient-pair at t=") == 2
        assert out.count("run aborted at t=") == 2 and "after 1 steps" in out
        assert "pair (0.2, 0.1): incomparable (aborted run)" in out
        with open(out_dir / "sweep_table.csv") as fh:
            assert fh.read().splitlines()[1] == "0.20000000000000001,0.10000000000000001,,,False"

    @pytest.mark.time_limit(10)
    def test_bad_epsilon_list_exit_two(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, BASE_CFG)
        out_dir = tmp_path / "sweep"
        assert main(["sweep", "--config", path, "--epsilons", "0.2,abc", "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith("error: key epsilons = 'abc' is not a number")
        assert not out_dir.exists()

    @pytest.mark.time_limit(10)
    def test_failed_check_exit_one(self, tmp_path, capsys):
        # an impossibly tight tolerance forces an honest FAIL
        text = BASE_CFG.replace("energy_rtol = 1e-4", "energy_rtol = 1e-16")
        path = self.write_cfg(tmp_path, text)
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert "[FAIL] energy" in capsys.readouterr().out

    def test_sweep_command(self, tmp_path, capsys):
        # quiescent plumbing exercise: the per-step energy contract belongs to
        # resolved scenarios (acceptance suite), so no checks here
        text = BASE_CFG.replace("mode = periodic", "mode = line")
        text = text.replace("amplitude = 0.05", "amplitude = 0.01")
        text = text.replace("energy = true", "energy = false")
        text += "\n[sweep]\nbox_t1 = 0.05\nbox_t2 = 0.15\nbox_a = -5\nbox_b = 5\n"
        path = self.write_cfg(tmp_path, text)
        out_dir = str(tmp_path / "sweep")
        assert main(["sweep", "--config", path, "--epsilons", "0.2,0.1", "--out", out_dir]) == 0
        assert os.path.exists(os.path.join(out_dir, "sweep_table.csv"))
        assert os.path.exists(os.path.join(out_dir, "eps_0.2", "summary.json"))
        with open(os.path.join(out_dir, "sweep_summary.json")) as fh:
            summary = json.load(fh, parse_constant=lambda constant: pytest.fail(f"{constant} in the JSON"))
        assert summary["epsilons"] == [0.2, 0.1]
        assert all(math.isfinite(run["e0"]) for run in summary["runs"])

    def test_reused_sweep_directory_holds_one_sweep(self, tmp_path, capsys):
        # a second sweep into the same directory removes the first one's members it does not
        # write, and only those: directories named SWEEP_LABEL of a float that hold a summary.json
        cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" / "flat.cfg"
        out_dir = tmp_path / "sweep"
        args = ["sweep", "--config", str(cfg), "--override", "step.t_end=0.05", "--out", str(out_dir)]
        assert main([*args, "--epsilons", "0.2,0.1"]) == 0
        for name in ("eps_0.10", "eps_0.05", "eps_x", "notes"):  # not members: kept
            (out_dir / name).mkdir()
            if name != "eps_0.05":
                (out_dir / name / "summary.json").write_text("{}\n")
        (out_dir / "eps_1e-05").write_text("a file, not a member\n")
        assert main([*args, "--epsilons", "0.3,0.2"]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "eps_0.05", "eps_0.10", "eps_0.2", "eps_0.3", "eps_1e-05", "eps_x", "notes",
            "sweep_summary.json", "sweep_table.csv"]
        with open(out_dir / "sweep_summary.json") as fh:
            assert json.load(fh)["epsilons"] == [0.3, 0.2]

    @pytest.mark.parametrize("config, overrides, message", [
        ("steep_sweep.cfg", ["scenario.center=-15"], "error: far field contaminated"),
        ("flat.cfg", ["scenario.kind=gaussian", "scenario.amplitude=1e160"], "error: field contains non-finite"),
        # both at once, under the blow-up monitor that only run sets up: the far field is checked first
        ("steep_sweep.cfg", ["scenario.kind=gaussian", "scenario.amplitude=1e160", "scenario.center=-15",
                             "checks.blowup=true"], "error: far field contaminated"),
    ], ids=["far-field", "nonfinite-energy", "both-under-monitor"])
    def test_check_stops_where_run_stops(self, tmp_path, capsys, config, overrides, message):
        # refused by the simulation itself before its first step: check runs that prologue too
        args = ["--config", str(pathlib.Path(__file__).resolve().parent.parent / "configs" / config)]
        args += [arg for override in overrides for arg in ("--override", override)]
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", *args, "--out", str(tmp_path / "o")]) == 2
            run = capsys.readouterr()
            assert main(["check", *args]) == 2
            check = capsys.readouterr()
        assert run.err.startswith(message) and check.err == run.err
        assert "OK" not in check.out
        assert not (tmp_path / "o").exists()

    def test_sweep_labels_must_differ(self, tmp_path, capsys):
        # both members would be written to eps_0.1
        path = self.write_cfg(tmp_path, BASE_CFG)
        out_dir = tmp_path / "sweep"
        assert main(["sweep", "--config", path, "--epsilons", "0.1000001,0.1", "--out", str(out_dir)]) == 2
        assert "eps_" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_shipped_flat_config(self, shipped_run):
        code, _, out_dir = shipped_run("flat")
        assert code == 0
        series = np.genfromtxt(out_dir / "series.csv", delimiter=",", names=True)
        assert np.all(series["energy"] == 0.0)

    def test_shipped_dispersion_config(self, shipped_run):
        code, out, _ = shipped_run("dispersion_b3")
        assert code == 0
        assert out.count("rel err") == 3  # one phase-speed line per seeded mode
        assert "[PASS] dispersion" in out
        assert "[PASS] energy: energy_conservation: value=" in out  # the config's energy check is on

    def test_shipped_blowup_config(self, shipped_run):
        code, out, out_dir = shipped_run("steep_eps0")
        assert code == 0
        assert "triggered" in out and "gradient-pair" in out
        with open(out_dir / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["trigger"]["code"] == "gradient-pair"
        assert summary["trigger"]["t"] < 2.0

    def test_expected_blowup_reports_another_abort(self, tmp_path, capsys):
        # a 12-long line puts the steep wave near its ends: the far-field check aborts the run
        # long before the blow-up it expects, and that abort fails ``completed`` with its reason
        cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" / "steep_eps0.cfg"
        overrides = ["grid.length=12", "grid.x_left=-4", "grid.n=1200"]
        args = [arg for ov in overrides for arg in ("--override", ov)]
        assert main(["run", "--config", str(cfg), *args, "--out", str(tmp_path / "o")]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] blowup: no trigger" in out
        assert "[FAIL] completed: aborted: boundary-contamination at t=0.0179976" in out
        with open(tmp_path / "o" / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["verdicts"] == {"blowup": False, "completed": False}

    @pytest.mark.parametrize("name", ["flat", "gaussian_energy", "bounds_tuned", "dispersion_b3", "steep_sweep"])
    def test_shipped_config_passes_and_prints_its_verdicts(self, shipped_run, name):
        # the two n = 4400 steep configs are run by the criterion-7 fixture of the acceptance suite
        code, out, out_dir = shipped_run(name)
        assert code == 0
        tags = {"[PASS]": True, "[FAIL]": False, "[SKIP]": "skipped"}
        printed = {line.split()[1].rstrip(":"): tags[line[:6]] for line in out.splitlines() if line[:6] in tags}
        summary = json.loads((out_dir / "summary.json").read_text())
        assert printed == summary["verdicts"] and printed

    @staticmethod
    def history_from(run_dir: pathlib.Path, cfg: ScenarioConfig, abort_reason: str | None) -> SimHistory:
        """The history a run directory holds: ``series.csv``'s columns by its header, and every snapshot."""
        with open(run_dir / "series.csv", encoding="utf-8") as fh:
            names = fh.readline().rstrip("\n").split(",")
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        snapshots = []
        for path in sorted(run_dir.glob("snap_*.csv")):
            with open(path, encoding="utf-8") as fh:
                t = float(fh.readline().removeprefix("# t = "))
                assert fh.readline() == "x,h,u,P,Q\n"
                cols = np.loadtxt(fh, delimiter=",", ndmin=2)
            snapshots.append(FlowState(cols[:, 1].copy(), cols[:, 2].copy(), t))
        return SimHistory(grid=cfg.grid, params=cfg.params, control=cfg.step, snapshots=snapshots,
                          series={name: column.copy() for name, column in zip(names, rows.T)},
                          abort_reason=abort_reason)

    @pytest.mark.parametrize("name", ["flat", "gaussian_energy", "bounds_tuned", "dispersion_b3", "steep_sweep",
                                      "steep_eps0"])
    def test_every_verdict_recomputes_from_the_run_directory(self, shipped_run, tmp_path, name):
        # run.cfg, series.csv, the snapshots and the abort reason are the whole run: judged again and
        # written again, they give the same summary (wall time aside) and the same bytes
        _, _, run_dir = shipped_run(name)
        summary = json.loads((run_dir / "summary.json").read_text())
        cfg = parse_config(str(run_dir / "run.cfg"))
        hist = self.history_from(run_dir, cfg, summary["abort_reason"])
        assert list(hist.series) == list(SERIES_COLUMNS)
        again = tmp_path / "again"
        write_run_artifact(scenarios.judge_run(cfg, hist), str(again))
        rejudged = json.loads((again / "summary.json").read_text())
        for record in (summary, rejudged):
            del record["wall_time_s"]
        assert rejudged["verdicts"] == summary["verdicts"] and rejudged["reports"] == summary["reports"]
        assert rejudged == summary
        assert sorted(p.name for p in again.iterdir()) == sorted(p.name for p in run_dir.iterdir())
        for path in run_dir.iterdir():
            if path.name != "summary.json":
                assert (again / path.name).read_bytes() == path.read_bytes(), path.name

    def test_out_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SGNLAB_OUT", str(tmp_path / "envout"))
        text = BASE_CFG.replace("kind = gaussian", "kind = flat")
        path = self.write_cfg(tmp_path, text)
        assert main(["run", "--config", path]) == 0
        assert os.path.exists(str(tmp_path / "envout" / "run" / "summary.json"))
