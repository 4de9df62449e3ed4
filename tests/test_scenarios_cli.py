import json
import math
import os

import numpy as np
import pytest

from sgnlab import FlowState, Grid, Params
from sgnlab.cli import main
from sgnlab.config import config_echo, parse_config, parse_config_text
from sgnlab.diagnostics import Box
from sgnlab.dynamics import StepControl
from sgnlab.errors import ConfigError
from sgnlab.grid import integrate
from sgnlab.kinematics import riemann_invariants, total_energy
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

    def test_usage_error_exit_two(self):
        assert main(["run"]) == 2

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
            summary = json.load(fh)
        assert summary["epsilons"] == [0.2, 0.1]
        assert all(math.isfinite(run["e0"]) for run in summary["runs"])

    def test_shipped_flat_config(self, tmp_path, capsys):
        import pathlib

        cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" / "flat.cfg"
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        series = np.genfromtxt(tmp_path / "o" / "series.csv", delimiter=",", names=True)
        assert np.all(series["energy"] == 0.0)

    def test_shipped_dispersion_config(self, tmp_path, capsys):
        import pathlib

        cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" / "dispersion_b3.cfg"
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert out.count("rel err") == 3  # one phase-speed line per seeded mode
        assert "[PASS] dispersion" in out

    def test_shipped_blowup_config(self, tmp_path, capsys):
        import pathlib

        cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" / "steep_eps0.cfg"
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "triggered" in out and "gradient-pair" in out
        with open(tmp_path / "o" / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["trigger"]["code"] == "gradient-pair"
        assert summary["trigger"]["t"] < 2.0

    def test_out_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SGNLAB_OUT", str(tmp_path / "envout"))
        text = BASE_CFG.replace("kind = gaussian", "kind = flat")
        path = self.write_cfg(tmp_path, text)
        assert main(["run", "--config", path]) == 0
        assert os.path.exists(str(tmp_path / "envout" / "run" / "summary.json"))
