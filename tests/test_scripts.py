"""Every study in ``scripts/`` still loads against the library: each is run with
``runpy.run_path`` under a name other than ``__main__``, so its imports resolve
and no study runs.  Each also answers ``--help`` when started from another
directory, so it finds ``src`` (and ``configs``) from its own location.  A study
reports a failed member, an aborted run or an unmeasured mode as the CLI does, instead of crashing:
its ``main`` runs with the heavy call patched to return such a result."""

import os
import pathlib
import runpy
import subprocess
import sys

import numpy as np
import pytest

from sgnlab import FlowState
from sgnlab.config import parse_config
from sgnlab.dynamics import StepControl

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_found():
    assert {p.name for p in SCRIPTS} >= {"blowup_vs_regularization.py", "dispersion_study.py",
                                          "epsilon_sweep_study.py"}


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_loads_without_running(path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the scripts prepend ``src``
    namespace = runpy.run_path(str(path), run_name="study_under_test")
    assert callable(namespace["main"])


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_help_runs_from_another_directory(path, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(path), "--help"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"usage: {path.name}")


def study_main(name, monkeypatch, argv=()):
    """The ``main`` of ``scripts/name``, loaded without running, to be called with ``argv``."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "argv", [name, *argv])
    return runpy.run_path(str(ROOT / "scripts" / name), run_name="study_under_test")["main"]


def test_sweep_study_reports_an_aborted_member(monkeypatch, capsys):
    # the finer member aborts at its first state: it ends before the box, and its pair is incomparable
    main = study_main("epsilon_sweep_study.py", monkeypatch, ["--epsilons", "0.2,0.1"])
    real_sweep = main.__globals__["epsilon_sweep"]

    def one_aborted(cfg, epsilons):
        small = parse_config(str(ROOT / "configs" / "flat.cfg"), [
            "grid.n=64", "step.t_end=0.1", "step.output_dt=0.005", "checks.oleinik=true",
            "sweep.box_t1=0.01", "sweep.box_t2=0.09", "sweep.box_a=-5", "sweep.box_b=5"])
        result = real_sweep(small, epsilons)
        hist = result.artifacts[-1].history
        hist.snapshots, hist.abort_reason = hist.snapshots[:1], "nonfinite-fields"
        hist.series = {k: v[:1] for k, v in hist.series.items()}
        result.table[-1].update(dh_l2=None, du_l2=None, comparable=False)
        return result

    monkeypatch.setitem(main.__globals__, "epsilon_sweep", one_aborted)
    main()
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("box norm=")[1].split() for line in lines if "box norm=" in line] == [
        ["0.000", "[completed]"], ["n/a", "[aborted]"]]
    assert lines[-1] == "  |(0.2) - (0.1)|:  incomparable (aborted run)"


def test_blowup_study_reports_an_abort(monkeypatch, capsys):
    # a run that stops without a trigger prints its reason and time, as the CLI's completed line does
    main = study_main("blowup_vs_regularization.py", monkeypatch, ["--n", "64", "--t-end", "0.05"])
    real_run = main.__globals__["run_scenario"]

    def contaminated(cfg):
        art = real_run(parse_config(str(ROOT / "configs" / "flat.cfg"), ["grid.n=64", "step.t_end=0.05"]))
        art.history.abort_reason = "boundary-contamination"
        return art

    monkeypatch.setitem(main.__globals__, "run_scenario", contaminated)
    main()
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  -> ")]
    assert lines == ["  -> aborted: boundary-contamination at t=0.05"] * 2


def test_dispersion_study_reports_an_unmeasured_mode(monkeypatch, capsys):
    # a flat run carries no seeded mode, so no phase speed is measured
    main = study_main("dispersion_study.py", monkeypatch)
    real_simulate = main.__globals__["simulate"]

    def flat_run(s0, p, grid, control):
        flat = FlowState(np.full(grid.n, p.hbar), np.zeros(grid.n), 0.0)
        return real_simulate(flat, p, grid, StepControl(t_end=0.02, output_dt=0.01))

    monkeypatch.setitem(main.__globals__, "simulate", flat_run)
    main()
    rows = [line for line in capsys.readouterr().out.splitlines() if line.lstrip().startswith("k=")]
    assert len(rows) == 6
    assert all("measured n/a" in row and "rel err n/a" in row and row.endswith("[undefined]") for row in rows)
