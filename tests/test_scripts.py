"""Every study in ``scripts/`` still loads against the library: each is run with
``runpy.run_path`` under a name other than ``__main__``, so its imports resolve
and no study runs.  Each also answers ``--help`` when started from another
directory, so it finds ``src`` (and ``configs``) from its own location."""

import os
import pathlib
import runpy
import subprocess
import sys

import pytest

SCRIPTS = sorted((pathlib.Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


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
