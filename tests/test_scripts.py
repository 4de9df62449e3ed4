"""Every study in ``scripts/`` still loads against the library: each is run with
``runpy.run_path`` under a name other than ``__main__``, so its imports resolve
and no study runs."""

import pathlib
import runpy
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
