"""``scipy.optimize`` loads only inside the one feature that calls it, the target-energy tuning, and
``scipy.ndimage`` never loads: the mollifier sums its Gaussian in numpy.  Each case runs in a fresh
interpreter, since this test session has long imported both."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
LAZY = ("scipy.ndimage", "scipy.optimize")
#: prints, as its last line, the subpackages of ``LAZY`` loaded after ``import sgnlab.cli`` and
#: after each command of ``sys.argv[1]`` (a JSON list of argument lists) with its exit code
PROBE = """
import json, sys
lazy = {lazy!r}
def loaded():
    return [m for m in lazy if m in sys.modules]
from sgnlab import cli
steps = [["import", loaded()]]
for argv in json.loads(sys.argv[1]):
    steps.append([cli.main(argv), loaded()])
print(json.dumps(steps))
"""
#: prints, one per line, the sha256 of ``h`` and ``u`` built from each config of ``sys.argv[1]``
#: (a JSON list of ``[path, overrides]``); ``sys.argv[2]`` names modules to import first
BUILD = """
import hashlib, importlib, json, sys
for name in json.loads(sys.argv[2]):
    importlib.import_module(name)
from sgnlab.config import parse_config
from sgnlab.scenarios import build_initial
for path, overrides in json.loads(sys.argv[1]):
    s = build_initial(parse_config(path, overrides))
    print(hashlib.sha256(s.h.tobytes() + s.u.tobytes()).hexdigest())
"""


def fresh_python(code: str, *args) -> str:
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    return done.stdout


def probe(*commands):
    stdout = fresh_python(PROBE.format(lazy=LAZY), json.dumps(commands))
    return json.loads(stdout.splitlines()[-1])


def test_import_check_and_plain_run_load_neither(tmp_path):
    run = ["run", "--config", "configs/flat.cfg", "--out", str(tmp_path), "--override", "step.t_end=0.1"]
    steps = probe(["check", "--config", "configs/gaussian_energy.cfg"], run)
    assert steps == [["import", []], [0, []], [0, []]]


@pytest.mark.parametrize("argv, loads", [
    (["--config", "configs/gaussian_energy.cfg", "--override", "scenario.mollifier_epsilon=0.2"], []),
    (["--config", "configs/bounds_tuned.cfg"], ["scipy.optimize"]),
], ids=["mollified", "tuned"])
def test_check_loads_what_its_feature_calls(argv, loads):
    assert probe(["check", *argv]) == [["import", []], [0, loads]]


def test_sweep_loads_neither(tmp_path):
    # every member is mollified at its own epsilon
    sweep = ["sweep", "--config", "configs/gaussian_energy.cfg", "--epsilons", "0.2,0.1", "--out", str(tmp_path),
             "--override", "step.t_end=0.01"]
    assert probe(sweep) == [["import", []], [0, []]]


def test_initial_states_independent_of_when_scipy_loads():
    # the same bits whether the subpackages load on first use or before sgnlab, as they once did
    configs = [[str(path), []] for path in sorted((ROOT / "configs").glob("*.cfg"))]
    configs += [["configs/gaussian_energy.cfg", ["scenario.mollifier_epsilon=0.2"]],
                ["configs/steep_sweep.cfg", ["scenario.mollifier_epsilon=0.1"]],
                ["configs/bounds_tuned.cfg", ["scenario.mollifier_epsilon=0.3"]]]
    lazy = fresh_python(BUILD, json.dumps(configs), "[]").split()
    eager = fresh_python(BUILD, json.dumps(configs), json.dumps(LAZY)).split()
    assert len(lazy) == len(configs) and lazy == eager
