"""The benchmark looks up sgnlab functions by name and uses ``SimHistory`` directly; both must keep working."""

import importlib
import runpy
from pathlib import Path

import numpy as np

from sgnlab import FlowState, Grid, Params, dynamics

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_layer_resolves_to_a_callable():
    # run_path compiles the source without importing it as a module, so nothing is written next to it
    layers = runpy.run_path(str(TRACER))["LAYERS"]
    missing = [f"{mod}.{name}" for mod, names in layers.items() for name in names
               if not callable(getattr(importlib.import_module(f"sgnlab.{mod}"), name, None))]
    assert layers and not missing


def test_sim_history_as_the_benchmark_uses_it():
    # the sweep workload rebuilds a history from snapshot files by keyword; the
    # others read the outcome, the step count, the series and the snapshots
    p = Params(g=9.81, gamma=9.81, hbar=1.0, epsilon=0.0)
    g = Grid.from_length(64, 40.0, -20.0, "periodic")
    control = dynamics.StepControl(cfl=0.3, dt_max=0.1, t_end=0.2, output_dt=0.1)
    s0 = FlowState(1.0 + 0.05 * np.exp(-(g.cells() ** 2)), np.zeros(g.n), 0.0)
    rebuilt = dynamics.SimHistory(grid=g, params=p, control=control, snapshots=[s0])
    assert rebuilt.snapshots[0] is s0 and rebuilt.grid == g and rebuilt.control == control
    hist = dynamics.simulate(s0, p, g, control)
    assert hist.status == "completed" and hist.n_steps > 0
    assert len(hist.series["energy"]) == hist.n_steps + 1
    assert hist.snapshots[-1].h.shape == (g.n,) and hist.snapshots[-1].t == hist.t_final


def test_traced_layers_stay_on_the_stepper_path():
    # the benchmark's per-layer counts read the stepper only through the names it
    # wraps: a traced call moved off that path would silently count 0
    bench = runpy.run_path(str(TRACER))
    for mod in bench["LAYERS"]:
        importlib.import_module(f"sgnlab.{mod}")  # install wraps every layer's home module
    tracer = bench["Tracer"]()
    g = Grid.from_length(256, 40.0, -20.0, "line")
    x = g.cells()
    s0 = FlowState(1.0 + 0.1 * np.exp(-(x**2)), -2.0 * x * np.exp(-(x**2)))  # the cut-off acts at eps = 1
    tracer.install()
    try:
        hist = dynamics.simulate(s0, Params(epsilon=1.0), g, dynamics.StepControl(t_end=5e-3, dt_fixed=1e-3))
    finally:
        tracer.uninstall()
    assert hist.status == "completed" and hist.n_steps == 5
    spans = tracer.arrays()
    names = np.array(tracer.names)[spans["name"]]
    parents = np.where(spans["parent"] >= 0, names[spans["parent"]], "")

    def calls(name, under):
        assert set(parents[names == name]) == {under}
        return int(np.sum(names == name))

    steps = calls("dynamics.rk4_step", "dynamics.simulate")
    assert steps == 5
    assert calls("dynamics.rhs", "dynamics.rk4_step") == 4 * steps
    assert calls("regularization.compute_reg_fields", "dynamics.rhs") == 4 * steps
    assert calls("elliptic.solve_L_refined", "dynamics.rhs") == 4 * steps
    assert calls("elliptic.solve_L", "elliptic.solve_L_refined") == 2 * 4 * steps
    assert calls("regularization.compute_A", "regularization.compute_reg_fields") == 4 * steps  # active at every stage
