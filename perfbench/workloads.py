"""The benchmark's three workloads, each taken verbatim from the acceptance
suite (``tests/test_acceptance.py``) or the README.

Every workload is a pair of functions: ``setup()`` builds the inputs;
``run(inputs, clock)`` performs one repetition and returns an
:class:`Outcome` with the repetition's verdicts, timing the program with
``clock`` (``perf_counter``, or one that leaves out the speed samples of
``speedref.py``).  Importing this module imports sgnlab from
``src/`` of the checkout it sits in.  All three are deterministic
and draw no random numbers; the benchmark seed is recorded but changes
nothing here.

The program is reached only through module attributes (``dynamics.simulate``,
never a name bound in this file), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import math
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from sgnlab import FlowState, Grid, Params  # noqa: E402
from sgnlab import characteristics, cli, config, diagnostics, dynamics  # noqa: E402

SWEEP_CONFIG = ROOT / "configs" / "steep_sweep.cfg"
SWEEP_EPSILONS = "0.2,0.1,0.05"


@dataclass
class Outcome:
    """What one repetition produced."""

    steps: int  # accepted RK4 steps
    sim_s: float  # seconds spent inside the program's run loop
    verdicts: dict[str, bool]  # every verdict evaluated, name -> passed
    acceptance: bool  # the acceptance-criterion checks of this workload passed
    digest: str  # outputs that must repeat bitwise across repetitions
    snapshots: int = 0  # snapshots post-processed along characteristics
    bytes_written: int = 0
    notes: dict = field(default_factory=dict)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------- criterion 1

def setup_periodic_conserve():
    p = Params(g=9.81, gamma=9.81, hbar=1.0, epsilon=0.0)
    g = Grid.from_length(1024, 40.0, -20.0, "periodic")
    x = g.cells()
    s0 = FlowState(1.0 + 0.05 * np.exp(-(x**2)), np.zeros(g.n), 0.0)
    return p, g, s0, dynamics.StepControl(cfl=0.3, dt_max=0.1, t_end=5.0, output_dt=1.0)


def run_periodic_conserve(inputs, clock=perf_counter) -> Outcome:
    p, g, s0, control = inputs
    t0 = clock()
    hist = dynamics.simulate(s0, p, g, control)
    wall = clock() - t0
    e = hist.series["energy"]
    drift = abs(e[-1] - e[0]) / e[0]
    verdicts = {
        "completed": hist.status == "completed",
        "energy_drift_le_1e-6": bool(drift <= 1e-6),
        "wall_lt_60s": wall < 60.0,
    }
    return Outcome(steps=hist.n_steps, sim_s=wall, verdicts=verdicts,
                   acceptance=all(verdicts.values()),
                   digest=_digest(e, hist.snapshots[-1].h, hist.snapshots[-1].u),
                   notes={"energy_drift": float(drift)})


# ---------------------------------------------------------------- criterion 6

def setup_riccati_trace():
    runs = []
    for n, dtf, odt in [(256, 4e-3, 0.05), (512, 2e-3, 0.025)]:
        p = Params(g=9.81, gamma=9.81, hbar=1.0, epsilon=0.0)
        g = Grid.from_length(n, 40.0, -20.0, "periodic")
        x = g.cells()
        s0 = FlowState(1.0 + 0.05 * np.exp(-(x**2)), np.zeros(g.n), 0.0)
        control = dynamics.StepControl(cfl=0.3, dt_max=1.0, t_end=1.0, dt_fixed=dtf, output_dt=odt)
        runs.append((p, g, s0, control))
    return runs, [float(x0) for x0 in np.linspace(-4.0, 4.0, 8)]


def run_riccati_trace(inputs, clock=perf_counter) -> Outcome:
    runs, launch_points = inputs
    worsts, steps, sim_s, snapshots = [], 0, 0.0, 0
    for p, g, s0, control in runs:
        t0 = clock()
        hist = dynamics.simulate(s0, p, g, control)
        sim_s += clock() - t0
        steps += hist.n_steps
        snapshots += len(hist.snapshots)
        worst = 0.0
        for x0 in launch_points:
            for branch in ("plus", "minus"):
                path = characteristics.trace(hist, x0, branch)
                res = characteristics.riccati_residual(hist, path, p)
                worst = max(worst, float(np.max(np.abs(res.values[1:-1]))))
        worsts.append(worst)
    order = math.log2(worsts[0] / worsts[1])
    verdicts = {"riccati_order_ge_1": order >= 1.0}
    return Outcome(steps=steps, sim_s=sim_s, verdicts=verdicts,
                   acceptance=verdicts["riccati_order_ge_1"], digest=_digest(worsts),
                   snapshots=snapshots, notes={"order": order, "worst_residuals": worsts})


# ------------------------------------------------- README sweep, criteria 8, 9

def setup_eps_sweep():
    return config.parse_config(str(SWEEP_CONFIG))


def _read_snapshots(run_dir: Path) -> list:
    snaps = []
    for path in sorted(run_dir.glob("snap_*.csv")):
        with open(path, encoding="utf-8") as fh:
            t = float(fh.readline().split("=", 1)[1])
            cols = np.loadtxt(fh, delimiter=",", skiprows=1)
        snaps.append(FlowState(cols[:, 1], cols[:, 2], t))
    return snaps


def _sweep_checks(cfg, out: Path) -> tuple[dict, dict]:
    """Criteria 8 and 9 evaluated on the artifacts the CLI wrote."""
    with open(out / "sweep_summary.json", encoding="utf-8") as fh:
        sweep = json.load(fh)
    completed, cs, lps, steps, sim_s = True, [], [], 0, 0.0
    program = {}
    for run in sweep["runs"]:
        eps = run["epsilon"]
        run_dir = out / f"eps_{eps:g}"
        with open(run_dir / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        for name, verdict in sorted(summary["verdicts"].items()):
            program[f"eps_{eps:g}.{name}"] = verdict in (True, "skipped")
        completed = completed and summary["status"] == "completed"
        steps += summary["n_steps"]
        sim_s += summary["wall_time_s"]
        cs.append(summary["reports"]["oleinik"]["fitted_C"])
        hist = dynamics.SimHistory(grid=cfg.grid, params=cfg.params, control=cfg.step,
                                   snapshots=_read_snapshots(run_dir))
        lps.append(diagnostics.lp_box_norm(hist, 0.5, cfg.box))
    common_c = max(cs)
    lp_ratio = max(lps) / min(lps)
    c8 = (completed and all(math.isfinite(c) and c <= common_c for c in cs)
          and math.isfinite(common_c) and lp_ratio <= 3.0)
    rows = sweep["table"]
    c9 = (all(r["comparable"] for r in rows)
          and rows[0]["dh_l2"] > rows[1]["dh_l2"] and rows[0]["du_l2"] > rows[1]["du_l2"])
    acceptance = {"criterion_8_uniform_in_eps": bool(c8), "criterion_9_cauchy": bool(c9)}
    notes = {"steps": steps, "sim_s": sim_s, "fitted_C": cs, "lp_box_norms": lps,
             "lp_ratio": lp_ratio, "table": rows}
    return {**program, **acceptance}, notes


def run_eps_sweep(cfg, clock=perf_counter) -> Outcome:
    WORK.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="sweep-", dir=WORK))
    try:
        console = _stdio.StringIO()
        t0, c0 = perf_counter(), clock()
        with contextlib.redirect_stdout(console):
            code = cli.main(["sweep", "--config", str(SWEEP_CONFIG),
                             "--epsilons", SWEEP_EPSILONS, "--out", str(out)])
        # the members' wall_time_s come from the program's own clock; scale
        # them by the share of the sweep that ``clock`` counted
        counted = (clock() - c0) / (perf_counter() - t0)
        verdicts, notes = _sweep_checks(cfg, out)
        notes["sim_s"] *= counted
        verdicts["cli_exit_code_0"] = code == 0
        digest = hashlib.sha256()
        nbytes = 0
        for path in sorted(out.rglob("*")):
            if path.is_file():
                nbytes += path.stat().st_size
                if path.suffix == ".csv":  # summary.json carries wall times
                    digest.update(path.read_bytes())
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return Outcome(steps=notes.pop("steps"), sim_s=notes.pop("sim_s"), verdicts=verdicts,
                   acceptance=verdicts["criterion_8_uniform_in_eps"] and verdicts["criterion_9_cauchy"],
                   digest=digest.hexdigest(), bytes_written=nbytes,
                   notes={**notes, "exit_code": code,
                          "failed_lines": [ln for ln in console.getvalue().splitlines()
                                           if ln.startswith("[FAIL]")]})


WORKLOADS = {
    "periodic-conserve": (setup_periodic_conserve, run_periodic_conserve),
    "eps-sweep": (setup_eps_sweep, run_eps_sweep),
    "riccati-trace": (setup_riccati_trace, run_riccati_trace),
}
