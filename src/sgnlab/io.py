"""Artifact serialization: CSV series/snapshots and JSON summaries.

One directory per run: ``run.cfg`` (full config echo), ``series.csv`` (one
row per accepted step), ``snap_NNNN.csv`` (one file per saved time, columns
x, h, u, P, Q) and ``summary.json``.  CSV numbers carry 17 significant
digits; JSON floats use exact round-trip representations, an unmeasured
value is ``null``, and NaN or infinity is refused (the JSON is standard).

The report dataclasses of :mod:`sgnlab.diagnostics` declare the reports'
schema: :func:`_json_record` writes every report as its fields in order, a
``Check`` as ``{"pass", "value", "tol"}`` and a dict value by value.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import fields

import numpy as np

from . import __version__
from .config import config_echo
from .diagnostics import Check
from .dynamics import SimHistory
from .kinematics import pq_fields
from .scenarios import RunArtifact, SWEEP_LABEL, SweepResult

__all__ = ["write_run_artifact", "write_sweep_result", "SERIES_CSV_COLUMNS"]

#: the stable public schema of series.csv
SERIES_CSV_COLUMNS = ("t", "mass", "energy", "min_h", "min_ux", "max_abs_hx", "sup_P", "sup_Q")


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _csv_rows(columns: list[np.ndarray]) -> str:
    """``np.savetxt(fmt="%.17g", delimiter=",")``'s bytes for ``columns``, formatted with one ``%``."""
    rows = np.column_stack(columns)
    return (",".join(["%.17g"] * rows.shape[1]) + "\n") * rows.shape[0] % tuple(rows.ravel().tolist())


def write_series_csv(hist: SimHistory, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(SERIES_CSV_COLUMNS) + "\n")
        fh.write(_csv_rows([hist.series[c] for c in SERIES_CSV_COLUMNS]))


def write_snapshot_csv(hist: SimHistory, index: int, path: str) -> None:
    s = hist.snapshots[index]
    P, Q = pq_fields(s, hist.params, hist.grid)
    x = hist.grid.cells()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# t = {_fmt(s.t)}\n")
        fh.write("x,h,u,P,Q\n")
        fh.write(_csv_rows([x, s.h, s.u, P, Q]))


def _json_record(obj) -> dict:
    """``json.dump``'s hook for reports: a Check as pass/value/tol, any other
    dataclass as its fields in order."""
    if isinstance(obj, Check):
        return {"pass": obj.passed, "value": obj.value, "tol": obj.tol}
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def summary_dict(art: RunArtifact) -> dict:
    hist = art.history
    return {
        "version": __version__,
        "status": hist.status,
        "abort_reason": hist.abort_reason,
        "abort_time": hist.abort_time,
        "trigger": None if hist.trigger is None else {"t": hist.trigger[0], "code": hist.trigger[1]},
        "t_final": hist.t_final,
        "n_steps": hist.n_steps,
        "e0": hist.e0,
        "e_max": art.config.params.e_max,
        "bounds_applicable": hist.e0 < art.config.params.e_max,
        "wall_time_s": art.wall_time,
        "verdicts": art.verdicts,
        "reports": art.reports,
        "config": config_echo(art.config),
    }


def write_run_artifact(art: RunArtifact, out_dir: str) -> None:
    """Write one run into ``out_dir``, removing the snapshots a previous run left there."""
    os.makedirs(out_dir, exist_ok=True)
    snaps = [f"snap_{i:04d}.csv" for i in range(len(art.history.snapshots))]
    for stale in {name for name in os.listdir(out_dir) if re.fullmatch(r"snap_\d{4,}\.csv", name)} - set(snaps):
        os.remove(os.path.join(out_dir, stale))
    with open(os.path.join(out_dir, "run.cfg"), "w", encoding="utf-8") as fh:
        fh.write(config_echo(art.config))
    write_series_csv(art.history, os.path.join(out_dir, "series.csv"))
    for i, name in enumerate(snaps):
        write_snapshot_csv(art.history, i, os.path.join(out_dir, name))
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary_dict(art), fh, indent=2, default=_json_record, allow_nan=False)
        fh.write("\n")


def write_sweep_result(result: SweepResult, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for eps, art in zip(result.epsilons, result.artifacts):
        write_run_artifact(art, os.path.join(out_dir, SWEEP_LABEL.format(eps)))
    with open(os.path.join(out_dir, "sweep_table.csv"), "w", encoding="utf-8") as fh:
        fh.write("eps_coarse,eps_fine,dh_l2,du_l2,comparable\n")
        for row in result.table:
            dh = "" if row["dh_l2"] is None else _fmt(row["dh_l2"])
            du = "" if row["du_l2"] is None else _fmt(row["du_l2"])
            fh.write(f"{_fmt(row['eps_coarse'])},{_fmt(row['eps_fine'])},{dh},{du},{row['comparable']}\n")
    summary = {
        "epsilons": result.epsilons,
        "table": result.table,
        "runs": [
            {"epsilon": eps, "status": art.history.status, "e0": art.history.e0,
             "verdicts": art.verdicts}
            for eps, art in zip(result.epsilons, result.artifacts)
        ],
    }
    with open(os.path.join(out_dir, "sweep_summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, allow_nan=False)
        fh.write("\n")
