"""Per-layer tracing of sgnlab from outside the program.

:meth:`Tracer.install` replaces each public function named in ``LAYERS`` by a
timing wrapper.  ``from .grid import derivative`` binds the same function
object under a second name in every importing module, so the wrapper is
installed in every ``sgnlab`` module namespace that holds that object, found
by identity; one wrapper per function, so a call counts once whichever
binding it goes through.  Spans (name, start, end, parent) are kept in flat
in-memory arrays and written out by :meth:`Tracer.save` when the run ends.

A span's self time is its duration minus the durations of its direct
children.  Wrapper bookkeeping falls outside the child's interval, so it is
charged to the caller's self time; that cost is what ``trace.overhead_ratio``
measures.
"""

from __future__ import annotations

import functools
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: module -> public functions wrapped in that module.  ``dynamics.simulate``'s
#: self time stands for the recorder and the monitors (``_record`` is private).
LAYERS = {
    "grid": ("derivative", "cumulative_integral", "check_far_field"),
    "kinematics": ("curly_c", "f_of_h", "pq_fields"),
    "elliptic": ("assemble_L", "solve_L", "solve_L_refined", "solve_helmholtz", "apply_L", "script_r"),
    "regularization": ("compute_reg_fields", "compute_A", "compute_V1", "compute_B"),
    "dynamics": ("rhs", "rk4_step", "cfl_dt", "simulate"),
    "characteristics": ("trace", "riccati_residual", "interp_cubic"),
    "diagnostics": ("energy_budget", "oleinik_report", "lp_box_norm"),
    "scenarios": ("build_initial", "l2_box_difference"),
    "config": ("parse_config",),
    "io": ("write_run_artifact",),
}

ROOT_SPAN = "bench.repetition"

#: counts that must repeat exactly between traced repetitions of one workload
REPEATABLE_COUNTS = (
    "dynamics.rk4_step.calls",
    "dynamics.rhs.calls",
    "elliptic.solve_L.calls",
    "grid.derivative.calls",
    "regularization.compute_reg_fields.active_calls",
    "elliptic.script_r.calls",
)


class Tracer:
    def __init__(self):
        self.names = [ROOT_SPAN] + [f"{m}.{f}" for m, fns in LAYERS.items() for f in fns]
        self._index = {name: i for i, name in enumerate(self.names)}
        self._patches: list[tuple[object, str, object]] = []
        self.name, self.parent = array("h"), array("i")
        self.start, self.end = array("d"), array("d")
        self._stack: list[int] = []

    def reset(self) -> None:
        """Forget all spans; wrappers keep writing into the same arrays."""
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        self._stack.clear()

    def _open(self, ix: int) -> int:
        i = len(self.start)
        self.name.append(ix)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def _wrap(self, ix: int, fn):
        start, end, stack, open_ = self.start, self.end, self._stack, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = open_(ix)
            start[i] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Wrap every function of ``LAYERS`` in every sgnlab namespace binding it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "sgnlab" or name.startswith("sgnlab."))]
        for mod_name, fns in LAYERS.items():
            home = sys.modules[f"sgnlab.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(self._index[f"{mod_name}.{fn_name}"], original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextmanager
    def root(self):
        """Record the repetition's root span around the block."""
        i = self._open(0)
        self.start[i] = perf_counter()
        try:
            yield
        finally:
            self.end[i] = perf_counter()
            self._stack.pop()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def layer_metrics(tr: Tracer, snapshots: int, bytes_written: int) -> tuple[dict[str, float], float]:
    """Per-layer metrics of the spans recorded since the last reset (one
    repetition), and the sum of all spans' self times."""
    a = tr.arrays()
    name, parent, dur = a["name"].astype(np.int64), a["parent"].astype(np.int64), a["end"] - a["start"]
    k = len(tr.names)
    has_parent = parent >= 0
    child = np.zeros(dur.shape[0])
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child
    calls = np.bincount(name, minlength=k)
    self_s = np.bincount(name, weights=self_t, minlength=k)
    incl_s = np.bincount(name, weights=dur, minlength=k)
    ix = tr._index

    def n(fn):
        return int(calls[ix[fn]])

    def per_call_us(fn):
        return float(incl_s[ix[fn]] / calls[ix[fn]] * 1e6) if calls[ix[fn]] else 0.0

    def ratio(num, den):
        return float(num) / den if den else 0.0

    def is_(fn):
        return name == ix[fn]

    # spans below an rhs span, by walking up the parent chain level by level
    under_rhs = np.zeros(dur.shape[0], dtype=bool)
    cur = parent.copy()
    while np.any(cur >= 0):
        live = cur >= 0
        under_rhs[live] |= name[cur[live]] == ix["dynamics.rhs"]
        cur[live] = parent[cur[live]]

    rhs_children = np.bincount(parent[is_("dynamics.rhs") & has_parent], minlength=dur.shape[0])
    rk4 = is_("dynamics.rk4_step")
    rk4_ms = dur[rk4] * 1e3
    # the cut-off fired in a compute_reg_fields call iff it called compute_A
    active = int(np.sum(name[parent[is_("regularization.compute_A") & has_parent]]
                        == ix["regularization.compute_reg_fields"]))
    rhs_calls = n("dynamics.rhs")

    m: dict[str, float] = {}
    for fn in tr.names[1:]:
        m[f"{fn}.calls"] = n(fn)
        m[f"{fn}.self_s"] = float(self_s[ix[fn]])
    for fn in ("grid.derivative", "elliptic.solve_L", "elliptic.solve_helmholtz", "dynamics.rhs"):
        m[f"{fn}.us_per_call"] = per_call_us(fn)
    m["elliptic.solves_per_rhs"] = ratio(np.sum(is_("elliptic.solve_L") & under_rhs), rhs_calls)
    m["elliptic.assembles_per_rhs"] = ratio(np.sum(is_("elliptic.assemble_L") & under_rhs), rhs_calls)
    m["regularization.compute_reg_fields.active_calls"] = active
    m["regularization.compute_reg_fields.active_ratio"] = ratio(active, n("regularization.compute_reg_fields"))
    m["dynamics.rk4_step.ms_p50"] = float(np.percentile(rk4_ms, 50)) if rk4_ms.size else 0.0
    m["dynamics.rk4_step.ms_p98"] = float(np.percentile(rk4_ms, 98)) if rk4_ms.size else 0.0
    m["dynamics.rk4_step.retries"] = int(np.sum(rhs_children[rk4] > 4))
    m["dynamics.rhs_per_step"] = ratio(rhs_calls, n("dynamics.rk4_step"))
    m["characteristics.script_r_per_snapshot"] = ratio(n("elliptic.script_r"), snapshots)
    m["io.bytes_written"] = bytes_written
    m["io.mb_per_s"] = ratio(bytes_written / 1e6, incl_s[ix["io.write_run_artifact"]])
    m["trace.unattributed_s"] = float(self_s[0])
    return m, float(np.sum(self_t))
