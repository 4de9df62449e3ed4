"""sgnlab benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see ``workloads.py`` and
``README.md`` in this directory): ``periodic-conserve``, ``eps-sweep``,
``riccati-trace``.

``--trace 0`` measures the end-to-end metrics with nothing patched:
repetitions run back to back while the next one would end within
``--seconds`` (at least one), and setup time is the median over fresh
interpreters.  Repetition times are reported in ``ref``, the time of a fixed
reference workload sampled during the same repetition (``speedref.py``), so
that the host's drifting speed cancels.
``--trace 1`` runs one untraced repetition, installs the tracer, then runs
traced repetitions for ``--seconds`` and reports the per-layer metrics.
Every repetition's outputs are checked.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
#: largest share of a traced repetition that may fall outside every wrapped
#: function before the tracer self-check fails (a wrapper is missing)
UNATTRIBUTED_LIMIT = 0.03
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "wall_ref": "ref", "steps_per_ref": "steps/ref",
                    "peak_rss_mb": "MB", "passed_ratio": "ratio"}


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sgnlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "inputs": "deterministic, no RNG: the seed is recorded and changes no input",
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_commit": _git_commit(), "source_sha256": _source_sha256(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def measure_setup(workload: str) -> list[float]:
    """Seconds to import sgnlab and build the inputs, one fresh interpreter each."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def repeat(run, inputs, seconds: float, tracer=None, sampler=None) -> list[dict]:
    """Back-to-back repetitions while the next one, at the median repetition
    time so far, would end within ``seconds``; at least one.  With a
    ``sampler``, each repetition also gets ``ref``, the reference's time
    during it (``SpeedSampler.ref_s``), and its times leave out the samples."""
    from tracer import layer_metrics

    clock = perf_counter if sampler is None else sampler.clock
    reps = []
    t_start = perf_counter()
    while not reps or perf_counter() - t_start + statistics.median(r["wall"] for r in reps) <= seconds:
        if tracer is not None:
            tracer.reset()
        t0 = clock()
        with (tracer.root() if tracer is not None else
              sampler.sampling() if sampler is not None else contextlib.nullcontext()):
            out = run(inputs, clock)
        wall = clock() - t0
        layers, self_sum = (None, None) if tracer is None else layer_metrics(tracer, out.snapshots,
                                                                            out.bytes_written)
        ref = None if sampler is None else sampler.ref_s()
        reps.append({"wall": wall, "ref": ref, "outcome": out, "layers": layers, "self_sum": self_sum})
        print(f"rep {len(reps)}{' traced' if tracer else ''}: wall {wall:.3f} s"
              f"{'' if ref is None else f' = {wall / ref:.1f} ref of {ref * 1e3:.3f} ms'}, "
              f"{out.steps} steps, {sum(out.verdicts.values())}/{len(out.verdicts)} verdicts passed",
              flush=True)
    return reps


def check_outputs(reps: list[dict]) -> list[str]:
    """Problems with the outputs: a failed acceptance check, or a repetition
    whose outputs differ from the first one's."""
    problems = []
    for i, r in enumerate(reps, 1):
        out = r["outcome"]
        if not out.acceptance:
            problems.append(f"rep {i}: acceptance checks failed: {out.notes}")
        if out.digest != reps[0]["outcome"].digest:
            problems.append(f"rep {i}: outputs differ from rep 1")
    return problems


def check_tracer(workload: str, traced: list[dict], work: Path) -> list[str]:
    """Tracer self-check: repeatable counts repeat, within this run and across
    traced runs of the same sources, and the per-layer self times cover the
    traced wall time."""
    from tracer import REPEATABLE_COUNTS

    problems = []
    counts = [{k: r["layers"][k] for k in REPEATABLE_COUNTS} for r in traced]
    if any(c != counts[0] for c in counts):
        problems.append(f"counts differ between traced repetitions: {counts}")
    record = work / "trace-counts.json"
    key = f"{workload}:{_source_sha256()}"
    seen = json.loads(record.read_text()) if record.is_file() else {}
    if key in seen and seen[key] != counts[0]:
        problems.append(f"counts differ from an earlier traced run: {seen[key]} vs {counts[0]}")
    seen.setdefault(key, counts[0])
    record.write_text(json.dumps(seen, indent=1) + "\n")
    for i, r in enumerate(traced, 1):
        lay = r["layers"]
        if abs(r["self_sum"] - r["wall"]) > 0.001 * r["wall"]:
            problems.append(f"traced rep {i}: self times sum to {r['self_sum']:.4f} s, "
                            f"wall {r['wall']:.4f} s")
        if lay["trace.unattributed_s"] > UNATTRIBUTED_LIMIT * r["wall"]:
            problems.append(f"traced rep {i}: {lay['trace.unattributed_s']:.3f} s of {r['wall']:.3f} s "
                            "outside every wrapped function")
    return problems


def verdict_counts(reps: list[dict]) -> tuple[int, int]:
    attempted = sum(len(r["outcome"].verdicts) for r in reps)
    failed = sum(not v for r in reps for v in r["outcome"].verdicts.values())
    return attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sgnlab" / "__init__.py").is_file():
        print(f"no sgnlab sources under {ROOT / 'src'}: run from a checkout", file=sys.stderr)
        return 2
    import workloads  # puts this checkout's src/ first on sys.path

    import sgnlab

    if Path(sgnlab.__file__).resolve().parent != (ROOT / "src" / "sgnlab").resolve():
        print(f"imported sgnlab from {sgnlab.__file__}, not from this checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = workloads.WORK
    work.mkdir(exist_ok=True)
    prov = provenance(args)
    print("provenance " + json.dumps(prov), flush=True)
    setup, run = workloads.WORKLOADS[args.workload]

    if args.trace == 0:
        from speedref import SpeedSampler

        setup_samples = measure_setup(args.workload)
        inputs = setup()
        reps = repeat(run, inputs, args.seconds, sampler=SpeedSampler())
        problems = check_outputs(reps)
        attempted, failed = verdict_counts(reps)
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_ref": statistics.median(r["wall"] / r["ref"] for r in reps),
            "steps_per_ref": statistics.median(r["outcome"].steps / r["outcome"].sim_s * r["ref"]
                                               for r in reps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "passed_ratio": (attempted - failed) / attempted,
        }
        detail = {"setup_samples_s": setup_samples,
                  "wall_s": statistics.median(r["wall"] for r in reps),
                  "steps_per_s": statistics.median(r["outcome"].steps / r["outcome"].sim_s for r in reps),
                  "ref_ms": [r["ref"] * 1e3 for r in reps]}
        print(f"wall_s = {detail['wall_s']:.6g} s, steps_per_s = {detail['steps_per_s']:.6g} steps/s "
              "(in seconds, host drift included; not metrics)")
    else:
        from tracer import Tracer

        inputs = setup()
        untraced = repeat(run, inputs, 0.0)
        tracer = Tracer()
        tracer.install()
        try:
            traced = repeat(run, inputs, args.seconds, tracer)
        finally:
            tracer.uninstall()
        tracer.save(work / f"spans-{args.workload}.npz")
        reps = untraced + traced
        problems = check_outputs(reps) + check_tracer(args.workload, traced, work)
        attempted, failed = verdict_counts(reps)
        # counts repeat exactly (checked above); times are medians
        metrics = {k: v if isinstance(v, int) else statistics.median(r["layers"][k] for r in traced)
                   for k, v in traced[0]["layers"].items()}
        metrics["trace.overhead_ratio"] = statistics.median(r["wall"] for r in traced) / untraced[0]["wall"]
        detail = {"untraced_wall_s": untraced[0]["wall"], "traced_walls_s": [r["wall"] for r in traced]}

    correct = not problems
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit(name)}")
    print(f"failed_ratio = {failed}/{attempted} = {failed / attempted:.6g} (failed verdicts / evaluated)")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}}
    with open(work / f"result-{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "provenance": prov, "failed_ratio": failed / attempted, "detail": detail,
                   "problems": problems,
                   "reps": [{"wall_s": r["wall"], "ref_s": r["ref"], "steps": r["outcome"].steps,
                             "sim_s": r["outcome"].sim_s, "verdicts": r["outcome"].verdicts,
                             "notes": r["outcome"].notes} for r in reps]},
                  fh, indent=1, default=str)
        fh.write("\n")
    print(json.dumps(result))
    return 0


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    for suffix, unit in ((".calls", "count"), (".active_calls", "count"), (".retries", "count"),
                         (".self_s", "s"), (".us_per_call", "us"), (".ms_p50", "ms"), (".ms_p98", "ms"),
                         ("bytes_written", "bytes"), ("mb_per_s", "MB/s"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
