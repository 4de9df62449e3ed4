"""Command-line driver.

    sgnlab run   --config PATH [--out DIR] [--override SECTION.KEY=VALUE ...]
    sgnlab sweep --config PATH --epsilons 0.2,0.1,0.05 --out DIR [--override ...]
    sgnlab check --config PATH

``run`` simulates one scenario, writes its artifacts and prints one verdict
line per enabled check; exit code 0 iff every enabled check passes (an
expected blow-up counts as a pass when it triggers; a skipped check does not
fail the run).  ``check`` is ``run`` at ``t_end = 0`` writing nothing: it
refuses whatever ``run`` refuses before the first step.  Usage
and configuration errors exit with code 2, failed checks with 1; an output
directory that cannot be created is a usage error, found before the run.

The default output directory comes from the SGNLAB_OUT environment variable
(falling back to ./sgnlab_out).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import _floats, parse_config
from .dynamics import simulate
from .errors import ConfigError, SgnError
from .io import write_run_artifact, write_sweep_result
from .scenarios import RunArtifact, build_initial, epsilon_sweep, run_scenario

__all__ = ["main"]


def _out_dir(args, name: str) -> str:
    """``--out``, or ``name`` under the default directory; refused before any run if it cannot become a directory."""
    out = args.out or os.path.join(os.environ.get("SGNLAB_OUT", "sgnlab_out"), name)
    existing = os.path.abspath(out)
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not (os.path.isdir(existing) and os.access(existing, os.W_OK | os.X_OK)):
        raise ConfigError(f"output directory {out}: {existing} is not a writable directory")
    return out


def _print_verdicts(art: RunArtifact) -> bool:
    hist = art.history
    for name, verdict in sorted(art.verdicts.items()):
        if verdict == "skipped":
            print(f"[SKIP] {name}: initial energy {hist.e0:.6g} >= threshold {art.config.params.e_max:.6g}")
            continue
        tag = "PASS" if verdict else "FAIL"
        detail = ""
        rep = art.reports.get(name)
        if name == "energy" and rep is not None:
            detail = ", ".join(f"{k}: value={c.value:.3e} tol={c.tol:.3e}" for k, c in rep.verdicts.items())
        elif name == "bounds" and rep is not None:
            detail = ", ".join(f"{k}: margin={v:.3e}" for k, v in rep.margins.items())
        elif name == "oleinik" and rep is not None:
            detail = f"fitted_C={rep.fitted_C:.6g}, violations={rep.violations}"
        elif name == "dispersion" and rep is not None:
            for row in rep.modes:
                speed = "n/a" if row["measured"] is None else f"{row['measured']:.4f}"
                rel = "n/a" if row["rel_err"] is None else f"{row['rel_err']:.2%}"
                print(f"    k={row['k']:g}: measured c={speed}, predicted {row['predicted']:.4f}, "
                      f"rel err {rel} ({'ok' if row['pass'] else 'off'})")
            detail = f"{len(rep.modes)} modes within {rep.rtol:.0%}" if verdict else "mode mismatch"
        elif name == "blowup" and rep is not None:
            detail = (f"triggered at t={hist.trigger[0]:.6g} ({hist.trigger[1]})"
                      if hist.trigger else "no trigger")
        elif name == "completed":
            detail = f"aborted: {hist.abort_reason} at t={hist.abort_time:.6g}"
        print(f"[{tag}] {name}: {detail}")
    print(f"run {hist.status} at t={hist.t_final:.6g} after {hist.n_steps} steps "
          f"(E0={hist.e0:.9g}, wall {art.wall_time:.2f}s)")
    return art.passed


def _cmd_run(args) -> int:
    cfg = parse_config(args.config, args.override)
    out = _out_dir(args, "run")
    art = run_scenario(cfg)
    write_run_artifact(art, out)
    ok = _print_verdicts(art)
    print(f"artifacts written to {out}")
    return 0 if ok else 1


def _cmd_sweep(args) -> int:
    cfg = parse_config(args.config, args.override)
    out = _out_dir(args, "sweep")
    result = epsilon_sweep(cfg, _floats("epsilons", args.epsilons))
    write_sweep_result(result, out)
    ok = True
    for eps, art in zip(result.epsilons, result.artifacts):
        print(f"--- epsilon = {eps:g} ---")
        ok = _print_verdicts(art) and ok
    for row in result.table:
        if row["comparable"]:
            print(f"|h({row['eps_coarse']:g}) - h({row['eps_fine']:g})|_L2 = {row['dh_l2']:.6e}   "
                  f"|u diff|_L2 = {row['du_l2']:.6e}")
        else:
            print(f"pair ({row['eps_coarse']:g}, {row['eps_fine']:g}): incomparable (aborted run)")
    print(f"artifacts written to {out}")
    return 0 if ok else 1


def _cmd_check(args) -> int:
    cfg = parse_config(args.config, args.override)
    simulate(build_initial(cfg), cfg.params, cfg.grid, replace(cfg.step, t_end=0.0))
    print(f"config {args.config} OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="sgnlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", _cmd_run), ("sweep", _cmd_sweep), ("check", _cmd_check)):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--override", action="append", default=[],
                        metavar="SECTION.KEY=VALUE")
        if name != "check":
            sp.add_argument("--out", default=None)
        if name == "sweep":
            sp.add_argument("--epsilons", required=True)
        sp.set_defaults(fn=fn)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except SgnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
