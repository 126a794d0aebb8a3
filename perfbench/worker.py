"""One workload process: calls ``wshm.cli.main(argv)`` in-process and prints
one JSON line with every call's wall time and check result.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py --workload W --seed N [--variant V] --calls 2
    python3 perfbench/worker.py --workload W --seed N [--variant V] --budget S [--spans PATH]

``--calls`` makes that many untraced calls; the first is the process's cold
call.  The report gives ``ready``, the ``CLOCK_MONOTONIC`` time at which
``wshm.cli`` was imported and the argv built, so the parent can time the
process's set-up from its spawn.  A calibration (``calibrate``) runs after
set-up and after every call, so each interval has one measured just before
and one just after it.  ``--budget`` makes a cold untraced call, then
alternates traced and untraced calls until the next one would overrun S
seconds, with at least one of each.

Exit code 2 means the program could not be imported from ``src``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_cli():
    try:
        import wshm
        import wshm.cli
    except ImportError as e:
        print(f"error: cannot import wshm from {SRC}: {e}", file=sys.stderr)
        sys.exit(2)
    if Path(wshm.__file__).resolve().parent.parent != SRC:
        print(f"error: wshm imported from {wshm.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return wshm.cli


def calibrate() -> float:
    """Seconds for a fixed pure-Python ``Fraction`` computation, 8-15 ms.

    The parent rescales each interval by the calibrations around it, because
    a shared host's speed can change between seconds-long spells.  The
    collector is run first and kept off, so that what a call left on the
    heap does not slow the calibration."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        s = Fraction(0)
        for i in range(1, 2400):
            s += Fraction(i * i % 97 + 1, i)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _call(cli, workload: str, seed: int, variant: int, argv: list[str]) -> dict:
    gc.collect()
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(list(argv))
        except Exception as e:  # a crash is a failed call, not a failed benchmark
            rc, crash = None, f"{type(e).__name__}: {e}"
        else:
            crash = None
    wall = time.perf_counter() - t0
    out = buf.getvalue()
    why = crash or workloads.check_output(workload, seed, variant, rc, out)
    return {"wall": wall, "error": why, "out": out}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--variant", type=int, default=0)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--calls", type=int, help="number of untraced calls")
    mode.add_argument("--budget", type=float, help="seconds of traced and untraced calls")
    ap.add_argument("--spans", help="JSON Lines file for the traced calls' spans")
    args = ap.parse_args()

    cli = _import_cli()
    argv = workloads.argv_for(args.workload, args.seed, args.variant)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    calib = [calibrate()]

    tracer = Tracer() if args.budget is not None else None
    calls: list[dict] = []
    layers: list[dict] = []
    t0 = time.perf_counter()
    while True:
        # the first call is the cold one and never traced; then traced and
        # untraced calls alternate when tracing
        traced = tracer is not None and len(calls) % 2 == 1
        if traced:
            tracer.call = len(layers)
            tracer.install()
            try:
                rec = _call(cli, args.workload, args.seed, args.variant, argv)
            finally:
                tracer.uninstall()
            layers.append(tracer.layer_metrics(tracer.call))
        else:
            rec = _call(cli, args.workload, args.seed, args.variant, argv)
        calib.append(calibrate())
        rec["traced"] = traced
        # every report of one argv must be byte-identical, traced or not
        if rec["error"] is None and calls and rec["out"] != calls[0]["out"]:
            rec["error"] = "report differs from the process's first report"
        calls.append(rec)
        if tracer is None:
            if len(calls) == args.calls:
                break
        elif len(calls) >= 3:
            next_s = max(c["wall"] for c in calls[-2:])
            if time.perf_counter() - t0 + next_s > args.budget:
                break
    if tracer and args.spans:
        tracer.write(args.spans)

    import numpy

    print(json.dumps({
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ready": ready,
        "calib": calib,
        "calls": [{k: c[k] for k in ("wall", "error", "traced")} for c in calls],
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
