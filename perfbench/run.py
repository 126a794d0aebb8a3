"""wshm benchmark: seeded CLI workloads, timed end to end and traced per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload qweights-hb2 --seed 0 --seconds 30 --trace 0

Every workload process is one single-threaded interpreter (BLAS pinned to one
thread) that calls ``wshm.cli.main(argv)`` in-process with stdout captured,
so report emission is inside the timing.  Processes run one after another.

``--trace 0`` starts workload processes while another fits in ``--seconds``.
Each makes two calls, a cold one and a warm one, on its own variant of the
seed's inputs; variants cycle through ``VARIANTS`` draws, and every run holds
at least one full cycle.  The end-to-end metrics are medians over the run:

* ``setup_s``     from spawning a workload process until it has imported
                  ``wshm.cli`` and built the argv;
* ``cold_wall_s`` the first call of each process;
* ``wall_s``      the second call of each process;
* ``peak_rss_mb`` ``ru_maxrss`` of each process.

The host the benchmark was written on (2 shared vCPUs) changes speed between
seconds-long spells by up to 1.5x, so raw medians of 30-s runs spread by up
to a quarter between seeds.  So every interval is divided by the mean of the
calibrations measured just before and just after it in the same process
(``worker.calibrate``, a fixed pure-Python computation) and multiplied by
``CALIB_REF_S``: the time the interval would take on a host where the
calibration takes ``CALIB_REF_S``.  The line before the result also gives
the raw medians and the calibration times.

``--trace 1`` runs one process that alternates traced and untraced calls and
reports the per-layer metrics (see ``tracer.py``) and ``trace.overhead_s``,
the traced minus the untraced median wall time.

Every call is checked (``workloads.check_output``); a failed check or a
nonzero exit code counts in ``failed``.  The second-to-last stdout line
records the inputs and environment; the last line is the result.  Exit code 2
means the program could not be run at all, and no result is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"

CALLS_PER_PROCESS = 2  # one cold and one warm sample per process
VARIANTS = 8  # input draws per run, so its medians do not rest on one draw
# The calibration's time in the fast spells of the 2-vCPU host the benchmark
# was written on (Python 3.11); a fixed unit, never measured again.
CALIB_REF_S = 0.008
# a hung program is killed so that the run still ends within 180 s
HARD_LIMIT_S = 170
START = time.perf_counter()


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class RunFailed(Exception):
    pass


def _report(args: list[str]) -> dict:
    """Run one worker process to completion and return its report, with
    ``setup`` (spawn to ready) and ``span`` (spawn to exit) in seconds."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - START))
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"worker killed after {timeout:.0f} s: {' '.join(args)}")
    span = time.clock_gettime(time.CLOCK_MONOTONIC) - spawned
    if proc.returncode != 0:
        raise RunFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.splitlines()
    if not lines:
        raise RunFailed(f"worker printed no report: {' '.join(args)}")
    rep = json.loads(lines[-1])
    rep["setup"] = rep["ready"] - spawned
    rep["span"] = span
    return rep


def _rescaled(reports: list[dict]) -> dict[str, list[float]]:
    """Set-up, cold and warm times, each at the speed where the calibration
    takes ``CALIB_REF_S``, judged by the calibrations around it."""
    out: dict[str, list[float]] = {"setup": [], "cold": [], "warm": []}
    for rep in reports:
        cal = rep["calib"]
        out["setup"].append(rep["setup"] * CALIB_REF_S / cal[0])
        for i, c in enumerate(rep["calls"]):
            out["warm" if i else "cold"].append(c["wall"] * CALIB_REF_S / ((cal[i] + cal[i + 1]) / 2))
    return out


def _git_sha() -> str | None:
    """HEAD's commit, read from ``.git`` without running git; None outside
    a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    """sha256 over the program's sources, which identifies the code outside
    a git checkout too."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    spec = json.loads(SPEC.read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    names = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[names]}
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    t0 = time.perf_counter()
    reports: list[dict] = []
    spans = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        reports.append(_report(base + ["--budget", str(args.seconds), "--spans", str(spans)]))
    else:
        # a process is started while one more fits; the first cycle of
        # variants always runs
        while len(reports) < VARIANTS or (
            time.perf_counter() - t0 + max(rep["span"] for rep in reports) <= args.seconds
        ):
            variant = len(reports) % VARIANTS
            reports.append(_report(
                base + ["--variant", str(variant), "--calls", str(CALLS_PER_PROCESS)]
            ))

    calls = [c for rep in reports for c in rep["calls"]]
    errors = sorted({c["error"] for c in calls if c["error"]})
    failed = sum(1 for c in calls if c["error"])
    metrics: dict[str, float] = {}
    extra: dict = {}
    if args.trace:
        layers = reports[0]["layers"]
        for name in units:
            if name != "trace.overhead_s":
                metrics[name] = statistics.median(layer[name] for layer in layers)
        traced = [c["wall"] for c in calls if c["traced"]]
        warm = [c["wall"] for c in calls[1:] if not c["traced"]]
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(warm)
    else:
        times = _rescaled(reports)
        metrics["setup_s"] = statistics.median(times["setup"])
        metrics["cold_wall_s"] = statistics.median(times["cold"])
        metrics["wall_s"] = statistics.median(times["warm"])
        metrics["peak_rss_mb"] = statistics.median(rep["maxrss_kb"] for rep in reports) / 1024
        calib = [c for rep in reports for c in rep["calib"]]
        extra = {
            "raw_median": {
                "setup_s": statistics.median(rep["setup"] for rep in reports),
                "cold_wall_s": statistics.median(rep["calls"][0]["wall"] for rep in reports),
                "wall_s": statistics.median(
                    c["wall"] for rep in reports for c in rep["calls"][1:]
                ),
            },
            "calib_s": {"min": min(calib), "median": statistics.median(calib)},
        }

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "argv": [workloads.argv_for(args.workload, args.seed, v)
                 for v in range(min(len(reports), VARIANTS))],
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": reports[0]["python"],
        "numpy": reports[0]["numpy"],
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "processes": len(reports),
        "calls": len(calls),
        "failed_frac": failed / len(calls),
        "errors": errors,
        "spans": str(spans.relative_to(ROOT)) if spans else None,
        **extra,
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RunFailed as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(2)
