"""Record the exact columns of each workload's report as its stored reference.

Usage, from the repository root::

    python3 perfbench/make_ref.py --seed 0
    python3 perfbench/make_ref.py --seed 7919

The benchmark compares against seed 0 and against variant 0 of the held-out
seed 7919, which is the variant this script records.  Run it only when a change to the program is meant to change exact output,
and say so where the change is recorded: the references are what the
benchmark's byte-for-byte check compares against.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wshm.cli import main as wshm_main  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = ap.parse_args()
    workloads.REF_DIR.mkdir(exist_ok=True)
    for name in args.workload or workloads.WORKLOADS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = wshm_main(workloads.argv_for(name, args.seed))
        if rc != 0:
            print(f"error: {name} exited {rc}", file=sys.stderr)
            return 1
        path = workloads.reference_path(name, args.seed)
        path.write_text(workloads.exact_projection(json.loads(buf.getvalue())) + "\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
