"""Each benchmark workload, at the default seed and at the held-out seed,
prints a report whose exact columns and verdicts equal the benchmark's
stored reference (read-only)."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from wshm import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_exact_columns_equal_the_reference(workload, seed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(workloads.argv_for(workload, seed, 0))
    assert code == 0
    ref = workloads.reference_path(workload, seed, 0)
    got = workloads.exact_projection(json.loads(out.getvalue()))
    assert got == ref.read_text().rstrip("\n")
