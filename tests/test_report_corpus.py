"""Report corpus regression check.

Each case is one CLI argv; ``data/report_corpus/<case>.json`` holds the JSON
report it printed when the corpus was recorded.  A change that alters a
report on purpose records it again (``wshm <argv> > <case>.json``) and says
why.  The cases cover scenarios that the benchmark does not run.  A report
must keep its scenario, params, table layout and verdict names; exact, int
and text columns and every verdict's status and details text must be equal
(a details text prints its floats with six significant digits), and float
columns must agree within 1e-12 relative.
"""

import json
from pathlib import Path

import pytest

from wshm import cli

DATA = Path(__file__).resolve().parent / "data" / "report_corpus"
REL_TOL = 1e-12

CASES = {
    "koszul-full-m3": ("diag", "koszul", "--m", "3", "--max-level", "6"),
    "koszul-ideal": (
        "diag", "koszul", "--m", "2", "--ideal", "z1^2,z1*z2", "--module", "ideal",
        "--max-level", "8",
    ),
    # certified Groebner degree 4: the ideal module's basis past it is built
    # from the level below, at another row scale than rref's
    "koszul-ideal-twisted-cubic": (
        "diag", "koszul", "--m", "3", "--ideal", "z1*z2-z3^2,z1*z3-z2^2", "--module", "ideal",
        "--max-level", "9",
    ),
    "koszul-quotient": (
        "diag", "koszul", "--m", "3", "--ideal", "z1+z2,z3^2", "--module", "quotient",
        "--max-level", "7",
    ),
    "normality-da-quotient": (
        "diag", "normality", "--space", "da", "--m", "2", "--ideal", "z1+z2",
        "--max-level", "6", "--schatten", "2",
    ),
    "normality-polydisk-full": (
        "diag", "normality", "--space", "polydisk-hardy", "--m", "2", "--max-level", "5",
        "--schatten", "2",
    ),
    "normality-hb-quadric": (
        "diag", "normality", "--space", "hardy-ball", "--m", "2",
        "--ideal", "z1^2+(1+i)*z1*z2-z2^2", "--max-level", "6", "--schatten", "2",
    ),
    # levels of dimension 1, 1, 0, 0, 0: empty blocks reach the stacked SVD
    "normality-hb-artinian": (
        "diag", "normality", "--space", "hardy-ball", "--m", "2", "--ideal", "z1^2,z2",
        "--max-level", "4", "--schatten", "2",
    ),
    # a nonzero spherical defect on the full space
    "normality-da-full": (
        "diag", "normality", "--space", "da", "--m", "3", "--max-level", "8",
        "--schatten", "1,2.5",
    ),
    "section5-hb-quadric": (
        "diag", "section5", "--space", "hardy-ball", "--m", "2",
        "--ideal", "z1^2+(1+i)*z1*z2-z2^2", "--max-level", "8",
    ),
    # monomial quotients: every block is read off the standard monomials'
    # weights (d = 1 and d = 2; a d = 0 ideal would pin M0's open question)
    "section5-hb-monomial": (
        "diag", "section5", "--space", "hardy-ball", "--m", "2", "--ideal", "z1*z2",
        "--max-level", "12",
    ),
    "normality-hb3-monomial": (
        "diag", "normality", "--space", "hardy-ball", "--m", "3", "--ideal", "z1^2,z2*z3",
        "--max-level", "8", "--schatten", "2",
    ),
    "preg-check": (
        "preg", "check", "--poly", "1/2*z1+1/2*z2+1/4*z1*z2", "--m", "2", "--max-wlevel", "6",
    ),
    # three higher terms of mixed degree, two irrational lambda: pins the
    # order of the comparison variables Z_{m+j}
    "preg-check-multi": (
        "preg", "check", "--poly", "1/4*z1+1/4*z2+1/4*z1^2+1/8*z1*z2+1/8*z2^3", "--m", "2",
        "--max-wlevel", "6",
    ),
    # a term of degree 9 above the check's weighted level 2
    "preg-check-high-term": (
        "preg", "check", "--poly", "1/2*z1+1/2*z1^9", "--m", "1", "--max-wlevel", "2",
    ),
    "preg-kernel": ("preg", "kernel", "--poly", "1/2*z1+1/2*z1^2", "--m", "1", "--max-wlevel", "8"),
    "trace-hb3": ("diag", "trace", "--space", "hardy-ball", "--m", "3", "--max-level", "12"),
    "trace-da": ("diag", "trace", "--space", "da", "--m", "2", "--max-level", "8"),
    "ideal-hilbert": ("ideal", "hilbert", "--m", "3", "--ideal", "z1^2+z2*z3", "--max-level", "14"),
    # d = 0: the series is exact below the level the old fit's window reached
    "ideal-hilbert-artinian": (
        "ideal", "hilbert", "--m", "2", "--ideal", "z1^6,z2^6", "--max-level", "16",
    ),
    "ideal-decompose": (
        "ideal", "decompose", "--m", "2", "--ideal", "z1*z2-z1^3,z2^2", "--weight", "1,2",
        "--max-wlevel", "9",
    ),
    # certified Groebner degree 3 for n = (2, 1, 1): levels 4 to 16 are built
    # from the levels below, as plain ones are
    "ideal-decompose-weighted": (
        "ideal", "decompose", "--m", "3", "--ideal", "z1*z3-z2^3,z1-z2^2+z3^2",
        "--weight", "2,1,1", "--max-wlevel", "16",
    ),
}


def _floats_agree(got, want) -> bool:
    if not isinstance(got, float) or not isinstance(want, float):
        return got == want
    return abs(got - want) <= REL_TOL * max(abs(got), abs(want))


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_stored_corpus(case, capsys):
    code = cli.main(list(CASES[case]))
    got = json.loads(capsys.readouterr().out)
    want = json.loads((DATA / f"{case}.json").read_text())
    assert code == 0
    for key in ("scenario", "params", "tool_version"):
        assert got[key] == want[key], key
    assert [t["name"] for t in got["tables"]] == [t["name"] for t in want["tables"]]
    for tg, tw in zip(got["tables"], want["tables"]):
        assert tg["columns"] == tw["columns"], tw["name"]
        assert len(tg["rows"]) == len(tw["rows"]), tw["name"]
        for rg, rw in zip(tg["rows"], tw["rows"]):
            for col, xg, xw in zip(tw["columns"], rg, rw):
                where = f"{tw['name']}.{col['name']} at {rw[0]}"
                if col["tier"] == "float":
                    assert _floats_agree(xg, xw), (where, xg, xw)
                else:
                    assert xg == xw, (where, xg, xw)
    assert [(v["name"], v["status"], v["details"]) for v in got["verdicts"]] == [
        (v["name"], v["status"], v["details"]) for v in want["verdicts"]
    ]
