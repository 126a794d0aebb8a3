import dataclasses
import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wshm import cli, posreg
from wshm.diagnostics import DiagnosticsReport, Verdict


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_space_describe_json(capsys):
    code, out, _ = run(capsys, "space", "describe", "--space", "da", "--m", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["scenario"] == "space-describe"
    assert doc["params"]["kind"] == "drury-arveson"
    assert doc["params"]["config"]["m"] == 2
    assert doc["tool_version"].startswith("wshm")


def test_invalid_arity_exits_2(capsys):
    code, _, err = run(capsys, "space", "describe", "--space", "da", "--m", "0")
    assert code == 2 and "error" in err


def test_unknown_space_exits_2(capsys):
    code, _, err = run(capsys, "space", "describe", "--space", "nope")
    assert code == 2


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run(capsys, "space", "describe", "--bogus", "1")
    assert code == 2


def test_missing_subcommand_exits_2(capsys):
    assert run(capsys, "space")[0] == 2
    assert run(capsys)[0] == 2
    code, out, err = run(capsys, "diag", "bogus")
    assert code == 2 and not out and err.startswith("usage: wshm")


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_names_every_subcommand(capsys, flag):
    code, out, err = run(capsys, flag)
    assert code == 0 and not err
    assert out.count("\n") == 1
    assert all(name in out for name in cli.COMMANDS)


def test_parse_error_reports_position(capsys):
    code, _, err = run(
        capsys, "ideal", "hilbert", "--m", "2", "--ideal", "z1 + $", "--max-level", "12"
    )
    assert code == 2
    assert "line 1, column 6" in err


def test_ideal_hilbert_roundtrip(capsys):
    code, out, _ = run(
        capsys, "ideal", "hilbert", "--m", "2", "--ideal", "z1+z2", "--max-level", "12"
    )
    assert code == 0
    doc = json.loads(out)
    table = doc["tables"][0]
    assert table["rows"][5] == [5, 5, 6, 1]
    assert doc["params"]["fit"]["coefficients"] == ["1"]


def test_ideal_decompose(capsys):
    code, out, _ = run(
        capsys,
        "ideal", "decompose",
        "--m", "2", "--ideal", "z2-z1^2", "--weight", "1,2", "--max-wlevel", "6",
    )
    assert code == 0
    doc = json.loads(out)
    rows = doc["tables"][0]["rows"]
    assert rows[2][0] == 2 and rows[2][1] == 1 and rows[2][3] == 1  # defect 1 at ell=2


def test_diag_normality_exit_zero(capsys):
    code, out, _ = run(
        capsys,
        "diag", "normality",
        "--space", "hardy-ball", "--m", "2", "--ideal", "z1+z2", "--max-level", "8",
        "--schatten", "2",
    )
    assert code == 0
    doc = json.loads(out)
    names = {v["name"] for v in doc["verdicts"]}
    assert "spherical-defect" in names and "cross-commutators" in names


def test_diag_trace_and_determinism(capsys):
    args = ("diag", "trace", "--space", "hardy-ball", "--m", "2", "--max-level", "6")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical


def test_diag_koszul(capsys):
    code, out, _ = run(
        capsys, "diag", "koszul", "--m", "2", "--ideal", "z1+z2", "--max-level", "8"
    )
    assert code == 0
    doc = json.loads(out)
    details = {v["name"]: v["details"] for v in doc["verdicts"]}
    assert "chi=1, index=-1" in details["koszul-index"]


def test_diag_section5(capsys):
    code, out, _ = run(
        capsys,
        "diag", "section5",
        "--space", "hardy-ball", "--m", "2", "--ideal", "z1", "--max-level", "8",
    )
    assert code == 0
    doc = json.loads(out)
    assert all(r[-1] for r in doc["tables"][0]["rows"])


def test_diag_section5_requires_ideal(capsys):
    code, _, err = run(capsys, "diag", "section5", "--space", "hardy-ball", "--m", "2")
    assert code == 2


def test_diag_qweights(capsys):
    code, out, _ = run(
        capsys,
        "diag", "qweights",
        "--space", "hardy-ball", "--m", "2", "--ideal", "z1+2i*z2", "--max-level", "30",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdicts"][0]["status"] == "trend-consistent"


def test_qweights_normalises_each_variable_by_its_own_limit(capsys):
    # z1 = -alpha z2 on the quotient, so z1's limit is |alpha| times z2's and
    # both normalized columns are sqrt((k+1)/(k+2))
    normalized = []
    for var in ("1", "2"):
        code, out, _ = run(
            capsys,
            "diag", "qweights", "--space", "hardy-ball", "--m", "2", "--ideal", "z1+2i*z2",
            "--max-level", "40", "--var", var,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdicts"][0]["status"] == "trend-consistent"
        table = doc["tables"][0]
        j = [c["name"] for c in table["columns"]].index("normalized")
        normalized.append([row[j] for row in table["rows"]])
    for k, (x1, x2) in enumerate(zip(*normalized)):
        assert abs(x2 - x1) <= 1e-15
        assert abs(x1 - ((k + 1) / (k + 2)) ** 0.5) <= 1e-15


def test_preg_delta(capsys):
    code, out, _ = run(
        capsys, "preg", "delta", "--poly", "1/2*z1+1/2*z1^2", "--m", "1", "--max-level", "3"
    )
    assert code == 0
    doc = json.loads(out)
    rows = dict((r[0], r[1]) for r in doc["tables"][0]["rows"])
    assert rows["2"] == "3/4" and rows["3"] == "5/8"


def test_preg_check_flagship(capsys):
    code, out, _ = run(
        capsys,
        "preg", "check",
        "--poly", "1/2*z1+1/2*z2+1/4*z1*z2", "--m", "2", "--max-wlevel", "6",
    )
    assert code == 0
    doc = json.loads(out)
    statuses = {v["name"]: v["status"] for v in doc["verdicts"]}
    assert statuses["kernel-equals-ideal"] == "exact-pass"
    assert statuses["defect-projection-identity"] == "exact-pass"
    assert statuses["contractivity"] == "exact-pass"


def test_preg_kernel(capsys):
    code, out, _ = run(
        capsys, "preg", "kernel", "--poly", "1/2*z1+1/2*z1^2", "--m", "1", "--max-wlevel", "6"
    )
    assert code == 0
    doc = json.loads(out)
    rows = doc["tables"][0]["rows"]
    assert rows[2][1] == rows[2][2] == 1


def test_exact_fail_maps_to_exit_one(monkeypatch, capsys):
    failing = DiagnosticsReport("stub", {})
    failing.verdicts.append(Verdict("broken", "exact-fail", "witness"))
    monkeypatch.setattr(cli, "trace_report", lambda space, max_level: failing)
    code, out, _ = run(capsys, "diag", "trace", "--space", "hardy-ball", "--m", "2")
    assert code == 1


def test_out_file_and_csv(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        "diag", "trace", "--space", "hardy-ball", "--m", "2", "--max-level", "4",
        "--out", str(out_json),
    )
    assert code == 0
    doc = json.loads(out_json.read_text())
    assert doc["scenario"] == "trace"

    out_csv = tmp_path / "report.csv"
    code, _, _ = run(
        capsys,
        "diag", "trace", "--space", "hardy-ball", "--m", "2", "--max-level", "4",
        "--format", "csv", "--out", str(out_csv),
    )
    assert code == 0
    csv_file = tmp_path / "report_trace_identity.csv"
    assert csv_file.exists()
    assert csv_file.read_text().startswith("k,computed")


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {
                "command": "diag trace",
                "space": "hardy-ball",
                "m": 2,
                "max_level": 5,
            }
        )
    )
    code, out, _ = run(capsys, "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["scenario"] == "trace"


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"command": "diag trace", "bogus_key": 1}))
    code, _, _ = run(capsys, "--config", str(cfg))
    assert code == 2


def test_config_must_be_alone(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": "diag trace"}))
    code, _, err = run(capsys, "--config", str(cfg), "--m", "2")
    assert code == 2


_PREG = "1/2*z1+1/2*z2+1/4*z1*z2"
# subcommand -> (a base argv that exits 0, the flags it reads besides --m,
# --out and --format)
_FLAG_TABLE = {
    "space describe": (("--space", "da"), {"space", "param", "preview-degree"}),
    "ideal hilbert": (("--ideal", "z1"), {"ideal", "max-level"}),
    "ideal decompose": (
        ("--ideal", "z2-z1^2", "--weight", "1,2", "--max-wlevel", "3"),
        {"ideal", "weight", "max-wlevel"},
    ),
    "diag normality": (
        ("--space", "hardy-ball", "--max-level", "1"),
        {"space", "param", "ideal", "max-level", "schatten"},
    ),
    "diag trace": (("--space", "hardy-ball", "--max-level", "1"), {"space", "param", "max-level"}),
    "diag koszul": (("--ideal", "z1", "--max-level", "2"), {"ideal", "max-level", "module"}),
    "diag section5": (
        ("--space", "hardy-ball", "--ideal", "z1", "--max-level", "1"),
        {"space", "param", "ideal", "max-level"},
    ),
    "diag qweights": (
        ("--space", "hardy-ball", "--ideal", "z1", "--max-level", "1"),
        {"space", "param", "ideal", "max-level", "var"},
    ),
    "preg delta": (("--poly", _PREG, "--max-level", "2"), {"poly", "max-level"}),
    "preg check": (("--poly", _PREG, "--max-wlevel", "2"), {"poly", "max-wlevel"}),
    "preg kernel": (("--poly", _PREG, "--max-wlevel", "2"), {"poly", "max-wlevel"}),
}
# flag -> an argv fragment with a value every subcommand reading it accepts
_FLAG_VALUES = {
    "space": ("--space", "hardy-ball"),
    "param": ("--param", "scale2=1/2", "--space", "polydisk-hardy"),
    "m": ("--m", "2"),
    "ideal": ("--ideal", "z1"),
    "weight": ("--weight", "1,2"),
    "max-level": ("--max-level", "11"),
    "max-wlevel": ("--max-wlevel", "2"),
    "poly": ("--poly", _PREG),
    "out": ("--out", "{tmp}/report.json"),
    "format": ("--format", "json"),
    "preview-degree": ("--preview-degree", "2"),
    "schatten": ("--schatten", "2"),
    "module": ("--module", "ideal"),
    "var": ("--var", "2"),
}


def test_unread_flags_exit_2(tmp_path, capsys):
    hilbert = ("ideal", "hilbert", "--m", "2", "--ideal", "z1", "--max-level", "12")
    assert run(capsys, *hilbert)[0] == 0
    assert run(capsys, *hilbert, "--schatten", "7")[0] == 2
    assert run(capsys, *hilbert, "--jobs", "3")[0] == 2
    assert run(capsys, "space", "describe", "--max-level", "3")[0] == 2
    assert run(capsys, "ideal", "decompose", "--m", "2", "--ideal", "z2-z1^2",
               "--weight", "1,2", "--max-level", "3")[0] == 2
    assert run(capsys, "preg", "kernel", "--poly", "1/2*z1+1/2*z1^2", "--m", "1",
               "--max-level", "3")[0] == 2

    # every (subcommand, flag) pair: a flag the subcommand reads parses and
    # runs, any other one is refused by the parser
    for name, (base, reads) in _FLAG_TABLE.items():
        for flag, value in _FLAG_VALUES.items():
            argv = (*name.split(), *base, *(a.replace("{tmp}", str(tmp_path)) for a in value))
            code, _, err = run(capsys, *argv)
            if flag in reads or flag in ("m", "out", "format"):
                assert code == 0, (argv, err)
            else:
                assert code == 2 and "unrecognized arguments" in err, argv


def test_normality_single_level_is_inconclusive(capsys):
    code, out, _ = run(
        capsys,
        "diag", "normality", "--space", "hardy-ball", "--m", "2", "--max-level", "0",
    )
    assert code == 0
    statuses = {v["name"]: v["status"] for v in json.loads(out)["verdicts"]}
    assert statuses["cross-commutators"] == "inconclusive"


def test_qweights_short_window_is_inconclusive(capsys):
    code, out, _ = run(
        capsys,
        "diag", "qweights",
        "--space", "hardy-ball", "--m", "2", "--ideal", "z1+2i*z2", "--max-level", "10",
    )
    assert code == 0
    assert json.loads(out)["verdicts"][0]["status"] == "inconclusive"


def test_qweights_with_huge_gram_entries_exits_0(capsys):
    # Gram entries outgrow a double by level 60; qweights reads only exact ratios
    code, out, err = run(
        capsys,
        "diag", "qweights",
        "--space", "hardy-ball", "--m", "2", "--ideal", "z1+1000000*z2", "--max-level", "60",
    )
    assert code == 0 and "Traceback" not in err
    assert json.loads(out)["verdicts"]


@pytest.mark.parametrize("report", ["normality", "section5"])
def test_float_reports_with_huge_gram_entries_exit_0(capsys, report):
    # Gram entries leave the range of a double from level 26 on; the float tier
    # must still read every block in orthonormal coordinates
    code, out, err = run(
        capsys,
        "diag", report,
        "--space", "hardy-ball", "--m", "2", "--ideal", "z1+1000000*z2", "--max-level", "30",
    )
    assert code == 0 and not err
    doc = json.loads(out)
    for table in doc["tables"]:
        for c, col in enumerate(table["columns"]):
            if col["tier"] == "float":
                assert all(np.isfinite(row[c]) for row in table["rows"]), col["name"]


def test_out_into_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, _, err = run(
        capsys, "diag", "trace", "--space", "hardy-ball", "--m", "2", "--out", str(target),
    )
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert not target.exists()


def _raise_linalg_error(space, max_level):
    raise np.linalg.LinAlgError("SVD did not converge")


@pytest.mark.parametrize(
    "argv, patch",
    [
        (("diag", "normality", "--schatten", "abc"), None),
        (("diag", "normality", "--max-level", "2", "--schatten", "0.5"), None),
        (("ideal", "decompose", "--m", "2", "--ideal", "z1", "--weight", "1,x"), None),
        (("space", "describe", "--space", "table", "--param", "table={tmp}/missing.json"), None),
        (("diag", "trace", "--space", "hardy-ball", "--max-level", "2"), _raise_linalg_error),
        (("diag", "normality", "--space", "hardy-ball", "--m", "2", "--max-level", "-1"), None),
        (("diag", "section5", "--space", "hardy-ball", "--m", "2", "--ideal", "z1+z2",
          "--max-level", "-1"), None),
        (("preg", "check", "--poly", "z1+z2", "--m", "2", "--max-wlevel", "-1"), None),
        (("diag", "koszul", "--max-level", "-1"), None),
        (("space", "describe", "--space", "da", "--m", "2", "--preview-degree", "-1"), None),
        (("diag", "qweights", "--space", "hardy-ball", "--m", "2", "--ideal", "z1+z2",
          "--max-level", "3", "--var", "0"), None),
        (("diag", "qweights", "--space", "hardy-ball", "--m", "2", "--ideal", "z1+z2",
          "--max-level", "3", "--var", "3"), None),
        (("space", "describe", "--space", "polydisk", "--param", "scale2=abc"), None),
        (("space", "describe", "--space", "polydisk", "--param", "scale2=1/0"), None),
        (("space", "describe", "--space", "custom", "--param", "table="), None),
        (("space", "describe", "--space", "custom", "--param", "weight=foo"), None),
        (("space", "describe", "--space", "da", "--param", "scale2=2"), None),
        (("diag", "koszul", "--m", "2", "--max-level", "4", "--module", "full",
          "--ideal", "z1^5"), None),
    ],
    ids=["schatten-not-a-number", "schatten-below-one",
         "weight-not-an-integer", "missing-weight-table", "linalg-error",
         "negative-level-normality", "negative-level-section5",
         "negative-wlevel-preg-check", "negative-level-koszul",
         "negative-preview-degree", "var-zero", "var-above-m",
         "scale2-not-a-number", "scale2-zero-denominator", "empty-table-path",
         "custom-weight-key", "param-not-read-by-space", "koszul-full-with-ideal"],
)
def test_bad_input_exits_2_with_one_error_line(tmp_path, monkeypatch, capsys, argv, patch):
    if patch is not None:
        monkeypatch.setattr(cli, "trace_report", patch)
    code, out, err = run(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
    assert code == 2 and not out
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


def test_empty_table_path_names_the_flag(capsys):
    # an empty path is refused as such, not read as the working directory
    code, out, err = run(capsys, "space", "describe", "--space", "custom", "--param", "table=")
    assert code == 2 and not out
    assert err == "error: --param table: the path is empty\n"


def _describe_table(capsys, tmp_path, value):
    path = tmp_path / "table.json"
    path.write_text(f'{{"0": 1, "1": {value}}}')
    return run(
        capsys, "space", "describe", "--space", "custom", "--m", "1",
        "--param", f"table={path}", "--preview-degree", "1",
    )


@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN", "true", "false"])
def test_weight_table_constants_exit_2(tmp_path, capsys, value):
    code, out, err = _describe_table(capsys, tmp_path, value)
    assert code == 2 and not out
    assert err.startswith("error: cannot read weight table") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "value, omega", [("0.1", "1/10"), ("1e400", str(10**400)), ('"1/3"', "1/3"), ("2", "2")]
)
def test_weight_table_numbers_are_read_exactly(tmp_path, capsys, value, omega):
    # a decimal is the rational it spells, not the nearest binary double
    code, out, _ = _describe_table(capsys, tmp_path, value)
    assert code == 0
    assert json.loads(out)["tables"][0]["rows"] == [["0", "1"], ["1", omega]]


def test_ideal_hilbert_default_level_is_accepted(capsys):
    code, out, _ = run(capsys, "ideal", "hilbert", "--m", "2", "--ideal", "z1")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["max_level"] == 11  # 2 * window + max generator degree
    assert len(doc["tables"][0]["rows"]) == 12
    # an explicit level below the smallest accepted one is still refused
    too_small = ("ideal", "hilbert", "--m", "2", "--ideal", "z1", "--max-level", "10")
    assert run(capsys, *too_small)[0] == 2


def test_preg_contractivity_is_decided_exactly(monkeypatch, capsys):
    # level 0's squared singular value raised to 1 + 1e-12: its float square
    # root rounds to within 1e-10 of 1, but the exact verdict must fail
    sq = Fraction(1) + Fraction(1, 10**12)

    def raised(data, ell_max):
        first, *rest = posreg.xp_blocks(data, ell_max)
        assert first.singular_sq == [1]
        return [dataclasses.replace(first, singular_sq=[sq], singular_values=[float(sq) ** 0.5]), *rest]

    monkeypatch.setattr(cli, "xp_blocks", raised)
    code, out, _ = run(
        capsys,
        "preg", "check",
        "--poly", "1/2*z1+1/2*z2+1/4*z1*z2", "--m", "2", "--max-wlevel", "2",
    )
    statuses = {v["name"]: v["status"] for v in json.loads(out)["verdicts"]}
    assert statuses["contractivity"] == "exact-fail"
    assert code == 1


def test_preg_check_builds_the_comparison_map_once(monkeypatch, capsys):
    # one J_P and one list of comparison-map levels serve the whole report
    calls = Counter()
    for name in ("jp_data", "xp_blocks"):
        def counted(*args, _real=getattr(posreg, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        for module in (posreg, cli):
            monkeypatch.setattr(module, name, counted)
    argv = ("preg", "check", "--poly", "1/2*z1+1/2*z2+1/4*z1*z2", "--m", "2", "--max-wlevel", "4")
    assert run(capsys, *argv)[0] == 0 and calls == {"jp_data": 1, "xp_blocks": 1}


_LEVEL_FLAGS = ("max-level", "max-wlevel", "preview-degree")
_LEVELS = (("0", "1", "2", "3", "4"), ("-1", "x"))
# flag -> (small well-formed values, malformed ones), for every flag but --out
_FUZZ_VALUES = {
    "space": (("da", "hardy-ball", "bergman-ball", "polydisk-hardy"), ("custom", "nope", "")),
    "param": (("scale2=1/2",), ("scale2=abc", "table=", "foo", "weight=1")),
    "m": (("1", "2", "3"), ("0", "x")),
    "ideal": (("z1", "z1+z2", "z1^2,z1*z2", "z1+2i*z2", "z2-z1^2"), ("z1 + $", "z3", "1", "")),
    "weight": (("1,2", "2,1"), ("1,x", "0,1", "1")),
    "max-level": _LEVELS,
    "max-wlevel": _LEVELS,
    "preview-degree": _LEVELS,
    "poly": ((_PREG, "1/2*z1+1/2*z1^2"), ("z1+z2", "z1 + $")),
    "format": (("json",), ("xml",)),
    "schatten": (("2", "1,2.5"), ("0.5", "abc", "inf", "2,2")),
    "module": (("full", "ideal", "quotient"), ("bogus",)),
    "var": (("1", "2"), ("0", "3")),
}


@st.composite
def _fuzz_argv(draw):
    """A subcommand, a subset of its flags and a value for each, malformed one
    time in eight.  Every level flag is given, so that each run stays small;
    ``ideal hilbert`` may leave its own out, whose default is the smallest
    level its fit accepts."""
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    flags = (*cli.COMMANDS[name].flags, "m", "format")
    chosen = draw(st.lists(st.sampled_from(flags), unique=True))
    if name != "ideal hilbert":
        chosen += [f for f in flags if f in _LEVEL_FLAGS and f not in chosen]
    argv = name.split()
    for flag in chosen:
        good, bad = _FUZZ_VALUES[flag]
        values = bad if draw(st.integers(0, 7)) == 7 else good
        argv += [f"--{flag}", draw(st.sampled_from(values))]
    return argv


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_fuzz_argv())
def test_cli_fuzz_keeps_the_exit_code_contract(capsys, argv):
    # --out is left out, so stdout carries the report the exit code is checked against
    code, out, err = run(capsys, *argv)
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 2:
        assert not out and (err.startswith("error:") or err.startswith("usage:"))
    else:
        statuses = {v["status"] for v in json.loads(out)["verdicts"]}
        assert code == (1 if "exact-fail" in statuses else 0)
