import json
from fractions import Fraction

import numpy as np
import pytest

from wshm import cli
from wshm.diagnostics import DiagnosticsReport, Verdict
from wshm.posreg import XpLevel


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
    monkeypatch.setattr(cli, "_run_diag", lambda args: failing)
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


def test_unread_flags_exit_2(capsys):
    hilbert = ("ideal", "hilbert", "--m", "2", "--ideal", "z1", "--max-level", "12")
    assert run(capsys, *hilbert)[0] == 0
    assert run(capsys, *hilbert, "--schatten", "7")[0] == 2
    assert run(capsys, *hilbert, "--jobs", "3")[0] == 2
    assert run(capsys, "space", "describe", "--max-level", "3")[0] == 2
    assert run(capsys, "ideal", "decompose", "--m", "2", "--ideal", "z2-z1^2",
               "--weight", "1,2", "--max-level", "3")[0] == 2
    assert run(capsys, "preg", "kernel", "--poly", "1/2*z1+1/2*z1^2", "--m", "1",
               "--max-level", "3")[0] == 2


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


def test_out_into_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, _, err = run(
        capsys, "diag", "trace", "--space", "hardy-ball", "--m", "2", "--out", str(target),
    )
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert not target.exists()


def _raise_linalg_error(args):
    raise np.linalg.LinAlgError("SVD did not converge")


@pytest.mark.parametrize(
    "argv, patch",
    [
        (("diag", "normality", "--schatten", "abc"), None),
        (("diag", "normality", "--max-level", "2", "--schatten", "0.5"), None),
        (("ideal", "decompose", "--m", "2", "--ideal", "z1", "--weight", "1,x"), None),
        (("space", "describe", "--space", "table", "--param", "table={tmp}/missing.json"), None),
        (("diag", "trace", "--space", "hardy-ball", "--max-level", "2"), _raise_linalg_error),
    ],
    ids=["schatten-not-a-number", "schatten-below-one",
         "weight-not-an-integer", "missing-weight-table", "linalg-error"],
)
def test_bad_input_exits_2_with_one_error_line(tmp_path, monkeypatch, capsys, argv, patch):
    if patch is not None:
        monkeypatch.setattr(cli, "_run_diag", patch)
    code, out, err = run(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
    assert code == 2 and not out
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


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
    # one squared singular value 1 + 1e-12: its float square root rounds to
    # within 1e-10 of 1, but the exact verdict must fail
    sq = Fraction(1) + Fraction(1, 10**12)
    level = XpLevel(0, [(0, 0)], [(0, 0)], [sq], [sq], [float(sq) ** 0.5], 1)
    monkeypatch.setattr(cli, "xp_blocks", lambda poly, ell_max: [level])
    code, out, _ = run(
        capsys,
        "preg", "check",
        "--poly", "1/2*z1+1/2*z2+1/4*z1*z2", "--m", "2", "--max-wlevel", "2",
    )
    statuses = {v["name"]: v["status"] for v in json.loads(out)["verdicts"]}
    assert statuses["contractivity"] == "exact-fail"
    assert code == 1
