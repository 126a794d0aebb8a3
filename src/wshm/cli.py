"""Command-line front end.

Subcommands: space describe | ideal hilbert | ideal decompose |
diag normality | diag trace | diag koszul | diag section5 | diag qweights |
preg delta | preg check | preg kernel.

Exit codes: 0 = all exact checks pass, 1 = an exact-fail verdict is present,
2 = usage, configuration or input error (one ``error:`` line on stderr, never
a traceback).  Trend verdicts never affect the exit code.  Reports are JSON
(canonical) or per-table CSV, embed their resolved configuration, and are
byte-identical across runs for identical configs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .algebra import check_weight_vector
from .diagnostics import (
    Column,
    DiagnosticsReport,
    Table,
    Verdict,
    koszul_report,
    normality_report,
    qweights_report,
    section5_report,
    trace_report,
)
from .errors import ParseError, WshmError
from .ideals import GradedIdeal, hilbert_samuel_fit, residue_decompose
from .operators import full_realization, quotient_realization
from .parsing import parse_polynomial_list
from .posreg import (
    PositiveRegularPoly,
    defect_projection_check,
    delta_coefficients,
    jp_data,
    kernel_vs_ideal,
    xp_blocks,
    xp_module_map_check,
)
from .spaces import builtin_space


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wshm",
        description="weighted shift Hilbert module diagnostics",
    )
    parser.add_argument("--config", help="JSON config file replacing all flags")
    sub = parser.add_subparsers(dest="command")

    def common(
        p, space=False, ideal=False, weight=False, level=False, wlevel=False, poly=False
    ):
        """Register the flags a subcommand reads, and no others."""
        if space:
            p.add_argument("--space", default="drury-arveson")
            p.add_argument("--param", action="append", default=[], metavar="K=V")
        p.add_argument("--m", type=int, default=2)
        if ideal:
            p.add_argument("--ideal", help="comma-separated generator polynomials")
        if weight:
            p.add_argument("--weight", help="weight vector n1,n2,...")
        if level:
            p.add_argument("--max-level", type=int, default=10)
        if wlevel:
            p.add_argument("--max-wlevel", type=int, default=8)
        if poly:
            p.add_argument("--poly", required=True)
        p.add_argument("--out", help="output path")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p_space = sub.add_parser("space", help="space inspection").add_subparsers(dest="sub")
    p = p_space.add_parser("describe")
    common(p, space=True)
    p.add_argument("--preview-degree", type=int, default=3)

    p_ideal = sub.add_parser("ideal", help="ideal computations").add_subparsers(dest="sub")
    p = p_ideal.add_parser("hilbert")
    common(p, ideal=True, level=True)
    p.set_defaults(max_level=None)  # the smallest level the fit accepts
    p = p_ideal.add_parser("decompose")
    common(p, ideal=True, weight=True, wlevel=True)

    p_diag = sub.add_parser("diag", help="diagnostics").add_subparsers(dest="sub")
    p = p_diag.add_parser("normality")
    common(p, space=True, ideal=True, level=True)
    p.add_argument("--schatten", help="comma-separated exponents p >= 1")
    p = p_diag.add_parser("trace")
    common(p, space=True, level=True)
    p = p_diag.add_parser("koszul")
    common(p, ideal=True, level=True)
    p.add_argument("--module", choices=("full", "ideal", "quotient"), default=None)
    p = p_diag.add_parser("section5")
    common(p, space=True, ideal=True, level=True)
    p = p_diag.add_parser("qweights")
    common(p, space=True, ideal=True, level=True)
    p.add_argument("--var", type=int, default=1, help="1-based shift variable")

    p_preg = sub.add_parser("preg", help="positive regular pipeline").add_subparsers(dest="sub")
    p = p_preg.add_parser("delta")
    common(p, poly=True, level=True)
    p = p_preg.add_parser("check")
    common(p, poly=True, wlevel=True)
    p = p_preg.add_parser("kernel")
    common(p, poly=True, wlevel=True)
    return parser


def _config_to_argv(path: str) -> list[str]:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or "command" not in data:
        raise WshmError("config file must be a JSON object with a 'command' key")
    argv = list(str(data.pop("command")).split())
    for key, value in sorted(data.items()):
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            raise WshmError(f"boolean config values are not supported: {key}")
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        argv += [flag, str(value)]
    return argv


def _parse_params(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise WshmError(f"--param needs K=V, got {pair!r}")
        k, v = pair.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _space_from_args(args) -> object:
    params = _parse_params(getattr(args, "param", []) or [])
    if params.get("table"):
        path = params["table"]
        try:
            table_raw = json.loads(Path(path).read_text())
            if not isinstance(table_raw, dict):
                raise ValueError("expected a JSON object")
            params["table"] = {
                tuple(int(x) for x in key.split(",")): Fraction(val)
                for key, val in table_raw.items()
            }
        except (OSError, ValueError, TypeError, ZeroDivisionError) as e:
            raise WshmError(f"cannot read weight table {path}: {e}") from None
    return builtin_space(args.space, args.m, params)


def _ideal_from_args(args, weight=None) -> GradedIdeal | None:
    text = getattr(args, "ideal", None)
    if not text:
        return None
    gens = parse_polynomial_list(text, args.m)
    return GradedIdeal(args.m, gens, weight=weight)


def _weight_from_args(args):
    text = getattr(args, "weight", None)
    if not text:
        return None
    try:
        weight = [int(x) for x in text.split(",")]
    except ValueError:
        raise WshmError(f"--weight needs comma-separated integers, got {text!r}") from None
    return check_weight_vector(weight, args.m)


def _schatten_from_args(args) -> list[float]:
    text = getattr(args, "schatten", None)
    if not text:
        return []
    try:
        exponents = [float(x) for x in text.split(",")]
    except ValueError:
        raise WshmError(f"--schatten needs comma-separated numbers, got {text!r}") from None
    for p in exponents:
        if not (1 <= p < math.inf):
            raise WshmError(f"--schatten exponents must be finite and >= 1, got {p}")
    return exponents


def _resolved_config(args) -> dict:
    skip = {"config"}
    return {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    }


def _run_space_describe(args) -> DiagnosticsReport:
    space = _space_from_args(args)
    desc = space.describe(args.preview_degree)
    report = DiagnosticsReport(
        "space-describe",
        {"kind": desc["kind"], "m": desc["m"], "space_params": desc["params"]},
    )
    report.tables.append(
        Table(
            "sample_weights",
            [Column("alpha", "text"), Column("omega", "exact")],
            [[",".join(map(str, w["alpha"])), w["omega"]] for w in desc["sample_weights"]],
        )
    )
    return report


def _run_ideal_hilbert(args) -> DiagnosticsReport:
    ideal = _ideal_from_args(args)
    if ideal is None:
        raise WshmError("ideal hilbert requires --ideal")
    data = hilbert_samuel_fit(ideal, args.max_level)
    report = DiagnosticsReport(
        "ideal-hilbert",
        {
            "m": args.m,
            "ideal": [str(g) for g in ideal.generators],
            "max_level": data.table[-1][0],
            "fit": data.to_json_dict(),
        },
    )
    report.tables.append(
        Table(
            "hilbert_function",
            [
                Column("k", "int"),
                Column("dim_ideal", "int"),
                Column("dim_level", "int"),
                Column("dim_quotient", "int"),
            ],
            [list(r) for r in data.table],
        )
    )
    report.verdicts.append(
        Verdict(
            "hilbert-samuel-fit",
            "reported-only",
            f"stabilized={data.stabilized}, degree={data.degree}, K={data.stabilization_degree}",
        )
    )
    return report


def _run_ideal_decompose(args) -> DiagnosticsReport:
    weight = _weight_from_args(args)
    if weight is None:
        raise WshmError("ideal decompose requires --weight")
    ideal = _ideal_from_args(args, weight=weight)
    if ideal is None:
        raise WshmError("ideal decompose requires --ideal")
    dec = residue_decompose(ideal, args.max_wlevel)
    report = DiagnosticsReport(
        "ideal-decompose",
        {
            "m": args.m,
            "ideal": [str(g) for g in ideal.generators],
            "weight": list(weight),
            "max_wlevel": args.max_wlevel,
        },
    )
    report.tables.append(
        Table(
            "residue_decomposition",
            [
                Column("ell", "int"),
                Column("dim", "int"),
                Column("class_dims", "text"),
                Column("defect", "int"),
            ],
            [
                [
                    lv.ell,
                    lv.dim_total,
                    ";".join(
                        f"({','.join(map(str, cls))})={d}"
                        for cls, d in sorted(lv.class_dims.items())
                    ),
                    lv.defect,
                ]
                for lv in dec.levels
            ],
        )
    )
    report.verdicts.append(
        Verdict(
            "decomposition-defect",
            "exact-pass" if all(lv.defect >= 0 for lv in dec.levels) else "exact-fail",
            f"max defect {dec.max_defect} (reported, not asserted against the splitting)",
        )
    )
    return report


def _run_diag(args) -> DiagnosticsReport:
    if args.sub == "trace":
        space = _space_from_args(args)
        return trace_report(space, args.max_level)
    if args.sub == "normality":
        space = _space_from_args(args)
        ideal = _ideal_from_args(args)
        K = args.max_level
        if ideal is None:
            realization = full_realization(space, K + 2)
        else:
            realization = quotient_realization(space, ideal, K + 2)
        return normality_report(realization, K, _schatten_from_args(args))
    if args.sub == "koszul":
        ideal = _ideal_from_args(args)
        module = args.module or ("ideal" if ideal is not None else "full")
        return koszul_report(args.m, ideal, module, args.max_level)
    if args.sub == "section5":
        space = _space_from_args(args)
        ideal = _ideal_from_args(args)
        if ideal is None:
            raise WshmError("diag section5 requires --ideal")
        return section5_report(space, ideal, args.max_level)
    if args.sub == "qweights":
        space = _space_from_args(args)
        ideal = _ideal_from_args(args)
        if ideal is None:
            raise WshmError("diag qweights requires --ideal")
        return qweights_report(space, ideal, args.max_level, var=args.var - 1)
    raise WshmError(f"unknown diag subcommand {args.sub!r}")


def _preg_poly(args) -> PositiveRegularPoly:
    from .parsing import parse_polynomial

    p = parse_polynomial(args.poly, args.m)
    return PositiveRegularPoly.from_polynomial(p)


def _run_preg(args) -> DiagnosticsReport:
    poly = _preg_poly(args)
    if args.sub == "delta":
        table = delta_coefficients(poly, args.max_level)
        report = DiagnosticsReport(
            "preg-delta", {"poly": str(poly), "m": args.m, "max_level": args.max_level}
        )
        report.tables.append(
            Table(
                "delta",
                [Column("beta", "text"), Column("delta", "exact")],
                [[",".join(map(str, b)), str(v)] for b, v in table.items()],
            )
        )
        return report

    ell_max = args.max_wlevel
    report = DiagnosticsReport(
        "preg-check" if args.sub == "check" else "preg-kernel",
        {"poly": str(poly), "m": args.m, "max_wlevel": ell_max},
    )
    data = jp_data(poly)
    report.params["jp"] = data.to_json_dict()
    levels = kernel_vs_ideal(poly, ell_max, data)
    report.tables.append(
        Table(
            "kernel_vs_ideal",
            [
                Column("ell", "int"),
                Column("dim_kernel", "int"),
                Column("dim_ideal", "int"),
                Column("equal", "text"),
                Column("containment_ok", "text"),
            ],
            [
                [lv.ell, lv.dim_kernel, lv.dim_ideal, lv.equal, lv.containment_ok]
                for lv in levels
            ],
        )
    )
    report.verdicts.append(
        Verdict(
            "kernel-contains-ideal",
            "exact-pass" if all(lv.containment_ok for lv in levels) else "exact-fail",
            "; ".join(lv.witness for lv in levels if lv.witness) or "all spanning elements in kernel",
        )
    )
    report.verdicts.append(
        Verdict(
            "kernel-equals-ideal",
            "exact-pass" if all(lv.equal for lv in levels) else "exact-fail",
            f"levels 0..{ell_max}",
        )
    )
    if args.sub == "check":
        deg = max(ell_max, 8)
        proj = defect_projection_check(poly, deg)
        report.verdicts.append(
            Verdict(
                "defect-projection-identity",
                "exact-pass" if proj.passed else "exact-fail",
                f"rank-one identity on all |beta| <= {deg}"
                if proj.passed
                else f"failed at {proj.failures[0]}",
            )
        )
        mm = xp_module_map_check(poly, ell_max)
        report.verdicts.append(
            Verdict(
                "module-map-intertwining",
                "exact-pass" if mm.passed else "exact-fail",
                mm.witness or "exact on squared data",
            )
        )
        svmax = 0.0
        sq_max = Fraction(0)
        for xl in xp_blocks(poly, ell_max):
            if xl.singular_values:
                svmax = max(svmax, xl.singular_values[0])
            sq_max = max([sq_max, *xl.singular_sq])
        report.tables.append(
            Table(
                "contractivity",
                [Column("max_singular_value", "float")],
                [[svmax]],
            )
        )
        report.verdicts.append(
            Verdict(
                "contractivity",
                "exact-pass" if sq_max <= 1 else "exact-fail",
                f"max singular value {svmax}",
            )
        )
    return report


def _emit(report: DiagnosticsReport, args) -> None:
    report.params["config"] = {
        k: (v if isinstance(v, (int, float, str, list)) else str(v))
        for k, v in _resolved_config(args).items()
    }
    if args.format == "json":
        text = report.to_json()
        if args.out:
            Path(args.out).write_text(text + "\n")
        else:
            print(text)
        return
    # CSV: one file per table next to --out, or stdout sections
    if args.out:
        stem = Path(args.out)
        for table in report.tables:
            path = stem.with_name(f"{stem.stem}_{table.name}{stem.suffix or '.csv'}")
            path.write_text(table.to_csv())
    else:
        for table in report.tables:
            print(f"# table: {table.name}")
            sys.stdout.write(table.to_csv())


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        if "--config" in argv:
            idx = argv.index("--config")
            if len(argv) != 2 or idx != 0:
                raise WshmError("--config must be the only argument")
            argv = _config_to_argv(argv[1])
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    except (WshmError, ParseError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    if not getattr(args, "command", None) or not getattr(args, "sub", None):
        parser.print_usage(sys.stderr)
        return 2

    try:
        if args.command == "space":
            report = _run_space_describe(args)
        elif args.command == "ideal":
            report = (
                _run_ideal_hilbert(args)
                if args.sub == "hilbert"
                else _run_ideal_decompose(args)
            )
        elif args.command == "diag":
            report = _run_diag(args)
        elif args.command == "preg":
            report = _run_preg(args)
        else:
            parser.print_usage(sys.stderr)
            return 2
    except (WshmError, ParseError, np.linalg.LinAlgError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    try:
        _emit(report, args)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 1 if report.has_exact_fail else 0


if __name__ == "__main__":
    sys.exit(main())
