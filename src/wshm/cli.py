"""Command-line front end.

``COMMANDS`` is the one place a subcommand's flags live: it maps each
two-word subcommand (``diag normality``, ``preg kernel``, ...) to the flags it
reads and the function that runs it.  A call builds one parser with those
flags plus ``--m``, ``--out`` and ``--format``, so any other flag exits 2.

Exit codes: 0 = all exact checks pass, 1 = an exact-fail verdict is present,
2 = usage, configuration or input error (one ``error:`` line on stderr, never
a traceback).  Trend verdicts never affect the exit code.  Reports are JSON
(canonical) or per-table CSV, embed their resolved configuration, and are
byte-identical across runs for identical configs.
"""

from __future__ import annotations

import argparse
import functools
import json
import shutil
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .algebra import check_weight_vector, level_dimension
from .diagnostics import (
    Column,
    DiagnosticsReport,
    Table,
    exact_verdict,
    koszul_report,
    normality_report,
    qweights_report,
    section5_report,
    trace_report,
)
from .errors import WshmError
from .ideals import GradedIdeal, hilbert_series, ideal_level_dimension, residue_decompose
from .operators import ModuleRealization
from .parsing import parse_polynomial, parse_polynomial_list
from .spaces import builtin_space

if TYPE_CHECKING:  # the preg runners import posreg when they run: no other command needs it
    from . import posreg

# add_argument keywords of every flag, in the order a parser registers them
_FLAGS = {
    "space": {"default": "drury-arveson"},
    "param": {"action": "append", "default": [], "metavar": "K=V"},
    "m": {"type": int, "default": 2},
    "ideal": {"help": "comma-separated generator polynomials"},
    "weight": {"help": "weight vector n1,n2,..."},
    "max-level": {"type": int, "default": 10},
    "max-wlevel": {"type": int, "default": 8},
    "poly": {"required": True},
    "out": {"help": "output path"},
    "format": {"choices": ("json", "csv"), "default": "json"},
    "preview-degree": {"type": int, "default": 3},
    "schatten": {"help": "comma-separated distinct exponents, finite and >= 1"},
    "module": {"choices": ("full", "ideal", "quotient"), "default": None},
    "var": {"type": int, "default": 1, "help": "1-based shift variable"},
}
_EVERY_COMMAND_FLAGS = ("m", "out", "format")


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
        k, v = (part.strip() for part in pair.split("=", 1))
        if k in out:
            raise WshmError(f"--param {k} given twice")
        out[k] = v
    return out


def _no_constant(name: str):
    """``json.loads`` hook for Infinity, -Infinity and NaN: none is a weight."""
    raise ValueError(f"{name} is not a weight")


def _space_from_args(args) -> object:
    params = _parse_params(args.param)
    if "table" in params:
        path = params["table"]
        if not path:
            raise WshmError("--param table: the path is empty")
        try:
            table_raw = json.loads(
                Path(path).read_text(), parse_float=Fraction, parse_constant=_no_constant
            )
            if not isinstance(table_raw, dict):
                raise ValueError("expected a JSON object")
            if any(isinstance(val, bool) for val in table_raw.values()):
                raise ValueError("a boolean is not a weight")  # Fraction(True) is 1
            params["table"] = {
                tuple(int(x) for x in key.split(",")): Fraction(val)
                for key, val in table_raw.items()
            }
        except (OSError, ValueError, TypeError, ZeroDivisionError) as e:
            raise WshmError(f"cannot read weight table {path}: {e}") from None
    return builtin_space(args.space, args.m, params)


def _ideal_from_args(args, weight=None) -> GradedIdeal | None:
    if not args.ideal:
        return None
    gens = parse_polynomial_list(args.ideal, args.m)
    return GradedIdeal(args.m, gens, weight=weight)


def _required_ideal(args, weight=None) -> GradedIdeal:
    ideal = _ideal_from_args(args, weight)
    if ideal is None:
        raise WshmError(f"{args.command} {args.sub} requires --ideal")
    return ideal


def _weight_from_args(args):
    text = args.weight
    if not text:
        raise WshmError("ideal decompose requires --weight")
    try:
        weight = [int(x) for x in text.split(",")]
    except ValueError:
        raise WshmError(f"--weight needs comma-separated integers, got {text!r}") from None
    return check_weight_vector(weight, args.m)


def _schatten_from_args(args) -> list[float]:
    text = args.schatten
    if not text:
        return []
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise WshmError(f"--schatten needs comma-separated numbers, got {text!r}") from None


def _check_levels(args) -> None:
    """Levels and degrees count from 0: a negative bound would leave every table
    empty and every exact check vacuously passing."""
    for name in ("max_level", "max_wlevel", "preview_degree"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise WshmError(f"--{name.replace('_', '-')} must be >= 0, got {value}")


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
    ideal = _required_ideal(args)
    series = hilbert_series(ideal)
    dims = [(ideal_level_dimension(ideal, k), level_dimension(args.m, k))
            for k in range(args.max_level + 1)]
    table = [[k, di, dh, dh - di] for k, (di, dh) in enumerate(dims)]
    report = DiagnosticsReport(
        "ideal-hilbert",
        {
            "m": args.m,
            "ideal": [str(g) for g in ideal.generators],
            "max_level": args.max_level,
            "series": series.to_json_dict(),
        },
    )
    report.tables.append(
        Table(
            "hilbert_function",
            [Column(c, "int") for c in ("k", "dim_ideal", "dim_level", "dim_quotient")],
            table,
        )
    )
    report.verdicts.append(
        exact_verdict(
            "hilbert-series",
            all(series.hf(k) == row[3] for k, row in enumerate(table)),
            f"d={series.dimension}, e={series.multiplicity}, K={series.stabilization_degree}; "
            f"HF against dim_quotient at levels 0..{args.max_level}",
        )
    )
    return report


def _run_ideal_decompose(args) -> DiagnosticsReport:
    weight = _weight_from_args(args)
    ideal = _required_ideal(args, weight)
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
        exact_verdict(
            "decomposition-defect",
            all(lv.defect >= 0 for lv in dec.levels),
            f"max defect {dec.max_defect} (reported, not asserted against the splitting)",
        )
    )
    return report


def _run_normality(args) -> DiagnosticsReport:
    space = _space_from_args(args)
    K = args.max_level
    realization = ModuleRealization(space, _ideal_from_args(args), K + 2)
    return normality_report(realization, K, _schatten_from_args(args))


def _run_koszul(args) -> DiagnosticsReport:
    ideal = _ideal_from_args(args)
    module = args.module or ("ideal" if ideal is not None else "full")
    return koszul_report(args.m, ideal, module, args.max_level)


def _run_qweights(args) -> DiagnosticsReport:
    space = _space_from_args(args)
    ideal = _required_ideal(args)
    if not 1 <= args.var <= space.m:
        raise WshmError(f"--var must be in 1..{space.m}, got {args.var}")
    return qweights_report(space, ideal, args.max_level, var=args.var - 1)


def _preg_poly(args) -> posreg.PositiveRegularPoly:
    from . import posreg

    return posreg.PositiveRegularPoly.from_polynomial(parse_polynomial(args.poly, args.m))


def _run_preg_delta(args) -> DiagnosticsReport:
    from . import posreg

    poly = _preg_poly(args)
    table = posreg.delta_coefficients(poly, args.max_level)
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


def _comparison_map(args) -> tuple[posreg.JPData, list[posreg.XpLevel]]:
    """J_P of ``--poly`` and its comparison map's levels to ``--max-wlevel``,
    built once per report."""
    from . import posreg

    data = posreg.jp_data(_preg_poly(args))
    return data, posreg.xp_blocks(data, args.max_wlevel)


def _kernel_report(
    args, data: posreg.JPData, xp_levels: list[posreg.XpLevel]
) -> DiagnosticsReport:
    """The kernel-vs-ideal report that ``preg kernel`` prints and ``preg
    check`` extends."""
    from . import posreg

    ell_max = args.max_wlevel
    report = DiagnosticsReport(
        f"preg-{args.sub}", {"poly": str(data.poly), "m": args.m, "max_wlevel": ell_max}
    )
    report.params["jp"] = data.to_json_dict()
    levels = posreg.kernel_vs_ideal(data, xp_levels)
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
    witnesses = "; ".join(lv.witness for lv in levels if lv.witness)
    report.verdicts += [
        exact_verdict(
            "kernel-contains-ideal",
            all(lv.containment_ok for lv in levels),
            witnesses or "all spanning elements in kernel",
        ),
        exact_verdict("kernel-equals-ideal", all(lv.equal for lv in levels), f"levels 0..{ell_max}"),
    ]
    return report


def _run_preg_check(args) -> DiagnosticsReport:
    from . import posreg

    data, xp_levels = _comparison_map(args)
    report = _kernel_report(args, data, xp_levels)
    deg = max(args.max_wlevel, 8)
    proj = posreg.defect_projection_check(data.poly, deg)
    mm = posreg.xp_module_map_check(data, args.max_wlevel)
    svmax = max([0.0, *(s for xl in xp_levels for s in xl.singular_values)])
    sq_max = max([Fraction(0), *(s for xl in xp_levels for s in xl.singular_sq)])
    report.tables.append(
        Table(
            "contractivity",
            [Column("max_singular_value", "float")],
            [[svmax]],
        )
    )
    report.verdicts += [
        exact_verdict(
            "defect-projection-identity",
            proj.passed,
            f"rank-one identity on all |beta| <= {deg}"
            if proj.passed
            else f"failed at {proj.failures[0]}",
        ),
        exact_verdict("module-map-intertwining", mm.passed, mm.witness or "exact on squared data"),
        exact_verdict("contractivity", sq_max <= 1, f"max singular value {svmax}"),
    ]
    return report


class _Command(NamedTuple):
    flags: tuple[str, ...]  # keys of _FLAGS, besides _EVERY_COMMAND_FLAGS
    run: Callable[[argparse.Namespace], DiagnosticsReport]


COMMANDS = {
    "space describe": _Command(("space", "param", "preview-degree"), _run_space_describe),
    "ideal hilbert": _Command(("ideal", "max-level"), _run_ideal_hilbert),
    "ideal decompose": _Command(("ideal", "weight", "max-wlevel"), _run_ideal_decompose),
    "diag normality": _Command(
        ("space", "param", "ideal", "max-level", "schatten"), _run_normality
    ),
    "diag trace": _Command(
        ("space", "param", "max-level"),
        lambda args: trace_report(_space_from_args(args), args.max_level),
    ),
    "diag koszul": _Command(("ideal", "max-level", "module"), _run_koszul),
    "diag section5": _Command(
        ("space", "param", "ideal", "max-level"),
        lambda args: section5_report(
            _space_from_args(args), _required_ideal(args), args.max_level
        ),
    ),
    "diag qweights": _Command(("space", "param", "ideal", "max-level", "var"), _run_qweights),
    "preg delta": _Command(("poly", "max-level"), _run_preg_delta),
    "preg check": _Command(("poly", "max-wlevel"), _run_preg_check),
    "preg kernel": _Command(
        ("poly", "max-wlevel"), lambda args: _kernel_report(args, *_comparison_map(args))
    ),
}
_USAGE = f"usage: wshm {{{' | '.join(COMMANDS)}}} [flags], or wshm --config FILE"


def _parser(name: str, entry: _Command) -> argparse.ArgumentParser:
    # argparse would query the terminal once per add_argument for this width
    width = shutil.get_terminal_size().columns - 2
    formatter = functools.partial(argparse.HelpFormatter, width=width)
    parser = argparse.ArgumentParser(prog=f"wshm {name}", formatter_class=formatter)
    for flag, keywords in _FLAGS.items():
        if flag in entry.flags or flag in _EVERY_COMMAND_FLAGS:
            parser.add_argument(f"--{flag}", **keywords)
    command, sub = name.split()
    parser.set_defaults(command=command, sub=sub)
    return parser


def _emit(report: DiagnosticsReport, args) -> None:
    report.params["config"] = {
        k: (v if isinstance(v, (int, float, str, list)) else str(v))
        for k, v in sorted(vars(args).items())
        if v is not None
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
    try:
        if "--config" in argv:
            if len(argv) != 2 or argv[0] != "--config":
                raise WshmError("--config must be the only argument")
            argv = _config_to_argv(argv[1])
        name = " ".join(argv[:2])
        # two arguments: the single argument "diag trace" names no subcommand
        entry = COMMANDS.get(name) if len(argv) >= 2 else None
        if entry is None:
            asked = {"-h", "--help"} & set(argv[:2])
            print(_USAGE, file=sys.stdout if asked else sys.stderr)
            return 0 if asked else 2
        args = _parser(name, entry).parse_args(argv[2:])
    except SystemExit as e:
        return int(e.code or 0)
    except (WshmError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    try:
        _check_levels(args)
        # a float past the double range is an input error, not an Infinity in a report
        with np.errstate(over="raise", invalid="raise"):
            report = entry.run(args)
    except (WshmError, np.linalg.LinAlgError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OverflowError, FloatingPointError) as e:
        print(f"error: a float-tier value is outside the double range ({e})", file=sys.stderr)
        return 2

    try:
        _emit(report, args)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 1 if report.has_exact_fail else 0


if __name__ == "__main__":
    sys.exit(main())
