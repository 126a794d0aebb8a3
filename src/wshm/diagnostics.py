"""Runnable diagnostics: decay reports, trace identities, summability,
quotient shift weights, the bounded-dimension trace inequality, and the
Koszul Euler characteristic.

Verdict discipline: finite truncations can refute compactness claims but can
never prove them, so asymptotic statements are graded at most
``trend-consistent`` / ``trend-inconsistent``; only identities that hold (or
fail) in exact arithmetic may be ``exact-pass`` / ``exact-fail``.  Values the
implementation reports without asserting are ``reported-only``.  Every
numeric table column is tagged with its arithmetic tier, and reports carry
their full configuration so identical configs reproduce byte-identical JSON.
NumPy runs only in the float-tier callbacks of ``onb_map`` and ``svd_map``;
trend slopes and partial sums are plain Python floats.
"""

from __future__ import annotations

import functools
import io
import json
import math
from fractions import Fraction
from itertools import accumulate, combinations
from typing import NamedTuple

import numpy as np

from . import __version__
from . import exact_linalg as ela
from .algebra import (
    G_ONE,
    G_ZERO,
    GradedPolynomial,
    add_index,
    level_dimension,
    unit_index,
)
from .errors import ScenarioError, StructuralError, WindowError, WshmError
from .ideals import GradedIdeal, hilbert_function, hilbert_series, ideal_level_dimension
from .operators import (
    ModuleRealization,
    _sqrt_split,
    codefect_blocks,
    commutator_blocks,
    defect_blocks,
    full_realization,
    hermitian_eigh,
    moduli_sq,
    mult_blocks,
    onb_map,
    quotient_realization,
    svd_map,
)
from .spaces import WeightedShiftSpace

TOOL_VERSION = f"wshm {__version__}"

VERDICT_STATUSES = (
    "exact-pass",
    "exact-fail",
    "trend-consistent",
    "trend-inconsistent",
    "reported-only",
    "inconclusive",
)

TIERS = ("exact", "float", "int", "text")


class Column:
    def __init__(self, name: str, tier: str):
        if tier not in TIERS:
            raise WshmError(f"unknown tier {tier}")
        self.name, self.tier = name, tier


class Table:
    def __init__(self, name: str, columns: list[Column], rows: list[list]):
        self.name, self.columns, self.rows = name, columns, rows

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "columns": [{"name": c.name, "tier": c.tier} for c in self.columns],
            "rows": self.rows,
        }

    def to_csv(self) -> str:
        """Header and rows of ``str`` values; a comma, quote or newline gets quoted."""
        import csv  # only CSV output reads it

        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(c.name for c in self.columns)
        writer.writerows([str(x) for x in row] for row in self.rows)
        return out.getvalue()


class Verdict:
    def __init__(self, name: str, status: str, details: str = ""):
        if status not in VERDICT_STATUSES:
            raise WshmError(f"unknown verdict status {status}")
        self.name, self.status, self.details = name, status, details


def exact_verdict(name: str, passed: bool, details: str) -> Verdict:
    """The verdict of a check decided in exact arithmetic."""
    return Verdict(name, "exact-pass" if passed else "exact-fail", details)


class DiagnosticsReport:
    def __init__(self, scenario: str, params: dict, tables: list[Table] | None = None,
                 verdicts: list[Verdict] | None = None, tool_version: str = TOOL_VERSION):
        self.scenario, self.params, self.tool_version = scenario, params, tool_version
        self.tables = [] if tables is None else tables
        self.verdicts = [] if verdicts is None else verdicts

    @property
    def has_exact_fail(self) -> bool:
        return any(v.status == "exact-fail" for v in self.verdicts)

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "params": self.params,
            "tables": [t.to_json_dict() for t in self.tables],
            "verdicts": [
                {"name": v.name, "status": v.status, "details": v.details}
                for v in self.verdicts
            ],
            "tool_version": self.tool_version,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# normality report
# ---------------------------------------------------------------------------

def _loglog_slope(norms: list[float]) -> float | None:
    """Least-squares slope of log(norm) against log(k+1) on the upper half."""
    pts = [
        (math.log(k + 1.0), math.log(v))
        for k, v in enumerate(norms)
        if k >= len(norms) // 2 and v > 0.0
    ]
    if len(pts) < 2:
        return None
    xbar, ybar = (sum(c) / len(pts) for c in zip(*pts))
    return sum((x - xbar) * (y - ybar) for x, y in pts) / sum((x - xbar) ** 2 for x, _ in pts)


def _trend_verdict(name: str, norms: list[float], exact_zero: bool) -> Verdict:
    if exact_zero:
        return Verdict(name, "exact-pass", "identically zero in exact arithmetic")
    k_hi = len(norms) - 1
    k_lo = k_hi // 2
    hi, lo = norms[k_hi], norms[k_lo]
    slope = _loglog_slope(norms)  # printed like the norms: a one-ulp move keeps the text
    slope = slope if slope is None else f"{slope:.6g}"
    detail = f"norm[{k_lo}]={lo:.6g}, norm[{k_hi}]={hi:.6g}, loglog_slope={slope}"
    if k_lo == k_hi:
        return Verdict(name, "inconclusive", f"{detail}; a trend needs two levels")
    if hi < lo or hi == 0.0:  # a series that has reached zero stays consistent
        return Verdict(name, "trend-consistent", detail)
    return Verdict(name, "trend-inconsistent", detail)


def normality_report(
    realization: ModuleRealization,
    K: int,
    p_list: list[float] | None = None,
) -> DiagnosticsReport:
    """Per-level norms of every cross commutator and of the spherical defect,
    decay trends, and Schatten partial sums of the defect.

    Requires realization bases to level K + 1 + max n (K + 2 when plain), so
    that every block of every reported level k <= K can be built.
    """
    top = K + 1 + max(realization.weight)
    if realization.max_level < top:
        raise WindowError(f"normality_report to K={K} needs realization levels to {top}")
    p_list = list(p_list or [])
    # one table and one verdict per exponent: each finite, >= 1 and distinct
    if any(not 1 <= p < math.inf for p in p_list) or len(set(p_list)) < len(p_list):
        raise WshmError(f"Schatten exponents must be finite, >= 1 and distinct, got {p_list}")
    m = realization.space.m
    params = {
        "space": realization.space.kind,
        "m": m,
        "ideal": [str(g) for g in realization.ideal.generators]
        if realization.ideal is not None
        else None,
        "max_level": K,
        "schatten": p_list,
    }
    if any(n != 1 for n in realization.weight):  # a plain grading is not recorded
        params["weight"] = list(realization.weight)
    report = DiagnosticsReport("normality", params)

    # cross commutators C(z_i, z_j) = M_{z_j}^* M_{z_i} - M_{z_i} M_{z_j}^*; as
    # C(z_j, z_i) = C(z_i, z_j)^* has the same norms and zeros, i <= j suffices
    pairs = [(i, j) for i in range(m) for j in range(m)]
    z = [GradedPolynomial.variable(m, i) for i in range(m)]
    comms = {(i, j): commutator_blocks(realization, z[i], z[j]) for i, j in pairs if i <= j}
    # norms and Schatten terms of the defect and each C(z_i, z_j), level by level
    defect = defect_blocks(realization)
    ops = [*comms.values(), defect]
    def norm_and_terms(sv):
        terms = ((sv**p).sum(axis=-1).tolist() for p in p_list)
        return zip(sv.max(axis=-1, initial=0.0).tolist(), *terms)
    flat = svd_map(norm_and_terms, [(op, k) for op in ops for k in range(K + 1)])
    norms = [[t[0] for t in flat[n:n + K + 1]] for n in range(0, len(flat), K + 1)]
    defect_zero = not any(row for k in range(K + 1) for row in defect.block(k))

    report.tables.append(
        Table(
            "defect_level_norms",
            [Column("k", "int"), Column("norm", "float")],
            [[k, norms[-1][k]] for k in range(K + 1)],
        )
    )
    report.verdicts.append(_trend_verdict("spherical-defect", norms[-1], defect_zero))

    pair_norms: dict[tuple[int, int], list[float]] = {}
    for (i, j), pair in zip(comms, norms):
        pair_norms[(i, j)] = pair_norms[(j, i)] = pair
    nonzero = any(row for comm in comms.values() for k in range(K + 1) for row in comm.block(k))
    cols = [Column("k", "int")] + [Column(f"comm_{i + 1}_{j + 1}", "float") for i, j in pairs]
    rows = [[k] + [pair_norms[ij][k] for ij in pairs] for k in range(K + 1)]
    report.tables.append(Table("commutator_level_norms", cols, rows))
    max_series = [max(row[1:]) for row in rows]
    report.verdicts.append(_trend_verdict("cross-commutators", max_series, not nonzero))

    # Schatten partial sums of the defect for each requested exponent
    for n, p in enumerate(p_list, 1):
        terms = [t[n] for t in flat[-K - 1:]]
        sums = list(accumulate(terms))
        report.tables.append(
            Table(
                f"schatten_defect_p{p}",
                [Column("k", "int"), Column("term", "float"), Column("partial_sum", "float")],
                [[k, terms[k], sums[k]] for k in range(K + 1)],
            )
        )
        rec = summability_verdict(terms, p, m, defect_zero)
        report.verdicts.append(
            Verdict(
                f"defect-summability-p{p}",
                rec.report_status(),
                rec.details,
            )
        )
    return report


# ---------------------------------------------------------------------------
# trace identity
# ---------------------------------------------------------------------------

class TraceIdentityRecord(NamedTuple):
    """Exact level-k trace of sum_i [M_{z_i}*, M_{z_i}] and its comparisons.

    ``telescoping`` is dim H_k - dim H_{k-1}; the two agree whenever the
    spherical defect vanishes identically on levels k-1 and k, which
    ``defect_is_zero`` certifies in exact arithmetic.  ``binomial_formula``
    is the reference count C(m+k-1, k-1) - C(m+k-2, k-2), emitted alongside
    for comparison and never asserted.
    """

    k: int
    computed: Fraction
    telescoping: int
    binomial_formula: int
    defect_is_zero: bool
    exact_match: bool


def trace_identity(realization: ModuleRealization, k: int) -> TraceIdentityRecord:
    """The level-k record, read off the exact blocks of a full realization with
    levels to k + 1: the trace of sum_i [M_{z_i}^*, M_{z_i}] = X - D, X the
    codefect and D the defect, and D's blocks k - 1 and k for ``defect_is_zero``."""
    m = realization.space.m
    d, x = defect_blocks(realization), codefect_blocks(realization)
    total = (sum(x.diagonal(k), G_ZERO) - sum(d.diagonal(k), G_ZERO)).re
    telescoping = realization.comp_dim(k) - realization.comp_dim(k - 1)
    binomial = level_dimension(m, k - 1)  # by Pascal's rule
    defect_zero = not any(row for j in range(max(k - 1, 0), k + 1) for row in d.block(j))
    return TraceIdentityRecord(
        k, total, telescoping, binomial, defect_zero, total == telescoping
    )


def trace_report(space: WeightedShiftSpace, K: int) -> DiagnosticsReport:
    params = {"space": space.kind, "m": space.m, "max_level": K}
    report = DiagnosticsReport("trace", params)
    realization = full_realization(space, K + 1)
    recs = [trace_identity(realization, k) for k in range(K + 1)]
    rows = [[r.k, str(r.computed), r.telescoping, r.binomial_formula, r.defect_is_zero] for r in recs]
    asserted = [r.exact_match for r in recs if r.defect_is_zero]
    report.tables.append(
        Table(
            "trace_identity",
            [
                Column("k", "int"),
                Column("computed", "exact"),
                Column("telescoping", "int"),
                Column("binomial_formula", "int"),
                Column("defect_is_zero", "text"),
            ],
            rows,
        )
    )
    if asserted:
        detail = "computed trace equals dim H_k - dim H_{k-1} on defect-free levels"
        report.verdicts.append(exact_verdict("trace-telescoping", all(asserted), detail))
    detail = "binomial column emitted without assertion"
    report.verdicts.append(Verdict("trace-binomial-formula", "reported-only", detail))
    return report


# ---------------------------------------------------------------------------
# summability
# ---------------------------------------------------------------------------

# the last doubling increment above which a series reads divergent, and the
# extrapolated tail below which it reads convergent
SUMMABILITY_FLOOR = 0.05
SUMMABILITY_TAIL = 0.05


class SummabilityRecord(NamedTuple):
    """Doubling-window growth test over a per-level Schatten series.

    Checkpoints are N/16, N/8, N/4, N/2, N.  The verdict is divergent-trend
    when the last doubling increment exceeds ``SUMMABILITY_FLOOR``; otherwise a
    geometric tail extrapolation from the increment ratio decides
    convergent-trend against ``SUMMABILITY_TAIL``.  Fewer than four doublings
    is inconclusive, and a series zero in exact arithmetic is exactly-zero.
    ``agrees_with_threshold`` compares the trend with the claimed dichotomy
    at p = m (convergent above, divergent at or below; exactly-zero agrees).
    """

    p: float
    m: int
    status: str  # divergent-trend | convergent-trend | inconclusive | exactly-zero
    checkpoints: list[int]
    increments: list[float]
    tail_estimate: float | None
    exponent_above_m: bool

    @property
    def agrees_with_threshold(self) -> bool | None:
        above = self.exponent_above_m
        agrees = {"exactly-zero": True, "convergent-trend": above, "divergent-trend": not above}
        return agrees.get(self.status)

    @property
    def details(self) -> str:
        if self.status == "exactly-zero":
            return "identically zero in exact arithmetic, so summable for every p"
        tail = self.tail_estimate if self.tail_estimate is None else f"{self.tail_estimate:.6g}"
        return (
            f"status={self.status}, "
            f"increments={['%.6g' % x for x in self.increments]}, "
            f"tail_estimate={tail}, p>m={self.exponent_above_m}"
        )

    def report_status(self) -> str:
        """Status for a DiagnosticsReport verdict: trend agreement with the
        p > m threshold, or inconclusive."""
        agreement = self.agrees_with_threshold
        if agreement is None:
            return "inconclusive"
        return "trend-consistent" if agreement else "trend-inconsistent"


def summability_verdict(series: list[float], p: float, m: int, exact_zero=False) -> SummabilityRecord:
    above = p > m
    if exact_zero:
        return SummabilityRecord(p, m, "exactly-zero", [], [], 0.0, above)
    if series and all(t == 0.0 for t in series):
        return SummabilityRecord(p, m, "convergent-trend", [], [], 0.0, above)
    n = len(series) - 1
    if n < 16:
        return SummabilityRecord(p, m, "inconclusive", [], [], None, above)
    checkpoints = [n // 16, n // 8, n // 4, n // 2, n]
    prefix = list(accumulate(series))
    increments = [prefix[b] - prefix[a] for a, b in zip(checkpoints, checkpoints[1:])]
    last, prev = increments[-1], increments[-2]
    if last > SUMMABILITY_FLOOR:
        return SummabilityRecord(p, m, "divergent-trend", checkpoints, increments, None, above)
    if last == 0.0:
        tail = 0.0
    elif prev <= last:
        tail = float("inf")
    else:
        r = last / prev
        tail = last * r / (1.0 - r)
    status = "convergent-trend" if tail < SUMMABILITY_TAIL else "inconclusive"
    return SummabilityRecord(p, m, status, checkpoints, increments, tail, above)


# ---------------------------------------------------------------------------
# quotient shift weights (one-dimensional quotients)
# ---------------------------------------------------------------------------

def _principal_linear_alpha(ideal: GradedIdeal):
    """The coefficient alpha when the ideal is <z1 + alpha*z2>, else None."""
    if ideal.m != 2 or len(ideal.generators) != 1:
        return None
    g = ideal.generators[0]
    c1 = g.coefficient((1, 0))
    c2 = g.coefficient((0, 1))
    if g.degree != 1 or not c1:
        return None
    return c2 / c1


class QuotientShiftWeights(NamedTuple):
    """Moduli of the compressed coordinate shift on a quotient whose levels
    are all one-dimensional.

    ``moduli_sq`` are exact; moduli are their square roots (float tier).  For
    the ball Hardy scenario with ideal <z1 + alpha z2>, alpha != 0, the moduli
    normalized by their limit, |alpha| (z1) or 1 (z2) over sqrt(1 + |alpha|^2),
    are reported together with their deviations from 1.
    """

    var: int
    K: int
    moduli_sq: list[Fraction]
    moduli: list[float]
    normalized: list[float] | None
    deviations: list[float] | None
    alpha_abs2: Fraction | None


def quotient_shift_weights(
    space: WeightedShiftSpace,
    ideal: GradedIdeal,
    K: int,
    var: int = 0,
) -> QuotientShiftWeights:
    """|w_k| = ||P_{S^perp} z_var v_k|| / ||v_k|| for v_k spanning S_k^perp.

    Raises StructuralError unless every level up to K + 1 is exactly
    one-dimensional.  The squared modulus |block|^2 * g_{k+1} / g_k is the
    exact :func:`~wshm.operators.moduli_sq` of the 1 x 1 block, before any
    float enters; each modulus is its root, rounded once by ``_sqrt_split`` as
    :func:`~wshm.operators.svd_map` rounds, so a square outside the double
    range still gives a finite modulus when the root is a double.
    """
    realization = quotient_realization(space, ideal, K + 1)
    for k in range(K + 2):
        if (dim := realization.comp_dim(k)) != 1:
            raise StructuralError(f"quotient level {k} has dimension {dim}, need exactly 1")
    op = mult_blocks(realization, GradedPolynomial.variable(space.m, var), K)
    pairs = [sq[0] if (sq := moduli_sq(op, k)) else (0, 1) for k in range(K + 1)]
    squares = [Fraction(*sq) for sq in pairs]
    moduli = [math.ldexp(*_sqrt_split(*sq)) for sq in pairs]

    normalized = deviations = None
    alpha = _principal_linear_alpha(ideal)
    alpha_abs2 = alpha.abs2() if alpha is not None else None
    if space.kind == "hardy-ball" and alpha is not None and alpha_abs2:
        # the quotient identifies z1 with -alpha z2, so z1's limit is |alpha| times z2's
        limit = ((float(alpha_abs2) if var == 0 else 1.0) / (1.0 + float(alpha_abs2))) ** 0.5
        normalized = [w / limit for w in moduli]
        deviations = [abs(x - 1.0) for x in normalized]
    return QuotientShiftWeights(
        var, K, squares, moduli, normalized, deviations, alpha_abs2
    )


def qweights_report(
    space: WeightedShiftSpace, ideal: GradedIdeal, K: int, var: int = 0
) -> DiagnosticsReport:
    params = {
        "space": space.kind,
        "m": space.m,
        "ideal": [str(g) for g in ideal.generators],
        "max_level": K,
        "var": var + 1,
    }
    report = DiagnosticsReport("qweights", params)
    rec = quotient_shift_weights(space, ideal, K, var)
    cols = [Column("k", "int"), Column("modulus_sq", "exact"), Column("modulus", "float")]
    rows: list[list] = [
        [k, str(rec.moduli_sq[k]), rec.moduli[k]] for k in range(K + 1)
    ]
    if rec.normalized is not None:
        cols += [Column("normalized", "float"), Column("deviation", "float")]
        for k in range(K + 1):
            rows[k] += [rec.normalized[k], rec.deviations[k]]
    report.tables.append(Table("quotient_shift_weights", cols, rows))
    if rec.deviations is not None:
        k_early = min(20, K)
        early = rec.deviations[k_early]
        late = rec.deviations[K]
        detail = f"deviation at k={k_early}: {early:.6g}, at k={K}: {late:.6g}"
        if k_early == K:
            status = "inconclusive"
            detail += "; a trend needs a level beyond k=20"
        else:
            status = "trend-consistent" if late < early else "trend-inconsistent"
        report.verdicts.append(Verdict("weights-converge", status, detail))
    else:
        report.verdicts.append(
            Verdict("weights-converge", "reported-only", "no reference limit for this scenario")
        )
    return report


# ---------------------------------------------------------------------------
# bounded-dimension trace inequality
# ---------------------------------------------------------------------------

class Section5Record(NamedTuple):
    k: int
    lhs: float  # Tr(sum_i P_{i,k})
    rhs: float  # M0 * (2 ||X_k|| + sum_i ||N_{i,k}||)
    x_norm: float
    p_norms: list[float]
    n_norms: list[float]
    holds: bool


# float-tier slack of the section5 trace inequality, reported in its params
SECTION5_SLACK = 1e-8


def section5_checks(
    realization: ModuleRealization, K: int, bounded_dim: int
) -> list[Section5Record]:
    """Check Tr(sum P_{i,k}) <= M0 (2||X_k|| + sum ||N_{i,k}||) at every level k <= K.

    X is :func:`codefect_blocks`, I - sum_i M_i M_i^*; each self commutator
    [M_i, M_i^*] = M_i M_i^* - M_i^* M_i = -C(z_i, z_i) splits spectrally as
    P - N.  Both share the realization's products and need its levels to
    K + 1.  Exact blocks enter; the norms are float tier with
    ``SECTION5_SLACK``.  P and N are never formed: Tr P = sum max(lam, 0),
    ||P|| = max(lam_max, 0) and ||N|| = max(-lam_min, 0) reduce the spectra
    lam of one stacked eigh per block shape of [M_i, M_i^*]_k;
    :func:`~wshm.operators.pn_split` is the test reference.
    """
    m = realization.space.m
    x = codefect_blocks(realization)
    z = [GradedPolynomial.variable(m, i) for i in range(m)]
    c = [commutator_blocks(realization, zi, zi) for zi in z]
    def trace_and_norms(stack):
        # eigh(C) negated differs from eigh(-C) in the last bit on blocks past
        # 25 x 25; 0.0 - C, unlike -C, keeps zeros +0.0: the bits of M M^* - M^* M
        lam = hermitian_eigh(0.0 - stack)[0]
        pos, neg = np.clip(lam, 0.0, None), np.clip(-lam, 0.0, None)
        return zip(pos.sum(axis=-1).tolist(), pos.max(axis=-1, initial=0.0).tolist(),
                   neg.max(axis=-1, initial=0.0).tolist())
    pn = onb_map(trace_and_norms, [(ci, k) for k in range(K + 1) for ci in c])
    x_norms = svd_map(lambda sv: sv.max(axis=-1, initial=0.0).tolist(),
                      [(x, k) for k in range(K + 1)])
    recs = []
    for k, x_norm in enumerate(x_norms):
        traces, p_norms, n_norms = map(list, zip(*pn[k * m:(k + 1) * m]))
        lhs, rhs = sum(traces), bounded_dim * (2.0 * x_norm + sum(n_norms))
        if not (math.isfinite(lhs) and math.isfinite(rhs)):  # Python floats do not raise
            raise OverflowError(f"level {k}: lhs {lhs}, rhs {rhs}")
        recs.append(
            Section5Record(k, lhs, rhs, x_norm, p_norms, n_norms, lhs <= rhs + SECTION5_SLACK)
        )
    return recs


def section5_report(
    space: WeightedShiftSpace,
    ideal: GradedIdeal,
    K: int,
) -> DiagnosticsReport:
    """Run the trace inequality at every level k <= K.

    The bounded dimension M0 is read off the exact Hilbert series; a zero
    variety of dimension d > 1 is a scenario error (the inequality needs
    dim S_k^perp eventually constant).
    """
    series = hilbert_series(ideal)
    m0 = series.bounded_dimension
    if m0 is None:
        raise ScenarioError("section5 requires a bounded-dimension quotient "
                            f"(zero variety of dimension {series.dimension})")
    realization = quotient_realization(space, ideal, K + 1)
    recs = section5_checks(realization, K, m0)
    params = {
        "space": space.kind,
        "m": space.m,
        "ideal": [str(g) for g in ideal.generators],
        "max_level": K,
        "M0": m0,
        "slack": SECTION5_SLACK,
    }
    report = DiagnosticsReport("section5", params)
    report.tables.append(
        Table(
            "trace_inequality",
            [
                Column("k", "int"),
                Column("lhs_trace_P", "float"),
                Column("rhs_bound", "float"),
                Column("x_norm", "float"),
                Column("holds", "text"),
            ],
            [[r.k, r.lhs, r.rhs, r.x_norm, r.holds] for r in recs],
        )
    )
    all_hold = all(r.holds for r in recs)
    report.verdicts.append(
        Verdict(
            "section5-inequality",
            "trend-consistent" if all_hold else "trend-inconsistent",
            f"holds at every level <= {K}" if all_hold else "violated at some level",
        )
    )
    return report


# ---------------------------------------------------------------------------
# Koszul complex Euler characteristic
# ---------------------------------------------------------------------------

class _KoszulModule:
    """Graded module data for the polynomial-level Koszul complex."""

    def __init__(self, m: int, ideal: GradedIdeal | None, kind: str):
        if kind not in ("full", "ideal", "quotient"):
            raise WshmError(f"unknown module kind {kind!r}")
        if kind != "full" and ideal is None:
            raise WshmError(f"module kind {kind!r} needs an ideal")
        if kind == "full" and ideal is not None:
            raise WshmError("module kind 'full' takes no ideal")
        if ideal is not None:
            ideal._require_plain()  # chain spaces are graded by total degree
        if kind == "full":
            ideal = GradedIdeal(m, [])  # the full module is the quotient by 0
        self.m = m
        self.ideal = ideal
        self.kind = kind

    def dim(self, d: int) -> int:
        return (ideal_level_dimension if self.kind == "ideal" else hilbert_function)(self.ideal, d)

    def _standard(self, d: int) -> list[int]:
        pivots, _, monomials = self.ideal.level_data(d)
        pset = set(pivots)
        return [j for j in range(len(monomials)) if j not in pset]

    def mult_rows(self, i: int, d: int) -> list[ela.Row]:
        """Row r -> sparse image coordinates of z_i * (basis vector r of
        degree d) in the degree d+1 basis.  The ideal's basis is its reduced
        echelon rows, and the image is their coefficients; the quotient's is
        the standard monomials, and the image is the residual."""
        _, red_s, monos_s = self.ideal.level_data(d)
        pivots_t, red_t, monos_t = self.ideal.level_data(d + 1)
        tgt_col = {a: j for j, a in enumerate(monos_t)}
        is_ideal = self.kind == "ideal"
        source = red_s if is_ideal else [{c: G_ONE} for c in self._standard(d)]
        std_t_index = {col: j for j, col in enumerate(self._standard(d + 1))}
        ei = unit_index(self.m, i)
        rows = []
        for row in source:
            shifted = {tgt_col[add_index(monos_s[c], ei)]: v for c, v in row.items()}
            coeffs, residual = ela.reduce_against(shifted, pivots_t, red_t)
            if is_ideal:
                assert not residual, "ideal level not closed under multiplication"
                rows.append({j: c for j, c in enumerate(coeffs) if c})
            else:
                rows.append({std_t_index[c]: v for c, v in residual.items()})
        return rows


class KoszulReport(NamedTuple):
    """Per-degree homology dimensions of the polynomial-level Koszul complex.

    ``homology[d][j]`` is dim H_j in total degree d (exterior degree j);
    ``chi`` sums (-1)^j over everything computed and ``index`` is -chi.
    ``dd_zero`` certifies the differential squares to zero exactly;
    ``conclusive`` is exact: the degree-d Euler characteristic is the t^d
    coefficient of the numerator K_mod(t) of the module's Hilbert series
    over (1 - t)^m, so chi is complete once ``d_max`` >= deg K_mod.
    """

    module: str
    d_max: int
    homology: dict[int, list[int]]
    chi: int
    index: int
    dd_zero: bool
    conclusive: bool


def koszul_euler(
    m: int,
    ideal: GradedIdeal | None = None,
    module: str = "full",
    d_max: int = 10,
) -> KoszulReport:
    """Homology of the Koszul complex of (z_1, ..., z_m) on the module.

    Chain spaces in total degree d are Lambda^j(C^m) tensor Mod_{d-j}; the
    differential contracts e_S tensor f to sum (-1)^{t-1} e_{S \\ i_t} tensor
    z_{i_t} f.  Homology dimensions come from exact ranks; the per-degree
    Euler characteristics are cross-checked against the chain-level
    alternating sums.
    """
    mod = _KoszulModule(m, ideal, module)
    subsets = {j: list(combinations(range(m), j)) for j in range(m + 1)}
    # z_i on Mod_e enters every differential(d, j) with d - j = e: build it once
    mult_rows = functools.cache(mod.mult_rows)

    def chain_dim(d: int, j: int) -> int:
        return len(subsets[j]) * mod.dim(d - j)

    def differential(d: int, j: int) -> list[ela.Row]:
        """Rows = images of the basis of Lambda^j (x) Mod_{d-j}."""
        if j == 0 or mod.dim(d - j) == 0:
            return [{} for _ in range(chain_dim(d, j))]
        tgt_pos = {s: idx for idx, s in enumerate(subsets[j - 1])}
        dim_tgt_mod = mod.dim(d - j + 1)
        mult_cache = {i: mult_rows(i, d - j) for i in range(m)}
        rows: list[ela.Row] = []
        # each i in S hits a different target e_{S \ i}, so no two terms share a column
        for s in subsets[j]:
            for r in range(mod.dim(d - j)):
                row: ela.Row = {}
                for t, i in enumerate(s):
                    base = tgt_pos[tuple(x for x in s if x != i)] * dim_tgt_mod
                    for c, v in mult_cache[i][r].items():
                        row[base + c] = v if t % 2 == 0 else -v
                rows.append(row)
        return rows

    homology: dict[int, list[int]] = {}
    dd_zero = True
    chi = 0
    for d in range(d_max + 1):
        diffs = [differential(d, j) for j in range(m + 1)]
        ranks = [0] + [ela.rank(diffs[j], chain_dim(d, j - 1)) for j in range(1, m + 1)] + [0]
        dims = [chain_dim(d, j) - ranks[j] - ranks[j + 1] for j in range(m + 1)]
        # d o d = 0: the image of chain level j must vanish through level j - 1
        if any(any(ela.mat_mul(diffs[j], diffs[j - 1])) for j in range(2, m + 1)):
            dd_zero = False
        homology[d] = dims
        chi_d = sum((-1) ** j * h for j, h in enumerate(dims))
        chain_chi = sum((-1) ** j * chain_dim(d, j) for j in range(m + 1))
        assert chi_d == chain_chi, "homology Euler sum disagrees with chain sum"
        chi += chi_d
    # deg K_mod: K = Q (1 - t)^(m - d) for R/I (and the full module, R/0), and
    # 1 - K for I, which has K's degree or is 0
    series = hilbert_series(mod.ideal)
    conclusive = d_max >= len(series.numerator) - 1 + m - series.dimension
    return KoszulReport(module, d_max, homology, chi, -chi, dd_zero, conclusive)


def koszul_report(
    m: int, ideal: GradedIdeal | None, module: str, d_max: int
) -> DiagnosticsReport:
    rec = koszul_euler(m, ideal, module, d_max)
    params = {
        "m": m,
        "ideal": [str(g) for g in ideal.generators] if ideal is not None else None,
        "module": module,
        "d_max": d_max,
    }
    report = DiagnosticsReport("koszul", params)
    report.tables.append(
        Table(
            "koszul_homology",
            [Column("degree", "int")]
            + [Column(f"H{j}", "int") for j in range(m + 1)],
            [[d] + dims for d, dims in sorted(rec.homology.items())],
        )
    )
    report.verdicts.append(
        exact_verdict("koszul-dd-zero", rec.dd_zero, "differential squares to zero exactly")
    )
    report.verdicts.append(
        Verdict(
            "koszul-index",
            "exact-pass" if rec.conclusive else "inconclusive",
            f"chi={rec.chi}, index={rec.index}, conclusive={rec.conclusive}",
        )
    )
    return report
