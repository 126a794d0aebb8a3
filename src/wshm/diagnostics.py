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
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import __version__
from . import exact_linalg as ela
from .algebra import (
    G_ONE,
    G_ZERO,
    GradedPolynomial,
    add_index,
    enumerate_level,
    level_dimension,
    unit_index,
)
from .errors import ScenarioError, StructuralError, WindowError, WshmError
from .ideals import FIT_WINDOW, GradedIdeal, hilbert_samuel_fit
from .operators import (
    ModuleRealization,
    codefect_blocks,
    commutator_blocks,
    defect_blocks,
    hermitian_eigh,
    mult_blocks,
    quotient_realization,
    svdvals,
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


@dataclass
class Column:
    name: str
    tier: str

    def __post_init__(self):
        if self.tier not in TIERS:
            raise WshmError(f"unknown tier {self.tier}")


@dataclass
class Table:
    name: str
    columns: list[Column]
    rows: list[list]

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "columns": [{"name": c.name, "tier": c.tier} for c in self.columns],
            "rows": self.rows,
        }

    def to_csv(self) -> str:
        """Header and rows of ``str`` values; a comma, quote or newline gets quoted."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(c.name for c in self.columns)
        writer.writerows([str(x) for x in row] for row in self.rows)
        return out.getvalue()


@dataclass
class Verdict:
    name: str
    status: str
    details: str = ""

    def __post_init__(self):
        if self.status not in VERDICT_STATUSES:
            raise WshmError(f"unknown verdict status {self.status}")


@dataclass
class DiagnosticsReport:
    scenario: str
    params: dict
    tables: list[Table] = field(default_factory=list)
    verdicts: list[Verdict] = field(default_factory=list)
    tool_version: str = TOOL_VERSION

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
# spherical defect series
# ---------------------------------------------------------------------------

def full_defect_eigenvalues(space: WeightedShiftSpace, k: int) -> list[Fraction]:
    """Exact diagonal of I - sum_i M_i* M_i on the degree-k level."""
    return [space.spherical_defect(a) for a in enumerate_level(space.m, k)]


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
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    return float(np.polyfit(xs, ys, 1)[0])


def _trend_verdict(name: str, norms: list[float], exact_zero: bool) -> Verdict:
    if exact_zero:
        return Verdict(name, "exact-pass", "identically zero in exact arithmetic")
    k_hi = len(norms) - 1
    k_lo = k_hi // 2
    hi, lo = norms[k_hi], norms[k_lo]
    slope = _loglog_slope(norms)
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

    Requires realization bases to level K + 2, so that every block of every
    reported level k <= K can be built.
    """
    if realization.max_level < K + 2:
        raise WindowError(
            f"normality_report to K={K} needs realization levels to {K + 2}"
        )
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
    report = DiagnosticsReport("normality", params)

    # cross commutators C(z_i, z_j) = M_{z_j}^* M_{z_i} - M_{z_i} M_{z_j}^*; as
    # C(z_j, z_i) = C(z_i, z_j)^* has the same norms and zeros, i <= j suffices
    pairs = [(i, j) for i in range(m) for j in range(m)]
    z = [GradedPolynomial.variable(m, i) for i in range(m)]
    comms = {(i, j): commutator_blocks(realization, z[i], z[j]) for i, j in pairs if i <= j}
    # each level block of every C(z_i, z_j) and of a quotient's spherical defect
    # goes to one stacked SVD per block shape; on the full space it is diagonal
    ops = [*comms.values(), *([] if realization.is_full else [defect_blocks(realization)])]
    flat = svdvals([op.onb_block(k) for op in ops for k in range(K + 1)])
    svs = [flat[n:n + K + 1] for n in range(0, len(flat), K + 1)]
    norms = [[float(sv.max(initial=0.0)) for sv in op_svs] for op_svs in svs]
    if realization.is_full:
        diag = [full_defect_eigenvalues(realization.space, k) for k in range(K + 1)]
        defect_norms = [max((abs(float(v)) for v in d), default=0.0) for d in diag]
        defect_zero = all(not v for d in diag for v in d)
        defect_terms = {p: [float(sum(abs(float(v)) ** p for v in d)) for d in diag] for p in p_list}
    else:
        defect_norms = norms[-1]
        defect_zero = not any(row for k in range(K + 1) for row in ops[-1].block(k))
        defect_terms = {p: [float(np.sum(sv**p)) for sv in svs[-1]] for p in p_list}

    report.tables.append(
        Table(
            "defect_level_norms",
            [Column("k", "int"), Column("norm", "float")],
            [[k, defect_norms[k]] for k in range(K + 1)],
        )
    )
    report.verdicts.append(_trend_verdict("spherical-defect", defect_norms, defect_zero))

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
    for p in p_list:
        terms = defect_terms[p]
        sums = list(np.cumsum(terms))
        report.tables.append(
            Table(
                f"schatten_defect_p{p}",
                [Column("k", "int"), Column("term", "float"), Column("partial_sum", "float")],
                [[k, terms[k], float(sums[k])] for k in range(K + 1)],
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

def _binom(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


@dataclass
class TraceIdentityRecord:
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


def trace_identity(space: WeightedShiftSpace, k: int) -> TraceIdentityRecord:
    m = space.m
    total = Fraction(0)
    for alpha in enumerate_level(m, k):
        for i in range(m):
            total += space.shift_ratio(alpha, i)
            if alpha[i] > 0:
                below = list(alpha)
                below[i] -= 1
                total -= space.shift_ratio(tuple(below), i)
    telescoping = level_dimension(m, k) - (level_dimension(m, k - 1) if k > 0 else 0)
    binomial = _binom(m + k - 1, k - 1) - _binom(m + k - 2, k - 2)
    defect_zero = all(
        not space.spherical_defect(a)
        for kk in ([k - 1, k] if k > 0 else [k])
        for a in enumerate_level(m, kk)
    )
    return TraceIdentityRecord(
        k, total, telescoping, binomial, defect_zero, total == telescoping
    )


def trace_report(space: WeightedShiftSpace, K: int) -> DiagnosticsReport:
    params = {"space": space.kind, "m": space.m, "max_level": K}
    report = DiagnosticsReport("trace", params)
    rows = []
    all_match = True
    any_asserted = False
    for k in range(K + 1):
        rec = trace_identity(space, k)
        rows.append(
            [k, str(rec.computed), rec.telescoping, rec.binomial_formula, rec.defect_is_zero]
        )
        if rec.defect_is_zero:
            any_asserted = True
            all_match = all_match and rec.exact_match
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
    if any_asserted:
        report.verdicts.append(
            Verdict(
                "trace-telescoping",
                "exact-pass" if all_match else "exact-fail",
                "computed trace equals dim H_k - dim H_{k-1} on defect-free levels",
            )
        )
    report.verdicts.append(
        Verdict(
            "trace-binomial-formula",
            "reported-only",
            "binomial column emitted without assertion",
        )
    )
    return report


# ---------------------------------------------------------------------------
# summability
# ---------------------------------------------------------------------------

# the last doubling increment above which a series reads divergent, and the
# extrapolated tail below which it reads convergent
SUMMABILITY_FLOOR = 0.05
SUMMABILITY_TAIL = 0.05


@dataclass
class SummabilityRecord:
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
        return (
            f"status={self.status}, "
            f"increments={['%.6g' % x for x in self.increments]}, "
            f"tail_estimate={self.tail_estimate}, p>m={self.exponent_above_m}"
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
    prefix = np.cumsum(series)
    increments = [
        float(prefix[b] - prefix[a]) for a, b in zip(checkpoints, checkpoints[1:])
    ]
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


@dataclass
class QuotientShiftWeights:
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

    Raises StructuralError unless every level up to K is exactly
    one-dimensional.  The squared modulus is computed exactly as
    |block|^2 * g_{k+1} / g_k, from the integer Gram entries g = norms / den,
    before any float enters.
    """
    realization = quotient_realization(space, ideal, K + 1)
    for k in range(K + 2):
        if realization.comp_dim(k) != 1:
            raise StructuralError(
                f"quotient level {k} has dimension {realization.comp_dim(k)}, "
                "need exactly 1"
            )
    zi = GradedPolynomial.variable(space.m, var)
    op = mult_blocks(realization, zi, K)

    moduli_sq = []
    for k in range(K + 1):
        c = op.block(k)[0].get(0, G_ZERO)
        src, tgt = realization.level(k), realization.level(k + 1)
        moduli_sq.append(c.abs2() * Fraction(tgt.norms[0] * src.den, tgt.den * src.norms[0]))
    moduli = [float(q) ** 0.5 for q in moduli_sq]

    normalized = deviations = None
    alpha = _principal_linear_alpha(ideal)
    alpha_abs2 = alpha.abs2() if alpha is not None else None
    if space.kind == "hardy-ball" and alpha is not None and alpha_abs2:
        # the quotient identifies z1 with -alpha z2, so z1's limit is |alpha| times z2's
        limit = ((float(alpha_abs2) if var == 0 else 1.0) / (1.0 + float(alpha_abs2))) ** 0.5
        normalized = [w / limit for w in moduli]
        deviations = [abs(x - 1.0) for x in normalized]
    return QuotientShiftWeights(
        var, K, moduli_sq, moduli, normalized, deviations, alpha_abs2
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

@dataclass
class Section5Record:
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
    ``SECTION5_SLACK``.  P and N are read off the spectrum lam of
    [M_i, M_i^*]_k (one stacked eigh per block shape), never formed: Tr P =
    sum max(lam, 0), ||P|| = max(lam_max, 0) and ||N|| = max(-lam_min, 0);
    :func:`~wshm.operators.pn_split` is the test reference.
    """
    m = realization.space.m
    x = codefect_blocks(realization)
    z = [GradedPolynomial.variable(m, i) for i in range(m)]
    c = [commutator_blocks(realization, zi, zi) for zi in z]
    # eigh(C) negated differs from eigh(-C) in the last bit on blocks past
    # 25 x 25; 0.0 - C_k, unlike -C_k, keeps zeros +0.0: the bits of M M^* - M^* M
    h = [0.0 - ci.onb_block(k) for k in range(K + 1) for ci in c]
    lam = [vals for vals, _ in hermitian_eigh(h)]
    x_svs = svdvals([x.onb_block(k) for k in range(K + 1)])
    recs = []
    for k in range(K + 1):
        pos = [np.clip(v, 0.0, None) for v in lam[k * m:(k + 1) * m]]
        neg = [np.clip(-v, 0.0, None) for v in lam[k * m:(k + 1) * m]]
        lhs = sum(float(p.sum()) for p in pos)
        p_norms = [float(p.max(initial=0.0)) for p in pos]
        n_norms = [float(n.max(initial=0.0)) for n in neg]
        x_norm = float(x_svs[k].max(initial=0.0))
        rhs = bounded_dim * (2.0 * x_norm + sum(n_norms))
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

    The bounded dimension M0 comes from the Hilbert-Samuel fit; a fit of
    positive degree is a scenario error (the inequality needs dim S_k^perp
    eventually constant).
    """
    min_level = 2 * FIT_WINDOW + (ideal.max_generator_degree() or 0)
    fit = hilbert_samuel_fit(ideal, max(min_level, K + 1))
    m0 = fit.bounded_dimension
    if m0 is None:
        raise ScenarioError(
            "section5 requires a bounded-dimension quotient "
            f"(fit degree {fit.degree}, stabilized={fit.stabilized})"
        )
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
        if ideal is not None and ideal.mode != "plain":
            raise WshmError("Koszul module needs a plain-homogeneous ideal")
        if kind == "full":
            ideal = GradedIdeal(m, [])  # the full module is the quotient by 0
        self.m = m
        self.ideal = ideal
        self.kind = kind

    def dim(self, d: int) -> int:
        if d < 0:
            return 0
        if self.kind == "ideal":
            return len(self.ideal.level_data(d)[0])
        return level_dimension(self.m, d) - len(self.ideal.level_data(d)[0])

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


@dataclass
class KoszulReport:
    """Per-degree homology dimensions of the polynomial-level Koszul complex.

    ``homology[d][j]`` is dim H_j in total degree d (exterior degree j);
    ``chi`` sums (-1)^j over everything computed and ``index`` is -chi.
    ``dd_zero`` certifies the differential squares to zero exactly;
    ``conclusive`` applies the stabilization heuristic (the last three
    computed degrees carry no homology).
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
    gen_deg = mod.ideal.max_generator_degree() or 0
    tail = [sum(homology[d]) for d in range(max(0, d_max - 2), d_max + 1)]
    conclusive = d_max >= gen_deg + m and len(tail) == 3 and all(t == 0 for t in tail)
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
        Verdict(
            "koszul-dd-zero",
            "exact-pass" if rec.dd_zero else "exact-fail",
            "differential squares to zero exactly",
        )
    )
    report.verdicts.append(
        Verdict(
            "koszul-index",
            "exact-pass" if rec.conclusive else "inconclusive",
            f"chi={rec.chi}, index={rec.index}, conclusive={rec.conclusive}",
        )
    )
    return report
