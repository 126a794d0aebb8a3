import csv
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import wshm.diagnostics as diagnostics
import wshm.exact_linalg as ela
import wshm.operators as operators
from wshm import cli
from wshm.algebra import G_ONE, GradedPolynomial
from wshm.diagnostics import (
    DiagnosticsReport,
    Verdict,
    _KoszulModule,
    _trend_verdict,
    full_defect_eigenvalues,
    koszul_euler,
    koszul_report,
    normality_report,
    qweights_report,
    quotient_shift_weights,
    section5_checks,
    section5_report,
    summability_verdict,
    trace_identity,
    trace_report,
)
from wshm.errors import ScenarioError, StructuralError, WindowError, WshmError
from wshm.ideals import GradedIdeal
from wshm.operators import (
    GradedOperator,
    ModuleRealization,
    adjoint_blocks,
    commutator_blocks,
    compose,
    full_realization,
    mult_blocks,
    pn_split,
    quotient_realization,
)
from wshm.parsing import parse_polynomial
from wshm.spaces import builtin_space


def z(i, m=2):
    return GradedPolynomial.variable(m, i)


# -- trace identity -----------------------------------------------------------


def test_trace_identity_hardy_m2():
    hb = builtin_space("hardy-ball", 2)
    rec1 = trace_identity(hb, 1)
    assert (rec1.computed, rec1.telescoping, rec1.binomial_formula) == (1, 1, 1)
    rec2 = trace_identity(hb, 2)
    assert (rec2.computed, rec2.telescoping, rec2.binomial_formula) == (1, 1, 2)
    assert rec2.defect_is_zero and rec2.exact_match


def test_trace_identity_unilateral_shift():
    # Direct computation for the disk: [M*, M] is the projection onto the
    # constants, so the level trace is 1 at k = 0 and 0 for every k >= 1
    # (consistent with telescoping: dim H_k - dim H_{k-1} = 0 for k >= 1).
    disk = builtin_space("polydisk-hardy", 1)
    assert trace_identity(disk, 0).computed == 1
    for k in range(1, 8):
        rec = trace_identity(disk, k)
        assert rec.computed == 0 and rec.telescoping == 0 and rec.exact_match


def test_trace_identity_matches_telescoping_when_defect_zero():
    for m in (2, 3):
        hb = builtin_space("hardy-ball", m)
        for k in range(11):
            rec = trace_identity(hb, k)
            assert rec.defect_is_zero and rec.exact_match
    # Drury-Arveson has nonzero defect; the record must say so
    da = builtin_space("da", 2)
    assert not trace_identity(da, 3).defect_is_zero


def test_trace_report_verdicts():
    hb = builtin_space("hardy-ball", 2)
    rep = trace_report(hb, 10)
    statuses = {v.name: v.status for v in rep.verdicts}
    assert statuses["trace-telescoping"] == "exact-pass"
    assert statuses["trace-binomial-formula"] == "reported-only"


# -- summability --------------------------------------------------------------


def test_summability_da_defect_p2_divergent(da_defect_terms):
    series = da_defect_terms[2.0]
    # oracle: level terms are exactly 1/(k+1)
    for k in (0, 5, 64, 128):
        assert abs(series[k] - 1.0 / (k + 1)) < 1e-12
    rec = summability_verdict(series, 2.0, 2)
    assert rec.status == "divergent-trend"
    assert rec.increments[-1] > 0.05  # increment over K=64 -> 128
    assert rec.report_status() == "trend-consistent"  # p = m is not > m


def test_summability_da_defect_p25_convergent():
    # oracle series (k+1)^{1-p} for p = 2.5, deep enough for the tail bound
    oracle = [(k + 1) ** (-1.5) for k in range(4097)]
    rec = summability_verdict(oracle, 2.5, 2)
    assert rec.status == "convergent-trend"
    assert rec.tail_estimate < 0.05
    # honest estimate: the true tail is 2/sqrt(4098) ~ 0.0312
    assert abs(rec.tail_estimate - 0.0312) < 0.005
    assert rec.report_status() == "trend-consistent"


def test_summability_production_matches_oracle(da_defect_terms):
    series = da_defect_terms[2.5]
    for k, t in enumerate(series[:65]):
        assert abs(t - (k + 1) ** (-1.5)) < 1e-12


def test_summability_zero_and_short_series():
    assert summability_verdict([0.0] * 40, 2.0, 2).status == "convergent-trend"
    assert summability_verdict([1.0] * 10, 2.0, 2).status == "inconclusive"


def test_exactly_zero_defect_is_summable_for_every_p():
    # the Hardy ball is a spherical isometry: its defect is zero in exact
    # arithmetic, so its Schatten series is summable for p <= m as well
    for p in (1.0, 2.0, 3.0, 4.0):
        rec = summability_verdict([0.0] * 3, p, 3, exact_zero=True)
        assert rec.status == "exactly-zero" and rec.agrees_with_threshold is True
        assert rec.report_status() == "trend-consistent"
    report = normality_report(full_realization(builtin_space("hardy-ball", 3), 5), 3, [2.0, 4.0])
    verdicts = {v.name: v for v in report.verdicts}
    assert verdicts["spherical-defect"].status == "exact-pass"
    for p in (2.0, 4.0):
        v = verdicts[f"defect-summability-p{p}"]
        assert v.status == "trend-consistent"  # never exact-*: a float series grades it
        assert v.details == "identically zero in exact arithmetic, so summable for every p"
    # a nonzero defect keeps the float grading
    r = quotient_realization(builtin_space("hardy-ball", 2), GradedIdeal(2, [z(0) + z(1)]), 5)
    v = {v.name: v for v in normality_report(r, 3, [2.0]).verdicts}["defect-summability-p2.0"]
    assert v.details.startswith("status=inconclusive")


# -- quotient shift weights ---------------------------------------------------


def closed_form_modulus(alpha_abs2: float, k: int) -> float:
    """Hand-derived value for the Hardy-ball quotient by <z1 + alpha z2>:
    |w_k| = |alpha| / sqrt(1+|alpha|^2) * sqrt((k+1)/(k+2)), obtained from
    v_k = (z2 - conj(alpha) z1)^k and the exact binomial sums."""
    return math.sqrt(alpha_abs2 / (1.0 + alpha_abs2)) * math.sqrt((k + 1) / (k + 2))


@pytest.mark.parametrize("alpha_text,alpha_abs2", [("z1+z2", 1.0), ("z1+2i*z2", 4.0)])
def test_quotient_weights_match_closed_form(alpha_text, alpha_abs2):
    hb = builtin_space("hardy-ball", 2)
    ideal = GradedIdeal(2, [parse_polynomial(alpha_text, 2)])
    rec = quotient_shift_weights(hb, ideal, 40, var=0)
    for k in range(41):
        assert abs(rec.moduli[k] - closed_form_modulus(alpha_abs2, k)) < 1e-12
    assert rec.deviations is not None
    assert rec.deviations[40] < rec.deviations[5]


def test_quotient_weights_alpha_zero_boundary():
    # <z1>: the z1 compression vanishes; the quotient's cyclic shift is z2,
    # whose weights are the one-variable hardy ratios.
    hb = builtin_space("hardy-ball", 2)
    ideal = GradedIdeal(2, [z(0)])
    rec1 = quotient_shift_weights(hb, ideal, 10, var=0)
    assert all(w == 0.0 for w in rec1.moduli)
    rec2 = quotient_shift_weights(hb, ideal, 10, var=1)
    for k in range(11):
        expected = math.sqrt(float(hb.shift_ratio((0, k), 1)))
        assert abs(rec2.moduli[k] - expected) < 1e-13


def test_quotient_weights_structural_error():
    hb = builtin_space("hardy-ball", 2)
    with pytest.raises(StructuralError):
        quotient_shift_weights(hb, GradedIdeal(2, [z(0) * z(0)]), 6)


def test_qweights_report_trend():
    hb = builtin_space("hardy-ball", 2)
    rep = qweights_report(hb, GradedIdeal(2, [z(0) + z(1)]), 30)
    assert rep.verdicts[0].status == "trend-consistent"


# -- bounded-dimension trace inequality ----------------------------------------


def test_section5_linear_ideal():
    hb = builtin_space("hardy-ball", 2)
    rep = section5_report(hb, GradedIdeal(2, [z(0) + z(1)]), 15)
    rows = rep.tables[0].rows
    assert all(r[-1] for r in rows)
    # both sides nonnegative
    assert all(r[1] >= 0 and r[2] >= 0 for r in rows)


def test_section5_z1_ideal():
    hb = builtin_space("hardy-ball", 2)
    rep = section5_report(hb, GradedIdeal(2, [z(0)]), 15)
    assert all(r[-1] for r in rep.tables[0].rows)
    assert rep.params["M0"] == 1


def test_section5_zero_ideal_one_variable():
    disk = builtin_space("polydisk-hardy", 1)
    rep = section5_report(disk, GradedIdeal(1, []), 8)
    rows = rep.tables[0].rows
    for k, lhs, rhs, x_norm, holds in rows:
        assert holds
        if k >= 1:
            assert lhs == 0.0 and rhs == 0.0


def test_section5_n_norms_decay_on_linear_quotient():
    hb = builtin_space("hardy-ball", 2)
    ideal = GradedIdeal(2, [z(0) + z(1)])
    realization = quotient_realization(hb, ideal, 16)
    recs = section5_checks(realization, 14, 1)
    assert sum(recs[14].n_norms) < sum(recs[2].n_norms)
    assert all(p <= 1e-12 for rec in recs[2::12] for p in rec.p_norms)


@pytest.mark.parametrize("gen", ["z1+z2", "z1^2+(1+i)*z1*z2-z2^2"])
def test_section5_check_matches_whole_operator_reference(gen):
    # reference, level by level: X_k = I - sum_i (M_i M_i^*)_k and
    # [M_i, M_i^*]_k from operators composed over every level <= k
    hb = builtin_space("hardy-ball", 2)
    r = quotient_realization(hb, GradedIdeal(2, [parse_polynomial(gen, 2)]), 6)
    recs = section5_checks(r, 5, 2)
    assert [rec.k for rec in recs] == list(range(6))
    for k, rec in enumerate(recs):
        xk = [{c: G_ONE} for c in range(r.comp_dim(k))]
        for i in range(2):
            mi = mult_blocks(r, z(i), k)
            adj = adjoint_blocks(mi)
            mm = compose(mi, adj).block(k)
            xk = ela.mat_sub(xk, mm)
            hk = ela.mat_sub(mm, compose(adj, mi).block(k))
            h_onb = GradedOperator(r, 0, {k: hk}).onb_block(k)
            p_part, n_part = pn_split(h_onb)
            # P and N are read off the spectrum, not reconstructed
            tol = 1e-12 * max(1.0, float(np.linalg.norm(h_onb, 2)))
            assert abs(rec.p_norms[i] - float(np.linalg.norm(p_part, 2))) <= tol
            assert abs(rec.n_norms[i] - float(np.linalg.norm(n_part, 2))) <= tol
        assert rec.x_norm == GradedOperator(r, 0, {k: xk}).norm(k)


def test_section5_spectrum_is_the_self_commutators_bit_for_bit():
    # section5 reads [M_i, M_i^*] = M_i M_i^* - M_i^* M_i as 0.0 - C(z_i, z_i)
    # in float: the same bits, also for blocks past 25 x 25, where eigh(-C)
    # is not exactly eigh(C) negated and reversed; levels >= 26 are 27 x 27
    K = 30
    ideal = GradedIdeal(2, [parse_polynomial("z1^27+(1+i)*z1^3*z2^24-z2^27", 2)])
    r = quotient_realization(builtin_space("da", 2), ideal, K + 1)
    recs = section5_checks(r, K, 27)
    for i in range(2):
        h = operators.op_sub(*(operators.product_blocks(r, z(i), z(i), f) for f in (False, True)))
        spectra = operators.hermitian_eigh([h.onb_block(k) for k in range(K + 1)])
        pos = [float(np.clip(v, 0.0, None).max(initial=0.0)) for v, _ in spectra]
        neg = [float(np.clip(-v, 0.0, None).max(initial=0.0)) for v, _ in spectra]
        assert [rec.p_norms[i] for rec in recs] == pos
        assert [rec.n_norms[i] for rec in recs] == neg


def test_section5_report_block_work_is_linear_in_levels(monkeypatch):
    # two level-k products per variable and level: at most 2 m (K + 1)
    calls = []
    mat_mul = ela.mat_mul
    monkeypatch.setattr(ela, "mat_mul", lambda a, b: calls.append(1) or mat_mul(a, b))
    hb = builtin_space("hardy-ball", 2)
    section5_report(hb, GradedIdeal(2, [z(0) + z(1)]), 15)
    assert len(calls) <= 2 * 2 * 16


def test_section5_builds_its_operators_once_per_report(monkeypatch):
    # X and each [M_i, M_i^*] come from the realization's shared products:
    # at most 2 m compositions per report, however many levels it reads
    calls = []
    original = operators.compose

    def counted(a, b):
        calls.append(1)
        return original(a, b)

    for mod in (operators, diagnostics):  # wherever a module holds compose
        if getattr(mod, "compose", None) is original:
            monkeypatch.setattr(mod, "compose", counted)
    hb = builtin_space("hardy-ball", 2)
    counts = []
    for K in (4, 15):
        calls.clear()
        section5_report(hb, GradedIdeal(2, [z(0) + z(1)]), K)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2 * 2


def test_section5_requires_bounded_dimension():
    hb = builtin_space("hardy-ball", 2)
    with pytest.raises(ScenarioError):
        section5_report(hb, GradedIdeal(2, []), 8)  # linear growth


# -- Koszul -------------------------------------------------------------------


def test_koszul_full_module():
    rep = koszul_euler(2, None, "full", 8)
    assert rep.chi == 1 and rep.index == -1 and rep.dd_zero and rep.conclusive
    nonzero = {d: dims for d, dims in rep.homology.items() if any(dims)}
    assert nonzero == {0: [1, 0, 0]}


def test_koszul_maximal_ideal():
    ideal = GradedIdeal(2, [z(0), z(1)])
    rep = koszul_euler(2, ideal, "ideal", 8)
    assert rep.chi == 1 and rep.index == -1 and rep.dd_zero
    nonzero = {d: dims for d, dims in rep.homology.items() if any(dims)}
    # frozen Tor dims: 2 generators in degree 1, one syzygy in degree 2
    assert nonzero == {1: [2, 0, 0], 2: [0, 1, 0]}


@pytest.mark.parametrize(
    "gens",
    [["z1"], ["z1+z2"], ["z1,z2"], ["z1^2,z1*z2,z2^2"]],
)
def test_koszul_acceptance_modules(gens):
    parsed = [parse_polynomial(g, 2) for g in gens[0].split(",")]
    ideal = GradedIdeal(2, parsed)
    rep = koszul_euler(2, ideal, "ideal", 10)
    assert rep.chi == 1 and rep.index == -1 and rep.dd_zero and rep.conclusive


def test_koszul_redundant_generator_invariance():
    base = GradedIdeal(2, [z(0) + z(1)])
    redundant = GradedIdeal(2, [z(0) + z(1), z(0) * z(0) + z(0) * z(1)])
    r1 = koszul_euler(2, base, "ideal", 9)
    r2 = koszul_euler(2, redundant, "ideal", 9)
    assert r1.chi == r2.chi == 1


def test_koszul_additivity_over_quotient():
    for gens in (["z1+z2"], ["z1", "z2"]):
        ideal = GradedIdeal(2, [parse_polynomial(g, 2) for g in gens])
        chi_i = koszul_euler(2, ideal, "ideal", 9).chi
        chi_q = koszul_euler(2, ideal, "quotient", 9).chi
        assert chi_i + chi_q == koszul_euler(2, None, "full", 9).chi


def test_koszul_builds_each_multiplication_block_once(monkeypatch):
    # z_i on Mod_e enters every differential(d, j) with d - j = e; each (i, e)
    # pair is built once per koszul_euler call
    calls = []
    mult_rows = _KoszulModule.mult_rows

    def counted(self, i, e):
        calls.append((i, e))
        return mult_rows(self, i, e)

    monkeypatch.setattr(_KoszulModule, "mult_rows", counted)
    ideal = GradedIdeal(3, [parse_polynomial(g, 3) for g in ("z1^2+z2*z3", "z1*z2")])
    rep = koszul_euler(3, ideal, "quotient", 10)
    assert rep.dd_zero
    assert len(calls) == len(set(calls)) == 30


def test_koszul_inconclusive_when_too_shallow():
    ideal = GradedIdeal(2, [z(0) * z(0), z(0) * z(1), z(1) * z(1)])
    rep = koszul_euler(2, ideal, "ideal", 2)
    assert not rep.conclusive


def test_koszul_report_verdicts():
    rep = koszul_report(2, GradedIdeal(2, [z(0) + z(1)]), "ideal", 8)
    statuses = {v.name: v.status for v in rep.verdicts}
    assert statuses["koszul-dd-zero"] == "exact-pass"
    assert statuses["koszul-index"] == "exact-pass"


# -- normality report ---------------------------------------------------------


def test_normality_hardy_exact_pass():
    hb = builtin_space("hardy-ball", 2)
    rep = normality_report(full_realization(hb, 12), 10, [])
    statuses = {v.name: v.status for v in rep.verdicts}
    assert statuses["spherical-defect"] == "exact-pass"
    assert statuses["cross-commutators"] == "trend-consistent"


def test_normality_scaled_polydisk_counterexample():
    pd = builtin_space("polydisk-hardy", 2, {"scale2": Fraction(1, 2)})
    rep = normality_report(full_realization(pd, 14), 12, [])
    statuses = {v.name: v.status for v in rep.verdicts}
    assert statuses["spherical-defect"] == "exact-pass"
    assert statuses["cross-commutators"] == "trend-inconsistent"
    table = next(t for t in rep.tables if t.name == "commutator_level_norms")
    for row in table.rows:
        assert abs(max(row[1:]) - 0.5) < 1e-12  # constant, never decaying


def test_normality_da_defect_slope():
    da = builtin_space("da", 2)
    rep = normality_report(full_realization(da, 22), 20, [])
    v = next(v for v in rep.verdicts if v.name == "spherical-defect")
    assert v.status == "trend-consistent"
    assert "loglog_slope=-0.9" in v.details or "loglog_slope=-1.0" in v.details
    table = next(t for t in rep.tables if t.name == "defect_level_norms")
    for k, norm in table.rows:
        assert abs(norm - 1.0 / (k + 1)) < 1e-12


def test_normality_quotient_scenario():
    hb = builtin_space("hardy-ball", 2)
    ideal = GradedIdeal(2, [z(0) + z(1)])
    rep = normality_report(quotient_realization(hb, ideal, 12), 10, [2.0])
    statuses = {v.name: v.status for v in rep.verdicts}
    assert statuses["cross-commutators"] == "trend-consistent"
    assert statuses["spherical-defect"] == "trend-consistent"


def test_normality_report_forms_only_reported_levels(monkeypatch):
    # each cross commutator needs K + 1 products M_j^* M_i and K products
    # M_i M_j^* (zero at level 0); the spherical defect is an exact diagonal
    calls = []
    mat_mul = ela.mat_mul
    monkeypatch.setattr(ela, "mat_mul", lambda a, b: calls.append(1) or mat_mul(a, b))
    m, K = 3, 3
    normality_report(full_realization(builtin_space("hardy-ball", m), K + 2), K, [2.0])
    assert len(calls) <= m * m * (2 * K + 1)


def test_each_multiplier_adjoint_block_is_built_once(monkeypatch):
    # M_j^* is memoised on the realization like M_j, so the m^2 commutators of
    # a normality report, and section5's levels, share one build per block
    calls = []
    build = operators._adjoint_block
    monkeypatch.setattr(
        operators, "_adjoint_block", lambda *args: calls.append(args[-1]) or build(*args)
    )
    m, K = 3, 3
    normality_report(full_realization(builtin_space("hardy-ball", m), K + 2), K, [2.0])
    assert len(calls) <= m * (K + 1)
    calls.clear()
    section5_report(builtin_space("hardy-ball", 2), GradedIdeal(2, [z(0) + z(1)]), K)
    assert len(calls) <= 2 * (K + 2)


def test_normality_and_section5_reports_never_project(monkeypatch):
    # a quotient's M_p^* blocks are read off by co-invariance and M_p is their
    # adjoint, so no report projects onto a complement
    calls = []
    project = ModuleRealization.project_to_complement
    monkeypatch.setattr(
        ModuleRealization, "project_to_complement",
        lambda self, *args: calls.append(args) or project(self, *args),
    )
    m, K = 3, 2
    ideal = GradedIdeal(m, [z(0, m) + z(1, m) + z(2, m)])
    r = quotient_realization(builtin_space("hardy-ball", m), ideal, K + 2)
    normality_report(r, K, [2.0])
    section5_report(builtin_space("hardy-ball", 2), GradedIdeal(2, [z(0) + z(1)]), 4)
    assert calls == []


def test_each_read_off_block_is_built_once(monkeypatch):
    # each (p, level) block of M_p^* is read off once per realization, also
    # when M_p (its adjoint) and M_p^* are both read, and by a second report
    built = []
    read_off = operators._coinvariant_block
    monkeypatch.setattr(
        operators, "_coinvariant_block",
        lambda r, p, j: built.append((p, j)) or read_off(r, p, j),
    )
    m, K = 3, 2
    ideal = GradedIdeal(m, [parse_polynomial("z1+(2-i)*z2+z3", m)])
    r = quotient_realization(builtin_space("hardy-ball", m), ideal, K + 2)
    first = normality_report(r, K, [2.0]).to_json()
    for i in range(m):
        op = mult_blocks(r, z(i, m), K + 1)
        adj = adjoint_blocks(op)
        for k in range(K + 2):
            op.block(k), adj.block(k + 1)
    assert normality_report(r, K, [2.0]).to_json() == first
    assert len(built) == len(set(built)) == m * (K + 2)  # levels 1..K+2 of each z_i


def test_normality_report_builds_each_multiplier_product_once(monkeypatch):
    # only C(z_i, z_j) with i <= j is built, and the products M_p M_q^* and
    # M_q^* M_p of each pair once per realization: the defect reuses the
    # diagonal commutators' M_i^* M_i
    calls, built = [], []
    mat_mul, products = ela.mat_mul, operators._products
    monkeypatch.setattr(ela, "mat_mul", lambda a, b: calls.append(1) or mat_mul(a, b))
    monkeypatch.setattr(
        operators, "_products", lambda r, *pq: built.append(pq) or products(r, *pq)
    )
    m, K = 3, 2
    ideal = GradedIdeal(m, [z(0, m) + z(1, m) + z(2, m)])
    r = quotient_realization(builtin_space("hardy-ball", m), ideal, K + 2)
    first = normality_report(r, K, [2.0]).to_json()
    assert len(calls) <= 30  # 54 when every pair and the defect built their own
    assert len(built) == len(set(built)) == m * (m + 1) // 2  # pairs i <= j
    n_calls = len(calls)
    assert normality_report(r, K, [2.0]).to_json() == first
    assert len(calls) == n_calls and len(built) == m * (m + 1) // 2


def test_normality_columns_equal_one_block_norms_bit_for_bit():
    # the report takes one stacked SVD per block shape; each column entry must
    # be what GradedOperator.norm gives for that block alone
    m, K = 3, 4
    ideal = GradedIdeal(m, [z(0, m) + z(1, m) + z(2, m)])
    r = quotient_realization(builtin_space("hardy-ball", m), ideal, K + 2)
    tables = {t.name: t for t in normality_report(r, K, [2.0]).tables}
    dop = operators.defect_blocks(r)
    assert [row[1] for row in tables["defect_level_norms"].rows] == [
        dop.norm(k) for k in range(K + 1)
    ]
    comm = tables["commutator_level_norms"]
    names = [c.name for c in comm.columns]
    for i in range(m):
        for j in range(i, m):
            op = commutator_blocks(r, z(i, m), z(j, m))
            col = names.index(f"comm_{i + 1}_{j + 1}")
            assert [row[col] for row in comm.rows] == [op.norm(k) for k in range(K + 1)]


@pytest.mark.parametrize("case", ["hb3-quotient", "polydisk-full"])
def test_normality_mirrored_commutator_columns(case):
    # C(z_j, z_i) = C(z_i, z_j)^* in the weighted inner product, so comm_j_i
    # repeats comm_i_j; both must match a direct SVD of C(z_j, z_i)
    K = 3
    if case == "hb3-quotient":
        gen = parse_polynomial("z1+(2-i)*z2+(1+3i)*z3", 3)
        r = quotient_realization(builtin_space("hardy-ball", 3), GradedIdeal(3, [gen]), K + 2)
    else:
        pd = builtin_space("polydisk-hardy", 2, {"scale2": Fraction(1, 2)})
        r = full_realization(pd, K + 2)
    m = r.space.m
    table = next(t for t in normality_report(r, K).tables if t.name == "commutator_level_norms")
    names = [c.name for c in table.columns]

    def column(i, j):
        return [row[names.index(f"comm_{i + 1}_{j + 1}")] for row in table.rows]

    for i in range(m):
        for j in range(m):
            assert column(j, i) == column(i, j)
            comm = commutator_blocks(r, z(j, m), z(i, m))
            for k in range(K + 1):
                b = comm.onb_block(k)
                want = float(np.linalg.norm(b, 2))
                assert comm.norm(k) == want  # bit for bit
                assert abs(column(j, i)[k] - want) <= 1e-14 * want
    dop = operators.defect_blocks(r)
    for k in range(K + 1):
        assert dop.norm(k) == float(np.linalg.norm(dop.onb_block(k), 2))


def test_trend_verdict_on_a_series_that_reaches_zero():
    # the unilateral shift's self commutator is the projection onto the
    # constants: norms [1, 0, 0] decay to zero and stay there
    rep = normality_report(full_realization(builtin_space("hardy-ball", 1), 4), 2)
    v = next(v for v in rep.verdicts if v.name == "cross-commutators")
    assert (v.status, v.details) == ("trend-consistent", "norm[1]=0, norm[2]=0, loglog_slope=None")
    assert _trend_verdict("t", [0.5, 0.0, 0.0], False).status == "trend-consistent"
    assert _trend_verdict("t", [0.0, 0.0, 0.0], True).status == "exact-pass"
    assert _trend_verdict("t", [0.0, 0.25, 0.5], False).status == "trend-inconsistent"
    assert _trend_verdict("t", [0.5, 0.5, 0.5], False).status == "trend-inconsistent"


def test_normality_report_rejects_exponents_below_one():
    hb = builtin_space("hardy-ball", 2)
    for r in (full_realization(hb, 4), quotient_realization(hb, GradedIdeal(2, [z(0) + z(1)]), 4)):
        with pytest.raises(WshmError):
            normality_report(r, 2, [2.0, 0.5])


def test_normality_report_rejects_a_window_short_of_two_levels():
    # every reported level k <= K needs realization levels to K + 2
    r = full_realization(builtin_space("da", 2), 5)
    assert len(normality_report(r, 3, [2.0]).tables) == 3
    with pytest.raises(WindowError, match="normality_report to K=4 needs realization levels to 6"):
        normality_report(r, 4, [2.0])


@pytest.mark.parametrize("p_list", [[math.inf], [math.nan], [2.0, 2.0], [1.5, 2.0, 1.5]])
def test_normality_report_rejects_infinite_or_repeated_exponents(p_list):
    # each exponent names one table and one verdict, so a repeat would clash
    r = full_realization(builtin_space("hardy-ball", 2), 4)
    with pytest.raises(WshmError):
        normality_report(r, 2, p_list)


def test_full_defect_eigenvalues():
    da = builtin_space("da", 3)
    for k in (0, 4, 9):
        vals = full_defect_eigenvalues(da, k)
        assert all(v == Fraction(1 - 3, k + 1) for v in vals)


# -- report plumbing ----------------------------------------------------------


def test_report_json_deterministic():
    hb = builtin_space("hardy-ball", 2)
    a = trace_report(hb, 6).to_json()
    b = trace_report(builtin_space("hardy-ball", 2), 6).to_json()
    assert a == b
    json.loads(a)  # valid JSON


def test_report_rejects_unknown_verdict_status():
    with pytest.raises(WshmError):
        Verdict("x", "maybe-pass")


def test_report_exact_fail_flag():
    rep = DiagnosticsReport("s", {})
    rep.verdicts.append(Verdict("a", "exact-pass"))
    assert not rep.has_exact_fail
    rep.verdicts.append(Verdict("b", "exact-fail"))
    assert rep.has_exact_fail


def test_table_csv_roundtrip(capsys):
    hb = builtin_space("hardy-ball", 2)
    rep = trace_report(hb, 4)
    lines = rep.tables[0].to_csv().strip().split("\n")
    assert lines[0] == "k,computed,telescoping,binomial_formula,defect_is_zero"
    assert len(lines) == 6
    # text fields that hold commas are quoted: csv reads each row back whole
    for argv in (
        ("space", "describe", "--space", "da", "--m", "2"),
        ("preg", "delta", "--poly", "1/2*z1+1/2*z2+1/4*z1*z2", "--m", "2", "--max-level", "4"),
        ("ideal", "decompose", "--m", "2", "--ideal", "z2-z1^2", "--weight", "1,2",
         "--max-wlevel", "8"),
    ):
        assert cli.main([*argv]) == 0
        tables = json.loads(capsys.readouterr().out)["tables"]
        assert cli.main([*argv, "--format", "csv"]) == 0
        blocks = capsys.readouterr().out.split("# table: ")[1:]
        assert len(blocks) == len(tables)
        for table, block in zip(tables, blocks):
            name, header, *rows = csv.reader(io.StringIO(block))
            assert name == [table["name"]]
            assert header == [c["name"] for c in table["columns"]]
            assert rows == [[str(x) for x in row] for row in table["rows"]]
