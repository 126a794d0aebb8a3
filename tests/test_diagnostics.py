import csv
import gc
import io
import json
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wshm.diagnostics as diagnostics
import wshm.exact_linalg as ela
import wshm.operators as operators
from wshm import cli
from wshm.algebra import G_ONE, GradedPolynomial
from wshm.diagnostics import (
    DiagnosticsReport,
    Verdict,
    _KoszulModule,
    _loglog_slope,
    _trend_verdict,
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
from wshm.parsing import parse_polynomial, parse_polynomial_list
from wshm.spaces import builtin_space

from test_operators import is_partial_permutation, read_off_mismatch


def z(i, m=2):
    return GradedPolynomial.variable(m, i)


# -- trace identity -----------------------------------------------------------


def test_trace_identity_hardy_m2():
    hb = full_realization(builtin_space("hardy-ball", 2), 3)
    rec1 = trace_identity(hb, 1)
    assert (rec1.computed, rec1.telescoping, rec1.binomial_formula) == (1, 1, 1)
    rec2 = trace_identity(hb, 2)
    assert (rec2.computed, rec2.telescoping, rec2.binomial_formula) == (1, 1, 2)
    assert rec2.defect_is_zero and rec2.exact_match


def test_trace_identity_unilateral_shift():
    # Direct computation for the disk: [M*, M] is the projection onto the
    # constants, so the level trace is 1 at k = 0 and 0 for every k >= 1
    # (consistent with telescoping: dim H_k - dim H_{k-1} = 0 for k >= 1).
    disk = full_realization(builtin_space("polydisk-hardy", 1), 8)
    assert trace_identity(disk, 0).computed == 1
    for k in range(1, 8):
        rec = trace_identity(disk, k)
        assert rec.computed == 0 and rec.telescoping == 0 and rec.exact_match


def test_trace_identity_matches_telescoping_when_defect_zero():
    for m in (2, 3):
        hb = full_realization(builtin_space("hardy-ball", m), 11)
        for k in range(11):
            rec = trace_identity(hb, k)
            assert rec.defect_is_zero and rec.exact_match
    # Drury-Arveson has nonzero defect; the record must say so
    da = full_realization(builtin_space("da", 2), 4)
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


def test_summability_increments_below_the_floor_that_do_not_shrink_are_inconclusive():
    # increments 0.002, 0.004, 0.008, 0.016: under the floor, but growing, so no
    # geometric tail bounds them
    rec = summability_verdict([0.0] + [0.001] * 32, 2.0, 2)
    assert max(rec.increments) < diagnostics.SUMMABILITY_FLOOR
    assert rec.increments == sorted(rec.increments)
    assert rec.tail_estimate == math.inf and rec.status == "inconclusive"


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


@pytest.mark.parametrize("alpha_text,alpha_abs2", [("2i", 4), ("(1-3i)", 10), ("3", 9)])
def test_quotient_weights_exact_closed_form(alpha_text, alpha_abs2):
    # on hardy-ball m=2 modulo z1 + alpha z2, exactly at every k <= 60:
    # |w_k|^2 = |alpha|^2 / (1+|alpha|^2) (k+1)/(k+2) for z1
    # and 1 / (1+|alpha|^2) (k+1)/(k+2) for z2
    hb = builtin_space("hardy-ball", 2)
    ideal = GradedIdeal(2, [parse_polynomial(f"z1+{alpha_text}*z2", 2)])
    for var, top in ((0, alpha_abs2), (1, 1)):
        rec = quotient_shift_weights(hb, ideal, 60, var=var)
        assert rec.alpha_abs2 == alpha_abs2
        assert rec.moduli_sq == [Fraction(top, 1 + alpha_abs2) * Fraction(k + 1, k + 2) for k in range(61)]


def test_quotient_weights_alpha_zero_boundary():
    # <z1>: the z1 compression vanishes; the quotient's cyclic shift is z2,
    # whose squared weights are exactly the one-variable hardy ratios.  The
    # quotient is monomial, and M^* is read off as on any other quotient.
    hb = builtin_space("hardy-ball", 2)
    ideal = GradedIdeal(2, [z(0)])
    rec1 = quotient_shift_weights(hb, ideal, 10, var=0)
    assert rec1.moduli_sq == [0] * 11
    assert all(w == 0.0 for w in rec1.moduli)
    rec2 = quotient_shift_weights(hb, ideal, 10, var=1)
    assert rec2.moduli_sq == [hb.shift_ratio((0, k), 1) for k in range(11)]


def test_quotient_weights_structural_error():
    hb = builtin_space("hardy-ball", 2)
    with pytest.raises(StructuralError):
        quotient_shift_weights(hb, GradedIdeal(2, [z(0) * z(0)]), 6)


def test_qweights_report_trend():
    hb = builtin_space("hardy-ball", 2)
    rep = qweights_report(hb, GradedIdeal(2, [z(0) + z(1)]), 30)
    assert rep.verdicts[0].status == "trend-consistent"


@pytest.mark.parametrize(
    "m, ideal, modulus_sq",
    [
        (3, "z1-z2,z2-z3", lambda k: Fraction(k + 1, 3 * (k + 3))),  # m != 2
        (2, "z2", lambda k: Fraction(k + 1, k + 2)),  # no z1 term
    ],
)
def test_qweights_report_without_a_reference_limit(m, ideal, modulus_sq):
    # the line weights of the quotient: nothing to normalize by, so no verdict is graded
    K = 12
    rep = qweights_report(builtin_space("hardy-ball", m), GradedIdeal(m, parse_polynomial_list(ideal, m)), K)
    (table,) = rep.tables
    assert [c.name for c in table.columns] == ["k", "modulus_sq", "modulus"]
    assert [row[1] for row in table.rows] == [str(modulus_sq(k)) for k in range(K + 1)]
    assert [(v.name, v.status) for v in rep.verdicts] == [("weights-converge", "reported-only")]


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
            h_onb = GradedOperator(r, 0, lambda _, j: hk).onb_block(k)
            p_part, n_part = pn_split(h_onb)
            # P and N are read off the spectrum, not reconstructed
            tol = 1e-12 * max(1.0, float(np.linalg.norm(h_onb, 2)))
            assert abs(rec.p_norms[i] - float(np.linalg.norm(p_part, 2))) <= tol
            assert abs(rec.n_norms[i] - float(np.linalg.norm(n_part, 2))) <= tol
        assert rec.x_norm == GradedOperator(r, 0, lambda _, j: xk).norm(k)


def test_section5_spectrum_is_the_self_commutators_bit_for_bit():
    # section5 reads [M_i, M_i^*] = M_i M_i^* - M_i^* M_i as 0.0 - C(z_i, z_i)
    # in float: the same bits, also for blocks past 25 x 25, where eigh(-C)
    # is not exactly eigh(C) negated and reversed; levels >= 26 are 27 x 27.
    # Its stacked reductions Tr P, ||P||, ||N|| and ||X|| are those of one
    # block at a time, bit for bit
    K = 30
    ideal = GradedIdeal(2, [parse_polynomial("z1^27+(1+i)*z1^3*z2^24-z2^27", 2)])
    r = quotient_realization(builtin_space("da", 2), ideal, K + 1)
    recs = section5_checks(r, K, 27)
    traces = [0] * (K + 1)
    for i in range(2):
        h = operators.op_sub(*(operators.product_blocks(r, z(i), z(i), f) for f in (False, True)))
        spectra = [operators.hermitian_eigh(h.onb_block(k)[None])[0][0] for k in range(K + 1)]
        pos = [float(np.clip(v, 0.0, None).max(initial=0.0)) for v in spectra]
        neg = [float(np.clip(-v, 0.0, None).max(initial=0.0)) for v in spectra]
        assert [rec.p_norms[i] for rec in recs] == pos
        assert [rec.n_norms[i] for rec in recs] == neg
        traces = [t + float(np.clip(v, 0.0, None).sum()) for t, v in zip(traces, spectra)]
    assert [rec.lhs for rec in recs] == traces
    x = operators.codefect_blocks(r)
    assert [rec.x_norm for rec in recs] == [x.norm(k) for k in range(K + 1)]
    assert max(h.block_shape(k) for k in range(K + 1)) == (27, 27)


def test_reports_cross_to_floats_once_per_block_shape(monkeypatch):
    # every block of one shape that crosses to floats crosses in one scatter;
    # partial permutations do not cross (their singular values are read off).
    # hb2 z1^2+(1+i)z1z2-z2^2 has levels of dimension 1, 2, 2, ...
    calls = []
    crossing = ela.to_complex_array

    def counted(blocks, nr, nc):
        calls.append(len(blocks))
        return crossing(blocks, nr, nc)

    monkeypatch.setattr(ela, "to_complex_array", counted)
    hb = builtin_space("hardy-ball", 2)
    ideal = GradedIdeal(2, [parse_polynomial("z1^2+(1+i)*z1*z2-z2^2", 2)])
    K = 8
    normality_report(quotient_realization(hb, ideal, K + 2), K, [2.0])
    # C(z1, z1), C(z1, z2), C(z2, z2) and the defect: their 1x1 level-0
    # blocks read off, and every 2x2 block (levels 1..K) has a row with two
    # entries, so it crosses and goes to SVD
    assert calls == [4 * K]
    calls.clear()
    section5_report(hb, ideal, K)
    # the self commutators cross for eigh, shapes (1, 1) and (2, 2); X is
    # 1 / (k + 1) times the identity at every level k, so it reads off
    assert len(calls) == 2 and sum(calls) == 2 * (K + 1)


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
    # at most 2 m distinct compositions per report, however many levels it reads
    calls = []
    original = operators.compose

    def counted(a, b):
        op = original(a, b)
        calls.append(op.recipe)
        return op

    for mod in (operators, diagnostics):  # wherever a module holds compose
        if getattr(mod, "compose", None) is original:
            monkeypatch.setattr(mod, "compose", counted)
    hb = builtin_space("hardy-ball", 2)
    counts = []
    for K in (4, 15):
        calls.clear()
        section5_report(hb, GradedIdeal(2, [z(0) + z(1)]), K)
        counts.append(len(set(calls)))
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


def test_koszul_index_is_conclusive_from_the_numerator_degree_on():
    # <z1^6, z2^6>: K(t) = (1 - t^6)^2 has degree 12.  Degrees 9..11 carry no
    # homology, yet chi is still 2 there and 1 only from degree 12 on
    ideal = GradedIdeal(2, [parse_polynomial("z1^6", 2), parse_polynomial("z2^6", 2)])
    for d_max, chi, conclusive in ((9, 2, False), (11, 2, False), (12, 1, True), (13, 1, True)):
        rep = koszul_euler(2, ideal, "ideal", d_max)
        assert (rep.chi, rep.conclusive) == (chi, conclusive), d_max


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
    assert -1.1 < float(v.details.split("loglog_slope=")[1]) <= -0.9
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
        lambda r, j, p, d: built.append((p, j)) or read_off(r, j, p, d),
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
    # diagonal commutators' M_i^* M_i.  A second report builds nothing
    calls, subs, built = [], [], []
    mat_mul, mat_sub, compose_block = ela.mat_mul, ela.mat_sub, operators._compose_block
    monkeypatch.setattr(ela, "mat_mul", lambda a, b: calls.append(1) or mat_mul(a, b))
    monkeypatch.setattr(ela, "mat_sub", lambda a, b: subs.append(1) or mat_sub(a, b))
    monkeypatch.setattr(
        operators, "_compose_block",
        lambda r, j, a, b: built.append((a.recipe, b.recipe, j)) or compose_block(r, j, a, b),
    )
    m, K = 3, 2
    ideal = GradedIdeal(m, [z(0, m) + z(1, m) + z(2, m)])
    r = quotient_realization(builtin_space("hardy-ball", m), ideal, K + 2)
    first = normality_report(r, K, [2.0]).to_json()
    assert len(calls) <= 30  # 54 when every pair and the defect built their own
    assert len(built) == len(set(built))
    assert len({(a, b) for a, b, _ in built}) == 2 * m * (m + 1) // 2  # pairs i <= j
    n_calls, n_subs, n_built = len(calls), len(subs), len(built)
    assert normality_report(r, K, [2.0]).to_json() == first
    assert (len(calls), len(subs), len(built)) == (n_calls, n_subs, n_built)


def test_repeated_section5_checks_build_nothing_new(monkeypatch):
    # every block of C(z_i, z_i) and of X is built by the first check: a
    # later check on the same realization subtracts nothing again
    subs = []
    mat_sub = ela.mat_sub
    monkeypatch.setattr(ela, "mat_sub", lambda a, b: subs.append(1) or mat_sub(a, b))
    K = 15
    r = quotient_realization(builtin_space("hardy-ball", 2), GradedIdeal(2, [z(0) + z(1)]), K + 1)
    first = section5_checks(r, K, 1)
    assert len(subs) == 2 * 2 * (K + 1)  # C(z_i, z_i) and X's two terms, per level
    for _ in range(5):
        assert section5_checks(r, K, 1) == first
    assert len(subs) == 2 * 2 * (K + 1)


@pytest.mark.parametrize("kind", ["full", "quotient"])
def test_reports_leave_no_reference_cycle(kind):
    # the level and block caches do not refer to the realization, so it dies
    # with its last reference, without the cycle collector
    hb, K = builtin_space("hardy-ball", 2), 3
    if kind == "full":
        r = full_realization(hb, K + 2)
    else:
        r = quotient_realization(hb, GradedIdeal(2, [z(0) + z(1)]), K + 2)
    gc.collect()
    gc.disable()
    try:
        normality_report(r, K, [2.0])
        section5_checks(r, K, 1)
        ref = weakref.ref(r)
        del r
        assert ref() is None
    finally:
        gc.enable()


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


def assert_norms_match_direct_svd(op, k, read_off):
    """op.norm(k) is LAPACK's norm of the block, bit for bit, when the block is
    not a partial permutation; otherwise its singular values are read off
    (``read_off_mismatch``, which compares them with LAPACK's within 1e-14).
    Whether the block read off is appended to ``read_off``."""
    want = float(np.linalg.norm(op.onb_block(k), 2))
    if is_partial_permutation(op.block(k)):
        assert read_off_mismatch(op, k, op.singular_values(k)) is None
    else:
        assert op.norm(k) == want  # bit for bit
    read_off.append(is_partial_permutation(op.block(k)))
    return want


@pytest.mark.parametrize("case", ["hb3-quotient", "polydisk-full"])
def test_normality_mirrored_commutator_columns(case):
    # C(z_j, z_i) = C(z_i, z_j)^* in the weighted inner product, so comm_j_i
    # repeats comm_i_j; both must match a direct SVD of C(z_j, z_i), bit for
    # bit where the block takes the SVD, and within 1e-14 where it reads off
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

    read_off = []
    for i in range(m):
        for j in range(m):
            assert column(j, i) == column(i, j)
            comm = commutator_blocks(r, z(j, m), z(i, m))
            for k in range(K + 1):
                want = assert_norms_match_direct_svd(comm, k, read_off)
                assert abs(column(j, i)[k] - want) <= 1e-14 * want
    dop = operators.defect_blocks(r)
    for k in range(K + 1):
        assert_norms_match_direct_svd(dop, k, read_off)
    # the quotient's 1x1 level-0 blocks read off and its wider blocks take the
    # SVD; every full polydisk block is a partial permutation
    assert set(read_off) == ({True, False} if case == "hb3-quotient" else {True})


def test_normality_params_record_a_grading_that_is_not_plain():
    # on hardy-ball m=2 the ideal (z1) realized with n = (1, 1) and n = (1, 2)
    # gives different tables, so params name n when it is not all ones; a
    # plain report's params carry no weight key, so it prints as before
    hb = builtin_space("hardy-ball", 2)
    reps = {n: normality_report(quotient_realization(hb, GradedIdeal(2, [z(0)], weight=n), 5), 2)
            for n in [(1, 1), (1, 2)]}
    plain, weighted = reps[(1, 1)].to_json_dict(), reps[(1, 2)].to_json_dict()
    assert plain["tables"] != weighted["tables"]
    assert "weight" not in plain["params"] and weighted["params"].pop("weight") == [1, 2]
    assert weighted["params"] == plain["params"]
    full = normality_report(full_realization(hb, 4), 2)
    assert list(full.params) == ["space", "m", "ideal", "max_level", "schatten"]


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


def test_details_text_is_blind_to_a_one_ulp_move_of_the_last_norm():
    # the slope and the tail estimate print with six significant digits like
    # the norms beside them, so a one-ulp move of a float-tier norm, which
    # moves the fitted slope and the tail in their last bits, prints the same
    norms = [1.0 / (k + 1) ** 2 for k in range(11)]
    moved = norms[:-1] + [float(np.nextafter(norms[-1], 1.0))]
    assert _loglog_slope(norms) != _loglog_slope(moved)
    assert _trend_verdict("t", norms, False).details == _trend_verdict("t", moved, False).details
    series = [1.0 / (k + 1) ** 3 for k in range(33)]
    record = summability_verdict(series, 2.0, 2)
    assert record.status == "convergent-trend"
    moved = record._replace(tail_estimate=float(np.nextafter(record.tail_estimate, 1.0)))
    assert moved.details == record.details
    assert "tail_estimate=None" in summability_verdict(series[:8], 2.0, 2).details


# the magnitudes a per-level norm takes, from near-zero to well above 1
@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=1e-15, max_value=1e3), min_size=2, max_size=60))
def test_loglog_slope_matches_least_squares(norms):
    # LAPACK's least squares (np.polyfit) is the oracle of the closed-form slope
    pts = [(math.log(k + 1.0), math.log(v)) for k, v in enumerate(norms) if k >= len(norms) // 2]
    got = _loglog_slope(norms)
    if len(pts) < 2:
        assert got is None
    else:
        ref = float(np.polyfit(*zip(*pts), 1)[0])
        assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=17, max_size=200))
def test_summability_increments_are_cumsum_differences_bit_for_bit(series):
    rec = summability_verdict(series, 2.0, 2)
    prefix = np.cumsum(series)
    want = [float(prefix[b] - prefix[a]) for a, b in zip(rec.checkpoints, rec.checkpoints[1:])]
    assert [x.hex() for x in rec.increments] == [x.hex() for x in want]


def test_schatten_partial_sums_are_cumsum_bit_for_bit():
    r = quotient_realization(builtin_space("hardy-ball", 2), GradedIdeal(2, [z(0) + z(1)]), 22)
    tables = {t.name: t for t in normality_report(r, 20, [1.5, 2.0]).tables}
    for p in (1.5, 2.0):
        rows = tables[f"schatten_defect_p{p}"].rows
        want = np.cumsum([row[1] for row in rows]).tolist()
        assert all(type(row[2]) is float for row in rows)
        assert [row[2].hex() for row in rows] == [x.hex() for x in want]


def test_reports_leave_no_cyclic_garbage():
    # a report's realization, levels and blocks die by reference counting
    # inside the call; a cycle would wait for the collector instead
    hb2, hb3 = builtin_space("hardy-ball", 2), builtin_space("hardy-ball", 3)
    plane = GradedIdeal(3, [z(0, 3) + z(1, 3) + z(2, 3)])
    reports = {
        "normality hb3 z1+z2+z3 K=2": lambda: normality_report(
            quotient_realization(hb3, plane, 4), 2, [2.0]),
        "normality full hb3 K=3": lambda: normality_report(full_realization(hb3, 5), 3, [2.0]),
        "section5 hb2 z1+z2 K=15": lambda: section5_report(
            hb2, GradedIdeal(2, [z(0) + z(1)]), 15),
        "qweights hb2 z1+2i*z2 K=50": lambda: qweights_report(
            hb2, GradedIdeal(2, [parse_polynomial("z1+2i*z2", 2)]), 50),
        "trace hb3 K=6": lambda: trace_report(hb3, 6),
    }
    gc.collect()
    gc.disable()
    try:
        for name, report in reports.items():
            report()
            assert gc.collect() == 0, name
    finally:
        gc.enable()


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
