"""Acceptance suite: one test per criterion, each printing a PASS line with
its stated tolerance on success (pytest reports FAIL otherwise).

Run with: pytest tests/test_acceptance.py -v -s
"""

from fractions import Fraction

from wshm.algebra import G_ZERO, GradedPolynomial, enumerate_level, level_dimension
from wshm.diagnostics import (
    koszul_euler,
    quotient_shift_weights,
    section5_report,
    summability_verdict,
    trace_identity,
)
from wshm.ideals import GradedIdeal, hilbert_function, residue_decompose
from wshm.operators import commutator_blocks, full_realization
from wshm.parsing import parse_polynomial
from wshm.posreg import (
    PositiveRegularPoly,
    defect_projection_check,
    jp_data,
    kernel_vs_ideal,
    xp_blocks,
)
from wshm.spaces import builtin_space


def ok(n, message):
    print(f"\nACCEPTANCE {n}: PASS - {message}")


def test_criterion_01_exact_spherical_isometry():
    for m in (2, 3):
        hb = builtin_space("hardy-ball", m)
        for k in range(31):
            for alpha in enumerate_level(m, k):
                assert hb.spherical_defect(alpha) == 0
    ok(1, "hardy-ball m in {2,3}: defect diagonal == 0 exactly for all k <= 30")


def test_criterion_02_drury_arveson_defect_law():
    for m in (2, 3):
        da = builtin_space("drury-arveson", m)
        for k in range(31):
            level = enumerate_level(m, k)
            assert len(level) == level_dimension(m, k)
            for alpha in level:
                assert da.spherical_defect(alpha) == Fraction(1 - m, k + 1)
    ok(2, "drury-arveson m in {2,3}: defect == (1-m)/(k+1) exactly, full multiplicity, k <= 30")


def test_criterion_03_telescoping_trace():
    for m in (2, 3):
        hb = full_realization(builtin_space("hardy-ball", m), 21)
        for k in range(21):
            rec = trace_identity(hb, k)
            assert rec.defect_is_zero
            assert rec.computed == rec.telescoping  # exact equality
    hb2 = full_realization(builtin_space("hardy-ball", 2), 11)
    rec = trace_identity(hb2, 1)
    assert rec.computed == 1 and rec.binomial_formula == 1
    # k <= 10: the binomial column is emitted without assertion
    reported = [trace_identity(hb2, k).binomial_formula for k in range(11)]
    assert len(reported) == 11
    ok(3, "hardy-ball m in {2,3}, k <= 20: trace == dim H_k - dim H_{k-1} exactly; m=2,k=1 equals binomial value 1")


def test_criterion_04_polydisk_counterexample_signature():
    pd = builtin_space("polydisk-hardy", 2, {"scale2": Fraction(1, 2)})
    r = full_realization(pd, 32)
    z1 = GradedPolynomial.variable(2, 0)
    comm = commutator_blocks(r, z1, z1)
    for k in range(31):
        t = sum((row.get(i, G_ZERO) for i, row in enumerate(comm.block(k))), G_ZERO)
        assert t.re == Fraction(1, 2) and not t.im  # exact trace
        assert abs(comm.norm(k) - 0.5) < 1e-12  # constant norm, no decay
    ok(4, "scaled polydisk m=2: commutator trace and norm constant 1/2 for k <= 30 (exact trace)")


def test_criterion_05_linear_ideal_suite():
    hb = builtin_space("hardy-ball", 2)
    for text in ("z1+z2", "z1+2i*z2"):
        ideal = GradedIdeal(2, [parse_polynomial(text, 2)])
        for k in range(101):
            assert hilbert_function(ideal, k) == 1  # exact
        rec = quotient_shift_weights(hb, ideal, 200, var=0)
        assert rec.deviations is not None
        assert abs(rec.deviations[200]) < abs(rec.deviations[20])
        assert rec.deviations[200] < 0.05
    ok(5, "<z1 + alpha z2>, alpha in {1, 2i}: Hilbert function == 1 (k <= 100); "
          "weight deviation at k=200 < deviation at k=20 and < 0.05")


def test_criterion_06_koszul_index():
    scenarios = [
        (None, "full", "C[z]"),
        ([["z1"]], "ideal", "<z1>"),
        ([["z1+z2"]], "ideal", "<z1+z2>"),
        ([["z1"], ["z2"]], "ideal", "<z1,z2>"),
        ([["z1^2"], ["z1*z2"], ["z2^2"]], "ideal", "<z1^2,z1*z2,z2^2>"),
    ]
    for gens, kind, _name in scenarios:
        ideal = (
            GradedIdeal(2, [parse_polynomial(g[0], 2) for g in gens])
            if gens is not None
            else None
        )
        rep = koszul_euler(2, ideal, kind, 10)
        assert rep.dd_zero  # d o d = 0 exactly
        assert rep.chi == 1 and rep.index == -1
    ok(6, "Koszul: chi = 1 (index -1) for all five modules, degrees <= 10, d.d = 0 exact")


PREGS = [
    ("z1+z2", 2),
    ("1/2*z1+1/2*z2+1/4*z1*z2", 2),
    ("1/2*z1+1/2*z1^2", 1),
]


def test_criterion_07_projection_identity():
    for text, m in PREGS:
        poly = PositiveRegularPoly.from_polynomial(parse_polynomial(text, m))
        chk = defect_projection_check(poly, 12)
        assert chk.passed, (text, chk.failures[:3])
    ok(7, "rank-one defect projection identity exact to degree 12 for all three polynomials")


def test_criterion_08_kernel_equals_ideal():
    for text, m in PREGS[1:]:  # the two with a higher-order term
        poly = PositiveRegularPoly.from_polynomial(parse_polynomial(text, m))
        data = jp_data(poly)
        for lv in kernel_vs_ideal(data, xp_blocks(data, 8)):
            assert lv.containment_ok  # J_P inside the kernel, exactly
            assert lv.equal, (text, lv.ell)
    ok(8, "kernel == ideal level dimensions for all weighted levels <= 8 (exact tier), containment exact")


def test_criterion_09_contractivity():
    for text, m in PREGS:
        poly = PositiveRegularPoly.from_polynomial(parse_polynomial(text, m))
        for lvl in xp_blocks(jp_data(poly), 8):
            if lvl.singular_values:
                assert lvl.singular_values[0] <= 1.0 + 1e-10
    ok(9, "max singular value of every comparison-map truncation <= 1 + 1e-10")


def test_criterion_10_summability_threshold(da_defect_terms):
    series_p2 = da_defect_terms[2.0]
    rec2 = summability_verdict(series_p2, 2.0, 2)
    assert rec2.status == "divergent-trend"
    assert rec2.increments[-1] > 0.05  # increment over the doubling 64 -> 128

    # p = 2.5: production terms match the exact diagonal series to K=128;
    # the verdict runs on that series extended by the same law to 4096 levels
    series_p25 = da_defect_terms[2.5]
    oracle = [(k + 1) ** (-1.5) for k in range(4097)]
    assert all(abs(a - b) < 1e-12 for a, b in zip(series_p25, oracle))
    rec25 = summability_verdict(oracle, 2.5, 2)
    assert rec25.status == "convergent-trend"
    assert rec25.tail_estimate < 0.05
    ok(10, "DA m=2 defect: p=2 divergent-trend (increment 64->128 above 0.05), "
           "p=2.5 convergent-trend (tail estimate < 0.05)")


def test_criterion_11_trace_inequality():
    hb = builtin_space("hardy-ball", 2)
    for text in ("z1+z2", "z1"):
        ideal = GradedIdeal(2, [parse_polynomial(text, 2)])
        rep = section5_report(hb, ideal, 40)
        assert rep.params["M0"] == 1  # the multiplicity of a d = 1 zero variety
        assert all(row[-1] for row in rep.tables[0].rows), text
    ok(11, "trace inequality holds at every level k <= 40 for <z1+z2> and <z1> (slack 1e-8, exact M0=1)")


def test_criterion_12_decomposition_defect():
    ideal1 = GradedIdeal(1, [parse_polynomial("z1^2", 1)], weight=(2,))
    dec1 = residue_decompose(ideal1, 12)
    assert all(lv.defect == 0 for lv in dec1.levels)

    ideal2 = GradedIdeal(2, [parse_polynomial("z2-z1^2", 2)], weight=(1, 2))
    dec2 = residue_decompose(ideal2, 4)
    # logged under the open question about the splitting; reported, not
    # asserted against any direct-sum identity
    assert dec2.levels[2].defect == 1
    assert all(lv.defect >= 0 for lv in dec2.levels)
    ok(12, "residue decomposition: defect 0 for <z^2> (m=1, n=(2), l <= 12); defect 1 at l=2 for <Z2-Z1^2> (exact)")
