from fractions import Fraction

import numpy as np
import pytest

import wshm.exact_linalg as ela
from wshm.algebra import G_I, GradedPolynomial, enumerate_level, level_dimension
from wshm.diagnostics import koszul_report
from wshm.errors import ModeError
from wshm.ideals import (
    GradedIdeal,
    graded_basis,
    hilbert_function,
    hilbert_series,
    ideal_level_dimension,
    residue_decompose,
)
from wshm.parsing import parse_polynomial


def z(i, m=2):
    return GradedPolynomial.variable(m, i)


def span_matrix(ideal, k):
    """Float snapshot of the level-k spanning set (for the rank cross-check)."""
    monomials = enumerate_level(ideal.m, k)
    col = {a: j for j, a in enumerate(monomials)}
    rows = []
    for g in ideal.generators:
        d = g.degree
        if d > k:
            continue
        for beta in enumerate_level(ideal.m, k - d):
            shifted = g.times_monomial(beta)
            row = np.zeros(len(monomials), dtype=complex)
            for a, c in shifted.terms():
                row[col[a]] = complex(c)
            rows.append(row)
    return np.array(rows) if rows else np.zeros((0, len(monomials)))


def test_graded_basis_examples():
    b = graded_basis(GradedIdeal(2, [z(0)]), 2)
    assert {str(p) for p in b} == {"z1^2", "z1*z2"}
    b2 = graded_basis(GradedIdeal(2, [z(0) + z(1)]), 1)
    assert [str(p) for p in b2] == ["z1 + z2"]
    msq = GradedIdeal(2, [z(0) * z(0), z(0) * z(1), z(1) * z(1)])
    assert len(graded_basis(msq, 3)) == 4 == level_dimension(2, 3)


def test_graded_basis_mode_error():
    with pytest.raises(ModeError):
        GradedIdeal(2, [z(0) + z(1) * z(1)])


def test_weighted_graded_basis_mode_error():
    # weighted level 2 of (z1) under n = (1, 2) holds z1^2, not z2 = z1^0 z2
    assert graded_basis(GradedIdeal(2, [z(0)], weight=(1, 2)), 2) == [z(0) * z(0)]
    with pytest.raises(ModeError):
        GradedIdeal(2, [z(0) + z(1)], weight=(1, 2))


def test_graded_basis_deterministic_and_span_closed():
    ideal = GradedIdeal(2, [z(0) * z(0) - z(0) * z(1), z(1) * z(1)])
    for k in range(2, 8):
        b1 = graded_basis(ideal, k)
        assert b1 == graded_basis(ideal, k)
        # z_i p lies in I_{k+1}: it reduces to zero against that level's echelon rows
        pivots, red, monomials = ideal.level_data(k + 1)
        col_of = {a: j for j, a in enumerate(monomials)}
        for p in b1:
            for i in range(2):
                row = {col_of[a]: c for a, c in (z(i) * p).terms()}
                assert ela.reduce_against(row, pivots, red)[1] == {}


def test_exact_rank_agrees_with_float_rank_oracle():
    ideals = [
        GradedIdeal(2, [z(0) + z(1)]),
        GradedIdeal(2, [z(0) * z(0), z(0) * z(1), z(1) * z(1)]),
        GradedIdeal(2, [z(0) * z(0) - z(1) * z(1), z(0) * z(1)]),
    ]
    for ideal in ideals:
        for k in range(7):
            m = span_matrix(ideal, k)
            oracle = np.linalg.matrix_rank(m) if m.size else 0
            assert ideal_level_dimension(ideal, k) == oracle


def test_hilbert_function_examples():
    for alpha in (1, G_I * 2, GradedPolynomial.constant(2, Fraction(-3, 7)).coefficient((0, 0))):
        ideal = GradedIdeal(2, [z(0) + z(1).scale(alpha)])
        for k in range(30):
            assert hilbert_function(ideal, k) == 1
    zero = GradedIdeal(2, [])
    for k in range(8):
        assert hilbert_function(zero, k) == k + 1
    msq = GradedIdeal(2, [z(0) * z(0), z(0) * z(1), z(1) * z(1)])
    assert [hilbert_function(msq, k) for k in range(5)] == [1, 2, 0, 0, 0]


def test_hilbert_dimension_identity():
    ideal = GradedIdeal(2, [z(0) * z(0) - z(1) * z(1)])
    for k in range(10):
        assert ideal_level_dimension(ideal, k) + hilbert_function(ideal, k) == level_dimension(2, k)


def test_hilbert_samuel_constant_one():
    for alpha in (1, G_I * 2, Fraction(-3, 7)):
        series = hilbert_series(GradedIdeal(2, [z(0) + z(1).scale(alpha)]))
        assert series.coefficients == (Fraction(1),)
        assert series.stabilization_degree <= 1
        assert series.bounded_dimension == 1


def test_hilbert_samuel_zero_ideal_linear():
    series = hilbert_series(GradedIdeal(2, []))
    assert series.coefficients == (Fraction(1), Fraction(1))
    assert series.dimension == 2 and series.bounded_dimension is None


def test_hilbert_samuel_z1_squared():
    ideal = GradedIdeal(2, [z(0) * z(0)])
    series = hilbert_series(ideal)
    assert series.coefficients == (Fraction(2),)
    assert series.stabilization_degree == 1
    # dim I_k = k-1 for k >= 2 (frozen from direct monomial count)
    assert [ideal_level_dimension(ideal, k) for k in range(6)] == [0, 0, 1, 2, 3, 4]


def test_hilbert_series_needs_no_window():
    # the series reads levels up to the certified degree k0 = 2 only, so it
    # is the same whether levels 0..k_max were read before it or not
    for k_max in range(-1, 9):
        ideal = GradedIdeal(2, [z(0) * z(0)])
        for k in range(k_max + 1):
            ideal.level_data(k)
        assert hilbert_series(ideal).coefficients == (Fraction(2),)
        assert len(ideal._level_cache) == max(k_max + 1, 3)


def test_hilbert_series_of_an_artinian_quotient():
    # <z1^6, z2^6>: dim S_k^perp is 11-k on 6 <= k <= 10, then 0, so
    # d = 0, e = 36 and HF = HP = 0 from k = 11 on
    ideal = GradedIdeal(2, [parse_polynomial("z1^6", 2), parse_polynomial("z2^6", 2)])
    for k in range(17):
        ideal.level_data(k)
    series = hilbert_series(ideal)
    assert (series.dimension, series.multiplicity) == (0, 36)
    assert series.coefficients == (Fraction(0),) and series.stabilization_degree == 11
    assert series.bounded_dimension == 0


@pytest.mark.parametrize("m, gens, d, e", [
    (2, "z1+z2", 1, 1),
    (3, "z1^2+z2*z3", 2, 2),
    (3, "z1*z2-z3^2,z1*z3-z2^2", 1, 4),  # the twisted cubic
    (3, "z1^2+(1+i)*z2*z3,z2^2-z1*z3,z3^3", 0, 12),
    # a Groebner basis element of degree 22, twice the top generator degree
    (3, "z1^2,z1*z2^10-z3^11", 1, 22),
])
def test_hilbert_series_dimension_and_multiplicity(m, gens, d, e):
    series = hilbert_series(GradedIdeal(m, [parse_polynomial(g, m) for g in gens.split(",")]))
    assert (series.dimension, series.multiplicity) == (d, e)


def test_residue_decompose_single_variable():
    g = parse_polynomial("z1^2", 1)
    ideal = GradedIdeal(1, [g], weight=(2,))
    dec = residue_decompose(ideal, 12)
    assert all(lv.defect == 0 for lv in dec.levels)
    # weighted level 2t holds z^t; in the ideal iff t >= 2
    for lv in dec.levels:
        if lv.ell % 2 == 0 and lv.ell >= 4:
            assert lv.dim_total == 1
        else:
            assert lv.dim_total == 0


def test_residue_decompose_zero_ideal():
    ideal = GradedIdeal(2, [], weight=(1, 2))
    dec = residue_decompose(ideal, 6)
    assert all(lv.dim_total == 0 and lv.defect == 0 for lv in dec.levels)


def test_residue_decompose_straddling_generator():
    g = parse_polynomial("z2 - z1^2", 2)
    ideal = GradedIdeal(2, [g], weight=(1, 2))
    dec = residue_decompose(ideal, 8)
    lv2 = dec.levels[2]
    assert lv2.dim_total == 1
    assert all(d == 0 for d in lv2.class_dims.values())
    assert lv2.defect == 1
    assert all(lv.defect >= 0 for lv in dec.levels)


def test_residue_decompose_mode_error():
    # a plain ideal has the one residue class 0 and so defect 0
    dec = residue_decompose(GradedIdeal(2, [z(0) + z(1)]), 3)
    assert dec.weight == (1, 1) and dec.max_defect == 0
    assert [lv.class_dims for lv in dec.levels] == [{(0, 0): k} for k in range(4)]
    with pytest.raises(ModeError):
        GradedIdeal(2, [parse_polynomial("z2 - z1^2", 2)], weight=(1, 3))


def test_unit_degree_formulas_require_a_plain_ideal():
    # the series' numerator is over (1 - t)^m, and the Koszul chain spaces are
    # graded by total degree
    quasi = GradedIdeal(2, [parse_polynomial("z2 - z1^2", 2)], weight=(1, 2))
    with pytest.raises(ModeError, match=r"n=\(1, 2\)"):
        hilbert_series(quasi)
    with pytest.raises(ModeError, match="plain-homogeneous"):
        koszul_report(2, quasi, "quotient", 4)


def test_weighted_graded_basis_examples():
    g = parse_polynomial("z2 - z1^2", 2)
    ideal = GradedIdeal(2, [g], weight=(1, 2))
    b3 = graded_basis(ideal, 3)
    assert len(b3) == 1
    expected = parse_polynomial("z1*z2 - z1^3", 2)
    # same one-dimensional span
    assert b3[0].scale(-1) == expected or b3[0] == expected

    assert graded_basis(ideal, 1) == []
    assert [hilbert_function(ideal, k) for k in range(8)] == [1] * 8  # R/I = C[z1]

    lin = GradedIdeal(2, [z(0) + z(1)], weight=(1, 1))
    plain = GradedIdeal(2, [z(0) + z(1)])
    assert repr(lin) == repr(plain) == "GradedIdeal<z1 + z2>"
    for k in range(6):
        assert graded_basis(lin, k) == graded_basis(plain, k)
        assert hilbert_function(lin, k) == hilbert_function(plain, k) == 1
