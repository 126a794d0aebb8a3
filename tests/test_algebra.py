import itertools
from fractions import Fraction

import pytest

from wshm import algebra
from wshm.algebra import (
    G_I,
    G_ONE,
    GaussianRational,
    GradedPolynomial,
    enumerate_level,
    enumerate_weighted_level,
    grlex_key,
    level_dimension,
    residue_of,
    weighted_degree,
)
from wshm.errors import ArityError, DimensionError, ParseError
from wshm.parsing import parse_polynomial, parse_polynomial_list


def brute_force_level(m, k):
    """Independent oracle: enumerate exponent tuples by nested ranges."""
    if m == 1:
        return [(k,)]
    out = []
    for e in range(k, -1, -1):
        out.extend((e,) + rest for rest in brute_force_level(m - 1, k - e))
    return out


def test_level_dimension_examples():
    assert level_dimension(2, 3) == 4
    for k in range(10):
        assert level_dimension(1, k) == 1
    assert level_dimension(3, 2) == len(brute_force_level(3, 2)) == 6


def test_level_dimension_invalid_arity():
    with pytest.raises(ArityError):
        level_dimension(0, 2)


def test_level_dimension_pascal_recurrence():
    for m in range(2, 6):
        for k in range(1, 12):
            assert level_dimension(m, k) == level_dimension(m - 1, k) + level_dimension(m, k - 1)


def test_enumerate_level_examples_and_order():
    assert enumerate_level(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert enumerate_level(1, 3) == [(3,)]
    assert enumerate_level(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_enumerate_level_no_duplicates_correct_sums():
    for m in (1, 2, 3, 4):
        for k in range(7):
            level = enumerate_level(m, k)
            assert len(set(level)) == len(level) == level_dimension(m, k)
            assert all(sum(a) == k for a in level)
            assert level == enumerate_level(m, k)  # identical across calls
            assert level == sorted(level, key=grlex_key)


def test_enumerate_weighted_level():
    assert enumerate_weighted_level(2, (1, 2), 2) == [(2, 0), (0, 1)]
    assert enumerate_weighted_level(2, (1, 1), 3) == enumerate_level(2, 3)
    assert enumerate_weighted_level(1, (2,), 3) == []
    for bad in (lambda: enumerate_level(0, 2), lambda: enumerate_weighted_level(0, (), 2)):
        with pytest.raises(ArityError):
            bad()
    for a in enumerate_weighted_level(3, (1, 2, 3), 9):
        assert weighted_degree(a, (1, 2, 3)) == 9


def brute_force_weighted_level(n, ell):
    """Oracle: every tuple of the box 0 <= a_i <= ell // n_i whose weighted
    degree is ell, sorted with earlier variables' exponents highest first."""
    box = itertools.product(*[range(ell // w + 1) for w in n]) if ell >= 0 else ()
    return sorted((a for a in box if weighted_degree(a, n) == ell), reverse=True)


def test_enumerate_weighted_level_order_matches_brute_force():
    for m in range(1, 5):
        for n in itertools.product(range(1, 4), repeat=m):
            for ell in range(-1, 11):
                assert enumerate_weighted_level(m, n, ell) == brute_force_weighted_level(n, ell)
        for k in range(-1, 11):
            assert enumerate_level(m, k) == enumerate_weighted_level(m, (1,) * m, k)


def test_weighted_degree():
    assert weighted_degree((2, 1), (1, 2)) == 4
    assert weighted_degree((0, 0, 0), (3, 1, 2)) == 0
    assert weighted_degree((0, 1, 0), (1, 1, 2)) == 1
    with pytest.raises(DimensionError):
        weighted_degree((1, 2), (1, 2, 3))


def test_residue_of():
    assert residue_of((3, 5), (1, 2)) == (0, 1)
    assert residue_of((7, 9, 4), (1, 1, 1)) == (0, 0, 0)
    assert residue_of((4, 2), (2, 2)) == (0, 0)
    with pytest.raises(DimensionError):
        residue_of((1,), (1, 2))


def test_residue_translation_invariance():
    n = (2, 3)
    for alpha in enumerate_level(2, 4):
        for beta in enumerate_level(2, 3):
            shifted = tuple(a + nn * b for a, nn, b in zip(alpha, n, beta))
            assert residue_of(shifted, n) == residue_of(alpha, n)


def test_gaussian_rational_field_ops():
    a = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    b = GaussianRational(Fraction(2, 3), Fraction(5))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * a.conjugate() == GaussianRational(a.abs2())
    assert (1 / b) * b == G_ONE
    assert G_I * G_I == GaussianRational(Fraction(-1))
    with pytest.raises(ZeroDivisionError):
        a / GaussianRational()


def test_gaussian_rational_str():
    assert str(GaussianRational(Fraction(1, 2))) == "1/2"
    assert str(GaussianRational(Fraction(0), Fraction(2))) == "2i"
    assert str(GaussianRational(Fraction(1), Fraction(-1))) == "1-i"
    assert str(GaussianRational()) == "0"


def sample_polys():
    p = GradedPolynomial(2, {(2, 0): Fraction(1, 3), (1, 1): G_I, (0, 0): -2})
    q = GradedPolynomial(2, {(1, 1): GaussianRational(Fraction(2), Fraction(-1)), (0, 2): 7})
    return p, q


def test_polynomial_exact_roundtrip():
    p, q = sample_polys()
    assert (p + q) - q == p  # bit-for-bit
    assert (p * q) * GradedPolynomial.constant(2, 1) == p * q
    assert p - p == GradedPolynomial.zero(2)


def test_polynomial_no_zero_terms_stored():
    p, q = sample_polys()
    z = p - p
    assert z.is_zero and list(z.terms()) == []
    r = p + (-p) + q
    assert set(r.support()) == set(q.support())


def test_polynomial_degrees_and_homogeneity():
    z1 = GradedPolynomial.variable(2, 0)
    z2 = GradedPolynomial.variable(2, 1)
    assert (z1 + z2).is_homogeneous and (z1 + z2).degree == 1
    mixed = z1 + z2 * z2
    assert not mixed.is_homogeneous
    # z2 - z1^2 is quasi-homogeneous for n=(1,2) but not plain homogeneous
    g = z2 - z1 * z1
    assert not g.is_homogeneous
    assert g.is_quasi_homogeneous((1, 2))
    assert g.weighted_degree((1, 2)) == 2
    assert GradedPolynomial.zero(2).degree is None


def test_polynomial_hash_is_kept_and_matches_the_term_formula(monkeypatch):
    # equal polynomials built apart hash equal, to the value of the term-set
    # formula; the hash is taken once per object, so a second lookup hashes
    # no coefficient again
    p, q = sample_polys()
    built = [(p + q, q + p), (p * q, q * p), ((p + q) - q, p)]
    for a, b in built:
        assert a == b and a is not b and hash(a) == hash(b)
        assert hash(a) == hash((a.m, frozenset(a._terms.items())))
    calls = []
    coeff_hash = GaussianRational.__hash__
    monkeypatch.setattr(GaussianRational, "__hash__", lambda g: calls.append(1) or coeff_hash(g))
    r = p * q + p
    h = hash(r)
    assert calls and hash(r) == h and {r: 1}[r * GradedPolynomial.constant(2, 1)] == 1
    first = len(calls)
    assert hash(r) == h and len(calls) == first


def test_polynomial_times_monomial():
    p, _ = sample_polys()
    shifted = p.times_monomial((0, 3))
    assert shifted.coefficient((2, 3)) == Fraction(1, 3)
    assert shifted.coefficient((1, 4)) == G_I


def test_polynomial_constructor_checks_every_term():
    with pytest.raises(ArityError, match="variable count must be >= 1, got 0"):
        GradedPolynomial(0, {})
    with pytest.raises(DimensionError, match="multi-index length 1 != variable count 2"):
        GradedPolynomial(2, {(1, 0): 1, (1,): 1})
    with pytest.raises(DimensionError, match="entries must be >= 0"):
        GradedPolynomial(2, {(1, -1): 1})
    with pytest.raises(ValueError):
        GradedPolynomial(2, {(1, 0): "abc"})
    with pytest.raises(TypeError):
        GradedPolynomial(2, {(1, 0): None})
    # two keys that check to one exponent are summed, and a zero sum is dropped
    assert GradedPolynomial(2, {"10": 1, (1, 0): -1}).is_zero
    assert GradedPolynomial(2, {"10": 1, (1, 0): 2}) == GradedPolynomial(2, {(1, 0): 3})


def test_polynomial_arithmetic_does_not_check_its_results_again(monkeypatch):
    # sums, differences, products and negatives are built from terms already
    # checked, so neither the exponent check nor the coefficient check runs
    p, q = sample_polys()
    want = [p + q, p - q, p * q, -p, p.scale(2)]

    def refuse(*args):
        raise AssertionError("an arithmetic result was checked again")

    monkeypatch.setattr(algebra, "check_multiindex", refuse)
    assert p.scale(2) == want[4]
    monkeypatch.setattr(GaussianRational, "of", staticmethod(refuse))
    assert [p + q, p - q, p * q, -p] == want[:4]


# -- parser --------------------------------------------------------------


def test_parse_exact_coefficients():
    p = parse_polynomial("1/2*z1 + 1/2*z2 + 1/4*z1*z2", 2)
    assert p.coefficient((1, 0)) == Fraction(1, 2)
    assert p.coefficient((1, 1)) == Fraction(1, 4)
    q = parse_polynomial("z1 + 2i*z2", 2)
    assert q.coefficient((0, 1)) == GaussianRational(Fraction(0), Fraction(2))
    r = parse_polynomial("(1/2)i*z2 - z1^2", 2)
    assert r.coefficient((0, 1)) == GaussianRational(Fraction(0), Fraction(1, 2))
    assert r.coefficient((2, 0)) == GaussianRational(Fraction(-1))
    s = parse_polynomial("(3+2i)*z1", 2)
    assert s.coefficient((1, 0)) == GaussianRational(Fraction(3), Fraction(2))


def test_parse_case_insensitive_and_powers():
    assert parse_polynomial("Z2 - Z1^2", 2) == parse_polynomial("z2 - z1^2", 2)
    p = parse_polynomial("(z1+z2)^2", 2)
    assert p.coefficient((1, 1)) == GaussianRational(Fraction(2))


def test_parse_whitespace_ignored():
    assert parse_polynomial(" z1 + z2 ", 2) == parse_polynomial("z1+z2", 2)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_polynomial("z1 + $", 2)
    assert e.value.line == 1 and e.value.column == 6
    with pytest.raises(ParseError):
        parse_polynomial("z3", 2)  # out of range
    with pytest.raises(ParseError):
        parse_polynomial("z1/z2", 2)  # non-constant divisor
    with pytest.raises(ParseError):
        parse_polynomial("1.5*z1", 2)  # floats rejected
    with pytest.raises(ParseError):
        parse_polynomial("z1 +", 2)


def test_parse_polynomial_list():
    gens = parse_polynomial_list("z1^2, z1*z2, z2^2", 2)
    assert len(gens) == 3 and all(g.is_homogeneous for g in gens)
    assert parse_polynomial_list(" z1,, z2 ,", 2) == [parse_polynomial(t, 2) for t in ("z1", "z2")]
    assert parse_polynomial_list(" ", 2) == []


@pytest.mark.parametrize("text, line, column", [
    ("z1+z2, z1+q", 1, 11),  # in the whole text, not in the second polynomial
    ("z1, z2, (z1, z2)", 1, 12),  # a comma inside parentheses separates nothing
    ("z1,\nz2 z3", 2, 4),
])
def test_parse_polynomial_list_errors_carry_whole_text_positions(text, line, column):
    with pytest.raises(ParseError) as e:
        parse_polynomial_list(text, 2)
    assert (e.value.line, e.value.column) == (line, column)
