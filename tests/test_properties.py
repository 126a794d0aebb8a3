"""Hypothesis properties of the exact core: Gaussian-rational arithmetic, the
weighted adjoint pairing of compressed multipliers, closed-form complement
bases, kernel bases, elimination against a sympy oracle, Gaussian-integer
content of reduced rows, sparse rows that never store a zero, ideal levels
past a certified Groebner degree against from-scratch elimination and sympy's
Groebner bases, the exact Hilbert series against from-scratch level
dimensions, the block kernels against entry-by-entry references, the
full-space and monomial-quotient commutators, defects and multipliers read
off the weights against the product path, the exact transfer of levels,
commutators and defects from Drury-Arveson to the Hardy and Bergman balls,
the Koszul homology of a principal
ideal, the polynomial text round trip, and the positive regular pipeline
(delta table, P-defect, kernel of the comparison map, co-isometry, module
map)."""

import itertools
import math
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ, QQ_I, ZZ_I
from sympy.polys.matrices import DomainMatrix

import wshm.exact_linalg as ela
from wshm.algebra import (
    G_ONE,
    G_ZERO,
    GaussianRational,
    GradedPolynomial,
    add_index,
    enumerate_level,
    enumerate_weighted_level,
    sub_index,
)
from wshm.diagnostics import koszul_euler
from wshm.errors import WindowError
from wshm.ideals import GradedIdeal, hilbert_series
from wshm.operators import (
    _sum_of_squares_defect,
    adjoint_blocks,
    codefect_blocks,
    commutator_blocks,
    defect_blocks,
    full_realization,
    identity_blocks,
    mult_blocks,
    op_sub,
    product_blocks,
    quotient_realization,
)
from wshm.parsing import parse_polynomial
from wshm.posreg import (
    PositiveRegularPoly,
    defect_projection_check,
    delta_coefficients,
    hp_space,
    jp_data,
    kernel_vs_ideal,
    xp_blocks,
    xp_module_map_check,
)
from wshm.spaces import builtin_space

from test_operators import monomial_rows

small_ints = st.integers(-3, 3)
gaussian_ints = st.tuples(small_ints, small_ints).map(
    lambda c: GaussianRational(Fraction(c[0]), Fraction(c[1]))
)
gaussian_rationals = st.builds(
    GaussianRational,
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
# Gaussian, real and purely imaginary Gaussian rationals, then every plain
# operand kind the arithmetic accepts: int, Fraction and float
gaussian_kinds = st.one_of(
    gaussian_rationals,
    small_fractions.map(GaussianRational),
    small_fractions.map(lambda y: GaussianRational(Fraction(0), y)),
)
operands = gaussian_kinds | st.integers(-7, 7) | small_fractions | st.floats(-8, 8, allow_nan=False)


def parts(x):
    """(re, im) as Fractions, the textbook operands."""
    if isinstance(x, GaussianRational):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def textbook(op, x, y):
    (a, b), (c, d) = parts(x), parts(y)
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "*":
        return a * c - b * d, a * d + b * c
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


@settings(max_examples=400, deadline=None)
@given(
    g=gaussian_kinds,
    other=operands,
    op=st.sampled_from("+-*/"),
    gaussian_first=st.booleans(),
)
def test_gaussian_arithmetic_matches_textbook(g, other, op, gaussian_first):
    x, y = (g, other) if gaussian_first else (other, g)
    if op == "/" and not any(parts(y)):
        with pytest.raises(ZeroDivisionError):
            x / y
        return
    got = {"+": lambda: x + y, "-": lambda: x - y, "*": lambda: x * y, "/": lambda: x / y}[op]()
    assert isinstance(got, GaussianRational)
    assert type(got.re) is Fraction and type(got.im) is Fraction
    assert (got.re, got.im) == textbook(op, x, y)


@pytest.mark.parametrize("zero", [G_ZERO, GaussianRational(Fraction(0)), Fraction(0), 0, 0.0])
@pytest.mark.parametrize(
    "x", [GaussianRational(Fraction(1, 2), Fraction(-3)), GaussianRational(Fraction(2)), G_ZERO]
)
def test_gaussian_division_by_zero_raises(x, zero):
    with pytest.raises(ZeroDivisionError):
        x / zero
    if isinstance(zero, GaussianRational):
        with pytest.raises(ZeroDivisionError):
            Fraction(3) / zero
        with pytest.raises(ZeroDivisionError):
            3 / zero


def canonical(x):
    return x._d > 0 and math.gcd(x._a, x._b, x._d) == 1


operations = {
    "neg": lambda x, y: -x,
    "conjugate": lambda x, y: x.conjugate(),
    "+": lambda x, y: x + y,
    "-": lambda x, y: x - y,
    "*": lambda x, y: x * y,
    "/": lambda x, y: x / y,
    "r+": lambda x, y: y + x,
    "r-": lambda x, y: y - x,
    "r*": lambda x, y: y * x,
    "r/": lambda x, y: y / x,
}


@settings(max_examples=400, deadline=None)
@given(g=gaussian_kinds, other=operands, op=st.sampled_from(sorted(operations)))
def test_gaussian_results_are_in_lowest_terms(g, other, op):
    # (a + b i) / d with d > 0 and gcd(a, b, d) = 1 after every operation,
    # and a real result equals the Fraction it stands for
    try:
        got = operations[op](g, other)
    except ZeroDivisionError:
        return
    assert canonical(got) and got == GaussianRational(got.re, got.im)
    if not got.im:
        assert got == got.re and got.re == got and hash(got) == hash(got.re)


reals = st.integers(-(2**70), 2**70) | st.fractions(max_denominator=2**70)


@settings(max_examples=300, deadline=None)
@given(q=reals, im=small_fractions)
def test_gaussian_equality_and_hash_agree_with_int_and_fraction(q, im):
    g = GaussianRational(q)
    assert canonical(g)
    assert g == q and q == g and hash(g) == hash(q) and hash(g) == hash(Fraction(q))
    assert g == GaussianRational(Fraction(q), Fraction(0))
    assert g + 1 != q and q + 1 != g
    if im:
        h = GaussianRational(q, im)
        assert h != q and q != h and h != GaussianRational(q)


huge = st.integers(-(2**1100), 2**1100)
huge_denominators = st.integers(1, 2**1100)


@settings(max_examples=300, deadline=None)
@given(a=huge, b=huge, d=huge_denominators, e=huge_denominators)
def test_gaussian_complex_is_the_correctly_rounded_pair(a, b, d, e):
    # complex(x) rounds each part once, exactly as float(Fraction) does, also
    # for numerators and denominators far beyond the range of a double
    x = GaussianRational(Fraction(a, d), Fraction(b, e))
    assert canonical(x)
    try:
        expected = complex(float(x.re), float(x.im))
    except OverflowError:
        with pytest.raises(OverflowError):
            complex(x)
        return
    got = complex(x)
    assert (got.real.hex(), got.imag.hex()) == (expected.real.hex(), expected.imag.hex())


def homogeneous(data, m, d, lead=GaussianRational(Fraction(1)), n=None):
    """A nonzero polynomial of degree d with Gaussian integer coefficients, one
    of them ``lead``, homogeneous for the weight vector n (plain by default)."""
    monos = enumerate_weighted_level(m, n or (1,) * m, d)
    coeffs = data.draw(st.lists(gaussian_ints, min_size=len(monos), max_size=len(monos)))
    coeffs[data.draw(st.integers(0, len(monos) - 1))] = lead
    return GradedPolynomial(m, dict(zip(monos, coeffs)))


nonzero_gaussian_rationals = gaussian_rationals.filter(bool)


def gradings(m):
    """Weight vectors n in {1, 2}^m, the plain n = (1, ..., 1) drawn often."""
    return st.one_of(st.just((1,) * m), st.tuples(*[st.sampled_from([1, 2])] * m))


def nonempty_degrees(m, n):
    """The weighted degrees 1 and 2 that have a monomial under n (2 always does)."""
    return [d for d in (1, 2) if enumerate_weighted_level(m, n, d)]


def random_space(data, kind, m, top):
    """A built-in space; ``custom`` draws a positive rational weight for every
    monomial up to degree ``top``, so its reciprocal weights have no closed form."""
    if kind == "polydisk-hardy":
        return builtin_space(kind, m, {"scale2": data.draw(st.sampled_from(["1", "1/2", "5/3"]))})
    if kind == "custom":
        weight = st.fractions(min_value=Fraction(1, 4), max_value=9, max_denominator=4)
        monos = [a for k in range(top + 1) for a in enumerate_level(m, k)]
        return builtin_space(kind, m, {"table": {a: data.draw(weight) for a in monos}})
    return builtin_space(kind, m)


def apply(block, x):
    return [sum((v * x[c] for c, v in row.items()), G_ZERO) for row in block]


def pairing(x, y, gram):
    """<x, y> in complement coordinates with a diagonal Gram."""
    return sum((a * b.conjugate() * g for a, b, g in zip(x, y, gram)), G_ZERO)


def assert_adjoint_pairing(r, p, d, k, u, v):
    """<M_p u, v>_{k+d} = <u, M_p^* v>_k exactly for complement coordinates u
    and v, p of weighted degree d, and each block entry, read off by
    co-invariance, is the projection coefficient <p w_c, w_r> / <w_r, w_r>
    computed densely and by project_to_complement."""
    op = mult_blocks(r, p, r.max_level - d)
    adj = adjoint_blocks(op)
    src, tgt = r.level(k), r.level(k + d)
    gram_src, gram_tgt = ([Fraction(n, lv.den) for n in lv.norms] for lv in (src, tgt))
    lhs = pairing(apply(op.block(k), u), v, gram_tgt)
    rhs = pairing(u, apply(adj.block(k + d), v), gram_src)
    assert lhs == rhs

    block = op.block(k)
    num, den = ela.over_common_denominator(dict(p.terms()))
    omega_tgt = [r.space.weight(a) for a in tgt.monomials]
    for c, wc in enumerate(monomial_rows(r, k)):
        image = [G_ZERO] * len(tgt.monomials)
        for g, x in wc.items():
            for beta, coeff in num.items():
                j = tgt.col_of[tuple(a + b for a, b in zip(src.monomials[g], beta))]
                image[j] = image[j] + x * coeff
        column = {row: y for row, y in enumerate(block) if c in y}
        coords, scale = ela.over_common_denominator({j: y for j, y in enumerate(image) if y})
        projected = r.project_to_complement(k + d, coords, den * scale)
        assert {row: y[c] for row, y in column.items()} == projected
        for row, (wr, gr) in enumerate(zip(monomial_rows(r, k + d), gram_tgt)):
            inner = sum(
                (image[j] * y.conjugate() * omega_tgt[j] for j, y in wr.items()),
                G_ZERO,
            )
            assert block[row].get(c, G_ZERO) == inner / (gr * den)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(["hardy-ball", "da", "polydisk-hardy", "custom"]),
    m=st.sampled_from([2, 3]),
    ideal_degree=st.sampled_from([1, 2]),
    ngens=st.integers(1, 2),
    p_degree=st.sampled_from([1, 2]),
)
def test_adjoint_pairing_on_random_quotients(data, kind, m, ideal_degree, ngens, p_degree):
    # assert_adjoint_pairing on drawn quotients.  Generators and p lead with
    # a drawn Gaussian rational, so p has a common denominator.  The grading
    # n is drawn from {1, 2}^m; degrees are weighted degrees, and a degree
    # with no monomial (1 when n = (2, ..., 2)) becomes 2
    n = data.draw(gradings(m))
    ideal_degree, p_degree = (d if d in nonempty_degrees(m, n) else 2 for d in (ideal_degree, p_degree))
    top = 4 if m == 2 else 3
    space = random_space(data, kind, m, top)
    ideal = GradedIdeal(m, [
        homogeneous(data, m, ideal_degree, data.draw(nonzero_gaussian_rationals), n)
        for _ in range(ngens)
    ], weight=n)
    r = quotient_realization(space, ideal, top)
    p = homogeneous(data, m, p_degree, data.draw(nonzero_gaussian_rationals), n)
    k = data.draw(st.integers(0, top - p_degree))
    u = data.draw(st.lists(gaussian_ints, min_size=r.comp_dim(k), max_size=r.comp_dim(k)))
    v = data.draw(st.lists(gaussian_ints, min_size=r.comp_dim(k + p_degree),
                           max_size=r.comp_dim(k + p_degree)))
    assert_adjoint_pairing(r, p, p_degree, k, u, v)


@pytest.mark.parametrize("kind", ["hardy-ball", "da"])
@pytest.mark.parametrize("n, gens, p", [
    ((1, 2), "z1^2-z2", "z2"),
    ((1, 2), "z1*z2", "(1+i)*z1^2*z2+z2^2/2"),
    ((2, 2), "z1+(2-i)*z2", "z1"),
    ((2, 1), "z2^2+3*z1", "z1*z2"),
])
def test_adjoint_pairing_on_weighted_quotients(kind, n, gens, p):
    # assert_adjoint_pairing where p's weighted degree differs from its total
    # degree, at every level: a multiplier graded by total degree fails here
    # whatever the hypothesis draws of the random-quotient test
    m, top = 2, 5
    ideal = GradedIdeal(m, [parse_polynomial(g, m) for g in gens.split(",")], weight=n)
    r = quotient_realization(builtin_space(kind, m), ideal, top)
    poly = parse_polynomial(p, m)
    d = poly.weighted_degree(n)
    assert d != poly.degree
    for k in range(top - d + 1):
        u = [GaussianRational(j + 1, 1 - j) for j in range(r.comp_dim(k))]
        v = [GaussianRational(2 - j, j) for j in range(r.comp_dim(k + d))]
        assert_adjoint_pairing(r, poly, d, k, u, v)


@settings(max_examples=60, deadline=None)
@given(
    ncols=st.integers(1, 7),
    data=st.data(),
)
def test_kernel_basis_is_annihilated(ncols, data):
    entry = st.tuples(st.integers(0, ncols - 1), gaussian_rationals)
    rows = [
        {c: v for c, v in entries if v}
        for entries in data.draw(st.lists(st.lists(entry, max_size=4), max_size=6))
    ]
    basis = ela.kernel_basis(rows, ncols)
    assert len(basis) == ncols - ela.rank(rows, ncols)
    for v in basis:
        assert v and all(x for x in v.values())
        for row in rows:
            assert sum((x * v[c] for c, x in row.items() if c in v), G_ZERO) == G_ZERO


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(["hardy-ball", "da"]),
    m=st.sampled_from([2, 3]),
    ideal_degree=st.sampled_from([1, 2]),
    ngens=st.integers(1, 2),
)
def test_closed_form_complement_equals_kernel_basis(data, kind, m, ideal_degree, ngens):
    # the basis read off the ideal's reduced echelon form, divided by its free
    # entries, equals the kernel of the constraint rows conj(u_i), computed by
    # elimination; each vector is a primitive Gaussian-integer row with a
    # positive free entry.  As Gram-applied coordinates x = omega v it spans
    # S_k^perp: v = x / omega over its free entry equals the kernel of
    # conj(u_i) * omega
    space = builtin_space(kind, m)
    ideal = GradedIdeal(m, [homogeneous(data, m, ideal_degree) for _ in range(ngens)])
    for k in range(5 if m == 2 else 4):
        pivots, red, monomials = ideal.level_data(k)
        omega = [space.weight(a) for a in monomials]
        euclidean = ela.kernel_basis([{c: y.conjugate() for c, y in u.items()} for u in red],
                                     len(monomials))
        constraint = [{c: u[c].conjugate() * omega[c] for c in u} for u in red]
        reference = ela.kernel_basis(constraint, len(monomials))
        basis = ela.complement_kernel(pivots, red, len(monomials))
        assert len(basis) == len(reference) == len(euclidean)
        for x, e, ref in zip(basis, euclidean, reference):
            free = next(c for c in ref if c not in pivots)
            assert x[free].is_real() and x[free].re > 0 and is_primitive(x)
            assert {c: y / x[free] for c, y in x.items()} == e
            v = {c: y / omega[c] for c, y in x.items()}
            assert {c: y / v[free] for c, y in v.items()} == ref


def sparse_row(data, ncols):
    entry = st.tuples(st.integers(0, ncols - 1), gaussian_rationals | gaussian_ints)
    return {c: v for c, v in data.draw(st.lists(entry, max_size=4)) if v}


def sparse_rows(data, ncols):
    return [sparse_row(data, ncols) for _ in range(data.draw(st.integers(0, 7)))]


def to_domain_matrix(rows, ncols):
    def entry(v):
        return QQ_I(QQ(v.re.numerator, v.re.denominator), QQ(v.im.numerator, v.im.denominator))

    dense = [[entry(row.get(c, G_ZERO)) for c in range(ncols)] for row in rows]
    return DomainMatrix(dense, (len(rows), ncols), QQ_I)


def from_domain(x):
    return GaussianRational(
        Fraction(int(x.x.numerator), int(x.x.denominator)),
        Fraction(int(x.y.numerator), int(x.y.denominator)),
    )


@settings(max_examples=150, deadline=None)
@given(ncols=st.integers(1, 8), data=st.data())
def test_elimination_matches_sympy_oracle(ncols, data):
    rows = sparse_rows(data, ncols)
    oracle = to_domain_matrix(rows, ncols)
    reduced, oracle_pivots = oracle.rref()
    pivots, red = ela.rref(rows, ncols)
    assert tuple(pivots) == oracle_pivots
    # the fraction-free rows, divided by their pivot entries, are the RREF
    for p, row, oracle_row in zip(pivots, red, reduced.to_list()):
        assert [row.get(c, G_ZERO) / row[p] for c in range(ncols)] == [
            from_domain(x) for x in oracle_row
        ]
    rank = oracle.rank()
    assert ela.rank(rows, ncols) == rank == len(pivots)
    assert len(ela.kernel_basis(rows, ncols)) == oracle.nullspace().shape[0] == ncols - rank


def no_zero_stored(rows):
    return all(v for row in rows for v in row.values())


def is_primitive(row):
    """Gaussian-integer entries whose real and imaginary parts have gcd 1."""
    parts = [x for v in row.values() for x in (v.re, v.im)]
    return all(x.denominator == 1 for x in parts) and math.gcd(*map(int, parts)) == 1


def gaussian_content(row):
    """sympy's gcd in Z[i] of a Gaussian-integer row's entries."""
    g = ZZ_I.zero
    for v in row.values():
        g = ZZ_I.gcd(g, ZZ_I(int(v.re), int(v.im)))
    return g


def is_unit(g):
    return g.x * g.x + g.y * g.y == 1


def rows_of(entries):
    return st.lists(st.tuples(st.integers(0, 7), entries), max_size=5).map(
        lambda es: {c: v for c, v in es if v}
    )


# empty rows, Gaussian-integer rows, the same times a common integer factor,
# real-only rows and Gaussian-rational rows
normalisation_rows = st.one_of(
    st.just({}),
    rows_of(gaussian_ints),
    st.tuples(rows_of(gaussian_ints), st.integers(2, 6)).map(
        lambda t: {c: v * t[1] for c, v in t[0].items()}
    ),
    rows_of(small_fractions.map(GaussianRational)),
    rows_of(gaussian_rationals),
)


def two_pass_integral(row):
    """Reference: clear the lcm of every denominator, then divide by the gcd
    of every real and imaginary part."""
    den = math.lcm(*[x.denominator for v in row.values() for x in (v.re, v.im)])
    scaled = {c: (int(v.re * den), int(v.im * den)) for c, v in row.items()}
    g = math.gcd(*[x for pair in scaled.values() for x in pair])
    return {c: GaussianRational(Fraction(a // g), Fraction(b // g)) for c, (a, b) in scaled.items()}


@settings(max_examples=400, deadline=None)
@given(row=normalisation_rows)
def test_one_pass_normalisation_matches_two_pass_reference(row):
    # integral (and _content_free on Gaussian-integer rows) equals the
    # two-pass reference entry for entry and in key order, and hands back a
    # row that is already primitive (or empty) as the same object
    reference = list(two_pass_integral(row).items())
    unchanged = is_primitive(row) or not row
    got = ela.integral(row)
    assert list(got.items()) == reference and (got is row) == unchanged
    if all(x.denominator == 1 for v in row.values() for x in (v.re, v.im)):
        got = ela._content_free(row)
        assert list(got.items()) == reference and (got is row) == unchanged


@settings(max_examples=150, deadline=None)
@given(ncols=st.integers(1, 8), data=st.data(), factor=gaussian_ints.filter(bool))
def test_fraction_free_rows_are_primitive_and_reduced(ncols, data, factor):
    # every rref row is a primitive Gaussian-integer row that stores no zero,
    # keeps its pivot entry and is zero in every other pivot column, and its
    # gcd in Z[i] is a unit even when every input row shares a Gaussian
    # factor; the echelon rows behind rank are primitive too
    rows = [{c: v * factor for c, v in row.items()} for row in sparse_rows(data, ncols)]
    pivots, red = ela.rref(rows, ncols)
    assert no_zero_stored(red) and all(map(is_primitive, red))
    assert all(is_unit(gaussian_content(row)) for row in red)
    for p, row in zip(pivots, red):
        assert row[p] and not set(row) & (set(pivots) - {p})
    echelon = ela._echelon(rows, ncols)[1]
    assert no_zero_stored(echelon) and all(map(is_primitive, echelon))


def generator_rows(ideal, k):
    """(rows, ncols): weighted level k's spanning products z^beta g_j, from
    scratch, in the ideal's own grading."""
    m, n = ideal.m, ideal.weight
    monos = enumerate_weighted_level(m, n, k)
    col = {a: j for j, a in enumerate(monos)}
    rows = [{col[add_index(a, beta)]: c for a, c in g.terms()}
            for g in ideal.generators
            for beta in enumerate_weighted_level(m, n, k - g.weighted_degree(n))]
    return rows, len(monos)


def over_pivots(pivots, red):
    return [{c: v / row[p] for c, v in row.items()} for p, row in zip(pivots, red)]


def certify(ideal):
    k = 0
    while ideal.k0 is None:
        ideal.level_data(k)
        k += 1


# at m = 4 a level of dense generators takes the from-scratch reference
# seconds (its coefficients grow), so m = 4 draws binomials
@settings(max_examples=30, deadline=None)
@given(data=st.data(), m=st.integers(2, 4))
def test_ideal_levels_equal_from_scratch_rref(data, m):
    # for plain and weighted gradings n alike, every level up to k0 + 8 --
    # eliminated up to the certified degree k0, then built from the levels
    # below -- is primitive and reduced, equals rref of its products
    # z^beta g_j once each row is divided by its pivot, and is the same
    # whichever order the levels are asked for in
    n = data.draw(st.just((1,) * m) | st.tuples(*[st.integers(1, 3)] * m))
    degrees = [d for d in range(1, max(n) + 3) if enumerate_weighted_level(m, n, d)]
    gens = []
    for _ in range(data.draw(st.integers(1, 3))):
        monos = enumerate_weighted_level(m, n, data.draw(st.sampled_from(degrees)))
        terms = st.dictionaries(st.sampled_from(monos), gaussian_ints.filter(bool),
                                min_size=1, max_size=3 if m < 4 else 2)
        gens.append(GradedPolynomial(m, data.draw(terms)))
    ideal, shuffled = GradedIdeal(m, gens, weight=n), GradedIdeal(m, gens, weight=n)
    certify(ideal)
    levels = range(ideal.k0 + 9)
    by_shuffle = {k: shuffled.level_data(k) for k in data.draw(st.permutations(levels))}
    for k in levels:
        pivots, red, monomials = ideal.level_data(k)
        assert by_shuffle[k] == (pivots, red, monomials)
        assert monomials == enumerate_weighted_level(m, n, k)
        ref = ela.rref(*generator_rows(ideal, k))
        assert pivots == ref[0] and over_pivots(pivots, red) == over_pivots(*ref)
        assert no_zero_stored(red) and all(map(is_primitive, red))
        for p, row in zip(pivots, red):
            assert row[p] and not set(row) & (set(pivots) - {p})


@pytest.mark.parametrize("m, gens, weight, k0, nleads", [
    (3, "z1*z2-z3^2,z1*z3-z2^2", None, 4, 3),
    (3, "z1^2+(1+i)*z2*z3,z2^2-z1*z3,z3^3", None, 6, 6),
    (2, "z1*z2-z1^3,z2^2", (1, 2), 4, 2),
    (3, "z1*z3-z2^3,z1-z2^2+z3^2", (2, 1, 1), 3, 2),
    (2, "z1^4-z2^2", (1, 2), 4, 1),
    # the chain criterion skips the pair z2*z3*z4^5, z3^9 (lcm degree 15): the
    # lead z2*z3^4 divides its lcm, and both of its pairs have lcm degree 10
    (4, "(1-3i)*z1+(-2-i)*z2+(2+i)*z3+(i)*z4,"
        "-3*z2^3+(2+2i)*z2^2*z4+(1+2i)*z2*z3^2+(3+i)*z3*z4^2,(2-2i)*z1^3+(2i)*z1*z4^2",
     None, 10, 10),
])
def test_certified_leading_monomials_match_sympy_groebner(m, gens, weight, k0, nleads):
    # z_i -> y_i^(n_i) turns the weighted order (weighted degree, then lex)
    # into grlex, and a Groebner basis into one of the image's ideal
    ideal = GradedIdeal(m, [parse_polynomial(g, m) for g in gens.split(",")], weight=weight)
    certify(ideal)
    assert ideal.k0 == k0 and len(ideal.groebner_leads) == nleads
    n, ys = ideal.weight, sympy.symbols(f"y1:{m + 1}")
    polys = [
        sum((sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im))
            * sympy.prod([y**(e * w) for y, e, w in zip(ys, a, n)]) for a, c in g.terms())
        for g in ideal.generators
    ]
    basis = sympy.groebner(polys, *ys, order="grlex", domain=QQ_I)
    leads = {tuple(e * w for e, w in zip(a, n)) for a in ideal.groebner_leads}
    assert leads == {p.monoms(order="grlex")[0] for p in basis.polys}


def test_an_uncertified_ideal_stays_on_rref():
    # the coprime pair z1*z2^10, z3^22 (lcm degree 33) is skipped, but the
    # pair z1*z3^11, z3^22 has lcm degree 23, so through level 22 no level is
    # certified and every level is rref's own; level 23 certifies
    ideal = GradedIdeal(3, [parse_polynomial(g, 3) for g in ("z1^2", "z1*z2^10-z3^11")])
    for k in range(23):
        assert ideal.level_data(k)[:2] == ela.rref(*generator_rows(ideal, k))
    assert ideal.k0 is None and (0, 0, 22) in ideal.groebner_leads
    ideal.level_data(23)
    assert ideal.k0 == 23


# with a cubic, an m = 4 ideal can need levels past 17 before its Groebner
# degree is certified (tens of seconds), so m = 4 draws degree <= 2
@settings(max_examples=40, deadline=None)
@given(data=st.data(), m=st.integers(1, 4))
def test_hilbert_series_equals_from_scratch_level_dimensions(data, m):
    # HF read off the series equals dim H_k - rank of level k's products
    # z^beta g_j by a from-scratch rref, up to 10 levels past the
    # stabilization degree K; HF = HP from K on and not at K - 1
    gens = []
    for _ in range(data.draw(st.integers(1, 3))):
        monos = enumerate_level(m, data.draw(st.integers(1, 3 if m < 4 else 2)))
        terms = st.dictionaries(st.sampled_from(monos), gaussian_ints.filter(bool),
                                min_size=1, max_size=3)
        gens.append(GradedPolynomial(m, data.draw(terms)))
    ideal = GradedIdeal(m, gens)
    series = hilbert_series(ideal)
    K = series.stabilization_degree

    def hp(k):
        return sum(c * k**t for t, c in enumerate(series.coefficients))

    for k in range(K + 11):
        rows, ncols = generator_rows(ideal, k)
        assert series.hf(k) == ncols - len(ela.rref(rows, ncols)[0]), k
    assert K == 0 or series.hf(K - 1) != hp(K - 1)
    assert all(series.hf(k) == hp(k) for k in range(K, K + 11))
    assert series.multiplicity > 0 and len(series.coefficients) == max(series.dimension, 1)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 4), k=st.integers(1, 10))
def test_level_extension_index_maps_are_multiplication_by_z_i(m, k):
    # in the unit ideal every monomial leads, so the parents of level k use
    # every variable's index map; up_i[t] is the column of monos_{k-1}[t] + e_i
    ideal = GradedIdeal(m, [GradedPolynomial(m, {(0,) * m: G_ONE})])
    ideal.level_data(k - 1)
    monos, below = enumerate_level(m, k), enumerate_level(m, k - 1)
    col = {a: j for j, a in enumerate(monos)}
    maps = {tuple(up) for up, _ in ideal._parents(k, monos).values()}
    assert maps == {tuple(col[add_index(a, e)] for a in below) for e in enumerate_level(m, 1)}


@settings(max_examples=300, deadline=None)
@given(row=rows_of(gaussian_ints), factor=gaussian_ints.filter(bool))
def test_gaussian_content_free_divides_by_the_gcd_in_z_i(row, factor):
    # the result is the row over its gcd in Z[i], up to a unit: its own gcd
    # is a unit and it is a constant multiple of the row, by a factor whose
    # norm is the gcd's; a row whose gcd is a unit comes back as itself
    scaled = {c: v * factor for c, v in row.items()}
    got, g = ela._gaussian_content_free(scaled), gaussian_content(scaled)
    assert (got is scaled) == (not scaled or is_unit(g)) and list(got) == list(scaled)
    if scaled:
        assert is_unit(gaussian_content(got))
        ratio = next(iter(scaled.values())) / next(iter(got.values()))
        assert {c: v * ratio for c, v in got.items()} == scaled
        assert ratio.abs2() == g.x * g.x + g.y * g.y


def test_rref_of_a_dense_gaussian_level_stays_small():
    # from-scratch rref of level 13 once reached 410,412-bit entries and took
    # seconds, as the back phase piled up the pivot entries' Gaussian factors
    gens = "(3+i)*z1*z3+3i*z2*z3+(-1+i)*z3^2,(-2+i)*z1^2+(-3+i)*z2^2+(3-i)*z2*z3"
    ideal = GradedIdeal(3, [parse_polynomial(g, 3) for g in gens.split(",")])
    rows, ncols = generator_rows(ideal, 13)
    start = time.perf_counter()
    pivots, red = ela.rref(rows, ncols)
    assert time.perf_counter() - start < 1.0
    parts = [x.numerator for row in red for v in row.values() for x in (v.re, v.im)]
    assert max(abs(x).bit_length() for x in parts) < 128
    assert all(is_unit(gaussian_content(row)) for row in red)
    level = ideal.level_data(13)
    assert pivots == level[0] and over_pivots(pivots, red) == over_pivots(*level[:2])


@settings(max_examples=150, deadline=None)
@given(ncols=st.integers(1, 8), data=st.data())
def test_reduced_rows_never_store_a_zero(ncols, data):
    # rref rows and reduce_against residuals keep only nonzero entries, and
    # the residual is the exact remainder off the pivot columns
    rows = sparse_rows(data, ncols)
    pivots, red = ela.rref(rows, ncols)
    assert no_zero_stored(red)
    target = sparse_row(data, ncols)
    coeffs, residual = ela.reduce_against(target, pivots, red)
    assert no_zero_stored([residual]) and not set(residual) & set(pivots)
    rebuilt = dict(residual)
    for c, row in zip(coeffs, red):
        for col, v in row.items():
            rebuilt[col] = rebuilt.get(col, G_ZERO) + c * v
    assert {col: v for col, v in rebuilt.items() if v} == target


# Entry-by-entry references for the block kernels: one GaussianRational
# operation per term.
def reference_mat_sub(a, b):
    out = []
    for ra, rb in zip(a, b):
        row = dict(ra)
        for j, v in rb.items():
            s = row.get(j, G_ZERO) - v
            if s:
                row[j] = s
            else:
                row.pop(j, None)
        out.append(row)
    return out


def reference_mat_mul(a, b):
    out = []
    for arow in a:
        acc = {}
        for k, aik in arow.items():
            for j, bkj in b[k].items():
                acc[j] = acc.get(j, G_ZERO) + aik * bkj
        out.append({j: v for j, v in acc.items() if v})
    return out


def reference_back_substitute(x, dens, tri):
    a = {}
    for t in range(len(x) - 1, -1, -1):
        (diag, later), (re, im) = tri[t], x[t]
        acc = GaussianRational(Fraction(re, dens[t]), Fraction(im, dens[t]))
        for r, y in later:
            if r in a:
                acc = acc - a[r] * y
        if acc:
            a[t] = acc / diag
    return a


# a few values with mixed denominators, each with its negative, so that sums
# of products often cancel to exactly zero
block_entries = st.sampled_from([
    GaussianRational(Fraction(s * re, d), Fraction(s * im, d))
    for re, im, d in [(1, 0, 2), (0, 1, 3), (1, 1, 6), (2, 0, 1), (3, -1, 4)] for s in (1, -1)
]) | gaussian_rationals


def sparse_block(data, nrows, ncols):
    entry = st.tuples(st.integers(0, max(ncols - 1, 0)), block_entries)
    return [{c: v for c, v in data.draw(st.lists(entry, max_size=ncols + 1 if ncols else 0)) if v}
            for _ in range(nrows)]


def as_items(block):
    return [list(row.items()) for row in block]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 4), k=st.integers(0, 4), ncols=st.integers(1, 4))
def test_block_kernels_match_entry_by_entry_references(data, n, k, ncols):
    # mat_mul and mat_sub sum integer triples and reduce once per entry; the
    # result equals the one-GaussianRational-per-term reference entry for
    # entry, in the same key order, and stores no zero
    a, b = sparse_block(data, n, k), sparse_block(data, k, ncols)
    if k >= 2 and data.draw(st.booleans()):  # columns 0 and 1 of a cancel
        b[1] = dict(b[0])
        a = [{**row, 1: -row[0]} if 0 in row else row for row in a]
    product = ela.mat_mul(a, b)
    assert as_items(product) == as_items(reference_mat_mul(a, b)) and no_zero_stored(product)
    c = sparse_block(data, n, ncols)
    if data.draw(st.booleans()):  # c shares entries with the product
        c = [{**row, **other} for row, other in zip(c, product)]
    for x, y in ((product, c), (c, product), (c, c)):
        diff = ela.mat_sub(x, y)
        assert as_items(diff) == as_items(reference_mat_sub(x, y)) and no_zero_stored(diff)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 6))
def test_back_substitute_matches_entry_by_entry_reference(data, n):
    x = data.draw(st.lists(st.tuples(small_ints, small_ints), min_size=n, max_size=n))
    dens = data.draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    tri = [(data.draw(block_entries.filter(bool)),
            [(r, data.draw(block_entries)) for r in range(t + 1, n) if data.draw(st.booleans())])
           for t in range(n)]
    got = ela.back_substitute(x, dens, tri)
    assert list(got.items()) == list(reference_back_substitute(x, dens, tri).items())
    assert no_zero_stored([got])


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(["hardy-ball", "da"]),
    m=st.sampled_from([2, 3]),
    ideal_degree=st.sampled_from([1, 2]),
    ngens=st.integers(1, 2),
)
def test_complement_bases_never_store_a_zero(data, kind, m, ideal_degree, ngens):
    ideal = GradedIdeal(m, [homogeneous(data, m, ideal_degree) for _ in range(ngens)])
    r = quotient_realization(builtin_space(kind, m), ideal, 4 if m == 2 else 3)
    for k in range(r.max_level + 1):
        assert no_zero_stored(r.level(k).comp_rows)


def assert_complement_levels(r):
    """Each level of r stores its complement basis as primitive Gaussian-integer
    rows x = omega v, pairing under the reciprocal weights 1 / omega over the
    level's den.  Mapped back to v they span the kernel_basis reference of the
    constraint rows conj(u_i) * omega, are exactly orthogonal in the space's
    weights, and have Gram entries norms / den."""
    for k in range(r.max_level + 1):
        lv = r.level(k)
        omega = [r.space.weight(a) for a in lv.monomials]
        constraint = [{c: u[c].conjugate() * omega[c] for c in u} for u in r.ideal.level_data(k)[1]]
        reference = ela.kernel_basis(constraint, len(omega))
        recip, den = r.space.reciprocal_weights(lv.monomials)
        assert den == lv.den and [Fraction(x, den) for x in recip] == [1 / w for w in omega]
        assert all(map(is_primitive, lv.comp_rows)) and len(lv.comp_rows) == len(reference)
        comp = monomial_rows(r, k)
        assert ela.rank(comp + reference, len(omega)) == len(reference)
        for s, ws in enumerate(comp):
            for t, wt in enumerate(comp):
                g = sum((x * wt[c].conjugate() * omega[c] for c, x in ws.items() if c in wt),
                        G_ZERO)
                assert g == (Fraction(lv.norms[s], lv.den) if s == t else 0)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(["hardy-ball", "da", "bergman-ball", "polydisk-hardy", "custom"]),
    m=st.sampled_from([2, 3]),
    ideal_degree=st.sampled_from([1, 2]),
    ngens=st.integers(1, 2),
)
def test_integer_complement_bases_span_the_reference_kernel(data, kind, m, ideal_degree, ngens):
    # assert_complement_levels on drawn quotients on the general path, which
    # stores x = omega v even for a monomial ideal, on every kind of space:
    # among them polydisk-hardy with scale2 = 5/2, whose 1 / omega =
    # (2/5)^|alpha| is no integer, and a drawn custom table.  The kernel-power
    # spaces' reciprocal weights are integers, so their levels have den 1
    top = 4 if m == 2 else 3
    space = (builtin_space(kind, m, {"scale2": "5/2"}) if kind == "polydisk-hardy"
             else random_space(data, kind, m, top))
    ideal = GradedIdeal(m, [homogeneous(data, m, ideal_degree) for _ in range(ngens)])
    r = general_path(space, ideal, top)
    assert_complement_levels(r)
    if kind in ("hardy-ball", "da", "bergman-ball"):
        assert all(r.level(k).den == 1 for k in range(top + 1))


@settings(max_examples=25, deadline=None)
@given(data=st.data(), m=st.sampled_from([2, 3]), degree=st.integers(1, 3))
def test_koszul_homology_of_a_principal_ideal(data, m, degree):
    # 0 -> R(-d) -> R -> R/(f) -> 0 resolves R/(f), and (f) is free on one
    # generator of degree d, so Tor_j(-, C) is read off directly
    f = homogeneous(data, m, degree)
    ideal = GradedIdeal(m, [f])
    d_max = degree + 2
    zero = [0] * (m + 1)
    expect_ideal = {d: zero for d in range(d_max + 1)}
    expect_ideal[degree] = [1] + zero[1:]
    expect_quotient = dict(expect_ideal)
    expect_quotient[0] = [1] + zero[1:]
    expect_quotient[degree] = [0, 1] + zero[2:]
    for module, expected in (("ideal", expect_ideal), ("quotient", expect_quotient)):
        rep = koszul_euler(m, ideal, module, d_max)
        assert rep.dd_zero, module
        assert rep.homology == expected, module


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 3), data=st.data())
def test_parse_polynomial_round_trip(m, data):
    index = st.tuples(*[st.integers(0, 3)] * m)
    terms = data.draw(st.dictionaries(index, gaussian_rationals, max_size=5))
    p = GradedPolynomial(m, terms)
    assert parse_polynomial(str(p), m) == p


def to_sympy_poly(p: GradedPolynomial):
    def entry(c):
        return QQ_I(QQ(c.re.numerator, c.re.denominator), QQ(c.im.numerator, c.im.denominator))

    ys = sympy.symbols(f"y1:{p.m + 1}")
    return sympy.Poly.from_dict({a: entry(c) for a, c in p.terms()}, *ys, domain=QQ_I)


def small_polynomials(m):
    """Degree <= 3 and Gaussian-integer coefficients in [-2, 2]^2, zero among them,
    on few monomials, so that sums and products cancel often."""
    index = st.tuples(*[st.integers(0, 3)] * m).filter(lambda a: sum(a) <= 3)
    coeff = st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2))
    return st.dictionaries(index, coeff, max_size=5).map(lambda t: GradedPolynomial(m, t))


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 3), data=st.data())
def test_polynomial_arithmetic_matches_sympy(m, data):
    p, q = data.draw(small_polynomials(m)), data.draw(small_polynomials(m))
    c = data.draw(st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2)))
    pairs = [(p, q), (p, p)]
    if m >= 2:
        z1, z2 = GradedPolynomial.variable(m, 0), GradedPolynomial.variable(m, 1)
        pairs.append((z1 + z2, z1 - z2))
    for f, g in pairs:
        sf, sg = to_sympy_poly(f), to_sympy_poly(g)
        results = [
            (f + g, sf + sg), (f - g, sf - sg), (f * g, sf * sg), (-f, -sf),
            (f.scale(c), sf * to_sympy_poly(GradedPolynomial.constant(m, c))),
        ]
        for got, want in results:
            assert (to_sympy_poly(got) - want).is_zero
            assert all(coeff for _, coeff in got.terms())  # no zero is stored
            rebuilt = GradedPolynomial(m, dict(got.terms()))
            assert rebuilt == got and hash(rebuilt) == hash(got)
            assert got.degree == (None if want.is_zero else want.total_degree())
    assert (p - p).is_zero

def _truncate(p: GradedPolynomial, degree: int) -> GradedPolynomial:
    return GradedPolynomial(p.m, {a: c for a, c in p.terms() if sum(a) <= degree})


positive_rationals = st.builds(Fraction, st.integers(1, 4), st.integers(1, 6))


def block_or_window_error(op, k):
    try:
        return op.block(k)
    except WindowError:
        return WindowError


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(["da", "hardy-ball", "bergman-ball", "polydisk-hardy"]),
    m=st.integers(1, 4),
    top=st.integers(0, 5),
)
def test_full_space_blocks_equal_the_product_path(data, kind, m, top):
    # on the full space commutators, defects, codefects and P-defects are read
    # off the weights; each block equals the product path's exactly, and each
    # raises WindowError exactly where the product path does.  The full space
    # is graded by a drawn n (the zero ideal's), f and g homogeneous for it
    scale2 = data.draw(st.sampled_from(["1", f"1/{m}"]))
    params = {"scale2": scale2} if kind == "polydisk-hardy" else None
    n = data.draw(gradings(m))
    r = quotient_realization(builtin_space(kind, m, params), GradedIdeal(m, [], weight=n), top)
    f, g = (homogeneous(data, m, data.draw(st.sampled_from(nonempty_degrees(m, n))), n=n)
            for _ in range(2))
    alphas = [a for d in (1, 2) for a in enumerate_level(m, d)]
    terms = tuple(data.draw(st.lists(
        st.tuples(positive_rationals, st.sampled_from(alphas)), min_size=1, max_size=3)))

    def product_path_defect(adj_first, terms):
        acc = identity_blocks(r)
        for a, alpha in terms:
            q = GradedPolynomial(m, {alpha: 1})
            acc = op_sub(acc, product_blocks(r, q, q, adj_first), a)
        return acc

    unit = tuple((1, a) for a in enumerate_level(m, 1))
    pairs = [
        (commutator_blocks(r, f, g),
         op_sub(product_blocks(r, f, g, True), product_blocks(r, f, g, False))),
        (defect_blocks(r), product_path_defect(True, unit)),
        (codefect_blocks(r), product_path_defect(False, unit)),
        (_sum_of_squares_defect(r, True, terms), product_path_defect(True, terms)),
        (_sum_of_squares_defect(r, False, terms), product_path_defect(False, terms)),
    ]
    for closed, product in pairs:
        for k in range(top + 1):
            assert block_or_window_error(closed, k) == block_or_window_error(product, k), k


def general_path(space, ideal, top):
    """The realization of space / [ideal] on the general quotient path, even
    for a monomial ideal: levels by elimination and Gram-Schmidt, M_p^* read
    off by co-invariance, M_p as its adjoint, commutators and defects as
    differences of products."""
    r = quotient_realization(space, ideal, top)
    r.is_monomial = False
    return r


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(["hardy-ball", "drury-arveson", "bergman-ball", "polydisk-hardy"]),
    m=st.integers(1, 4),
)
def test_monomial_quotient_blocks_equal_the_general_path(data, kind, m):
    # a quotient by 1-3 single-term generators of degree <= 3 is read off by
    # divisibility: the standard monomials' unit rows span S_k^perp, and the
    # commutators, defects and multipliers are the full space's closed forms
    # with every term off the standard monomials dropped.  Both paths store
    # z^alpha / omega(alpha) as the unit row x = e_alpha: each level and each
    # block equals the general quotient path's exactly, and each block raises
    # WindowError exactly where it does.  A monomial ideal is quasi-homogeneous
    # for every n, so the grading is drawn too; f, g and p are homogeneous for it
    scale2 = data.draw(st.sampled_from(["1", f"1/{m}"]))
    space = builtin_space(kind, m, {"scale2": scale2} if kind == "polydisk-hardy" else None)
    n = data.draw(gradings(m))
    gens = [GradedPolynomial(m, {data.draw(st.sampled_from(enumerate_level(m, d))):
                                 data.draw(gaussian_ints.filter(bool))})
            for d in data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))]
    ideal = GradedIdeal(m, gens, weight=n)
    top = 5 if m <= 2 else 4
    r, ref = quotient_realization(space, ideal, top), general_path(space, ideal, top)
    assert r.is_monomial and not ref.is_monomial
    for k in range(top + 1):
        lv, want = r.level(k), ref.level(k)
        assert (lv.comp_rows, lv.norms, lv.den, lv.ideal_pivots) == (
            want.comp_rows, want.norms, want.den, want.ideal_pivots), k
    z = [GradedPolynomial.variable(m, i) for i in range(m)]
    f, g, p = (homogeneous(data, m, data.draw(st.sampled_from(nonempty_degrees(m, n))), n=n)
               for _ in range(3))

    def ops(x):  # every C(z_i, z_j), C(f, g), the defect, the codefect, M_p and M_p^*
        mult = mult_blocks(x, p, top - x.degree(p))
        return [*(commutator_blocks(x, a, b) for a in z for b in z), commutator_blocks(x, f, g),
                defect_blocks(x), codefect_blocks(x), mult, adjoint_blocks(mult)]

    for closed, general in zip(ops(r), ops(ref)):
        for k in range(top + 1):
            assert block_or_window_error(closed, k) == block_or_window_error(general, k), k


KERNEL_POWERS = ("drury-arveson", "hardy-ball", "bergman-ball")


def transfer_failures(m, gens, top, a):
    """Where the transfer from Drury-Arveson to the kernel-power space with shift
    s (DA s = 1, the Hardy ball s = m, the Bergman ball s = m + 1) fails on
    R / (gens), levels 0..top, with a(k, s) in place of a_k = (k + 1) / (k + s).
    On a plain level 1 / omega = C(k + s - 1, s - 1) k! / alpha!, so every level
    stores the same rows and pivots, with the level-k Gram C(k + s - 1, s - 1)
    times DA's; then M_i^(s) = a_k M_i^DA from level k, so
    C(z_i, z_j)_k = a_k (M_j^* M_i)^DA_k - a_{k-1} (M_i M_j^*)^DA_k and
    D_k = (1 - a_k) I + a_k D^DA_k, exactly."""
    def scaled(block, c):
        return [{j: v * c for j, v in row.items()} for row in block] if c else [{} for _ in block]

    def realize(kind):
        space = builtin_space(kind, m)
        if gens:
            return quotient_realization(space, GradedIdeal(m, gens), top)
        return full_realization(space, top)

    da, zs = realize("drury-arveson"), [GradedPolynomial.variable(m, i) for i in range(m)]
    adj_mult = {(i, j, t): product_blocks(da, zs[i], zs[j], t)
                for i in range(m) for j in range(m) for t in (True, False)}
    failures = []
    for kind, s in zip(KERNEL_POWERS, (1, m, m + 1)):
        r = realize(kind)
        for k in range(top + 1):
            lv, ref = r.level(k), da.level(k)
            gram = [Fraction(g, lv.den) for g in lv.norms]
            if ((lv.comp_rows, lv.ideal_pivots) != (ref.comp_rows, ref.ideal_pivots)
                    or gram != [math.comb(k + s - 1, s - 1) * Fraction(g, ref.den) for g in ref.norms]):
                failures.append((kind, "level", k))
        for k in range(top):  # C and D at level k read level k + 1
            ak, below = a(k, s), a(k - 1, s) if k else 0
            for i, j in itertools.product(range(m), repeat=2):
                want = ela.mat_sub(scaled(adj_mult[i, j, True].block(k), ak),
                                   scaled(adj_mult[i, j, False].block(k), below))
                if commutator_blocks(r, zs[i], zs[j]).block(k) != want:
                    failures.append((kind, (i, j), k))
            n = r.comp_dim(k)
            want = ela.mat_sub(scaled(defect_blocks(da).block(k), ak),
                               [{c: GaussianRational(ak - 1)} if ak != 1 else {} for c in range(n)])
            if defect_blocks(r).block(k) != want:
                failures.append((kind, "defect", k))
    return failures


def kernel_power_a(k, s):
    return Fraction(k + 1, k + s)


@pytest.mark.parametrize("m, gens, top", [
    (2, "", 6), (3, "", 5), (4, "", 3), (3, "z1^2,z2*z3", 5), (3, "z1^2+z2*z3", 5),
    (3, "z1^2+z2^2+z3^2", 5), (2, "z1^2-3*z1*z2+2*z2^2", 8), (3, "z1+(2-i)*z2,z2*z3-z1^2", 5),
    (3, "z1+z2+z3", 5),
], ids=["full-m2", "full-m3", "full-m4", "monomial-m3", "z1^2+z2*z3", "cone", "line-pair",
        "line-and-quadric", "plane"])
def test_kernel_power_spaces_transfer_from_drury_arveson(m, gens, top):
    ideal = [parse_polynomial(g, m) for g in gens.split(",") if g]
    assert transfer_failures(m, ideal, top, kernel_power_a) == []
    # negative control: the shift s + 1 in a_k breaks the commutators and defects
    wrong = transfer_failures(m, ideal, top, lambda k, s: kernel_power_a(k, s + 1))
    assert {f[0] for f in wrong} == set(KERNEL_POWERS)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), m=st.sampled_from([2, 3]), degree=st.integers(1, 2),
       ngens=st.integers(1, 2))
def test_kernel_power_transfer_on_drawn_homogeneous_ideals(data, m, degree, ngens):
    ideal = [homogeneous(data, m, degree) for _ in range(ngens)]
    assert transfer_failures(m, ideal, 5 if m == 2 else 4, kernel_power_a) == []


@settings(max_examples=120, deadline=None)
@given(m=st.integers(1, 3), data=st.data())
def test_positive_regular_pipeline_on_random_polynomials(m, data):
    higher = data.draw(
        st.lists(
            st.sampled_from(enumerate_level(m, 2) + enumerate_level(m, 3)), max_size=3, unique=True
        )
    )
    terms = {a: data.draw(positive_rationals) for a in enumerate_level(m, 1) + higher}
    P = GradedPolynomial(m, terms)
    poly = PositiveRegularPoly.from_polynomial(P)
    # delta is the coefficient table of (1 - P)^{-1} = sum_n P^n, truncated
    degree, ell_max = 5, 4
    series, power = GradedPolynomial.constant(m, 1), GradedPolynomial.constant(m, 1)
    for _ in range(degree):
        power = _truncate(power * P, degree)
        series = series + power
    delta = delta_coefficients(poly, degree)
    assert {b: GaussianRational(v) for b, v in delta.items()} == {
        b: series.coefficient(b) for b in delta
    }
    assert defect_projection_check(poly, degree).passed
    # the P-defect's exact diagonal against H_P's weight ratios, entry by entry
    weight = hp_space(poly).weight
    r = full_realization(hp_space(poly), degree)
    p_defect = _sum_of_squares_defect(r, False, poly.terms)
    for k in range(degree + 1):
        for beta, got in zip(r.level(k).monomials, p_defect.diagonal(k)):
            below = [(a, sub_index(beta, alpha)) for a, alpha in poly.terms]
            want = 1 - sum(a * weight(beta) / weight(b) for a, b in below if b is not None)
            assert got == want, (beta, got, want)
    jp = jp_data(poly)
    levels = xp_blocks(jp, ell_max)
    assert all(lv.equal and lv.containment_ok for lv in kernel_vs_ideal(jp, levels))
    assert all(s == 1 for lv in levels for s in lv.singular_sq)
    assert xp_module_map_check(jp, ell_max).passed
