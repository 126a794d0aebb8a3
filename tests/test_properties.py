"""Hypothesis properties of the exact core: Gaussian-rational arithmetic, the
weighted adjoint pairing of compressed multipliers, closed-form complement
bases, kernel bases, elimination against a sympy oracle, sparse rows that
never store a zero, the Koszul homology of a principal ideal, and the
polynomial text round trip."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

import wshm.exact_linalg as ela
from wshm.algebra import G_ZERO, GaussianRational, GradedPolynomial, enumerate_level
from wshm.diagnostics import koszul_euler
from wshm.ideals import GradedIdeal
from wshm.operators import adjoint_blocks, mult_blocks, quotient_realization
from wshm.parsing import parse_polynomial
from wshm.spaces import builtin_space

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


def homogeneous(data, m, d, lead=GaussianRational(Fraction(1))):
    """A nonzero homogeneous polynomial of degree d with Gaussian integer
    coefficients, one of them ``lead``."""
    monos = enumerate_level(m, d)
    coeffs = data.draw(st.lists(gaussian_ints, min_size=len(monos), max_size=len(monos)))
    coeffs[data.draw(st.integers(0, len(monos) - 1))] = lead
    return GradedPolynomial(m, dict(zip(monos, coeffs)))


nonzero_gaussian_rationals = gaussian_rationals.filter(bool)


def random_space(data, kind, m, top):
    """A built-in space; ``custom`` draws a positive rational weight for every
    monomial up to degree ``top``, so its level weights have no closed form."""
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
    # <M_p u, v>_{k+d} = <u, M_p^* v>_k exactly, and each block entry, read off
    # by co-invariance, is the projection coefficient <p w_c, w_r> / <w_r, w_r>
    # computed densely and by project_to_complement.  Generators and p lead
    # with a drawn Gaussian rational, so p has a common denominator.
    top = 4 if m == 2 else 3
    space = random_space(data, kind, m, top)
    ideal = GradedIdeal(m, [
        homogeneous(data, m, ideal_degree, data.draw(nonzero_gaussian_rationals))
        for _ in range(ngens)
    ])
    r = quotient_realization(space, ideal, top)
    p = homogeneous(data, m, p_degree, data.draw(nonzero_gaussian_rationals))
    op = mult_blocks(r, p, top - p_degree)
    adj = adjoint_blocks(op)
    k = data.draw(st.integers(0, top - p_degree))
    src, tgt = r.level(k), r.level(k + p_degree)
    u = data.draw(st.lists(gaussian_ints, min_size=r.comp_dim(k), max_size=r.comp_dim(k)))
    v = data.draw(st.lists(gaussian_ints, min_size=r.comp_dim(k + p_degree),
                           max_size=r.comp_dim(k + p_degree)))
    lhs = pairing(apply(op.block(k), u), v, tgt.gram_diag)
    rhs = pairing(u, apply(adj.block(k + p_degree), v), src.gram_diag)
    assert lhs == rhs

    block = op.block(k)
    num, den = ela.over_common_denominator(dict(p.terms()))
    for c, wc in enumerate(src.comp_rows):
        image = [G_ZERO] * len(tgt.monomials)
        for g, x in wc.items():
            for beta, coeff in num.items():
                j = tgt.col_of[tuple(a + b for a, b in zip(src.monomials[g], beta))]
                image[j] = image[j] + x * coeff
        column = {row: y for row, y in enumerate(block) if c in y}
        projected = r.project_to_complement(k + p_degree, {j: y for j, y in enumerate(image) if y}, den)
        assert {row: y[c] for row, y in column.items()} == projected
        for row, (wr, gr) in enumerate(zip(tgt.comp_rows, tgt.gram_diag)):
            inner = sum(
                (image[j] * y.conjugate() * Fraction(tgt.weights[j], tgt.den)
                 for j, y in wr.items()),
                G_ZERO,
            )
            assert block[row].get(c, G_ZERO) == inner / (gr * den)


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
    # the basis of S_k^perp read off the ideal's reduced echelon form, divided
    # by its free entries, equals the kernel of its constraint rows
    # conj(u_i) * omega, computed by elimination; each vector is a primitive
    # Gaussian-integer row with a positive free entry
    space = builtin_space(kind, m)
    ideal = GradedIdeal(m, [homogeneous(data, m, ideal_degree) for _ in range(ngens)])
    for k in range(5 if m == 2 else 4):
        pivots, red, monomials = ideal.level_data(k)
        omega = [space.weight(a) for a in monomials]
        constraint = [{c: u[c].conjugate() * omega[c] for c in u} for u in red]
        reference = ela.kernel_basis(constraint, len(monomials))
        n, den = space.level_weights(monomials)
        basis = ela.complement_kernel(pivots, red, n)
        assert len(basis) == len(reference)
        for v, ref in zip(basis, reference):
            free = next(c for c in ref if c not in pivots)
            assert v[free].is_real() and v[free].re > 0 and is_primitive(v)
            assert {c: x / v[free] for c, x in v.items()} == ref


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


@settings(max_examples=150, deadline=None)
@given(ncols=st.integers(1, 8), data=st.data())
def test_fraction_free_rows_are_primitive_and_reduced(ncols, data):
    # every rref row is a primitive Gaussian-integer row that stores no zero,
    # keeps its pivot entry and is zero in every other pivot column; so are
    # the echelon rows behind rank
    rows = sparse_rows(data, ncols)
    pivots, red = ela.rref(rows, ncols)
    assert no_zero_stored(red) and all(map(is_primitive, red))
    for p, row in zip(pivots, red):
        assert row[p] and not set(row) & (set(pivots) - {p})
    echelon = ela._echelon(rows, ncols)[1]
    assert no_zero_stored(echelon) and all(map(is_primitive, echelon))


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


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(["hardy-ball", "da", "bergman-ball"]),
    m=st.sampled_from([2, 3]),
    ideal_degree=st.sampled_from([1, 2]),
    ngens=st.integers(1, 2),
)
def test_integer_complement_bases_span_the_reference_kernel(data, kind, m, ideal_degree, ngens):
    # each level's complement basis is primitive Gaussian-integer rows that
    # span the kernel_basis reference of the constraint rows, are exactly
    # orthogonal in the space's weights, and have gram_diag equal to their
    # weighted norms
    space = builtin_space(kind, m)
    ideal = GradedIdeal(m, [homogeneous(data, m, ideal_degree) for _ in range(ngens)])
    r = quotient_realization(space, ideal, 4 if m == 2 else 3)
    for k in range(r.max_level + 1):
        lv = r.level(k)
        omega = [space.weight(a) for a in lv.monomials]
        constraint = [{c: u[c].conjugate() * omega[c] for c in u} for u in lv.ideal_rows]
        reference = ela.kernel_basis(constraint, len(omega))
        comp = lv.comp_rows
        assert all(map(is_primitive, comp)) and len(comp) == len(reference)
        assert ela.rank(comp + reference, len(omega)) == len(reference)
        for s, ws in enumerate(comp):
            for t, wt in enumerate(comp):
                g = sum((x * wt[c].conjugate() * omega[c] for c, x in ws.items() if c in wt),
                        G_ZERO)
                assert g == (lv.gram_diag[s] if s == t else 0)


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
