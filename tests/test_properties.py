"""Hypothesis properties of the exact core: the weighted adjoint pairing of
compressed multipliers, kernel bases, and the polynomial text round trip."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import wshm.exact_linalg as ela
from wshm.algebra import G_ZERO, GaussianRational, GradedPolynomial, enumerate_level
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


def homogeneous(data, m, d):
    """A nonzero homogeneous polynomial of degree d with Gaussian integer coefficients."""
    monos = enumerate_level(m, d)
    coeffs = data.draw(st.lists(gaussian_ints, min_size=len(monos), max_size=len(monos)))
    coeffs[data.draw(st.integers(0, len(monos) - 1))] = GaussianRational(Fraction(1))
    return GradedPolynomial(m, dict(zip(monos, coeffs)))


def apply(block, x):
    return [sum((v * x[c] for c, v in row.items()), G_ZERO) for row in block]


def pairing(x, y, gram):
    """<x, y> in complement coordinates with a diagonal Gram."""
    return sum((a * b.conjugate() * g for a, b, g in zip(x, y, gram)), G_ZERO)


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(["hardy-ball", "da"]),
    m=st.sampled_from([2, 3]),
    ideal_degree=st.sampled_from([1, 2]),
    p_degree=st.sampled_from([1, 2]),
)
def test_adjoint_pairing_on_random_quotients(data, kind, m, ideal_degree, p_degree):
    # <M_p u, v>_{k+d} = <u, M_p^* v>_k exactly, and each block entry is the
    # projection coefficient <p w_c, w_r> / <w_r, w_r> computed densely
    space = builtin_space(kind, m)
    ideal = GradedIdeal(m, [homogeneous(data, m, ideal_degree)])
    top = 4 if m == 2 else 3
    r = quotient_realization(space, ideal, top)
    p = homogeneous(data, m, p_degree)
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
    for c, wc in enumerate(src.comp_rows):
        image = [G_ZERO] * len(tgt.monomials)
        for g, x in wc.items():
            for beta, coeff in p.terms():
                j = tgt.col_of[tuple(a + b for a, b in zip(src.monomials[g], beta))]
                image[j] = image[j] + x * coeff
        for row, (wr, gr) in enumerate(zip(tgt.comp_rows, tgt.gram_diag)):
            inner = sum(
                (image[j] * y.conjugate() * tgt.omega[j] for j, y in wr.items()), G_ZERO
            )
            assert block[row].get(c, G_ZERO) == inner / gr


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


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 3), data=st.data())
def test_parse_polynomial_round_trip(m, data):
    index = st.tuples(*[st.integers(0, 3)] * m)
    terms = data.draw(st.dictionaries(index, gaussian_rationals, max_size=5))
    p = GradedPolynomial(m, terms)
    assert parse_polynomial(str(p), m) == p
