import itertools
import operator
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import wshm.exact_linalg as ela
from wshm.algebra import (
    G_ONE,
    G_ZERO,
    GaussianRational,
    GradedPolynomial,
    enumerate_level,
    level_dimension,
)
from wshm.diagnostics import normality_report
from wshm.errors import ModeError, WindowError, WshmError
from wshm.ideals import GradedIdeal, residue_decompose
from wshm.operators import (
    GradedOperator,
    _Level,
    adjoint_blocks,
    codefect_blocks,
    commutator_blocks,
    compose,
    defect_blocks,
    full_realization,
    hermitian_eigh,
    identity_blocks,
    moduli_sq,
    mult_blocks,
    onb_map,
    op_sub,
    pn_split,
    quotient_realization,
    svd_map,
    svdvals,
)
from wshm.parsing import parse_polynomial
from wshm.spaces import builtin_space, weighted_piece


def z(i, m=2):
    return GradedPolynomial.variable(m, i)


def exact_inner(space, u, v, level_monos):
    """<u, v> in dense coordinates, the defining sesquilinear form."""
    acc = G_ZERO
    for g, mono in enumerate(level_monos):
        acc = acc + u[g] * v[g].conjugate() * space.weight(mono)
    return acc


def dense(rows, ncols):
    """A list of sparse rows as a dense list of lists."""
    out = [[G_ZERO] * ncols for _ in rows]
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[i][j] = v
    return out


def monomial_rows(r, k):
    """Level k's complement rows in monomial coordinates v = x / omega, from the
    Gram-applied coordinates x = omega v that every level stores."""
    lv = r.level(k)
    omega = [r.space.weight(a) for a in lv.monomials]
    return [{c: x / omega[c] for c, x in row.items()} for row in lv.comp_rows]


def sparse_identity(n):
    return [{i: G_ONE} for i in range(n)]


def conj_transpose(rows, ncols):
    out = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[j][i] = v.conjugate()
    return out


# -- realizations ----------------------------------------------------------


def test_full_realization_dims():
    da = builtin_space("da", 2)
    r = full_realization(da, 6)
    for k in range(7):
        assert r.comp_dim(k) == level_dimension(2, k)
    assert r.comp_dim(-1) == 0
    with pytest.raises(WindowError):
        r.comp_dim(7)


def test_quotient_realization_examples():
    hb = builtin_space("hardy-ball", 2)
    zero = quotient_realization(hb, GradedIdeal(2, []), 5)
    for k in range(6):
        assert zero.comp_dim(k) == level_dimension(2, k)

    lin = quotient_realization(hb, GradedIdeal(2, [z(0) + z(1)]), 8)
    for k in range(9):
        assert lin.comp_dim(k) == 1

    msq = GradedIdeal(2, [z(0) * z(0), z(0) * z(1), z(1) * z(1)])
    q = quotient_realization(hb, msq, 6)
    assert [q.comp_dim(k) for k in range(5)] == [1, 2, 0, 0, 0]


# The first kernel basis is orthogonal already; the second needs Gram-Schmidt.
TWO_DIM_LEVEL_IDEALS = ["z1^2 - z2^2", "z1^2 + (1+i)*z1*z2 - z2^2"]


def test_realization_dim_split_and_gram():
    hb = builtin_space("hardy-ball", 2)
    for gen in TWO_DIM_LEVEL_IDEALS:
        ideal = GradedIdeal(2, [parse_polynomial(gen, 2)])
        r = quotient_realization(hb, ideal, 7)
        for k in range(8):
            lv = r.level(k)
            assert len(lv.ideal_pivots) + r.comp_dim(k) == level_dimension(2, k)
            monos = lv.monomials
            assert lv.den == 1  # the Hardy ball's reciprocal weights are integers
            comp = dense(monomial_rows(r, k), len(monos))
            # stored as x = omega v, the complement basis is orthogonal and
            # norms / den is its Gram, exactly
            for s, ws in enumerate(comp):
                for t, wt in enumerate(comp):
                    g = exact_inner(hb, ws, wt, monos)
                    if s == t:
                        assert g == Fraction(lv.norms[s], lv.den) and lv.norms[s] > 0
                    else:
                        assert not g
            # complement orthogonal to the ideal rows, exactly
            for w in comp:
                for u in dense(r.ideal.level_data(k)[1], len(monos)):
                    assert not exact_inner(hb, w, u, monos)


@pytest.mark.parametrize("gen", TWO_DIM_LEVEL_IDEALS)
def test_projection_matches_normal_equations(gen):
    # reference: solve the normal equations of the un-orthogonalised kernel
    # basis of S_k^perp; the projected vectors must agree exactly
    hb = builtin_space("hardy-ball", 2)
    ideal = GradedIdeal(2, [parse_polynomial(gen, 2)])
    r = quotient_realization(hb, ideal, 6)
    for k in range(7):
        lv = r.level(k)
        monos = lv.monomials
        dim = len(monos)
        omega = [hb.weight(a) for a in monos]
        constraint = [{c: u[c].conjugate() * omega[c] for c in u} for u in r.ideal.level_data(k)[1]]
        v = dense(ela.kernel_basis(constraint, dim), dim)
        n = len(v)
        gram = [[exact_inner(hb, v[j], v[i], monos) for j in range(n)] for i in range(n)]
        vectors = [[G_ONE if c == j else G_ZERO for c in range(dim)] for j in range(dim)]
        vectors.append(
            [GaussianRational(Fraction(c + 1, 3), Fraction(-c, 2)) for c in range(dim)]
        )
        for x in vectors:
            a = ela.solve(gram, [[exact_inner(hb, x, vi, monos)] for vi in v])
            want = [sum((a[j][0] * v[j][c] for j in range(n)), G_ZERO) for c in range(dim)]
            # project_to_complement reads a Gaussian-integer row over a denominator
            coeffs = r.project_to_complement(k, {c: xc * 6 for c, xc in enumerate(x) if xc}, 6)
            got = [
                sum((q * w.get(c, G_ZERO) for s, w in enumerate(monomial_rows(r, k))
                     if (q := coeffs.get(s)) is not None), G_ZERO)
                for c in range(dim)
            ]
            assert got == want


def test_realization_of_a_quasi_ideal():
    # graded by n = (1, 2), R/(z2 - z1^2) is C[z1] with z1^ell at level ell:
    # every level of the quotient is one-dimensional
    hb = builtin_space("hardy-ball", 2)
    quasi = GradedIdeal(2, [parse_polynomial("z2 - z1^2", 2)], weight=(1, 2))
    r = quotient_realization(hb, quasi, 8)
    assert [r.comp_dim(k) for k in range(9)] == [1] * 9
    assert [len(r.level(k).monomials) for k in range(5)] == [1, 1, 2, 2, 3]


def piece_trace_mismatches(space, gen, n, piece_gen, L):
    """The levels ell <= L at which the residue-piece oracle fails on H/[J],
    J = (gen) graded by n with residue defect 0 at every level.  There the
    compression of M_q, q_i = z_i^{n_i}, is block-diagonal over the residue
    classes alpha, 0 <= alpha < n, and each block is the compressed piece
    multiplication on weighted_piece(space, n, alpha) modulo (piece_gen),
    graded by (n_i^2).  So the exact trace of C(q_i, q_i) at level ell, and
    dim S_ell^perp, must equal their sums over alpha of the pieces' C(w_i, w_i)
    and dimensions at level ell - n.alpha."""
    m = len(n)
    ideal = GradedIdeal(m, [parse_polynomial(gen, m)], weight=n)
    assert residue_decompose(ideal, L).max_defect == 0
    top = L + max(n) ** 2  # C(q_i, q_i) at level ell reads level ell + n_i^2
    r = quotient_realization(space, ideal, top)
    q = [GradedPolynomial(m, {tuple(w if j == i else 0 for j, w in enumerate(n)): 1})
         for i in range(m)]
    whole = [commutator_blocks(r, qi, qi) for qi in q]
    piece_ideal = [parse_polynomial(piece_gen, m)]
    pieces = []
    for alpha in itertools.product(*map(range, n)):
        pr = quotient_realization(weighted_piece(space, n, alpha),
                                  GradedIdeal(m, piece_ideal, weight=[w * w for w in n]), top)
        pieces.append((sum(map(operator.mul, n, alpha)), pr,
                       [commutator_blocks(pr, z(i, m), z(i, m)) for i in range(m)]))

    def trace(op, k):
        return sum(op.diagonal(k), G_ZERO) if k >= 0 else G_ZERO

    return [ell for ell in range(L + 1)
            if r.comp_dim(ell) != sum(pr.comp_dim(ell - s) for s, pr, _ in pieces)
            or [trace(c, ell) for c in whole]
            != [sum((trace(c[i], ell - s) for s, _, c in pieces), G_ZERO) for i in range(m)]]


@pytest.mark.parametrize("kind", ["hardy-ball", "drury-arveson", "bergman-ball"])
@pytest.mark.parametrize("gen, piece_gen", [("z1^4-z2^2", "z1^4-z2"), ("z1^8-z2^4", "z1^8-z2^2")])
def test_quasi_quotient_traces_add_up_over_residue_pieces(kind, gen, piece_gen):
    assert piece_trace_mismatches(builtin_space(kind, 2), gen, (1, 2), piece_gen, 24) == []


def test_residue_piece_oracle_rejects_a_wrong_piece_ideal():
    bad = piece_trace_mismatches(builtin_space("hardy-ball", 2), "z1^4-z2^2", (1, 2),
                                 "z1^4-2*z2", 12)
    assert bad == list(range(13))  # C(w_2, w_2) at level 0 reads the piece's level 4


# -- multiplication blocks ---------------------------------------------------


def test_mult_blocks_da_normalized_entry():
    da = builtin_space("da", 2)
    r = full_realization(da, 4)
    op = mult_blocks(r, z(1), 3)
    onb = op.onb_block(1)
    src = enumerate_level(2, 1).index((1, 0))
    tgt = enumerate_level(2, 2).index((1, 1))
    assert abs(abs(onb[tgt, src]) ** 2 - 0.5) < 1e-13


def test_mult_blocks_polydisk_unit_entries():
    pd = builtin_space("polydisk-hardy", 2)
    r = full_realization(pd, 4)
    op = mult_blocks(r, z(0), 3)
    for k in range(4):
        block = dense(op.block(k), level_dimension(2, k))
        entries = {str(x) for row in block for x in row}
        assert entries <= {"0", "1"}
        assert sum(1 for row in block for x in row if x) == level_dimension(2, k)


def test_mult_blocks_identity_multiplier():
    da = builtin_space("da", 2)
    r = full_realization(da, 3)
    op = mult_blocks(r, GradedPolynomial.constant(2, 1), 3)
    for k in range(4):
        assert op.block(k) == sparse_identity(level_dimension(2, k))


def test_mult_blocks_errors():
    da = builtin_space("da", 2)
    r = full_realization(da, 3)
    with pytest.raises(ModeError):
        mult_blocks(r, z(0) + z(0) * z(0), 2)
    with pytest.raises(WindowError):
        mult_blocks(r, z(0), 3)  # K checks the levels to K + 1 up front


def test_realization_degree_is_weighted_and_rejects_the_rest():
    # one pass over the terms gives the weighted degree n.alpha and checks
    # homogeneity for n; a zero, non-homogeneous or wrong-arity polynomial
    # raises one ModeError that names n and the polynomial
    ideal = GradedIdeal(2, [parse_polynomial("z2^2", 2)], weight=(1, 2))
    r = quotient_realization(builtin_space("hardy-ball", 2), ideal, 4)
    assert [r.degree(parse_polynomial(p, 2)) for p in ("z1", "z2", "z1^2-3*z2", "z1*z2")] == [1, 2, 2, 3]
    for p in (GradedPolynomial(2, {}), z(0) + z(1), z(0, 3)):
        with pytest.raises(ModeError) as err:
            r.degree(p)
        assert str(err.value) == ("operator polynomials must be nonzero in the realization's "
                                  f"variable count and homogeneous for n=(1, 2), got {p}")


# -- windows -----------------------------------------------------------------


def _window_cases(r):
    """Each kind of operator on r, with the highest level whose block reads
    only levels <= r.max_level."""
    n = r.max_level
    m1 = mult_blocks(r, z(0), n - 1)
    sq = compose(m1, m1)
    return {
        "identity": (identity_blocks(r), n),
        "mult": (m1, n - 1),
        "adjoint": (adjoint_blocks(m1), n),
        "compose": (sq, n - 2),
        "op_sub": (op_sub(sq, sq), n - 2),
        "commutator": (commutator_blocks(r, z(0), z(1)), n - 1),
        "defect": (defect_blocks(r), n - 1),
        "codefect": (codefect_blocks(r), n),
    }


@pytest.mark.parametrize(
    "name", ["identity", "mult", "adjoint", "compose", "op_sub", "commutator", "defect", "codefect"]
)
@pytest.mark.parametrize("kind", ["full", "quotient"])
def test_operator_window_is_the_realization(kind, name):
    # the realization's levels are the one window: the highest level an
    # operator can build returns a block, the next one up and k = -1 raise,
    # and a level that raised raises again, so nothing was cached for it.
    # At the lower edge a block into a level below 0 has no rows and is never built
    if kind == "full":
        r = full_realization(builtin_space("da", 2), 5)
    else:
        ideal = GradedIdeal(2, [parse_polynomial("z1^2 + (1+i)*z1*z2 - z2^2", 2)])
        r = quotient_realization(builtin_space("hardy-ball", 2), ideal, 5)
    op, top = _window_cases(r)[name]
    build, op.build = op.build, lambda *args: pytest.fail(f"built block {args[1]}")
    for k in range(-op.shift):
        assert op.block(k) == [] and op.block_shape(k) == (0, r.comp_dim(k))
    op.build = build
    block = op.block(top)
    assert len(block) == op.block_shape(top)[0]
    if name == "op_sub":
        assert block == [{}] * r.comp_dim(top + 2)
    for k in (top + 1, -1, top + 1, -1):
        with pytest.raises(WindowError):
            op.block(k)


# -- adjoints ---------------------------------------------------------------


def test_adjoint_full_space_formula():
    # every level stores z^alpha / omega(alpha) as a unit row, so M_{z1}^* has
    # unit entries and M_{z1}, its adjoint, the shift ratios omega(beta + e_1) / omega(beta)
    bb = builtin_space("bergman-ball", 2)
    r = full_realization(bb, 5)
    op = mult_blocks(r, z(0), 4)
    adj = adjoint_blocks(op)
    for j in range(1, 5):
        block = dense(adj.block(j), level_dimension(2, j))  # level j -> j-1
        mult = dense(op.block(j - 1), level_dimension(2, j - 1))  # level j-1 -> j
        src_level = enumerate_level(2, j)
        tgt_level = enumerate_level(2, j - 1)
        for col, alpha in enumerate(src_level):
            for row, beta in enumerate(tgt_level):
                hit = alpha == (beta[0] + 1, beta[1])
                assert block[row][col] == (G_ONE if hit else G_ZERO)
                assert mult[col][row] == (G_ONE * bb.shift_ratio(beta, 0) if hit else G_ZERO)
    # adjoint kills the constants
    assert adj.block(0) == []


def test_adjoint_of_identity():
    da = builtin_space("da", 2)
    r = full_realization(da, 3)
    ident = identity_blocks(r)
    adj = adjoint_blocks(ident)
    for k in range(4):
        assert adj.block(k) == sparse_identity(level_dimension(2, k))


def test_adjoint_pairing_exact_on_quotient():
    hb = builtin_space("hardy-ball", 2)
    ideal = GradedIdeal(2, [z(0) * z(0) - z(1) * z(1)])
    r = quotient_realization(hb, ideal, 7)
    op = mult_blocks(r, z(0), 5)
    adj = adjoint_blocks(op)
    # <B u, v>_{k+1} = <u, B* v>_k holds exactly in Gram form:
    # G_{k+1} B == (G_k B*)^dagger
    def gram_apply(k, rows):
        lv = r.level(k)
        gram = [Fraction(n, lv.den) for n in lv.norms]
        return [{j: v * g for j, v in row.items()} for row, g in zip(rows, gram)]

    for k in range(5):
        lhs = gram_apply(k + 1, op.block(k))
        rhs = conj_transpose(gram_apply(k, adj.block(k + 1)), r.comp_dim(k + 1))
        assert lhs == rhs


# -- commutators -------------------------------------------------------------


def test_commutator_unilateral_shift():
    disk = builtin_space("polydisk-hardy", 1)
    r = full_realization(disk, 12)
    comm = commutator_blocks(r, z(0, 1), z(0, 1))
    assert comm.block(0) == [{0: G_ONE}]
    for k in range(1, 11):
        assert comm.block(k) == [{}]


def test_commutator_scaled_polydisk_constant_half():
    pd = builtin_space("polydisk-hardy", 2, {"scale2": Fraction(1, 2)})
    r = full_realization(pd, 14)
    comm = commutator_blocks(r, z(0), z(0))
    for k in range(13):
        t = sum((row.get(i, G_ZERO) for i, row in enumerate(comm.block(k))), G_ZERO)
        assert t.re == Fraction(1, 2) and not t.im
        assert abs(comm.norm(k) - 0.5) < 1e-12


def test_commutator_hardy_norms_decreasing():
    hb = builtin_space("hardy-ball", 2)
    r = full_realization(hb, 32)
    comm = commutator_blocks(r, z(0), z(0))
    norms = [comm.norm(k) for k in range(31)]
    assert all(norms[k + 1] < norms[k] for k in range(30))
    assert norms[30] < 0.04  # 1/(k+2) at k=30


def test_commutator_hermitian_when_f_equals_g():
    da = builtin_space("da", 2)
    r = full_realization(da, 8)
    comm = commutator_blocks(r, z(0), z(0))
    for k in range(7):
        b = comm.block(k)
        assert b == conj_transpose(b, len(b))


def test_commutator_adjoint_symmetry():
    # C(f,g)^* = C(g,f) blockwise, via the weighted adjoint
    da = builtin_space("da", 2)
    r = full_realization(da, 8)
    f, g = z(0), z(1)
    cfg = commutator_blocks(r, f, g)
    cgf = commutator_blocks(r, g, f)
    adj = adjoint_blocks(cfg)
    for k in range(6):
        assert adj.block(k) == cgf.block(k)


def test_commutator_mixed_degrees():
    # f = z1^2, g = z2: degree shift +1, and block k reads levels to k + deg f
    da = builtin_space("da", 2)
    r = full_realization(da, 10)
    f = z(0) * z(0)
    comm = commutator_blocks(r, f, z(1))
    assert comm.shift == 1
    for k in range(9):
        nr, nc = comm.block_shape(k)
        assert nr == level_dimension(2, k + 1) and nc == level_dimension(2, k)
        assert len(comm.block(k)) == nr
    with pytest.raises(WindowError):
        comm.block(9)  # needs level 11
    # the adjoint symmetry survives the degree shift: C(f,g)^* = C(g,f)
    cgf = commutator_blocks(r, z(1), f)
    adj = adjoint_blocks(comm)
    for k in range(10):
        assert adj.block(k) == cgf.block(k)


def test_defect_identity_blockwise():
    # (I - sum M M*) - (I - sum M* M) = sum [M*, M], exactly per block
    da = builtin_space("da", 2)
    r = full_realization(da, 9)
    K = 7
    dd = defect_blocks(r)
    cd = codefect_blocks(r)
    c0, c1 = (commutator_blocks(r, z(i), z(i)) for i in range(2))
    for k in range(K):
        assert ela.mat_sub(ela.mat_sub(cd.block(k), dd.block(k)), c0.block(k)) == c1.block(k)


@pytest.mark.parametrize(
    "kind,m,params,levels",
    [
        pytest.param("da", 2, {}, range(7), id="drury-arveson-m2"),
        pytest.param("da", 3, {}, (0, 4, 9), id="drury-arveson-m3"),
        pytest.param("bergman-ball", 2, {}, range(7), id="bergman-m2"),
        pytest.param("polydisk-hardy", 2, {"scale2": Fraction(1, 2)}, range(7), id="polydisk-half-m2"),
    ],
)
def test_defect_blocks_match_diagonal(kind, m, params, levels):
    # the exact blocks against the weight-only reference, entry by entry
    space = builtin_space(kind, m, params)
    r = full_realization(space, max(levels) + 1)
    dd = defect_blocks(r)
    for k in levels:
        block = dense(dd.block(k), level_dimension(m, k))
        for j, alpha in enumerate(enumerate_level(m, k)):
            expected = space.spherical_defect(alpha)
            for i in range(len(block)):
                assert block[i][j] == (ela.G_ONE * expected if i == j else G_ZERO)


def test_products_have_no_window_of_their_own():
    # a product block raises only when it reads a missing level: on levels
    # 0..0 the codefect's block 0 is the identity, the defect's needs level 1
    r = full_realization(builtin_space("hardy-ball", 2), 0)
    assert codefect_blocks(r).block(0) == [{0: G_ONE}]
    with pytest.raises(WindowError, match="level 1 outside realization window"):
        defect_blocks(r).block(0)


def test_commutator_blocks_reject_a_variable_count_mismatch():
    r = full_realization(builtin_space("hardy-ball", 2), 3)
    with pytest.raises(ModeError, match="variable count"):
        commutator_blocks(r, z(0, 3), z(0, 3))


def test_quotient_compressions_commute():
    hb = builtin_space("hardy-ball", 2)
    ideal = GradedIdeal(2, [z(0) + z(1)])
    r = quotient_realization(hb, ideal, 9)
    m1 = mult_blocks(r, z(0), 7)
    m2 = mult_blocks(r, z(1), 7)
    ab = compose(m1, m2)
    ba = compose(m2, m1)
    for k in range(6):
        assert ab.block(k) == ba.block(k)


@pytest.mark.parametrize("kind", ["full", "quotient"])
def test_equal_recipes_share_their_blocks(kind):
    # an operator is its realization and a recipe: equal recipes read the
    # same block objects, and the adjoint of M_p's adjoint is M_p itself
    hb, K = builtin_space("hardy-ball", 2), 4
    if kind == "full":
        r = full_realization(hb, K + 2)
    else:
        r = quotient_realization(hb, GradedIdeal(2, [parse_polynomial("z1+(2-i)*z2", 2)]), K + 2)
    f, g = z(0), z(0) * z(1)
    first, second = commutator_blocks(r, f, g), commutator_blocks(r, f, g)
    assert first.recipe == second.recipe
    op = mult_blocks(r, g, K)
    back = adjoint_blocks(adjoint_blocks(op))
    assert back.recipe == op.recipe
    for k in range(K + 1):
        assert second.block(k) is first.block(k)
        assert back.block(k) is op.block(k)
    assert defect_blocks(r).block(K) is defect_blocks(r).block(K)


def test_quotient_defect_norm_closed_form():
    # z1 + z2 + z3 on the m=3 Hardy ball: ||defect_k|| = 1/(k+3)
    hb = builtin_space("hardy-ball", 3)
    ideal = GradedIdeal(3, [z(0, 3) + z(1, 3) + z(2, 3)])
    r = quotient_realization(hb, ideal, 9)
    dd = defect_blocks(r)
    for k in range(9):
        want = 1.0 / (k + 3)
        assert abs(dd.norm(k) - want) <= 1e-13 * want


# -- block shift data ---------------------------------------------------------


def test_block_shift_data_full_one_variable():
    disk = builtin_space("polydisk-hardy", 1)
    r = full_realization(disk, 6)
    for k in range(5):
        assert mult_blocks(r, z(0, 1), k).block(k) == [{0: G_ONE}]


def test_block_shift_data_linear_ideal_one_dimensional():
    hb = builtin_space("hardy-ball", 2)
    r = quotient_realization(hb, GradedIdeal(2, [z(0) + z(1)]), 8)
    for k in range(7):
        a = mult_blocks(r, z(0), k).block(k)
        assert len(a) == 1 and set(a[0]) == {0}


def test_block_shift_data_z1_ideal_gives_z2_shift():
    hb = builtin_space("hardy-ball", 2)
    r = quotient_realization(hb, GradedIdeal(2, [z(0)]), 8)
    op2 = mult_blocks(r, z(1), 6)
    for k in range(6):
        assert mult_blocks(r, z(0), k).block(k) == [{}]
        # modulus^2 of the z2 block equals the one-variable hardy ratio
        onb = op2.onb_block(k)
        ratio = hb.shift_ratio((0, k), 1)
        assert abs(abs(onb[0, 0]) ** 2 - float(ratio)) < 1e-13


def given(r, shift, blocks):
    """An operator on r whose block k is blocks[k]."""
    return GradedOperator(r, shift, lambda _, k: blocks[k])


def one_dim_level(norm, den):
    """A full one-coordinate level of Gram entry norm / den."""
    return _Level([(0,)], {(0,): 0}, den, [{0: G_ONE}], [norm], [])


def test_onb_scale_splits_gram_entries_beyond_double_range():
    # Gram entries 2^-2100 and 2^2100 neither underflow nor overflow: each
    # mantissa is finite and nonzero, and x * 2^s is sqrt(g) to rounding
    lv = _Level([(1, 0), (0, 1)], {(1, 0): 0, (0, 1): 1}, 2**2100,
                [{0: G_ONE}, {1: G_ONE}], [1, 2**4200], [])
    gram = [Fraction(n, lv.den) for n in lv.norms]
    assert gram == [Fraction(1, 2**2100), Fraction(2**2100)]
    xs, ss = lv.onb_scale
    for x, s, g in zip(xs, ss, gram):
        assert np.isfinite(x) and x != 0
        assert abs(Fraction(float(x)) ** 2 * Fraction(4) ** int(s) / g - 1) < 1e-15


@pytest.mark.parametrize(
    "norm, den",
    [(3, 6), (9 * 2**998, 3), (3, 9 * 2**998), (2**1001, 2), (5 * 2**2100, 7), (7, 2**4200 * 3)],
)
def test_onb_scale_is_the_rounded_fraction_bit_for_bit(norm, den):
    # int / int rounds like float(Fraction), and the exponent split is taken
    # from g in lowest terms: 9 * 2**998 / 3 has a 1000-bit gap unreduced but
    # 999 bits reduced, so it stays unsplit
    g = Fraction(norm, den)
    e = g.numerator.bit_length() - g.denominator.bit_length()
    s = 0 if -1000 < e < 1000 else e // 2
    xs, ss = one_dim_level(norm, den).onb_scale
    assert int(ss[0]) == s
    assert xs[0].hex() == (float(g * Fraction(2) ** (-2 * s)) ** 0.5).hex()


# (src, tgt) Gram entries of two one-coordinate levels, far outside double range
BEYOND_DOUBLE_RANGE = pytest.mark.parametrize(
    "src, tgt",
    [((1, 2**2100), (3, 2**2101)), ((2**2100, 1), (5 * 2**2097, 1))],
    ids=["underflow", "overflow"],
)


@BEYOND_DOUBLE_RANGE
def test_onb_block_between_levels_beyond_double_range(src, tgt):
    # a 1x1 block between two levels whose Gram entries lie far outside the
    # range of a double matches the exact ratio b * sqrt(g_tgt / g_src)
    r = full_realization(builtin_space("polydisk-hardy", 1), 1)
    r._levels[0], r._levels[1] = one_dim_level(*src), one_dim_level(*tgt)
    b = GaussianRational(Fraction(1, 3), Fraction(2, 3))
    got = given(r, 1, {0: [{0: b}]}).onb_block(0)
    ratio = Fraction(*tgt) / Fraction(*src)
    want = complex(b) * float(ratio) ** 0.5
    assert got.shape == (1, 1) and abs(got[0, 0] - want) <= 1e-15 * abs(want)


def one_block_crossing(op, k):
    """Reference: block k crossed to floats entry by entry, then scaled by
    sqrt(g_t) / sqrt(g_s) on its own, in the stacked crossing's order."""
    nr, nc = op.block_shape(k)
    f = np.zeros((nr, nc), dtype=complex)
    for i, row in enumerate(op.block(k)):
        for j, v in row.items():
            f[i, j] = complex(v)
    if nr == 0 or nc == 0:
        return f
    xt, st = op.realization.level(k + op.shift).onb_scale
    xs, ss = op.realization.level(k).onb_scale
    return f * (xt[:, None] / xs) * np.ldexp(1.0, st[:, None] - ss)


def assert_stacked_crossing_is_per_block(items):
    got = onb_map(lambda stack: stack, items)
    assert len(got) == len(items)
    for (op, k), f in zip(items, got):
        want = one_block_crossing(op, k)
        assert f.shape == want.shape and f.tobytes() == want.tobytes()
        assert op.onb_block(k).tobytes() == want.tobytes()


def test_stacked_crossing_is_per_block_on_a_mixed_shape_report():
    # every block the hb3 z1+z2+z3 normality report crosses at K=4: the six
    # C(z_i, z_j), i <= j, and the defect, levels 0..4, five shapes interleaved
    K = 4
    gen = parse_polynomial("z1+z2+z3", 3)
    r = quotient_realization(builtin_space("hardy-ball", 3), GradedIdeal(3, [gen]), K + 2)
    ops = [commutator_blocks(r, z(i, 3), z(j, 3)) for i in range(3) for j in range(i, 3)]
    items = [(op, k) for op in [*ops, defect_blocks(r)] for k in range(K + 1)]
    assert len({op.block_shape(k) for op, k in items}) == K + 1
    assert_stacked_crossing_is_per_block(items)


@pytest.mark.parametrize(
    "kind,m,gens",
    [("da", 2, "z1^2"), ("hardy-ball", 2, "z1^6,z2^6"), ("hardy-ball", 3, "z1+z2+z3"),
     ("bergman-ball", 2, "z1^2+(1+i)*z1*z2-z2^2")],
)
def test_degree_zero_diagonals_cross_exactly(kind, m, gens):
    # a degree-0 block's diagonal entry is scaled by sqrt(g) / sqrt(g) = 1.0 exactly, so
    # every diagonal entry of the defect, the codefect and each C(z_i, z_i) crosses to
    # floats as complex(exact entry), whatever else shares its stack
    K = 6
    ideal = GradedIdeal(m, [parse_polynomial(g, m) for g in gens.split(",")])
    r = quotient_realization(builtin_space(kind, m), ideal, K + 1)
    ops = [defect_blocks(r), codefect_blocks(r), *(commutator_blocks(r, z(i, m), z(i, m))
                                                   for i in range(m))]
    items = [(op, k) for op in ops for k in range(K + 1)]
    for (op, k), f in zip(items, onb_map(lambda stack: stack, items)):
        got = [f[j, j] for j in range(len(f))]
        assert got == [complex(v) for v in op.diagonal(k)]


@BEYOND_DOUBLE_RANGE
def test_stacked_crossing_with_empty_blocks_and_gram_beyond_double_range(src, tgt):
    # 1x1 blocks between levels whose Gram entries lie far outside the range
    # of a double stack with members of other levels, next to 0 x 1 and 1 x 0
    # blocks into and out of an empty level 2
    r = full_realization(builtin_space("polydisk-hardy", 1), 2)
    r._levels[0], r._levels[1] = one_dim_level(*src), one_dim_level(*tgt)
    r._levels[2] = _Level([(2,)], {(2,): 0}, 1, [], [], [0])
    b = GaussianRational(Fraction(1, 3), Fraction(2, 3))
    up = given(r, 1, {0: [{0: b}], 1: []})
    down = given(r, -1, {1: [{0: -b}], 2: [{}]})
    same = given(r, 0, {0: [{0: G_ONE}], 1: [{0: b}], 2: []})
    items = [(up, 0), (up, 1), (down, 1), (same, 2), (down, 2), (same, 0), (same, 1)]
    assert [op.block_shape(k) for op, k in items] == [
        (1, 1), (0, 1), (1, 1), (0, 0), (1, 0), (1, 1), (1, 1)]
    assert_stacked_crossing_is_per_block(items)
    got = onb_map(lambda stack: stack, items)
    ratio = Fraction(*tgt) / Fraction(*src)
    want = complex(b) * float(ratio) ** 0.5
    assert abs(got[0][0, 0] - want) <= 1e-15 * abs(want)
    assert abs(got[2][0, 0] + complex(b) / float(ratio) ** 0.5) <= 1e-15 * abs(want / ratio)


# -- singular values read off partial permutations ---------------------------

# Fraction(sigma)^2 may differ from the exact square by this much, relatively:
# about one ulp of sigma, below LAPACK's own error
READ_OFF_REL = Fraction(1, 2**50)


def is_partial_permutation(block):
    """At most one stored entry per row and no column used twice."""
    cols = [c for row in block for c in row]
    return all(len(row) <= 1 for row in block) and len(set(cols)) == len(cols)


def exact_singular_squares(op, k):
    """|B_ts|^2 g_t / g_s over the entries of a partial permutation block,
    descending and padded with zeros to min(nr, nc)."""
    r, block = op.realization, op.block(k)
    tgt, src = (r.level(j) if j >= 0 else None for j in (k + op.shift, k))
    sq = [(v.re**2 + v.im**2) * Fraction(tgt.norms[t] * src.den, tgt.den * src.norms[s])
          for t, row in enumerate(block) for s, v in row.items()]
    return sorted(sq, reverse=True) + [Fraction(0)] * (min(op.block_shape(k)) - len(sq))


def read_off_mismatch(op, k, sv):
    """None when ``sv`` are block k's read-off singular values, else why not:
    each Fraction(sigma)^2 within READ_OFF_REL of its exact square, and each
    sigma within 1e-14 relative of the sorted LAPACK value."""
    want = exact_singular_squares(op, k)
    if len(sv) != len(want):
        return f"{len(sv)} singular values, {len(want)} expected"
    for x, q in zip(sv.tolist(), want):
        if abs(Fraction(x) ** 2 - q) > READ_OFF_REL * q:
            return f"sigma = {x!r} is not sqrt({q}) to within 2^-50 of its square"
    lapack = np.sort(np.linalg.svd(op.onb_block(k), compute_uv=False))[::-1]
    if np.any(np.abs(sv - lapack) > 1e-14 * lapack):
        return f"read off {sv.tolist()}, LAPACK gives {lapack.tolist()}"
    return None


READ_OFF_CASES = {
    **{f"{kind}-m{m}": (kind, m, None)
       for kind in ("hardy-ball", "drury-arveson", "bergman-ball", "polydisk-hardy") for m in (2, 3)},
    "hb2-z1^2,z2": ("hardy-ball", 2, "z1^2,z2"),
    "da2-z1*z2": ("drury-arveson", 2, "z1*z2"),
    "hb3-z1^2,z2*z3": ("hardy-ball", 3, "z1^2,z2*z3"),
}


@pytest.mark.parametrize("case", READ_OFF_CASES)
def test_partial_permutations_read_off_their_singular_values(monkeypatch, case):
    # on the full space and on monomial quotients every C(z_i, z_j), the defect
    # and the codefect is a weighted partial permutation: svd_map reads its
    # singular values off the exact entries and no block crosses to floats
    kind, m, gens = READ_OFF_CASES[case]
    K = 4
    space = builtin_space(kind, m)
    if gens is None:
        r = full_realization(space, K + 2)
    else:
        ideal = GradedIdeal(m, [parse_polynomial(g, m) for g in gens.split(",")])
        r = quotient_realization(space, ideal, K + 2)
    ops = [commutator_blocks(r, z(i, m), z(j, m)) for i in range(m) for j in range(m)]
    items = [(op, k) for op in [*ops, defect_blocks(r), codefect_blocks(r)] for k in range(K + 1)]
    assert all(is_partial_permutation(op.block(k)) for op, k in items)

    def no_crossing(blocks, nr, nc):
        raise AssertionError("a partial permutation crossed to floats")

    monkeypatch.setattr(ela, "to_complex_array", no_crossing)
    got = svd_map(lambda sv: sv, items)
    monkeypatch.undo()
    for (op, k), sv in zip(items, got):
        assert read_off_mismatch(op, k, sv) is None
        assert op.singular_values(k).tobytes() == sv.tobytes()  # one block alone: same bits


def test_monomial_path_equals_the_general_path_on_one_quotient():
    # (z1+z2, z1-z2) and (z1, z2) generate one ideal of hb3, so S_k^perp is
    # spanned by z3^k: the first takes the general quotient path (elimination,
    # Gram-Schmidt, M_p^* read off by co-invariance, products), the second the
    # monomial one (divisibility, and the closed forms with every term off the
    # standard monomials dropped, such as M_{z1}^* M_{z1}'s in C(z1, z1) = 0).
    # Both store z3^k / omega(z3^k) as the unit row x = e_{z3^k}: every level
    # and every block is equal, exactly
    m, K = 3, 4
    space = builtin_space("hardy-ball", m)
    general, monomial = (
        quotient_realization(space, GradedIdeal(m, [parse_polynomial(g, m) for g in gens]), K + 2)
        for gens in (("z1+z2", "z1-z2"), ("z1", "z2")))
    assert monomial.is_monomial and not general.is_monomial
    f, g = parse_polynomial("z1+2*z3", m), parse_polynomial("(1+i)*z2-z3", m)
    p = parse_polynomial("z1*z3+(2-i)*z3^2", m)

    def ops(r):
        zs = [z(i, m) for i in range(m)]
        mult = mult_blocks(r, p, K)
        return [*(commutator_blocks(r, a, b) for a in zs for b in zs), commutator_blocks(r, f, g),
                defect_blocks(r), codefect_blocks(r), mult, adjoint_blocks(mult)]

    pairs = list(zip(ops(monomial), ops(general)))
    for k in range(K + 1):
        lv, want = monomial.level(k), general.level(k)
        assert [lv.monomials[c] for row in lv.comp_rows for c in row] == [(0, 0, k)]
        assert lv.comp_rows == want.comp_rows == [{lv.col_of[(0, 0, k)]: G_ONE}]
        assert (lv.norms, lv.den, lv.ideal_pivots) == (want.norms, want.den, want.ideal_pivots)
        assert [Fraction(g, lv.den) for g in lv.norms] == [1 / space.weight((0, 0, k))]
        for a, b in pairs:
            assert a.block(k) == b.block(k), k
    assert all(not row for k in range(K + 1) for row in pairs[0][0].block(k))  # C(z1, z1) = 0


def test_a_dense_block_goes_to_svd_bit_for_bit(monkeypatch):
    # negative control: C(z1, z2) at level 2 of hb3 z1+z2+z3 has rows with
    # several entries, so it fails the structural test and takes the SVD
    m = 3
    ideal = GradedIdeal(m, [parse_polynomial("z1+z2+z3", m)])
    r = quotient_realization(builtin_space("hardy-ball", m), ideal, 4)
    op = commutator_blocks(r, z(0, m), z(1, m))
    assert not is_partial_permutation(op.block(2)) and moduli_sq(op, 2) is None
    calls = []
    crossing = ela.to_complex_array
    monkeypatch.setattr(ela, "to_complex_array", lambda *a: calls.append(1) or crossing(*a))
    got = svd_map(lambda sv: sv, [(op, 2)])[0]
    assert calls == [1]
    assert got.tobytes() == svdvals(op.onb_block(2)[None])[0].tobytes()


@pytest.mark.parametrize("block, ok", [
    ([], True), ([{}, {}], True), ([{1: G_ONE}, {}, {0: -G_ONE}], True),
    ([{0: G_ONE, 1: G_ONE}], False), ([{0: G_ONE}, {0: G_ONE}], False),
])
def test_permutation_moduli_structural_test(block, ok):
    # moduli_sq's one pass over the rows makes the structural test and scales
    # each entry's exact square (1 here) by g_t / g_s as int pairs
    r = full_realization(builtin_space("hardy-ball", 2), 2)
    src, tgt = r.level(1), r.level(2)
    got = moduli_sq(given(r, 1, {1: block}), 1)
    assert (got is not None) == ok == is_partial_permutation(block)
    if ok:
        assert got == [(tgt.norms[t] * src.den, tgt.den * src.norms[s])
                       for t, row in enumerate(block) for s in row]


@BEYOND_DOUBLE_RANGE
def test_read_off_between_levels_beyond_double_range(src, tgt):
    # a 1x1 block whose singular value is a double but whose square, like
    # each Gram entry, lies far outside double range is read off through the
    # split square root: its square neither overflows nor underflows
    r = full_realization(builtin_space("polydisk-hardy", 1), 1)
    entry = 2**600 if src[0] == 1 else Fraction(1, 2**600)
    r._levels[0], r._levels[1] = one_dim_level(*src), one_dim_level(*tgt)
    op = given(r, 1, {0: [{0: GaussianRational(entry)}]})
    sv = op.singular_values(0)
    want = Fraction(entry) ** 2 * Fraction(*tgt) / Fraction(*src)
    assert sv.shape == (1,) and abs(Fraction(sv[0]) ** 2 - want) <= READ_OFF_REL * want


# -- a 50-digit mpmath oracle for the float tier --------------------------------

# a float singular value may differ from the 50-digit one by MP_ORACLE_C * n * u * ||B||,
# for an nr x nc block with n = max(nr, nc), u = 2^-53 and ||B|| its largest 50-digit
# singular value: the crossing rounds each entry and each scale once, LAPACK's SVD is
# backward stable, and a read-off value is rounded once
MP_ORACLE_C = 8


def mp_singular_values(op, k):
    """Block k's singular values to 50 digits, descending: its exact entries B_ts
    scaled by sqrt(g_t / g_s) in mpmath, with no double in between."""
    nr, nc = op.block_shape(k)
    if not nr or not nc:
        return []
    tgt, src = op.realization.level(k + op.shift), op.realization.level(k)
    with mpmath.workdps(50):
        scale_t = [mpmath.sqrt(mpmath.mpf(g) / tgt.den) for g in tgt.norms]
        scale_s = [mpmath.sqrt(mpmath.mpf(g) / src.den) for g in src.norms]
        a = mpmath.zeros(nr, nc)
        for t, row in enumerate(op.block(k)):
            for s, v in row.items():
                entry = mpmath.mpc(mpmath.mpf(v._a) / v._d, mpmath.mpf(v._b) / v._d)
                a[t, s] = entry * scale_t[t] / scale_s[s]
        sv = mpmath.mp.svd_c(a if nr >= nc else a.H, compute_uv=False)
        return sorted((sv[i] for i in range(min(nr, nc))), reverse=True)


def float_tier_mismatches(items):
    """(item index, why) wherever svd_map's singular values, or LAPACK's on
    onb_map's block, differ from the 50-digit ones by more than the bound."""
    bad = []
    svd, onb = svd_map(lambda sv: sv, items), onb_map(lambda stack: stack, items)
    for n, ((op, k), sv, f) in enumerate(zip(items, svd, onb)):
        want = mp_singular_values(op, k)
        bound = MP_ORACLE_C * max(op.block_shape(k)) * 2.0**-53 * float(want[0]) if want else 0.0
        lapack = svdvals(f[None])[0] if f.size else np.zeros(0)
        for name, got in (("svd_map", sv), ("onb_map", lapack)):
            if len(got) != len(want):
                bad.append((n, f"{name}: {len(got)} singular values, {len(want)} expected"))
            elif any(abs(mpmath.mpf(float(x)) - y) > bound for x, y in zip(got, want)):
                bad.append((n, f"{name}: {got.tolist()} against {[float(y) for y in want]}"))
    return bad


def test_float_tier_matches_a_50_digit_mpmath_oracle():
    # svd_map and onb_map against mpmath's 50-digit SVD of the exact entries in
    # orthonormal coordinates: a weighted partial permutation (read off moduli_sq),
    # a dense quotient commutator block, a quotient defect, and one stack of mixed
    # shapes holding 0 x n and n x 0 blocks (level 3 of the quotient below is empty)
    full = full_realization(builtin_space("hardy-ball", 2), 6)
    perm = commutator_blocks(full, z(0), z(1))
    hb3 = builtin_space("hardy-ball", 3)
    quot = quotient_realization(hb3, GradedIdeal(3, [parse_polynomial("z1+(2-i)*z2+z3", 3)]), 6)
    dense, defect = commutator_blocks(quot, z(0, 3), z(1, 3)), defect_blocks(quot)
    assert moduli_sq(perm, 4) is not None
    assert moduli_sq(dense, 4) is None
    for items in ([(perm, 4)], [(dense, 4)], [(defect, 4)]):
        assert float_tier_mismatches(items) == []
    art = quotient_realization(builtin_space("bergman-ball", 2),
                               GradedIdeal(2, [parse_polynomial(g, 2) for g in ("z1^2+z2^2", "z1*z2")]), 4)
    mult = mult_blocks(art, parse_polynomial("(1+i)*z1-z2/3", 2), 3)
    items = [(mult, 0), (adjoint_blocks(mult), 3), (commutator_blocks(art, z(0), z(1)), 1),
             (mult, 2), (defect_blocks(art), 2), (mult, 1), (adjoint_blocks(mult), 2),
             (perm, 2), (dense, 3), (defect_blocks(art), 3)]
    shapes = [op.block_shape(k) for op, k in items]
    assert (0, 1) in shapes and (1, 0) in shapes and (0, 0) in shapes
    assert float_tier_mismatches(items) == []


# -- pn split -----------------------------------------------------------------


def test_pn_split_examples():
    p, n = pn_split(np.diag([0.5, -0.25]).astype(complex))
    assert np.allclose(p, np.diag([0.5, 0.0]))
    assert np.allclose(n, np.diag([0.0, 0.25]))
    pos = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    p2, n2 = pn_split(pos)
    assert np.allclose(p2, pos) and np.allclose(n2, 0.0)


def test_pn_split_invariants():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = (a + a.conj().T) / 2
        p, n = pn_split(h)
        scale = np.linalg.norm(h, 2)
        assert np.linalg.norm(p - n - h, 2) <= 1e-9 * max(scale, 1.0)
        assert np.linalg.eigvalsh(p).min() >= -1e-9
        assert np.linalg.eigvalsh(n).min() >= -1e-9
        assert np.linalg.norm(p @ n, 2) <= 1e-8 * max(scale, 1.0) ** 2


def test_pn_split_rejects_non_hermitian():
    with pytest.raises(WshmError):
        pn_split(np.array([[0.0, 1.0], [0.0, 0.0]]))


# shapes of a mixed batch: repeats share one stack, empty blocks included
SHAPES = [(2, 3), (0, 0), (3, 2), (0, 4), (2, 3), (4, 0), (1, 1), (0, 4), (3, 3), (1, 1)]


def _random_block(rng, shape, hermitian=False):
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return (a + a.conj().T) / 2 if hermitian else a


def _by_shape(blocks):
    """The blocks grouped by shape, each group stacked as one (B, nr, nc) array."""
    shapes = dict.fromkeys(b.shape for b in blocks)
    return [np.stack([b for b in blocks if b.shape == s]) for s in shapes]


def test_stacked_svdvals_match_one_block_calls_bit_for_bit():
    rng = np.random.default_rng(11)
    blocks = [_random_block(rng, s) for s in SHAPES]
    for stack in _by_shape(blocks):
        got = svdvals(stack)
        assert len(got) == len(stack)
        for b, sv in zip(stack, got):
            want = np.linalg.svd(b, compute_uv=False)
            assert sv.shape == want.shape and sv.dtype == want.dtype
            assert sv.tobytes() == want.tobytes()


def test_stacked_hermitian_eigh_matches_one_block_calls_bit_for_bit():
    rng = np.random.default_rng(13)
    shapes = [s for s in SHAPES if s[0] == s[1]] + [(2, 2), (0, 0), (3, 3)]
    blocks = [_random_block(rng, s, hermitian=True) for s in shapes]
    for stack in _by_shape(blocks):
        vals, vecs = hermitian_eigh(stack)
        assert len(vals) == len(vecs) == len(stack)
        for h, v, u in zip(stack, vals, vecs):
            want_vals, want_vecs = np.linalg.eigh(h)  # h is exactly Hermitian
            assert v.tobytes() == want_vals.tobytes() and v.shape == want_vals.shape
            assert u.tobytes() == want_vecs.tobytes() and u.shape == want_vecs.shape


@pytest.mark.parametrize("where", [0, 2, 4])
def test_stacked_hermitian_eigh_rejects_any_non_hermitian_member(where):
    rng = np.random.default_rng(17)
    blocks = [_random_block(rng, (2, 2), hermitian=True) for _ in range(5)]
    blocks[where] = blocks[where] + np.array([[0.0, 1e-6], [0.0, 0.0]])
    with pytest.raises(WshmError):
        hermitian_eigh(np.stack(blocks))


# -- schatten -----------------------------------------------------------------


def schatten_table(space, K, p):
    """Terms and partial sums of the defect's Schatten-p table in the full
    space's normality report to level K."""
    rep = normality_report(full_realization(space, K + 2), K, [p])
    rows = {t.name: t for t in rep.tables}[f"schatten_defect_p{p}"].rows
    return [row[1] for row in rows], [row[2] for row in rows]


def test_schatten_da_defect_p1_diverges_linearly():
    _, sums = schatten_table(builtin_space("da", 2), 20, 1.0)
    assert abs(sums[20] - 21.0) < 1e-9  # each level contributes exactly 1


def test_schatten_da_defect_p3_cauchy():
    # level terms are (k+1)^{-2}; the tail beyond K is tiny
    terms, sums = schatten_table(builtin_space("da", 2), 40, 3.0)
    for k in range(41):
        assert abs(terms[k] - (k + 1) ** (-2.0)) < 1e-10
    assert sums[40] - sums[20] < 0.025


def test_schatten_zero_operator():
    # the hardy defect is identically zero
    _, sums = schatten_table(builtin_space("hardy-ball", 2), 5, 2.0)
    assert sums[5] == 0.0
