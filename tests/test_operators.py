from fractions import Fraction

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
from wshm.ideals import GradedIdeal
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
    mult_blocks,
    op_sub,
    pn_split,
    quotient_realization,
    svdvals,
)
from wshm.parsing import parse_polynomial
from wshm.spaces import builtin_space


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
            comp = dense(lv.comp_rows, len(monos))
            # the complement basis is orthogonal and norms / den is its Gram, exactly
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
                sum((q * w.get(c, G_ZERO) for s, w in enumerate(lv.comp_rows)
                     if (q := coeffs.get(s)) is not None), G_ZERO)
                for c in range(dim)
            ]
            assert got == want


def test_realization_requires_plain_mode():
    hb = builtin_space("hardy-ball", 2)
    quasi = GradedIdeal(2, [parse_polynomial("z2 - z1^2", 2)], weight=(1, 2))
    with pytest.raises(ModeError):
        quotient_realization(hb, quasi, 4)


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
    # and a level that raised raises again, so nothing was cached for it
    if kind == "full":
        r = full_realization(builtin_space("da", 2), 5)
    else:
        ideal = GradedIdeal(2, [parse_polynomial("z1^2 + (1+i)*z1*z2 - z2^2", 2)])
        r = quotient_realization(builtin_space("hardy-ball", 2), ideal, 5)
    op, top = _window_cases(r)[name]
    block = op.block(top)
    assert len(block) == op.block_shape(top)[0]
    if name == "op_sub":
        assert block == [{}] * r.comp_dim(top + 2)
    for k in (top + 1, -1, top + 1, -1):
        with pytest.raises(WindowError):
            op.block(k)


# -- adjoints ---------------------------------------------------------------


def test_adjoint_full_space_formula():
    bb = builtin_space("bergman-ball", 2)
    r = full_realization(bb, 5)
    op = mult_blocks(r, z(0), 4)
    adj = adjoint_blocks(op)
    for j in range(1, 5):
        block = dense(adj.block(j), level_dimension(2, j))  # level j -> j-1
        src_level = enumerate_level(2, j)
        tgt_level = enumerate_level(2, j - 1)
        for col, alpha in enumerate(src_level):
            for row, beta in enumerate(tgt_level):
                expected = G_ZERO
                if alpha[0] >= 1 and tuple(a - b for a, b in zip(alpha, (1, 0))) == beta:
                    expected = ela.G_ONE * bb.shift_ratio(beta, 0)
                assert block[row][col] == expected
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


def test_defect_blocks_match_diagonal():
    da = builtin_space("da", 2)
    r = full_realization(da, 7)
    dd = defect_blocks(r)
    for k in range(7):
        block = dense(dd.block(k), level_dimension(2, k))
        for j, alpha in enumerate(enumerate_level(2, k)):
            expected = da.spherical_defect(alpha)
            for i in range(len(block)):
                assert block[i][j] == (ela.G_ONE * expected if i == j else G_ZERO)


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


def one_dim_level(norm, den):
    """A full one-coordinate level of weight (and Gram entry) norm / den."""
    return _Level([(0,)], {(0,): 0}, [norm], den, [{0: G_ONE}], [norm], [])


def test_onb_scale_splits_gram_entries_beyond_double_range():
    # Gram entries 2^-2100 and 2^2100 neither underflow nor overflow: each
    # mantissa is finite and nonzero, and x * 2^s is sqrt(g) to rounding
    lv = _Level([(1, 0), (0, 1)], {(1, 0): 0, (0, 1): 1}, [1, 2**4200], 2**2100,
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


@pytest.mark.parametrize(
    "src, tgt",
    [((1, 2**2100), (3, 2**2101)), ((2**2100, 1), (5 * 2**2097, 1))],
    ids=["underflow", "overflow"],
)
def test_onb_block_between_levels_beyond_double_range(src, tgt):
    # a 1x1 block between two levels whose Gram entries lie far outside the
    # range of a double matches the exact ratio b * sqrt(g_tgt / g_src)
    r = full_realization(builtin_space("polydisk-hardy", 1), 1)
    r._levels[0], r._levels[1] = one_dim_level(*src), one_dim_level(*tgt)
    b = GaussianRational(Fraction(1, 3), Fraction(2, 3))
    got = GradedOperator(r, 1, {0: [{0: b}]}).onb_block(0)
    ratio = Fraction(*tgt) / Fraction(*src)
    want = complex(b) * float(ratio) ** 0.5
    assert got.shape == (1, 1) and abs(got[0, 0] - want) <= 1e-15 * abs(want)


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


def test_stacked_svdvals_match_one_block_calls_bit_for_bit():
    rng = np.random.default_rng(11)
    blocks = [_random_block(rng, s) for s in SHAPES]
    got = svdvals(blocks)
    assert len(got) == len(blocks)
    for b, sv in zip(blocks, got):
        want = np.linalg.svd(b, compute_uv=False)
        assert sv.shape == want.shape and sv.dtype == want.dtype
        assert sv.tobytes() == want.tobytes()


def test_stacked_hermitian_eigh_matches_one_block_calls_bit_for_bit():
    rng = np.random.default_rng(13)
    shapes = [s for s in SHAPES if s[0] == s[1]] + [(2, 2), (0, 0), (3, 3)]
    blocks = [_random_block(rng, s, hermitian=True) for s in shapes]
    got = hermitian_eigh(blocks)
    assert len(got) == len(blocks)
    for h, (vals, vecs) in zip(blocks, got):
        want_vals, want_vecs = np.linalg.eigh(h)  # h is exactly Hermitian
        assert vals.tobytes() == want_vals.tobytes() and vals.shape == want_vals.shape
        assert vecs.tobytes() == want_vecs.tobytes() and vecs.shape == want_vecs.shape


@pytest.mark.parametrize("where", [0, 2, 4])
def test_stacked_hermitian_eigh_rejects_any_non_hermitian_member(where):
    rng = np.random.default_rng(17)
    blocks = [_random_block(rng, (2, 2), hermitian=True) for _ in range(5)]
    blocks[where] = blocks[where] + np.array([[0.0, 1e-6], [0.0, 0.0]])
    with pytest.raises(WshmError):
        hermitian_eigh(blocks)


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
