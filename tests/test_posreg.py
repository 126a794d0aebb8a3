import dataclasses
import math
from fractions import Fraction

import pytest

from wshm import exact_linalg as ela
from wshm import operators
from wshm.algebra import enumerate_level, enumerate_weighted_level
from wshm.diagnostics import normality_report, trace_identity
from wshm.errors import WshmError
from wshm.ideals import ideal_level_dimension
from wshm.operators import full_realization
from wshm.parsing import parse_polynomial
from wshm.posreg import (
    DeltaTable,
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


def preg(text, m):
    return PositiveRegularPoly.from_polynomial(parse_polynomial(text, m))


P_DA2 = "z1+z2"
P_FLAG = "1/2*z1+1/2*z2+1/4*z1*z2"
P_ONE = "1/2*z1+1/2*z1^2"


def test_positive_regular_validation():
    with pytest.raises(WshmError):
        preg("z1", 2)  # missing a linear term
    with pytest.raises(WshmError):
        preg("-z1+z2", 2)  # nonpositive linear coefficient
    with pytest.raises(WshmError):
        preg("z1+z2+1", 2)  # constant term
    with pytest.raises(WshmError):
        preg("z1+i*z2", 2)  # non-real coefficient
    p = preg(P_FLAG, 2)
    assert p.terms == ((Fraction(1, 2), (1, 0)), (Fraction(1, 2), (0, 1)), (Fraction(1, 4), (1, 1)))
    assert p.linear == (Fraction(1, 2), Fraction(1, 2))
    assert p.higher == ((Fraction(1, 4), (1, 1)),)


def test_terms_are_graded_lex_with_linear_terms_first():
    p = preg("1/8*z2^3+1/8*z1*z2+1/4*z1^2+1/4*z2+1/4*z1", 2)
    assert [alpha for _, alpha in p.terms] == [(1, 0), (0, 1), (2, 0), (1, 1), (0, 3)]
    assert str(p) == "1/4*z1 + 1/4*z2 + 1/4*z1^2 + 1/8*z1*z2 + 1/8*z2^3"
    data = jp_data(p)
    assert data.weight == (1, 1, 2, 2, 3)  # n_t = |alpha_t|
    assert data.lambda_sq == (Fraction(4), Fraction(2), Fraction(8))


def test_delta_geometric_series():
    table = delta_coefficients(preg("z1", 1), 10)
    assert all(v == 1 for v in table.values())


def test_delta_multinomial():
    table = delta_coefficients(preg(P_DA2, 2), 6)
    for beta, v in table.items():
        expected = Fraction(math.factorial(sum(beta)), math.factorial(beta[0]) * math.factorial(beta[1]))
        assert v == expected
    assert table[(1, 1)] == 2


def test_delta_hand_recurrence():
    # delta_0..delta_3 for (1/2)z + (1/2)z^2, computed by hand:
    # 1, 1/2, (1/2)(1/2)+(1/2) = 3/4, (1/2)(3/4)+(1/2)(1/2) = 5/8
    table = delta_coefficients(preg(P_ONE, 1), 3)
    assert [table[(k,)] for k in range(4)] == [
        Fraction(1),
        Fraction(1, 2),
        Fraction(3, 4),
        Fraction(5, 8),
    ]


def test_delta_all_positive():
    table = delta_coefficients(preg(P_FLAG, 2), 10)
    assert all(v > 0 for v in table.values())


def test_hp_space_reproduces_drury_arveson():
    hp = hp_space(preg(P_DA2, 2))
    da = builtin_space("drury-arveson", 2)
    for k in range(21):
        for alpha in enumerate_level(2, k):
            assert hp.weight(alpha) == da.weight(alpha)


def test_hp_space_examples():
    hp1 = hp_space(preg("z1", 1))
    assert all(hp1.weight((k,)) == 1 for k in range(8))
    assert hp_space(preg(P_ONE, 1)).weight((2,)) == Fraction(4, 3)


@pytest.mark.parametrize("text,m", [(P_DA2, 2), (P_FLAG, 2), (P_ONE, 1)])
def test_defect_projection_identity(text, m):
    chk = defect_projection_check(preg(text, m), 12)
    assert chk.passed and not chk.failures


def test_defect_projection_identity_below_a_term_degree():
    # the z1^9 term has no product block below level 9; levels 0..8 still pass
    chk = defect_projection_check(preg("1/2*z1+1/2*z1^9", 1), 8)
    assert chk.passed and chk.degree == 8


def test_defect_projection_identity_skips_a_zero_term():
    # a higher coefficient may be 0; its term adds no product to the defect
    poly = PositiveRegularPoly(
        2, ((Fraction(1, 2), (1, 0)), (Fraction(1, 2), (0, 1)), (Fraction(0), (1, 1)))
    )
    assert defect_projection_check(poly, 6).passed


def test_full_space_defects_and_commutators_build_no_product(monkeypatch):
    # on the full space the P-defect, the m-shift's defect and codefect and
    # every C(z_i, z_j) are read off the reciprocal weights: no check or report
    # builds a multiplier, adjoint, product or difference block
    calls = []
    for mod, name in [(operators, "_coinvariant_block"), (operators, "_adjoint_block"),
                      (operators, "_compose_block"), (operators, "_sub_block"),
                      (ela, "mat_mul"), (ela, "mat_sub")]:
        fn = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    poly = preg(P_FLAG, 2)
    for _ in range(50):
        assert defect_projection_check(poly, 8).passed
    for m in (2, 3):
        r = full_realization(builtin_space("hardy-ball", m), 7)
        normality_report(r, 5, [2.0, 4.0])
        assert all(trace_identity(r, k).exact_match for k in range(7))  # defect and codefect
    assert calls == []


def test_jp_data_flagship():
    data = jp_data(preg(P_FLAG, 2))
    assert data.total_vars == 3
    assert data.weight == (1, 1, 2)
    assert data.lambda_sq == (Fraction(1),)
    assert data.lambda_exact == (Fraction(1),)
    assert [str(g) for g in data.generators] == ["z3 - z1*z2"]
    for g in data.rescaled_generators:
        assert g.is_quasi_homogeneous(data.weight)
        assert g.weighted_degree(data.weight) == 2


def test_jp_data_irrational_lambda():
    data = jp_data(preg(P_ONE, 1))
    assert data.lambda_sq == (Fraction(2),)
    assert data.lambda_exact == (None,)
    assert data.generators is None
    assert data.weight == (1, 2)


def test_jp_data_no_higher_terms():
    data = jp_data(preg(P_DA2, 2))
    assert data.total_vars == 2 and data.weight == (1, 1)
    assert data.rescaled_generators == ()
    assert ideal_level_dimension(data.rescaled_ideal(), 3) == 0


def test_xp_blocks_level_two_example():
    # domain {Z1^2, Z2}; squared image coefficients 1/4 and 1/2
    xb = xp_blocks(jp_data(preg(P_ONE, 1)), 4)
    lvl = xb[2]
    assert lvl.domain == [(2, 0), (0, 1)]
    assert lvl.images == [(2,), (2,)]
    assert lvl.kernel_dim == 1 and lvl.rank == 1
    # normalized: entries 1/3 + 2/3 sum to the squared singular value 1
    assert lvl.entry_sq == [Fraction(1, 3), Fraction(2, 3)]
    assert lvl.singular_sq == [Fraction(1)]


def test_xp_blocks_level_zero_identity():
    xb = xp_blocks(jp_data(preg(P_FLAG, 2)), 0)
    assert xb[0].domain == [(0, 0, 0)]
    assert xb[0].singular_values == [1.0]


@pytest.mark.parametrize("text,m", [(P_FLAG, 2), (P_ONE, 1), (P_DA2, 2)])
def test_xp_blocks_exact_coisometry_and_contractivity(text, m):
    for lvl in xp_blocks(jp_data(preg(text, m)), 8):
        assert all(s == 1 for s in lvl.singular_sq)
        if lvl.singular_values:
            assert lvl.singular_values[0] <= 1.0 + 1e-10


def brute_force_kernel_dim(poly, data, ell):
    """Oracle: kernel dim = #domain - #distinct images with nonzero weight,
    recomputed from scratch with independent enumeration."""
    domain = enumerate_weighted_level(data.total_vars, data.weight, ell)
    images = set()
    for beta in domain:
        out = list(beta[: poly.m])
        coeff = 1.0
        for i, a in enumerate(poly.linear):
            coeff *= float(a) ** beta[i]
        for j, (a, alpha) in enumerate(poly.higher):
            e = beta[poly.m + j]
            coeff *= float(a) ** e
            for t, at in enumerate(alpha):
                out[t] += e * at
        if coeff:
            images.add(tuple(out))
    return len(domain) - len(images)


@pytest.mark.parametrize("text,m", [(P_FLAG, 2), (P_ONE, 1)])
def test_kernel_vs_ideal_equality(text, m):
    poly = preg(text, m)
    data = jp_data(poly)
    levels = kernel_vs_ideal(data, xp_blocks(data, 8))
    for lv in levels:
        assert lv.containment_ok
        assert lv.equal, (lv.ell, lv.dim_kernel, lv.dim_ideal)
        assert lv.dim_kernel == brute_force_kernel_dim(poly, data, lv.ell)


def test_kernel_vs_ideal_hand_example():
    data = jp_data(preg(P_ONE, 1))
    levels = kernel_vs_ideal(data, xp_blocks(data, 2))
    assert [(lv.dim_kernel, lv.dim_ideal) for lv in levels] == [(0, 0), (0, 0), (1, 1)]


def test_kernel_containment_negative_control():
    poly = preg(P_ONE, 1)
    data = jp_data(poly)
    corrupted = dataclasses.replace(data, lambda_sq=(data.lambda_sq[0] + 1,))
    levels = kernel_vs_ideal(corrupted, xp_blocks(corrupted, 4))
    bad = [lv for lv in levels if not lv.containment_ok]
    assert bad and bad[0].witness is not None


@pytest.mark.parametrize("text,m", [(P_DA2, 2), (P_FLAG, 2), (P_ONE, 1)])
def test_module_map_intertwining(text, m):
    assert xp_module_map_check(jp_data(preg(text, m)), 8).passed


def test_delta_table_is_lazy_and_consistent():
    table = DeltaTable(preg(P_FLAG, 2))
    v = table.delta((3, 2))
    table.ensure(8)
    assert table.delta((3, 2)) == v
