import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from wshm.algebra import (
    G_ONE,
    GradedPolynomial,
    enumerate_level,
    enumerate_weighted_level,
    level_dimension,
    residue_of,
)
from wshm.errors import ArityError, DimensionError, WshmError
from wshm.operators import full_realization
from wshm.spaces import WeightedShiftSpace, builtin_space, weighted_piece


def kernel_series_weights(m, power, degree):
    """Independent oracle for the ball-type weights.

    Expands (1 - (z_1 + ... + z_m))^{-power} as a series: the binomial layer
    b_k = b_{k-1} (power + k - 1)/k times the coefficient of z^alpha in
    (z_1 + ... + z_m)^k, the latter by repeated exact polynomial
    multiplication.  The weight is the reciprocal coefficient.
    """
    s = GradedPolynomial(m, {tuple(1 if j == i else 0 for j in range(m)): 1 for i in range(m)})
    out = {}
    b = Fraction(1)
    power_poly = GradedPolynomial.constant(m, 1)
    for k in range(degree + 1):
        if k > 0:
            b = b * Fraction(power + k - 1, k)
            power_poly = power_poly * s
        for alpha in enumerate_level(m, k):
            c = power_poly.coefficient(alpha)
            out[alpha] = 1 / (b * c.re)
    return out


@pytest.mark.parametrize("m", [1, 2, 3])
def test_drury_arveson_weights_match_kernel_expansion(m):
    da = builtin_space("drury-arveson", m)
    oracle = kernel_series_weights(m, 1, 6)
    for alpha, w in oracle.items():
        assert da.weight(alpha) == w


@pytest.mark.parametrize("m", [1, 2, 3])
def test_hardy_bergman_weights_match_kernel_expansion(m):
    hb = builtin_space("hardy-ball", m)
    bb = builtin_space("bergman-ball", m)
    for alpha, w in kernel_series_weights(m, m, 6).items():
        assert hb.weight(alpha) == w
    for alpha, w in kernel_series_weights(m, m + 1, 6).items():
        assert bb.weight(alpha) == w


def test_builtin_weight_examples():
    assert builtin_space("drury-arveson", 2).weight((1, 1)) == Fraction(1, 2)
    assert builtin_space("hardy-ball", 2).weight((1, 0)) == Fraction(1, 2)
    pd = builtin_space("polydisk-hardy", 3)
    assert pd.weight((4, 0, 2)) == 1


def test_builtin_aliases_and_errors():
    assert builtin_space("da", 2).kind == "drury-arveson"
    with pytest.raises(WshmError):
        builtin_space("nope", 2)
    with pytest.raises(ArityError):
        builtin_space("da", 0)
    with pytest.raises(WshmError):
        builtin_space("custom", 1)  # no weight supplied
    bad = builtin_space("custom", 1, {"table": {(0,): Fraction(1), (1,): Fraction(-1)}})
    with pytest.raises(WshmError):
        bad.weight((1,))


def test_shift_ratio_examples():
    assert builtin_space("da", 2).shift_ratio((0, 0), 0) == 1
    assert builtin_space("polydisk-hardy", 2).shift_ratio((3, 1), 1) == 1
    assert builtin_space("bergman-ball", 2).shift_ratio((0, 0), 0) == Fraction(1, 3)
    with pytest.raises(DimensionError):
        builtin_space("da", 2).shift_ratio((0, 0), 2)


@pytest.mark.parametrize("kind", ["drury-arveson", "hardy-ball", "bergman-ball"])
def test_ratio_closed_form_consistent_with_weights(kind):
    space = builtin_space(kind, 3)
    for k in range(6):
        for alpha in enumerate_level(3, k):
            for i in range(3):
                up = tuple(a + (1 if j == i else 0) for j, a in enumerate(alpha))
                assert space.shift_ratio(alpha, i) == space.weight(up) / space.weight(alpha)


def test_defect_equals_one_minus_sum_of_ratios():
    # deterministic sample up to degree 30
    for kind in ("drury-arveson", "hardy-ball", "bergman-ball", "polydisk-hardy"):
        space = builtin_space(kind, 2)
        for alpha in [(0, 0), (3, 2), (10, 7), (29, 1), (15, 15), (0, 30)]:
            expected = 1 - sum(space.shift_ratio(alpha, i) for i in range(2))
            assert space.spherical_defect(alpha) == expected


def test_hardy_defect_identically_zero():
    for m in (2, 3):
        hb = builtin_space("hardy-ball", m)
        for k in range(12):
            for alpha in enumerate_level(m, k):
                assert hb.spherical_defect(alpha) == 0


def test_da_and_bergman_defect_laws():
    # exact values at |alpha| = 10 and 100
    for m in (2, 3):
        da = builtin_space("drury-arveson", m)
        bb = builtin_space("bergman-ball", m)
        for k in (10, 100):
            alpha = (k - 1, 1) + (0,) * (m - 2)
            assert da.spherical_defect(alpha) == Fraction(1 - m, k + 1)
            assert bb.spherical_defect(alpha) == Fraction(1, k + m + 1)


def test_scaled_polydisk_defect_zero():
    pd = builtin_space("polydisk-hardy", 2, {"scale2": Fraction(1, 2)})
    for alpha in [(0, 0), (1, 0), (4, 3), (10, 10)]:
        assert pd.spherical_defect(alpha) == 0
    pd3 = builtin_space("polydisk-hardy", 3, {"scale2": "1/m"})
    assert pd3.spherical_defect((2, 1, 5)) == 0


def test_weighted_piece_examples():
    pd = builtin_space("polydisk-hardy", 1)
    piece = weighted_piece(pd, (2,), (1,))
    assert all(piece.weight((b,)) == 1 for b in range(6))

    hb1 = builtin_space("hardy-ball", 1)
    piece0 = weighted_piece(hb1, (2,), (0,))
    assert all(piece0.weight((b,)) == 1 for b in range(6))

    da = builtin_space("drury-arveson", 2)
    import math

    piece_da = weighted_piece(da, (2, 1), (1, 0))
    for b1 in range(4):
        for b2 in range(4):
            expected = Fraction(
                math.factorial(2 * b1 + 1) * math.factorial(b2),
                math.factorial(2 * b1 + 1 + b2),
            )
            assert piece_da.weight((b1, b2)) == expected


def test_weighted_piece_requires_residue_representative():
    da = builtin_space("drury-arveson", 2)
    with pytest.raises(DimensionError):
        weighted_piece(da, (2, 1), (2, 0))


def test_weighted_piece_positive_and_ratio_consistent():
    bb = builtin_space("bergman-ball", 2)
    piece = weighted_piece(bb, (2, 3), (1, 2))
    for k in range(4):
        for beta in enumerate_level(2, k):
            assert piece.weight(beta) > 0
            for i in range(2):
                up = tuple(b + (1 if j == i else 0) for j, b in enumerate(beta))
                assert piece.shift_ratio(beta, i) == piece.weight(up) / piece.weight(beta)


def test_piece_partition_check():
    def class_sizes(m, n, K):
        """Residue class -> number of monomials of degree <= K in it."""
        return Counter(residue_of(a, n) for k in range(K + 1) for a in enumerate_level(m, k))

    assert class_sizes(1, (2,), 5) == {(0,): 3, (1,): 3}
    assert class_sizes(2, (1, 1), 4) == {(0, 0): sum(level_dimension(2, k) for k in range(5))}
    sizes = class_sizes(2, (1, 2), 2)
    assert sizes == {(0, 0): 4, (0, 1): 2}
    # the classes partition the monomials: their sizes sum to sum_{k<=K} dim H_k
    assert sum(sizes.values()) == sum(level_dimension(2, k) for k in range(3)) == 6


def test_describe_serializes():
    import json

    da = builtin_space("da", 2)
    desc = da.describe(2)
    text = json.dumps(desc, sort_keys=True)
    assert "drury-arveson" in text and desc["sample_weights"][0]["omega"] == "1"


SPACE_MAKERS = pytest.mark.parametrize(
    "make",
    [
        lambda: builtin_space("da", 3),
        lambda: builtin_space("hardy-ball", 2),
        lambda: builtin_space("bergman-ball", 3),
        lambda: builtin_space("polydisk-hardy", 2, {"scale2": Fraction(2, 3)}),
        lambda: builtin_space("polydisk-hardy", 2, {"scale2": "5/2"}),
        lambda: builtin_space(
            "custom", 2,
            {"table": {a: Fraction(k + 1, 3 + j) for k in range(6)
                       for j, a in enumerate(enumerate_level(2, k))}},
        ),
        lambda: weighted_piece(builtin_space("da", 2), (2, 1), (1, 0)),
    ],
    ids=["da", "hardy-ball", "bergman-ball", "polydisk-scale2", "polydisk-5/2", "custom",
         "weighted-piece"],
)


@SPACE_MAKERS
def test_reciprocal_weights_are_ints_over_one_denominator(make):
    # reciprocal_weights(monos) = (r, D) with r[j] / D == 1 / weight(monos[j]),
    # on one level and on mixed degrees in any order; the kernel-power spaces
    # read D = 1 off their closed form (1 / omega is a multinomial coefficient)
    space = make()
    monos = [a for k in range(6) for a in enumerate_level(space.m, k)]
    e1 = (1,) + (0,) * (space.m - 1)
    shuffled = random.Random(0).sample(monos, len(monos))
    levels = [enumerate_level(space.m, k) for k in range(6)]
    for mixed in (*levels, monos, monos[::-1], shuffled, [e1, (2,) + e1[1:], (0,) * space.m]):
        r, den = space.reciprocal_weights(mixed)
        assert type(den) is int and den > 0 and all(type(x) is int for x in r)
        assert [Fraction(x, den) for x in r] == [1 / space.weight(a) for a in mixed]
        assert den == 1 or space.kind not in ("drury-arveson", "hardy-ball", "bergman-ball")


@SPACE_MAKERS
def test_level_weights_are_ints_over_one_denominator(make):
    # a full realization's level k stores z^alpha / omega(alpha) as the unit row
    # e_alpha, so its Gram norms / den are the level's weights 1 / omega as ints
    # over one denominator, the space's reciprocal weights of that level
    space = make()
    r = full_realization(space, 5)
    for k in range(5, -1, -1):  # higher levels first
        lv = r.level(k)
        monos = enumerate_level(space.m, k)
        assert lv.monomials == monos and lv.comp_rows == [{j: G_ONE} for j in range(len(monos))]
        assert type(lv.den) is int and lv.den > 0 and len(lv.norms) == len(monos)
        assert all(type(x) is int for x in lv.norms)
        assert [Fraction(x, lv.den) for x in lv.norms] == [1 / space.weight(a) for a in monos]
        assert (lv.norms, lv.den) == space.reciprocal_weights(monos)
    # a single level keeps its ints after the space has read higher levels
    fresh = make()
    for k in range(6):
        monos = enumerate_level(space.m, k)
        assert space.reciprocal_weights(monos) == fresh.reciprocal_weights(monos)


def test_kernel_power_reciprocal_weights_closed_form():
    # (|alpha|+shift-1)! / (alpha! (shift-1)!) over D = 1, read off the Pascal
    # table, equal to the generic method's ints (from the Fraction weights) on
    # plain and weighted levels and on mixed degrees in any order, also when a
    # higher level was read first, and equal to a fresh space's; [] is ([], 1)
    hb = builtin_space("hardy-ball", 2)
    hb.reciprocal_weights(enumerate_level(2, 9))
    assert hb.reciprocal_weights(enumerate_level(2, 2)) == ([3, 6, 3], 1)
    assert builtin_space("drury-arveson", 3).reciprocal_weights([(1, 2, 0), (0, 0, 4)]) == ([3, 1], 1)
    for kind, m in itertools.product(("drury-arveson", "hardy-ball", "bergman-ball"), range(1, 5)):
        space, fresh = builtin_space(kind, m), builtin_space(kind, m)
        top = {1: 40, 2: 40, 3: 14, 4: 10}[m]
        levels = [enumerate_level(m, k) for k in range(top + 1)]
        n = {2: (1, 2), 3: (2, 1, 3)}.get(m)
        weighted = [enumerate_weighted_level(m, n, k) for k in range(3 * top // 2 + 1)] if n else []
        mixed = [a for monos in levels[: top // 2] for a in monos]
        for monos in (*levels, *weighted, mixed[::-1], random.Random(m).sample(mixed, len(mixed))):
            assert space.reciprocal_weights(monos) == WeightedShiftSpace.reciprocal_weights(space, monos)
        for monos in levels[:4]:  # read after higher levels, and on a fresh space
            assert space.reciprocal_weights(monos) == fresh.reciprocal_weights(monos)
        assert space.reciprocal_weights([]) == fresh.reciprocal_weights([]) == ([], 1)
