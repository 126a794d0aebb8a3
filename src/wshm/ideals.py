"""Graded ideals: per-level bases, Hilbert functions and series, residue
decompositions.

An ideal's one grading is its weight vector n, all ones by default (plain):
every generator must be quasi-homogeneous for n, with a single weighted
degree n.alpha over its terms.  Its level-ell component

    J_ell = span{ z^beta g_j : wdeg(beta) + wdeg(g_j) = ell }

has a deterministic echelon basis, exact over the Gaussian rationals, with
pivots in weighted-degree-then-lex order: eliminated up to a certified
Groebner degree and built from the levels below past it, one way for every n
(see :meth:`GradedIdeal.level_data`).  Span dimension is field-linear and
independent of any space's weights, so no tolerance can corrupt a count.

The Hilbert series of a plain quotient R/I is read off the leading monomials
that the levels certify (see :func:`hilbert_series`), so its dimension,
multiplicity and Hilbert polynomial are exact and need no window of levels.
The residue decomposition reports, per level, the dimensions of the
intersections with the residue pieces H^n(alpha) and the defect

    defect(ell) = dim J_ell - sum_alpha dim(J_ell ^ H^n(alpha)) >= 0,

which is reported as data and never asserted to vanish: the class-wise sum is
a direct sum inside J_ell, but a generator may straddle residue classes.  A
plain ideal has the one class alpha = 0 and defect 0.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import exact_linalg as ela
from .algebra import (
    GradedPolynomial,
    MultiIndex,
    WeightVector,
    add_index,
    check_weight_vector,
    enumerate_weighted_level,
    grlex_key,
    residue_of,
)
from .errors import ModeError


class GradedIdeal:
    """A finitely generated graded ideal with exact-coefficient generators."""

    def __init__(
        self,
        m: int,
        generators: Sequence[GradedPolynomial],
        weight: WeightVector | None = None,
    ):
        gens = tuple(g for g in generators if not g.is_zero)
        self.m = m
        self.generators = gens
        self.weight: WeightVector = check_weight_vector((1,) * m if weight is None else weight, m)
        for g in gens:
            if g.m != m:
                raise ModeError(f"generator over {g.m} variables in an m={m} ideal")
            if not g.is_quasi_homogeneous(self.weight):
                raise ModeError(f"generator not quasi-homogeneous for n={self.weight}: {g}")
        self._gen_degrees = tuple(g.weighted_degree(self.weight) for g in gens)
        # each generator's terms as a primitive Gaussian-integer row, made once
        self._gen_terms = tuple(list(ela.integral(dict(g.terms())).items()) for g in gens)
        self._level_cache: dict[int, tuple[list[int], list[ela.Row], list[MultiIndex]]] = {}
        self.groebner_leads: list[MultiIndex] = []
        self.k0: int | None = None

    def _require_plain(self) -> None:
        """For formulas that assume unit degrees, n = (1, ..., 1)."""
        if self.weight != (1,) * self.m:
            raise ModeError(f"operation requires a plain-homogeneous ideal, not n={self.weight}")

    def level_data(self, ell: int) -> tuple[list[int], list[ela.Row], list[MultiIndex]]:
        """(pivot columns, reduced rows, monomial column order) at level ell.

        Each row is primitive, nonzero at its pivot and zero in every other
        pivot column; divided by its pivot entry it is the RREF row.  Levels
        fill in ascending order, up to ``k0`` as :func:`ela.rref` of the products
        z^beta g_j.  k0 is the first k >= D*(k), the top generator degree or
        n.lcm(a, b) over pairs of ``groebner_leads`` (pivots of levels <= k not
        e_i plus one of level k - n_i) that share a variable and whose lcm l
        no third lead c divides with lcm(a, c) and lcm(b, c) both proper
        divisors of l.  Their S-pairs reduce to 0 (in the eliminated levels,
        alone if coprime, or by induction on l through (a, c) and (b, c)), so
        they lead a Groebner basis (Buchberger's criteria), and each level
        past k0 is :meth:`_extend` of the levels below (rows need not have
        rref's scale).
        """
        if ell >= 0 and ell not in self._level_cache:
            for k in range(len(self._level_cache), ell + 1):
                self._level_cache[k] = self._eliminate(k) if self.k0 is None else self._extend(k)
        return self._level_cache.get(ell, ([], [], []))

    def _eliminate(self, k: int) -> tuple[list[int], list[ela.Row], list[MultiIndex]]:
        monomials = enumerate_weighted_level(self.m, self.weight, k)
        col_of = {a: j for j, a in enumerate(monomials)}
        rows = [{col_of[add_index(a, beta)]: c for a, c in terms}
                for terms, dg in zip(self._gen_terms, self._gen_degrees)
                for beta in enumerate_weighted_level(self.m, self.weight, k - dg)]
        pivots, red = ela.rref(rows, len(monomials))
        parent, leads = self._parents(k, monomials), self.groebner_leads
        leads += [monomials[p] for p in pivots if p not in parent]
        # the pairs Buchberger's product and chain criteria leave (see level_data)
        pairs = [sum(map(operator.mul, self.weight, l))
                 for a, b in itertools.combinations(leads, 2) for l in [tuple(map(max, a, b))]
                 if any(map(min, a, b)) and not any(
                     all(map(operator.le, c, l)) and tuple(map(max, a, c)) != l != tuple(map(max, b, c))
                     for c in leads)]
        if k >= max([*self._gen_degrees, *pairs], default=0):
            self.k0 = k
        return pivots, red, monomials

    def _parents(self, k: int, monomials: list[MultiIndex]) -> dict[int, tuple[list[int], ela.Row]]:
        """{column of gamma: (up, row of gamma - e_i at level k - n_i)} over
        leading monomials gamma - e_i, for the last such i (so tails stay
        standard); up maps level k - n_i's columns to level k's under z_i, which
        keeps the levels' lex order and maps level k - n_i one to one onto the
        monomials with a_i >= 1: up is their column list."""
        parent = {}
        for i in reversed(range(self.m)):  # the first variable found is the last such i
            pivots_p, red_p, _ = self._level_cache.get(k - self.weight[i], ([], [], []))
            if pivots_p:
                up = [j for j, a in enumerate(monomials) if a[i]]
                for p, row in zip(pivots_p, red_p):
                    parent.setdefault(up[p], (up, row))
        return parent

    def _extend(self, k: int) -> tuple[list[int], list[ela.Row], list[MultiIndex]]:
        """Level k > k0 by rref's back phase alone: each parent row (level k - n_i)
        times z_i, its tail pivots cleared against rows of smaller leading monomials."""
        monomials = enumerate_weighted_level(self.m, self.weight, k)
        parent = self._parents(k, monomials)
        red: dict[int, ela.Row] = {}
        for p in sorted(parent, reverse=True):
            up, row = parent[p]
            row = {up[c]: v for c, v in row.items()}
            for c in [c for c in row if c in red]:
                row = ela.combine(red[c][c], row, row[c], red[c])
            red[p] = row
        pivots = sorted(red)
        return pivots, [red[p] for p in pivots], monomials

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators) or "0"
        tag = f" quasi{self.weight}" if self.weight != (1,) * self.m else ""
        return f"GradedIdeal<{gens}>{tag}"


def graded_basis(ideal: GradedIdeal, k: int) -> list[GradedPolynomial]:
    """Echelon basis of I_k = span{z^beta g_j : n.beta + n.g_j = k}, each
    row divided by its pivot entry."""
    pivots, red, monomials = ideal.level_data(k)
    return [
        GradedPolynomial(ideal.m, {monomials[c]: v / row[p] for c, v in row.items()})
        for p, row in zip(pivots, red)
    ]


def ideal_level_dimension(ideal: GradedIdeal, ell: int) -> int:
    return len(ideal.level_data(ell)[0])


def hilbert_function(ideal: GradedIdeal, k: int) -> int:
    """dim I_k^perp, the level's monomial count minus dim I_k (weight-free)."""
    pivots, _, monomials = ideal.level_data(k)
    return len(monomials) - len(pivots)


def _numerator(leads: list[MultiIndex]) -> list[int]:
    """K(t), constant first, with HS(R/J) = K(t) / (1 - t)^m for J = (leads):
    N(J + (z^a)) = N(J) - t^|a| N(J : z^a) (Bayer-Stillman), on minimal
    generators."""
    gens = set(leads)
    gens = [a for a in gens if not any(b != a and all(map(operator.le, b, a)) for b in gens)]
    if not gens:
        return [1]
    a, rest = gens[0], gens[1:]
    colon = _numerator([tuple(max(x - y, 0) for x, y in zip(b, a)) for b in rest])
    shift = sum(a)
    out = _numerator(rest) + [0] * (shift + len(colon))
    for j, c in enumerate(colon):
        out[shift + j] -= c
    while out and not out[-1]:
        out.pop()
    return out


class HilbertSeries(NamedTuple):
    """HS(t) = sum_k HF(k) t^k = Q(t) / (1 - t)^d of R/I, with Q(1) != 0.

    ``numerator`` holds Q's coefficients (constant first), ``dimension`` is
    d = dim Z(I) and ``multiplicity`` is e = Q(1); ``coefficients`` are the
    Hilbert polynomial's in powers of k (constant first).
    """

    numerator: tuple[int, ...]
    dimension: int
    multiplicity: int
    coefficients: tuple[Fraction, ...]

    @property
    def bounded_dimension(self) -> int | None:
        """M_0 = the eventual dim S_k^perp when HP is constant, else None."""
        return {0: 0, 1: self.multiplicity}.get(self.dimension)

    def hf(self, k: int) -> int:
        """HF(k) = dim S_k^perp, the t^k coefficient of HS."""
        d, q = self.dimension, self.numerator[:k + 1]
        if d == 0:
            return q[k] if k < len(q) else 0
        return sum(c * math.comb(k - j + d - 1, d - 1) for j, c in enumerate(q))

    @property
    def stabilization_degree(self) -> int:
        """The least K with HF(k) = HP(k) for every k >= K.  Q = R (1 - t)^d + S
        with deg S < d, and S / (1 - t)^d has HP's values at every k >= 0, so
        HF - HP is R's coefficients: zero past deg R = deg Q - d, not at it."""
        return max(len(self.numerator) - self.dimension, 0)

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "coefficients": [str(c) for c in self.coefficients],
                "stabilization_degree": self.stabilization_degree}


def hilbert_series(ideal: GradedIdeal) -> HilbertSeries:
    """The exact Hilbert series of R/I, read off the certified staircase.

    R/I and R/LM(I) share their Hilbert function (Macaulay), and
    ``groebner_leads`` generate LM(I) once ``k0`` is set, so levels are
    eliminated up to k0 and no further.
    """
    ideal._require_plain()
    k = 0
    while ideal.k0 is None:
        ideal.level_data(k)
        k += 1
    q, d = _numerator(ideal.groebner_leads), ideal.m
    while d and not sum(q):  # divide by 1 - t: prefix sums, the last is q(1) = 0
        q, d = list(itertools.accumulate(q))[:-1], d - 1
    # HP(k) = sum_j q_j C(k - j + d - 1, d - 1), each binomial a product of
    # the d - 1 factors (k - j + i) / (d - 1)!
    coeffs = [Fraction(0)] * max(d, 1)
    for j, c in enumerate(q if d else ()):
        basis = [Fraction(c, math.factorial(d - 1))]
        for i in range(1, d):
            basis = [x * (i - j) + y for x, y in zip(basis + [0], [0] + basis)]
        coeffs = [x + y for x, y in zip(coeffs, basis)]
    return HilbertSeries(tuple(q), d, sum(q), tuple(coeffs))


class ResidueLevel(NamedTuple):
    ell: int
    dim_total: int
    class_dims: dict[MultiIndex, int]
    defect: int


class ResidueDecomposition(NamedTuple):
    """Per-level residue class dimensions of an ideal under its grading n."""

    weight: WeightVector
    levels: list[ResidueLevel]

    @property
    def max_defect(self) -> int:
        return max((lv.defect for lv in self.levels), default=0)


def residue_decompose(ideal: GradedIdeal, ell_max: int) -> ResidueDecomposition:
    """Dimensions of J_ell ^ H^n(alpha) per level and residue class.

    dim(J_ell ^ H^n(alpha)) is the nullity of the coordinate projection of
    J_ell onto the monomials *outside* the class, computed by exact rank.
    """
    n = ideal.weight
    levels = []
    for ell in range(ell_max + 1):
        pivots, red, monomials = ideal.level_data(ell)
        dim_total = len(pivots)
        classes = sorted({residue_of(a, n) for a in monomials}, key=grlex_key)
        class_dims: dict[MultiIndex, int] = {}
        for cls in classes:
            keep = {j for j, a in enumerate(monomials) if residue_of(a, n) == cls}
            projected = []
            for row in red:
                pr = {c: v for c, v in row.items() if c not in keep}
                if pr:
                    projected.append(pr)
            r = ela.rank(projected, len(monomials))
            class_dims[cls] = dim_total - r
        defect = dim_total - sum(class_dims.values())
        levels.append(ResidueLevel(ell, dim_total, class_dims, defect))
    return ResidueDecomposition(n, levels)
