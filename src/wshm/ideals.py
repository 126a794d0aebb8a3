"""Graded ideals: per-level bases, Hilbert functions, residue decompositions.

An ideal is *plain* homogeneous (every generator has a single total degree)
or *quasi-homogeneous* for a weight vector n (every generator has a single
weighted degree).  Levels are exact over the Gaussian rationals (see
:meth:`GradedIdeal.level_data`) -- span dimension is field-linear and
independent of any space's weights, so no tolerance can corrupt a count.

The level-ell component of an ideal J in quasi(n) mode is

    J_ell = span{ z^beta g_j : wdeg(beta) + wdeg(g_j) = ell },

reduced to a deterministic echelon basis with graded-lex pivots.  The residue
decomposition reports, per level, the dimensions of the intersections with
the residue pieces H^n(alpha) and the defect

    defect(ell) = dim J_ell - sum_alpha dim(J_ell ^ H^n(alpha)) >= 0,

which is reported as data and never asserted to vanish: the class-wise sum is
a direct sum inside J_ell, but a generator may straddle residue classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import exact_linalg as ela
from .algebra import (
    GradedPolynomial,
    MultiIndex,
    WeightVector,
    add_index,
    check_weight_vector,
    enumerate_weighted_level,
    grlex_key,
    level_dimension,
    residue_of,
)
from .errors import ModeError, WshmError


class GradedIdeal:
    """A finitely generated graded ideal with exact-coefficient generators."""

    def __init__(
        self,
        m: int,
        generators: Sequence[GradedPolynomial],
        weight: WeightVector | None = None,
    ):
        gens = tuple(g for g in generators if not g.is_zero)
        for g in gens:
            if g.m != m:
                raise ModeError(f"generator over {g.m} variables in an m={m} ideal")
        self.m = m
        self.generators = gens
        if weight is None:
            self.mode = "plain"
            self.weight: WeightVector = tuple([1] * m)
            for g in gens:
                if not g.is_homogeneous:
                    raise ModeError(f"non-homogeneous generator in plain mode: {g}")
        else:
            self.mode = "quasi"
            self.weight = check_weight_vector(weight, m)
            for g in gens:
                if not g.is_quasi_homogeneous(self.weight):
                    raise ModeError(
                        f"generator not quasi-homogeneous for n={self.weight}: {g}"
                    )
        self._gen_degrees = tuple(g.weighted_degree(self.weight) for g in gens)
        # each generator's terms as a primitive Gaussian-integer row, made once
        self._gen_terms = tuple(list(ela.integral(dict(g.terms())).items()) for g in gens)
        self._level_cache: dict[int, tuple[list[int], list[ela.Row], list[MultiIndex]]] = {}
        self.groebner_leads: list[MultiIndex] = []
        self.k0: int | None = None

    @property
    def is_zero_ideal(self) -> bool:
        return not self.generators

    def max_generator_degree(self) -> int | None:
        return max(self._gen_degrees, default=None)

    def _require_plain(self) -> None:
        if self.mode != "plain":
            raise ModeError("operation requires a plain-homogeneous ideal")

    def level_data(self, ell: int) -> tuple[list[int], list[ela.Row], list[MultiIndex]]:
        """(pivot columns, reduced rows, monomial column order) at level ell.

        Each row is primitive, nonzero at its pivot and zero in every other
        pivot column; divided by its pivot entry it is the RREF row.  Quasi
        levels and plain levels up to ``k0`` are :func:`ela.rref` of the
        products z^beta g_j.  Plain levels fill in ascending order; k0 is the
        first k >= D*(k), the top generator degree or deg lcm over pairs of
        ``groebner_leads`` (pivots of levels <= k not e_i plus one of the level
        below).  Their S-pairs then reduce to 0 in the eliminated levels, so
        they lead a Groebner basis (Buchberger's criterion), and each level
        past k0 is :meth:`_extend` of the one below (rows need not have rref's scale).
        """
        if ell >= 0 and ell not in self._level_cache:
            for k in range(len(self._level_cache) if self.mode == "plain" else ell, ell + 1):
                self._level_cache[k] = self._eliminate(k) if self.k0 is None else self._extend(k)
        return self._level_cache.get(ell, ([], [], []))

    def _eliminate(self, k: int) -> tuple[list[int], list[ela.Row], list[MultiIndex]]:
        monomials = enumerate_weighted_level(self.m, self.weight, k)
        col_of = {a: j for j, a in enumerate(monomials)}
        rows = [{col_of[add_index(a, beta)]: c for a, c in terms}
                for terms, dg in zip(self._gen_terms, self._gen_degrees)
                for beta in enumerate_weighted_level(self.m, self.weight, k - dg)]
        pivots, red = ela.rref(rows, len(monomials))
        if self.mode == "plain":
            parent, leads = self._parents(k, monomials), self.groebner_leads
            leads += [monomials[p] for p in pivots if p not in parent]
            pairs = [sum(map(max, a, b)) for a in leads for b in leads]
            if k >= max([*self._gen_degrees, *pairs], default=0):
                self.k0 = k
        return pivots, red, monomials

    def _parents(self, k: int, monomials: list[MultiIndex]) -> dict[int, tuple[list[int], ela.Row]]:
        """{column of gamma: (up, row of gamma - e_i at level k - 1)} over leading
        monomials gamma - e_i, for the last such i (so tails stay standard); up
        maps level k - 1's columns to level k's under multiplication by z_i.
        Levels are in lex order and z_i keeps that order, mapping level k - 1
        one to one onto the monomials with a_i >= 1: up is their column list."""
        pivots_p, red_p, _ = self._level_cache.get(k - 1, ([], [], []))
        parent = {}
        for i in range(self.m):  # a later variable overwrites an earlier one
            up = [j for j, a in enumerate(monomials) if a[i]]
            parent.update((up[p], (up, row)) for p, row in zip(pivots_p, red_p))
        return parent

    def _extend(self, k: int) -> tuple[list[int], list[ela.Row], list[MultiIndex]]:
        """Level k > k0 by rref's back phase alone: each parent row times z_i,
        its tail pivots cleared against the rows of smaller leading monomials."""
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
        tag = f" quasi{self.weight}" if self.mode == "quasi" else ""
        return f"GradedIdeal<{gens}>{tag}"


def graded_basis(ideal: GradedIdeal, k: int) -> list[GradedPolynomial]:
    """Echelon basis of I_k = span{z^beta g_j : |beta| + deg g_j = k}, each
    row divided by its pivot entry."""
    ideal._require_plain()
    pivots, red, monomials = ideal.level_data(k)
    return [
        GradedPolynomial(ideal.m, {monomials[c]: v / row[p] for c, v in row.items()})
        for p, row in zip(pivots, red)
    ]


def ideal_level_dimension(ideal: GradedIdeal, ell: int) -> int:
    return len(ideal.level_data(ell)[0])


def hilbert_function(ideal: GradedIdeal, k: int) -> int:
    """dim I_k^perp = dim H_k - dim I_k (weight-free)."""
    ideal._require_plain()
    return level_dimension(ideal.m, k) - ideal_level_dimension(ideal, k)


@dataclass
class HilbertData:
    """Level dimension table and the fitted eventual polynomial.

    ``table`` rows are (k, dim I_k, dim H_k, dim S_k^perp).  When the Newton
    fit over the final window+1 values reproduces the preceding window
    values, ``stabilized`` is set, ``coefficients`` holds the power-basis
    coefficients (constant first) and ``stabilization_degree`` is the least K
    from which the polynomial matches every computed value.
    """

    window: int
    table: list[tuple[int, int, int, int]]
    stabilized: bool
    coefficients: tuple[Fraction, ...] | None
    stabilization_degree: int | None

    @property
    def degree(self) -> int | None:
        if self.coefficients is None:
            return None
        return len(self.coefficients) - 1

    @property
    def bounded_dimension(self) -> int | None:
        """M_0 when the fit is a degree-0 polynomial, else None."""
        if self.stabilized and self.degree == 0:
            return int(self.coefficients[0])
        return None

    def to_json_dict(self) -> dict:
        return {
            "window": self.window,
            "table": [list(r) for r in self.table],
            "stabilized": self.stabilized,
            "coefficients": [str(c) for c in self.coefficients]
            if self.coefficients is not None
            else None,
            "stabilization_degree": self.stabilization_degree,
        }


def _newton_fit(xs: list[int], ys: list[Fraction]) -> tuple[Fraction, ...]:
    """Power-basis coefficients of the Newton forward-difference polynomial
    through the equally spaced points (xs[i], ys[i])."""
    n = len(xs)
    diffs = list(ys)
    layers = [diffs[0]]
    for level in range(1, n):
        diffs = [diffs[i + 1] - diffs[i] for i in range(len(diffs) - 1)]
        layers.append(diffs[0])
    x0 = xs[0]
    # poly = sum_j layers[j] * C(x - x0, j), expanded exactly
    coeffs = [Fraction(0)] * n
    basis = [Fraction(1)]  # C(x-x0, 0) = 1
    for j in range(n):
        for t, b in enumerate(basis):
            coeffs[t] += layers[j] * b
        # multiply basis by (x - x0 - j) / (j + 1)
        nxt = [Fraction(0)] * (len(basis) + 1)
        for t, b in enumerate(basis):
            nxt[t + 1] += b
            nxt[t] += b * (-(x0 + j))
        basis = [b / (j + 1) for b in nxt]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


# levels in each half of the Hilbert-Samuel fit's double window
FIT_WINDOW = 5


def hilbert_samuel_fit(ideal: GradedIdeal, k_max: int | None = None) -> HilbertData:
    """Fit the eventual polynomial of k -> dim S_k^perp over levels 0..k_max.

    Newton forward differences on the last window+1 values (window =
    ``FIT_WINDOW``); the fit is accepted only if it also reproduces the
    preceding window values (double-window confirmation).  A failed
    confirmation is a reported outcome (stabilized=False), not an error.
    ``k_max`` defaults to the smallest level the fit accepts, 2 * FIT_WINDOW +
    max generator degree.
    """
    ideal._require_plain()
    maxdeg = ideal.max_generator_degree() or 0
    if k_max is None:
        k_max = 2 * FIT_WINDOW + maxdeg
    if k_max < 2 * FIT_WINDOW + maxdeg:
        raise WshmError(
            f"k_max={k_max} too small: need >= 2*window + max generator degree "
            f"= {2 * FIT_WINDOW + maxdeg}"
        )
    table = []
    perp: list[Fraction] = []
    for k in range(k_max + 1):
        di = ideal_level_dimension(ideal, k)
        dh = level_dimension(ideal.m, k)
        table.append((k, di, dh, dh - di))
        perp.append(Fraction(dh - di))

    base = k_max - FIT_WINDOW
    xs = list(range(base, k_max + 1))
    coeffs = _newton_fit(xs, perp[base:])

    def fits(k: int) -> bool:
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * k + c
        return acc == perp[k]

    confirm = range(k_max - 2 * FIT_WINDOW, base)
    if not all(fits(k) for k in confirm):
        return HilbertData(FIT_WINDOW, table, False, None, None)

    K = base
    while K > 0 and fits(K - 1):
        K -= 1
    return HilbertData(FIT_WINDOW, table, True, coeffs, K)


@dataclass
class ResidueLevel:
    ell: int
    dim_total: int
    class_dims: dict[MultiIndex, int]
    defect: int


@dataclass
class ResidueDecomposition:
    """Per-level residue class dimensions of a quasi-homogeneous ideal."""

    weight: WeightVector
    levels: list[ResidueLevel] = field(default_factory=list)

    @property
    def max_defect(self) -> int:
        return max((lv.defect for lv in self.levels), default=0)


def residue_decompose(ideal: GradedIdeal, ell_max: int) -> ResidueDecomposition:
    """Dimensions of J_ell ^ H^n(alpha) per level and residue class.

    dim(J_ell ^ H^n(alpha)) is the nullity of the coordinate projection of
    J_ell onto the monomials *outside* the class, computed by exact rank.
    """
    if ideal.mode != "quasi":
        raise ModeError("residue_decompose requires quasi mode")
    n = ideal.weight
    out = ResidueDecomposition(weight=n)
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
        out.levels.append(ResidueLevel(ell, dim_total, class_dims, defect))
    return out
