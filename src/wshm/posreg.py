"""Positive regular polynomials and the modules they generate.

A positive regular polynomial in m variables is P(z) = sum_t a_t z^{alpha_t},
stored as its term list ``PositiveRegularPoly.terms``: the pairs (a_t,
alpha_t) in graded-lex order, so the m linear terms a_t z_t (a_t > 0) come
first, in variable order, and the higher terms (a_t >= 0, |alpha_t| >= 2)
follow.  Every sum over P's terms reads that one list.  H_P has monomial
weights ||z^beta||^2 = 1 / delta_beta, where delta is the coefficient table
of (1 - P)^{-1}, computed by the exact recurrence

    delta_0 = 1,    delta_beta = sum_t a_t delta_{beta - alpha_t}

(terms with a negative index dropped).  All-minus signs are used inside the
inverted series: with a plus on the higher-order part the deltas go
nonpositive and the rank-one projection identity fails, which is surfaced as
a SignConventionError rather than silently accepted.

The comparison module lives in the Drury-Arveson space with one variable per
term: term t is Z_t.  It is graded by n_t = |alpha_t|, and the comparison map
sends Z^beta to sqrt(c(beta)) z^{sigma(beta)}, with sigma(beta) = sum_t
beta_t alpha_t and c(beta) = prod_t a_t^{beta_t}.  The associated ideal is
generated by Q_t = Z_t - lambda_t Z^{alpha_t} for the higher terms, with
lambda_t^2 = a_t / c(alpha_t) always rational even when lambda_t is not.
Level dimensions of the ideal are computed on the rescaled generators
Z_t -> lambda_t Z_t (a diagonal, grading-preserving change of variables, so
every weighted level dimension is unchanged), and kernel membership is
checked on squared coefficient data; both paths are exact rational
arithmetic, no radicals needed.

The rank-one identity I - sum_t a_t M^{alpha_t} M^{alpha_t *} = P_0 is read
off H_P's exact blocks, from the one defect function of ``operators`` given
P's term list.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    GradedPolynomial,
    MultiIndex,
    WeightVector,
    add_index,
    enumerate_level,
    enumerate_weighted_level,
    grlex_key,
    sub_index,
    unit_index,
)
from .errors import SignConventionError, WshmError
from .exact_linalg import fraction_sqrt
from .ideals import GradedIdeal, ideal_level_dimension
from .operators import _sum_of_squares_defect, full_realization
from .spaces import WeightedShiftSpace, builtin_space


@dataclass(frozen=True)
class PositiveRegularPoly:
    """Exact data of a positive regular polynomial P = sum_t a_t z^{alpha_t}.

    ``terms`` holds the pairs (a_t, alpha_t) in graded-lex order, as the
    parsed polynomial lists them: the m linear terms first, in variable
    order, then the higher ones.  Term t is the comparison variable Z_t.
    """

    m: int
    terms: tuple[tuple[Fraction, MultiIndex], ...]

    def __post_init__(self):
        m = self.m
        if m < 1:
            raise WshmError("need one positive linear coefficient per variable")
        if [alpha for _, alpha in self.terms[:m]] != [unit_index(m, i) for i in range(m)]:
            raise WshmError("every variable needs a positive linear term")
        if any(a <= 0 for a in self.linear):
            raise WshmError(f"linear coefficients must be positive, got {self.linear}")
        seen = set()
        for a, alpha in self.higher:
            if a < 0:
                raise WshmError(f"higher coefficients must be >= 0, got {a}")
            if len(alpha) != m or sum(alpha) < 2:
                raise WshmError(f"higher multi-index must have degree >= 2, got {alpha}")
            if alpha in seen:
                raise WshmError(f"duplicate higher multi-index {alpha}")
            seen.add(alpha)

    @property
    def linear(self) -> tuple[Fraction, ...]:
        return tuple(a for a, _ in self.terms[: self.m])

    @property
    def higher(self) -> tuple[tuple[Fraction, MultiIndex], ...]:
        return self.terms[self.m :]

    @staticmethod
    def from_polynomial(p: GradedPolynomial) -> "PositiveRegularPoly":
        """Build from a parsed polynomial with rational coefficients."""
        terms = []
        for alpha, c in p.terms():
            if not c.is_real():
                raise WshmError(f"coefficients must be real rationals, got {c}")
            if not sum(alpha):
                raise WshmError("constant terms are not allowed")
            terms.append((c.re, alpha))
        return PositiveRegularPoly(p.m, tuple(terms))

    def __str__(self) -> str:
        return " + ".join(
            f"{a}*"
            + "*".join(f"z{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(alpha) if e)
            for a, alpha in self.terms
        )


class DeltaTable:
    """Lazy exact table of the kernel coefficients delta_beta."""

    def __init__(self, poly: PositiveRegularPoly):
        self.poly = poly
        self._delta: dict[MultiIndex, Fraction] = {(0,) * poly.m: Fraction(1)}
        self._level = 0

    def ensure(self, degree: int) -> None:
        while self._level < degree:
            k = self._level + 1
            for beta in enumerate_level(self.poly.m, k):
                acc = Fraction(0)
                for a, alpha in self.poly.terms:
                    prev = sub_index(beta, alpha)
                    if prev is not None:
                        acc += a * self._delta[prev]
                if acc <= 0:
                    raise SignConventionError(
                        f"delta_{beta} = {acc} <= 0: kernel coefficient positivity "
                        "failed (sign convention violation)"
                    )
                self._delta[beta] = acc
            self._level = k

    def delta(self, beta: MultiIndex) -> Fraction:
        self.ensure(sum(beta))
        return self._delta[beta]

    def table(self, degree: int) -> dict[MultiIndex, Fraction]:
        self.ensure(degree)
        return {
            b: self._delta[b]
            for k in range(degree + 1)
            for b in enumerate_level(self.poly.m, k)
        }


def delta_coefficients(poly: PositiveRegularPoly, degree: int) -> dict[MultiIndex, Fraction]:
    """The exact table beta -> delta_beta for |beta| <= degree."""
    return DeltaTable(poly).table(degree)


def hp_space(poly: PositiveRegularPoly) -> WeightedShiftSpace:
    """The module H_P with weights omega(beta) = 1/delta_beta, its delta
    table grown on demand."""
    table = DeltaTable(poly)

    def weight(beta: MultiIndex) -> Fraction:
        return 1 / table.delta(beta)

    return WeightedShiftSpace(
        "positive-regular", poly.m, weight, params={"poly": str(poly)}
    )


@dataclass
class ProjectionCheck:
    """Outcome of the rank-one defect identity test on H_P."""

    degree: int
    passed: bool
    failures: list[tuple[MultiIndex, Fraction]]


def defect_projection_check(poly: PositiveRegularPoly, degree: int) -> ProjectionCheck:
    """Verify I - sum_t a_t M^{alpha_t} M^{alpha_t *} = P_0 on H_P.

    The operator is the sum-of-squares defect of P's term list, in exact
    blocks on the levels 0..degree of H_P.  It is diagonal in the monomial
    basis; its eigenvalue at z^beta must be 1 on the constant and 0 for every
    0 < |beta| <= degree.
    """
    realization = full_realization(hp_space(poly), degree)
    defect = _sum_of_squares_defect(realization, False, poly.terms)
    failures: list[tuple[MultiIndex, Fraction]] = []
    for k in range(degree + 1):
        expected = 1 if k == 0 else 0
        for beta, val in zip(realization.level(k).monomials, defect.diagonal(k)):
            if val != expected:
                failures.append((beta, val.re))
    return ProjectionCheck(degree, not failures, failures)


@dataclass
class JPData:
    """Generators and weight of the comparison ideal J_P.

    ``lambda_sq`` is always exact; ``lambda_exact`` holds the rational square
    root when one exists (None otherwise), one entry per higher term.
    ``generators`` are the literal Q_t when every lambda is rational;
    ``rescaled_generators`` (Z_t - Z^{alpha_t}) span an ideal with identical
    weighted level dimensions and are what the exact row reduction consumes.
    """

    poly: PositiveRegularPoly
    total_vars: int
    weight: WeightVector
    lambda_sq: tuple[Fraction, ...]
    lambda_exact: tuple[Fraction | None, ...]
    rescaled_generators: tuple[GradedPolynomial, ...]
    generators: tuple[GradedPolynomial, ...] | None

    def rescaled_ideal(self) -> GradedIdeal:
        return GradedIdeal(self.total_vars, self.rescaled_generators, weight=self.weight)

    def to_json_dict(self) -> dict:
        return {
            "total_vars": self.total_vars,
            "weight": list(self.weight),
            "lambda_sq": [str(x) for x in self.lambda_sq],
            "lambda": [str(x) if x is not None else None for x in self.lambda_exact],
            "generators": [str(g) for g in self.generators]
            if self.generators is not None
            else [f"Z{self.poly.m + 1 + j} - lambda*Z^{list(a)}" for j, (_, a) in enumerate(self.poly.higher)],
        }


def _embed(alpha: MultiIndex, total: int) -> MultiIndex:
    return tuple(alpha) + (0,) * (total - len(alpha))


def jp_data(poly: PositiveRegularPoly) -> JPData:
    """Generators Q_t = Z_t - lambda_t Z^{alpha_t}, one per higher term t, and
    the grading n_t = |alpha_t|."""
    total = len(poly.terms)
    weight = tuple(sum(alpha) for _, alpha in poly.terms)
    lam_sq, lam, resc = [], [], []
    literal: list[GradedPolynomial] | None = []
    for t in range(poly.m, total):
        a, alpha = poly.terms[t]
        l2 = a / _sqrt_coeff_sq(poly, alpha)
        lam_sq.append(l2)
        root = fraction_sqrt(l2)
        lam.append(root)
        var = unit_index(total, t)
        emb = _embed(alpha, total)
        gen = GradedPolynomial(total, {var: 1, emb: -1})
        if not gen.is_quasi_homogeneous(weight):
            raise WshmError(f"generator for term {alpha} is not quasi-homogeneous")
        resc.append(gen)
        if literal is not None and root is not None:
            literal.append(GradedPolynomial(total, {var: 1, emb: -root}))
        else:
            literal = None
    return JPData(
        poly, total, weight, tuple(lam_sq), tuple(lam), tuple(resc),
        tuple(literal) if literal is not None else None,
    )


def _sqrt_coeff_sq(poly: PositiveRegularPoly, beta: MultiIndex) -> Fraction:
    """Squared magnitude c(beta) = prod_t a_t^{beta_t} of the comparison map
    on Z^beta; a beta shorter than the term list reads the first terms."""
    acc = Fraction(1)
    for e, (a, _) in zip(beta, poly.terms):
        if e:
            acc *= a**e
    return acc


def _sigma(poly: PositiveRegularPoly, beta: MultiIndex) -> MultiIndex:
    """Image exponent sigma(beta) = sum_t beta_t alpha_t."""
    out = [0] * poly.m
    for e, (_, alpha) in zip(beta, poly.terms):
        if e:
            for i, ai in enumerate(alpha):
                out[i] += e * ai
    return tuple(out)


@dataclass
class XpLevel:
    """One weighted level of the comparison map in orthonormal coordinates."""

    ell: int
    domain: list[MultiIndex]
    images: list[MultiIndex]
    entry_sq: list[Fraction]
    singular_sq: list[Fraction]
    singular_values: list[float]
    rank: int

    @property
    def kernel_dim(self) -> int:
        return len(self.domain) - self.rank


def xp_blocks(data: JPData, ell_max: int) -> list[XpLevel]:
    """Per-weighted-level matrices of the comparison map of ``data.poly``.

    Each domain monomial maps to a single image monomial, so the squared
    singular values are the per-image column sums of the squared entries --
    exact rationals; the float tier only takes their square roots.
    """
    poly = data.poly
    table = DeltaTable(poly)
    table.ensure(ell_max)
    da_weight = builtin_space("drury-arveson", data.total_vars).weight
    out = []
    for ell in range(ell_max + 1):
        domain = enumerate_weighted_level(data.total_vars, data.weight, ell)
        images = []
        entry_sq = []
        col_sums: dict[MultiIndex, Fraction] = {}
        for beta in domain:
            gamma = _sigma(poly, beta)
            csq = _sqrt_coeff_sq(poly, beta)
            if csq:
                esq = csq / (da_weight(beta) * table.delta(gamma))
                col_sums[gamma] = col_sums.get(gamma, Fraction(0)) + esq
            else:
                esq = Fraction(0)
            images.append(gamma)
            entry_sq.append(esq)
        targets = sorted(col_sums, key=grlex_key)
        singular_sq = [col_sums[g] for g in targets]
        svals = sorted((float(s) ** 0.5 for s in singular_sq), reverse=True)
        svals += [0.0] * (len(domain) - len(svals))
        out.append(
            XpLevel(ell, domain, images, entry_sq, singular_sq, svals, len(targets))
        )
    return out


@dataclass
class KernelLevel:
    ell: int
    dim_kernel: int
    dim_ideal: int
    equal: bool
    containment_ok: bool
    witness: str | None


def kernel_vs_ideal(data: JPData, levels: list[XpLevel]) -> list[KernelLevel]:
    """Compare ker(comparison map) with the ideal level at each weighted level
    of ``levels``, the :func:`xp_blocks` of ``data``.

    Kernel dimension: exact, as (level dimension) - (number of distinct image
    monomials hit with a nonzero coefficient).  Ideal dimension: exact row
    reduction of the rescaled generators.  Containment of the ideal level in
    the kernel is verified element-wise on squared coefficient data: each
    spanning element Z^beta Q_j maps both its terms to the same image
    monomial, and membership says the squared magnitudes cancel.
    """
    poly, ideal = data.poly, data.rescaled_ideal()
    m = poly.m
    out = []
    for ell, xl in enumerate(levels):
        dim_ker = xl.kernel_dim
        dim_ideal = ideal_level_dimension(ideal, ell)
        ok = True
        witness = None
        for j, (_, alpha) in enumerate(poly.higher):
            rem = ell - data.weight[m + j]
            if rem < 0:
                continue
            for beta in enumerate_weighted_level(data.total_vars, data.weight, rem):
                b1 = add_index(beta, unit_index(data.total_vars, m + j))
                b2 = add_index(beta, _embed(alpha, data.total_vars))
                t1, t2 = _sigma(poly, b1), _sigma(poly, b2)
                c1 = _sqrt_coeff_sq(poly, b1)
                c2 = data.lambda_sq[j] * _sqrt_coeff_sq(poly, b2)
                if t1 != t2 or c1 != c2:
                    ok = False
                    witness = (
                        f"Z^{list(beta)} * Q_{m + j + 1}: targets {t1} vs {t2}, "
                        f"squared coefficients {c1} vs {c2}"
                    )
                    break
            if not ok:
                break
        out.append(KernelLevel(ell, dim_ker, dim_ideal, dim_ker == dim_ideal, ok, witness))
    return out


@dataclass
class ModuleMapCheck:
    passed: bool
    witness: str | None


def xp_module_map_check(data: JPData, ell_max: int) -> ModuleMapCheck:
    """Verify the comparison map of ``data.poly`` intertwines multiplication, exactly.

    For every variable Z_i and every domain monomial, the image of Z_i Z^beta
    must equal (image of Z_i) * (image of Z^beta) both in target exponent and
    in squared coefficient.
    """
    poly, total = data.poly, data.total_vars
    for i, (gen_sq, gen_sigma) in enumerate(poly.terms):
        for ell in range(ell_max - data.weight[i] + 1):
            for beta in enumerate_weighted_level(total, data.weight, ell):
                lifted = add_index(beta, unit_index(total, i))
                lhs = (_sigma(poly, lifted), _sqrt_coeff_sq(poly, lifted))
                rhs = (
                    add_index(_sigma(poly, beta), gen_sigma),
                    _sqrt_coeff_sq(poly, beta) * gen_sq,
                )
                if lhs != rhs:
                    return ModuleMapCheck(
                        False,
                        f"Z{i + 1} * Z^{list(beta)}: {lhs} vs {rhs}",
                    )
    return ModuleMapCheck(True, None)
