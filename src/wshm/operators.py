"""Graded block realizations of multiplication operators and their adjoints.

Every operator here is graded: it maps the level-k coordinate space of a
module realization to level k + shift, one exact block per level.  Levels,
degrees, shifts and windows are weighted degrees n.alpha under the
realization's one grading n, its ideal's weight vector (all ones for the full
space, so a plain ideal's levels are total degrees).  Two arithmetic tiers
are kept strictly apart:

* exact tier -- bases, Gram diagonals, block entries, traces and dimensions
  are Gaussian-rational and never rounded;
* float tier -- norms, singular values and spectra are double precision, in
  orthonormal coordinates (each block scaled by the square roots of the Gram
  diagonals).  :func:`svd_map` reads a weighted partial permutation's singular
  values off its exact entries, each rounded once; :func:`onb_map` stacks the
  other blocks by shape, each shape going to floats and to SVD or eigh at once.

Truncation windows are explicit, and the realization is their one source.
Every block is exact on the levels it reads; reading a block at a level
outside [0, max_level], or one whose build reads such a level, raises
:class:`~wshm.errors.WindowError` -- silent truncation artifacts are the
main correctness hazard of this whole artifact.  A block into a level below
0 has no rows and is never built.

Evaluation is on demand.  An operator is its realization plus a hashable
recipe (shift, builder, arguments), and the realization keeps one block cache
keyed by recipe, so equal recipes share every block: a report builds the
levels and blocks it reads, each once per realization however often it is
assembled.  Every level stores each complement vector v by its Gram-applied
coordinates x = omega v, in which S_k^perp is a Euclidean complement under
the reciprocal weights 1 / omega.  M_p^* leaves S^perp invariant, so one
read-off of M_p^*, with no weight and no projection, serves every
realization, and M_p is its adjoint.  On a monomial realization (the full
space, or a quotient by single-term generators) the standard monomials'
vectors z^alpha / omega(alpha) are unit rows, so M_p^* has unit entries, and
a commutator of monomials (a weighted partial permutation) and a
sum-of-squares defect (diagonal) are read off the reciprocal weights; on any
other quotient they share one build of each multiplier, adjoint and product.

Conventions.  The weighted inner product is linear in the first argument,
``<u, v> = sum_gamma u_gamma conj(v_gamma) omega(gamma)``.  Every complement
basis {w_r} is orthogonal, so its Gram matrix is the diagonal
``G = diag(<w_r, w_r>)``; the adjoint of a block B at source level k is
``G_k^{-1} B^dagger G_{k+d}``, and the cross commutator is taken in the order

    commutator_blocks(f, g)  =  M_g^* M_f - M_f M_g^*,

so that for f = g = z on the unilateral shift the level-0 block is [1] (the
projection onto constants with a positive sign).
"""

from __future__ import annotations

import math
import operator
from functools import cached_property

import numpy as np

from . import exact_linalg as ela
from .algebra import (
    G_ONE,
    G_ZERO,
    GaussianRational,
    GradedPolynomial,
    MultiIndex,
    add_index,
    enumerate_weighted_level,
    unit_index,
    weighted_degree,
)
from .errors import ModeError, WindowError, WshmError
from .ideals import GradedIdeal
from .spaces import WeightedShiftSpace


def _sqrt_split(a: int, b: int) -> tuple[float, int]:
    """(x, s) with x * 2**s = sqrt(a / b), x from one correctly rounded int / int: s = 0
    while a / b is a normal double, else a / b is first scaled by 2**(-2s) into [1/4, 4)."""
    e = a.bit_length() - b.bit_length()
    s = 0 if -1000 < e < 1000 else e // 2
    return ((a << -2 * s) / b if s < 0 else a / (b << 2 * s)) ** 0.5, s


class _Level:
    """A level's geometry, with ``onb_scale`` and ``read_off`` cached on first read."""

    def __init__(
        self,
        monomials: list[MultiIndex],
        col_of: dict[MultiIndex, int],
        den: int,  # the reciprocal weights' common denominator
        # orthogonal Gaussian-integer complement basis, each vector v stored by its Gram-applied
        # coordinates x = omega v: <v, u> = sum_c x_c conj(y_c) / omega_c for u stored as y
        comp_rows: list[ela.Row],
        norms: list[int],  # den * <w_r, w_r>; <w_r, w_s> = 0 for r != s
        ideal_pivots: list[int],
        comp_of: dict[MultiIndex, int] | None = None,  # monomial: standard monomial -> coordinate
    ):
        self.monomials, self.col_of, self.den = monomials, col_of, den
        self.comp_rows, self.norms, self.ideal_pivots = comp_rows, norms, ideal_pivots
        self.comp_of = comp_of

    @cached_property
    def onb_scale(self) -> tuple[np.ndarray, np.ndarray]:
        """sqrt(g) for each Gram entry g = norms[r] / den as :func:`_sqrt_split` of g in
        lowest terms, built on first read: exact-only reports never round it."""
        split = [_sqrt_split(g // q, self.den // q) for g in self.norms
                 for q in [math.gcd(g, self.den)]]
        return np.array([x for x, _ in split]), np.array([s for _, s in split], dtype=int)

    @cached_property
    def read_off(self) -> tuple[list[int], list[tuple]]:
        """(free columns f_t, back-substitution triangle [(w_t[f_t], [(r, w_r[f_t]) for r > t])])."""
        pivots, rows = set(self.ideal_pivots), self.comp_rows
        free = [c for c in range(len(self.monomials)) if c not in pivots]
        return free, [(rows[t][f], [(i, rows[i][f]) for i in range(t + 1, len(rows)) if f in rows[i]])
                      for t, f in enumerate(free)]


class ModuleRealization:
    """Per-level exact orthogonal bases of an ambient space modulo an optional ideal.

    Every level stores its complement basis in Gram-applied coordinates
    x = omega v, where S_k^perp = {v : <v, u> = 0 for u in S_k} is the
    Euclidean complement and the Gram is diagonal under the reciprocal
    weights 1 / omega.  The realization is monomial when each generator of
    its ideal is one term (the full space has none): S_k^perp is then
    spanned by the standard monomials, which no generator exponent divides,
    their vectors z^alpha / omega(alpha) stored as unit rows.  Otherwise S_k
    is the reduced echelon basis of the ideal level, and the complement
    basis is Gaussian-integer kernel vectors read off that echelon form in
    closed form, orthogonalised by fraction-free Gram-Schmidt under 1 / omega.
    Level k holds the monomials of weighted degree k under ``weight``, the
    ideal's n.  Plain dicts memoise the work: ``_levels`` holds each level up
    to ``max_level`` from its first read (with what :class:`_Level` caches),
    ``_blocks`` the blocks built so far of each :class:`GradedOperator`
    recipe, by source level, and ``_polys`` each polynomial's (d, terms, den):
    its weighted degree and its terms c z^beta as ints (beta, Re, Im) over a
    common denominator.  None refers to the realization, so
    there is no reference cycle.  A realization is not safe to share between
    threads without a lock, and no caller may mutate a block it reads.
    """

    def __init__(
        self,
        space: WeightedShiftSpace,
        ideal: GradedIdeal | None,
        max_level: int,
    ):
        if max_level < 0:
            raise WindowError(f"max_level must be >= 0, got {max_level}")
        if ideal is not None and ideal.m != space.m:
            raise ModeError("ideal and space variable counts disagree")
        self.space = space
        self.ideal = ideal
        self.weight = (1,) * space.m if ideal is None else ideal.weight
        gens = () if ideal is None else ideal.generators
        self._exponents = [a for g in gens for a in g.support()]
        self.is_monomial = len(self._exponents) == len(gens)
        self.max_level = max_level
        self._levels: dict[int, _Level] = {}
        self._blocks: dict[tuple, dict[int, list[ela.Row]]] = {}
        self._polys: dict[GradedPolynomial, tuple[int, list[tuple], int]] = {}

    def _build_level(self, k: int) -> _Level:
        m, w = self.space.m, self.weight
        if not self.is_monomial:  # the ideal's level columns are enumerate_weighted_level's monomials
            pivots, red, monomials = self.ideal.level_data(k)
            r, den = self.space.reciprocal_weights(monomials)
            comp, norms = ela.orthogonalize(ela.complement_kernel(pivots, red, len(r)), r)
            return _Level(monomials, {a: j for j, a in enumerate(monomials)}, den, comp, norms, pivots)
        monomials = enumerate_weighted_level(m, w, k)
        r, den = self.space.reciprocal_weights(monomials)
        col_of = {a: j for j, a in enumerate(monomials)}
        # the ideal's level is spanned by its monomials e + b, e a generator exponent
        in_ideal = {col_of[add_index(e, b)] for e in self._exponents
                    for b in enumerate_weighted_level(m, w, k - weighted_degree(e, w))}
        std = [j for j in range(len(r)) if j not in in_ideal] if in_ideal else range(len(r))
        comp_of = {monomials[j]: t for t, j in enumerate(std)} if in_ideal else col_of
        return _Level(monomials, col_of, den, [{j: G_ONE} for j in std],
                      [r[j] for j in std] if in_ideal else r, sorted(in_ideal), comp_of)

    # -- level geometry -------------------------------------------------

    def _check_level(self, k: int) -> None:
        if k < 0 or k > self.max_level:
            raise WindowError(
                f"level {k} outside realization window [0, {self.max_level}]"
            )

    def level(self, k: int) -> _Level:
        lv = self._levels.get(k)
        if lv is None:  # only levels in the window are ever stored
            self._check_level(k)
            lv = self._levels[k] = self._build_level(k)
        return lv

    def degree(self, p: GradedPolynomial) -> int:
        """p's weighted degree n.alpha, kept with its integer terms when an operator's recipe
        is built, never per block; p must be nonzero and homogeneous for n (one pass)."""
        got = self._polys.get(p)
        if got is None:
            degs = {sum(map(operator.mul, a, self.weight)) for a, _ in p.terms()}
            if p.m != self.space.m or len(degs) != 1:
                raise ModeError(f"operator polynomials must be nonzero in the realization's "
                                f"variable count and homogeneous for n={self.weight}, got {p}")
            num, den = ela.over_common_denominator(dict(p.terms()))
            got = self._polys[p] = (degs.pop(), [(b, c._a, c._b) for b, c in num.items()], den)
        return got[0]

    def comp_dim(self, k: int) -> int:
        """dim S_k^perp; zero below level 0."""
        return len(self.level(k).comp_rows) if k >= 0 else 0

    def project_to_complement(self, k: int, coords: ela.Row, den: int) -> ela.Row:
        """Complement coordinates <coords, w_s> / (den <w_s, w_s>) of the orthogonal
        projection of a Gaussian-integer monomial-coordinate row ``coords`` / den at
        level k, zeros dropped (against Gram-applied rows x_s, <coords, w_s> = sum_c
        coords_c conj(x_s[c])): the reference that tests check multiplier blocks
        against (no block is built by projection)."""
        lv = self.level(k)
        return ela.project(coords, den, lv.comp_rows, lv.norms, [lv.den] * len(lv.monomials))


def full_realization(space: WeightedShiftSpace, max_level: int) -> ModuleRealization:
    return ModuleRealization(space, None, max_level)


def quotient_realization(
    space: WeightedShiftSpace, ideal: GradedIdeal, max_level: int
) -> ModuleRealization:
    """Realization of H / [I] with exact bases of S_k and S_k^perp to max_level."""
    return ModuleRealization(space, ideal, max_level)


class GradedOperator:
    """A graded operator as a family of per-level exact blocks.

    Block k maps level-k complement coordinates to level-(k + shift)
    coordinates: one sparse row per target coordinate, its shape given by
    :meth:`block_shape`.  Blocks whose target level is negative have no rows
    (the operator kills those levels) and are never built.  Block k is
    ``build(realization, k, *args)``, built on first read and kept in the
    realization's cache under ``recipe = (shift, build, *args)``, each
    operator argument entering as its own recipe; operators with equal
    recipes share every block, so no caller may mutate one.  :meth:`block`
    raises WindowError when k, or a level its build reads, lies outside the
    realization's levels.
    """

    def __init__(self, realization: ModuleRealization, shift: int, build, *args):
        self.realization = realization
        self.shift = shift
        self.build = build
        self.args = args
        self.recipe = (shift, build, *(a.recipe if isinstance(a, GradedOperator) else a
                                       for a in args))
        # fetched once: a block read hashes no recipe
        self._cache = realization._blocks.setdefault(self.recipe, {})

    def block(self, k: int) -> list[ela.Row]:
        block = self._cache.get(k)
        if block is None:  # only blocks at levels in the window are ever stored
            self.realization._check_level(k)
            # a block into a level below 0 has no rows: no builder sees one
            block = self._cache[k] = (self.build(self.realization, k, *self.args)
                                      if k + self.shift >= 0 else [])
        return block

    def block_shape(self, k: int) -> tuple[int, int]:
        r = self.realization
        return (r.comp_dim(k + self.shift), r.comp_dim(k))

    def diagonal(self, k: int) -> list[GaussianRational]:
        """The exact diagonal of block k of a degree-0 operator."""
        return [row.get(j, G_ZERO) for j, row in enumerate(self.block(k))]

    # -- float tier -----------------------------------------------------

    def onb_block(self, k: int) -> np.ndarray:
        """The block in orthonormal coordinates (norms become honest): the
        one-item case of :func:`onb_map`."""
        return onb_map(lambda stack: stack, [(self, k)])[0]

    def norm(self, k: int) -> float:
        return float(self.singular_values(k).max(initial=0.0))

    def singular_values(self, k: int) -> np.ndarray:
        return svd_map(lambda sv: sv, [(self, k)])[0]


def onb_map(fn, items: list[tuple[GradedOperator, int]]) -> list:
    """``fn`` applied once per block shape to the (B, nr, nc) stack of the
    items' blocks (operator, level) in orthonormal coordinates, its results
    handed back per item in input order.  A shape's blocks cross to floats in
    one :func:`~wshm.exact_linalg.to_complex_array` call and are scaled by
    sqrt(g_t) / sqrt(g_s) in a one-block scaling's elementwise order, so each
    member keeps its bits; numpy runs LAPACK on each member of a stack in
    turn, so ``fn`` hands the stack to SVD or eigh as it is."""
    groups: dict[tuple[int, int], list[int]] = {}
    for n, (op, k) in enumerate(items):
        groups.setdefault(op.block_shape(k), []).append(n)
    out = [None] * len(items)
    for (nr, nc), idx in groups.items():
        group = [items[n] for n in idx]
        f = ela.to_complex_array([op.block(k) for op, k in group], nr, nc)
        if nr and nc:
            xt, st = map(np.array, zip(*(op.realization.level(k + op.shift).onb_scale
                                         for op, k in group)))
            xs, ss = map(np.array, zip(*(op.realization.level(k).onb_scale for op, k in group)))
            # one rounded ratio, 1.0 where g_t = g_s (a degree-0 block's diagonal), then an
            # exact power-of-two factor: with every s = 0 it is 1.0
            f = (f * (xt[:, :, None] / xs[:, None, :])
                 * np.ldexp(1.0, st[:, :, None] - ss[:, None, :]))
        for n, res in zip(idx, fn(f)):
            out[n] = res
    return out


def moduli_sq(op: GradedOperator, k: int) -> list[tuple[int, int]] | None:
    """Int pairs (a, d), a / d = |B_ts|^2 g_t / g_s, one per entry (t, s) of block k when it
    is a weighted partial permutation (at most one entry per row, no column twice: B^dagger B
    is diagonal): the squares of its singular values in orthonormal coordinates, exact.  Else
    None.  One pass over the block's rows makes the structural test and reads the squares."""
    block = op.block(k)
    if not block:  # no rows: the target level may lie below 0
        return []
    src, tgt = op.realization.level(k), op.realization.level(k + op.shift)
    tn, td, sn, sd = tgt.norms, tgt.den, src.norms, src.den
    out, cols = [], set()
    for t, row in enumerate(block):
        if row:
            if len(row) > 1:
                return None
            ((s, x),) = row.items()
            out.append(((x._a * x._a + x._b * x._b) * tn[t] * sd, x._d * x._d * td * sn[s]))
            cols.add(s)
    return out if len(cols) == len(out) else None


def svd_map(fn, items: list[tuple[GradedOperator, int]]) -> list:
    """``fn`` applied per stack of the items' (B, min(nr, nc)) descending singular values in
    orthonormal coordinates, results handed back in input order.  A weighted partial
    permutation's are the square roots of its :func:`moduli_sq`, each rounded once,
    zero-padded and stacked by length; other blocks take :func:`onb_map` and one SVD per
    shape."""
    out, rest, read = [None] * len(items), [], {}
    for n, (op, k) in enumerate(items):
        squares = moduli_sq(op, k)
        if squares is None:
            rest.append(n)
            continue
        sv = sorted([math.ldexp(*_sqrt_split(a, d)) for a, d in squares], reverse=True)
        size = min(len(op.block(k)), op.realization.comp_dim(k))  # min(block_shape)
        read.setdefault(size, []).append((n, sv + [0.0] * (size - len(sv))))
    for group in read.values():
        for (n, _), res in zip(group, fn(np.array([sv for _, sv in group]))):
            out[n] = res
    for n, res in zip(rest, onb_map(lambda stack: fn(svdvals(stack)), [items[n] for n in rest])):
        out[n] = res
    return out


def _identity_block(r: ModuleRealization, k: int) -> list[ela.Row]:
    return [{i: G_ONE} for i in range(r.comp_dim(k))]


def identity_blocks(realization: ModuleRealization) -> GradedOperator:
    return GradedOperator(realization, 0, _identity_block)


def _coinvariant_block(r: ModuleRealization, j: int, p: GradedPolynomial, d: int) -> list[ela.Row]:
    """Block j of the compressed M_p^* on any realization, with no projection: [I]
    is M_p-invariant, so y = M_p^* w_s lies in S_k^perp, k = j - d >= 0, d = deg p.
    In Gram-applied coordinates y_f = sum_beta conj(c_beta) w_s[f+beta] at a free
    column f, each w_s[f+beta] probed in w_s's stored entries, in integers over
    p's common denominator (``r._polys``).  Row w_t has free entries at f_0..f_t
    only: one back-substitution, whose triangle every p shares (``_Level.read_off``),
    gives y's coordinates.  On a monomial realization every w is a unit row at a
    standard monomial, so row alpha holds conj(c_beta) at each standard alpha + beta."""
    src, tgt = r.level(j - d), r.level(j)
    free, tri = src.read_off
    _, terms, den = r._polys[p]
    # reads[f] = [(column of f + beta, Re c_beta, Im c_beta)]
    reads = [[(tgt.col_of[add_index(src.monomials[f], b)], a, e) for b, a, e in terms] for f in free]
    dens = [den] * len(free)
    adj: list[ela.Row] = [{} for _ in free]
    for s, w in enumerate(tgt.comp_rows):
        y = []
        for read in reads:
            re = im = 0
            for c, a, e in read:
                x = w.get(c)
                if x is not None:
                    re += a * x._a + e * x._b
                    im += a * x._b - e * x._a
            y.append((re, im))
        for t, v in ela.back_substitute(y, dens, tri).items():
            adj[t][s] = v
    return adj


def _multiplier(r: ModuleRealization, p: GradedPolynomial) -> GradedOperator:
    """M_p, the adjoint of the read-off M_p^*."""
    d = r.degree(p)
    return GradedOperator(r, d, _adjoint_block, GradedOperator(r, -d, _coinvariant_block, p, d))


def mult_blocks(
    realization: ModuleRealization, p: GradedPolynomial, K: int
) -> GradedOperator:
    """Blocks of the compression of M_p to the realization's module.

    Column c holds the coordinates of the projection of p * w_c onto
    S_{k+d}^perp: the adjoint of M_p^*, whose blocks one read-off
    (:func:`_coinvariant_block`) gives by co-invariance on every
    realization.  On a monomial realization M_p^* has unit entries, so M_p
    maps the standard monomial alpha's vector to c_beta omega(alpha + beta) /
    omega(alpha) times that of each standard alpha + beta.  Every operator
    returned here for one realization and polynomial has the same recipe, so
    each block is built once and shared.  K only checks that the realization
    has levels to K + d; block k reads levels k and k + d.
    """
    d = realization.degree(p)
    if K < 0 or K + d > realization.max_level:
        raise WindowError(
            f"mult_blocks to K={K} needs realization levels to {K + d}, "
            f"have {realization.max_level}"
        )
    return _multiplier(realization, p)


def adjoint_blocks(op: GradedOperator) -> GradedOperator:
    """The adjoint in the weighted inner product: G_k^{-1} B_k^dagger G_{k+d}.

    With diagonal Grams each block is one pass over the stored entries: entry
    (c, r) of block j is conj(B[r][c]) * g_j[r] / g_{j-d}[c] for the block B
    of op at source level j - d.  A block j < d maps into a negative level
    and has no rows.  Block j reads levels j and j - d.  The adjoint of an adjoint is the operator itself, so M_p and
    M_p^* map to each other's recipes: M_p is the adjoint of the read-off
    M_p^* on every realization, and each is built once per realization,
    whichever is read first.
    """
    if op.build is _adjoint_block:
        return op.args[0]
    return GradedOperator(op.realization, -op.shift, _adjoint_block, op)


def _adjoint_block(r: ModuleRealization, j: int, op: GradedOperator) -> list[ela.Row]:
    """Block j of the adjoint of ``op``."""
    k = j - op.shift
    tgt, src = r.level(j), r.level(k)
    return ela.adjoint(op.block(k), tgt.norms, tgt.den, src.norms, src.den)


def compose(a: GradedOperator, b: GradedOperator) -> GradedOperator:
    """a after b: block j is a's block j + b.shift times b's block j."""
    assert a.realization is b.realization
    return GradedOperator(a.realization, a.shift + b.shift, _compose_block, a, b)


def _compose_block(r: ModuleRealization, j: int, a: GradedOperator, b: GradedOperator):
    mid = j + b.shift
    if mid < 0:  # b maps level j below level 0, and a maps that back to a level >= 0
        return [{} for _ in range(r.comp_dim(j + a.shift + b.shift))]
    return ela.mat_mul(a.block(mid), b.block(j))


def product_blocks(realization: ModuleRealization, p, q, adj_first: bool) -> GradedOperator:
    """M_q^* M_p if ``adj_first`` else M_p M_q^*.  A block raises WindowError
    only when it reads a level the realization lacks; equal products share
    their blocks."""
    mp, mq_adj = _multiplier(realization, p), adjoint_blocks(_multiplier(realization, q))
    return compose(mq_adj, mp) if adj_first else compose(mp, mq_adj)


def op_sub(a: GradedOperator, b: GradedOperator, c=1) -> GradedOperator:
    """a - c b for an exact scalar c."""
    assert a.realization is b.realization and a.shift == b.shift
    return GradedOperator(a.realization, a.shift, _sub_block, a, b, c)


def _sub_block(r: ModuleRealization, k: int, a: GradedOperator, b: GradedOperator, c):
    bk = b.block(k) if c == 1 else [{j: v * c for j, v in row.items()} for row in b.block(k)]
    return ela.mat_sub(a.block(k), bk)


def commutator_blocks(
    realization: ModuleRealization, f: GradedPolynomial, g: GradedPolynomial
) -> GradedOperator:
    """Blocks of the cross commutator M_g^* M_f - M_f M_g^*.

    Degree shift deg f - deg g; block k reads levels up to k + deg f.  For
    f = g each block is Hermitian (and on the unilateral shift the level-0
    block is [1]).  On a monomial realization the blocks are read off the
    reciprocal weights (:func:`_commutator_block`); on any other quotient
    they are the difference of the two products.
    """
    da, db = realization.degree(f), realization.degree(g)
    if realization.is_monomial:
        pairs = tuple((c * d.conjugate(), a, b) for a, c in f.terms() for b, d in g.terms())
        return GradedOperator(realization, da - db, _commutator_block, pairs, da, db)
    return op_sub(*(product_blocks(realization, f, g, t) for t in (True, False)))


def _commutator_block(r: ModuleRealization, k: int, pairs, da: int, db: int) -> list[ela.Row]:
    """Block k of C(f, g) on a monomial realization, f of degree da and g of
    degree db: v_x -> sum c conj(d) (w(x, a) - w(x - b, a)) v_{x+a-b} over the
    ``pairs`` (c conj(d), a, b) of terms c z^a of f and d z^b of g with x+a-b
    standard, v_x = z^x / omega(x), where w(y, a) = r(y) / r(y + a) for standard
    y and y + a and 0 otherwise, r = 1 / omega as ints.  One pair is a weighted
    partial permutation."""
    held = {j: r.level(j) for j in {k, k + da, k + da - db, k - db} if j >= 0}  # each once
    src, hi, tgt, lo = map(held.get, (k, k + da, k + da - db, k - db))
    block: list[ela.Row] = [{} for _ in tgt.comp_rows]
    for c, a, b in pairs:
        for col, x in enumerate(src.comp_of):
            y = add_index(x, a)
            t = tgt.comp_of.get(tuple(map(operator.sub, y, b)))
            if t is not None:
                h = hi.comp_of.get(y)  # None: y is not standard (x - b is, if it is a monomial)
                num, den = (src.norms[col] * hi.den, src.den * hi.norms[h]) if h is not None else (0, 1)
                s = lo.comp_of.get(tuple(map(operator.sub, x, b))) if lo else None
                if s is not None:
                    n, d = lo.norms[s] * tgt.den, lo.den * tgt.norms[t]
                    num, den = num * d - n * den, den * d
                if num:  # pairs with equal a - b meet here: add exactly
                    v, row = c.scaled(num, den), block[t]
                    row[col] = row[col] + v if col in row else v
    return block if len(pairs) == 1 else [{j: v for j, v in row.items() if v} for row in block]


def _defect_block(r: ModuleRealization, k: int, adj_first: bool, terms) -> list[ela.Row]:
    """Block k of a sum-of-squares defect on a monomial realization: diagonal,
    with entry 1 - sum_t a_t w(x, alpha_t) if ``adj_first``, else
    1 - sum_t a_t w(x - alpha_t, alpha_t) (w as in :func:`_commutator_block`),
    each summed as one integer ratio; ``terms`` are (a_t, alpha_t, deg alpha_t)."""
    src = r.level(k)
    acc = [(1, 1)] * len(src.comp_rows)
    for a, alpha, deg in terms:
        # w = r(z) / r(y), both standard: y = x + alpha over z = x, or x over x - alpha
        hi, lo = (r.level(k + deg), src) if adj_first else (src, r.level(k - deg) if k >= deg else None)
        for col, x in enumerate(src.comp_of):
            y, z = (add_index(x, alpha), x) if adj_first else (x, tuple(map(operator.sub, x, alpha)))
            h, s = hi.comp_of.get(y), lo.comp_of.get(z) if lo else None
            if h is not None and s is not None:  # subtract a_t w = wn / wd
                wn = a.numerator * lo.norms[s] * hi.den
                wd = a.denominator * lo.den * hi.norms[h]
                n, d = acc[col]
                acc[col] = (n * wd - wn * d, d * wd)
    return [{c: G_ONE.scaled(n, d)} if n else {} for c, (n, d) in enumerate(acc)]


def _sum_of_squares_defect(realization: ModuleRealization, adj_first: bool, terms=None):
    """I - sum_t a_t M_t^* M_t if ``adj_first`` else I - sum_t a_t M_t M_t^*,
    M_t = M_{z^{alpha_t}}, over the terms (a_t, alpha_t) of a positive regular
    P, by default the m-shift's (a_t = 1, alpha_t = e_i): one exact square
    block per level, diagonal and read off the reciprocal weights on a
    monomial realization (:func:`_defect_block`).  Otherwise term t is a_t times the
    product of M_q and M_q^*, q = z^{alpha_t}, so each term builds one
    multiplier and the m-shift shares C(z_i, z_i)'s products."""
    m = realization.space.m
    if terms is None:
        terms = [(1, unit_index(m, i)) for i in range(m)]
    terms = tuple(t for t in terms if t[0])  # a term with a_t = 0 adds nothing
    if realization.is_monomial:
        terms = tuple((a, alpha, weighted_degree(alpha, realization.weight)) for a, alpha in terms)
        return GradedOperator(realization, 0, _defect_block, adj_first, terms)
    acc = identity_blocks(realization)
    for a, alpha in terms:
        q = GradedPolynomial(m, {alpha: 1})
        acc = op_sub(acc, product_blocks(realization, q, q, adj_first), a)
    return acc


def defect_blocks(realization: ModuleRealization) -> GradedOperator:
    """I - sum_i M_{z_i}* M_{z_i}; block k reads levels k and k + 1."""
    return _sum_of_squares_defect(realization, True)


def codefect_blocks(realization: ModuleRealization) -> GradedOperator:
    """I - sum_i M_{z_i} M_{z_i}*, the X operator of the block-shift analysis;
    block k reads levels k - 1 and k."""
    return _sum_of_squares_defect(realization, False)


# relative asymmetry hermitian_eigh accepts as float rounding of a Hermitian block
HERMITIAN_TOL = 1e-10


def svdvals(stack: np.ndarray) -> np.ndarray:
    """The singular values of each member of a (B, nr, nc) stack, one SVD
    call (float tier)."""
    return np.linalg.svd(stack, compute_uv=False)


def hermitian_eigh(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of each member of a (B, n, n) stack, one
    eigh call (float tier).  Every member must be Hermitian within
    ``HERMITIAN_TOL`` relative to its size; its Hermitian part is decomposed."""
    ht = stack.conj().swapaxes(-1, -2)
    scale = np.maximum(1.0, np.abs(stack).max(axis=(-2, -1), initial=0.0))
    if (np.abs(stack - ht).max(axis=(-2, -1), initial=0.0) > HERMITIAN_TOL * scale).any():
        raise WshmError("a Hermitian spectrum requires Hermitian blocks")
    return np.linalg.eigh((stack + ht) / 2.0)


def pn_split(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectral split H = P - N with P, N >= 0 and P N = 0 (float tier) from
    one-member :func:`hermitian_eigh`: the test reference for section5."""
    vals, vecs = (a[0] for a in hermitian_eigh(np.asarray(h, dtype=complex)[None]))
    pos = vecs @ np.diag(np.clip(vals, 0.0, None)) @ vecs.conj().T
    neg = vecs @ np.diag(np.clip(-vals, 0.0, None)) @ vecs.conj().T
    return (pos + pos.conj().T) / 2.0, (neg + neg.conj().T) / 2.0
