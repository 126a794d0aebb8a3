"""Graded block realizations of multiplication operators and their adjoints.

Every operator here is graded: it maps the degree-k coordinate space of a
module realization to the degree-(k + shift) space, one exact block per
level.  Two arithmetic tiers are kept strictly apart:

* exact tier -- bases, Gram diagonals, block entries, traces and dimensions
  are Gaussian-rational and never rounded;
* float tier -- operator norms, singular values and spectral splits go
  through an orthonormal-coordinate conversion (each block scaled by the
  square roots of the Gram diagonals) into double precision.  A report hands
  all its blocks to :func:`svdvals` or :func:`hermitian_eigh` at once: one
  stacked SVD or eigh per block shape per report, bit for bit per block.

Truncation windows are explicit, and the realization is their one source.
Every block is exact on the levels it reads; reading a block at a level
outside [0, max_level], or one whose build reads such a level, raises
:class:`~wshm.errors.WindowError` -- silent truncation artifacts are the
main correctness hazard of this whole artifact.

Evaluation is on demand.  Levels and the blocks of every multiplier,
identity, adjoint, composition and difference are built on first read and
kept, so a report builds exactly the levels it reads, each once per
operator, however many levels the realization has.  Multipliers, their
adjoints and the products M_q^* M_p and M_p M_q^* are cached per
realization, so every commutator and defect shares one build of each.  No
block projects: on a quotient M_p^* leaves S^perp invariant, and its blocks
are read off directly.

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
import weakref
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import exact_linalg as ela
from .algebra import (
    G_ONE,
    GradedPolynomial,
    MultiIndex,
    add_index,
    enumerate_level,
)
from .errors import ModeError, WindowError, WshmError
from .ideals import GradedIdeal
from .spaces import WeightedShiftSpace


class _OnDemand(dict):
    """A cache whose missing key k is built by ``build(k)`` on first read and
    kept, so that only the levels (or multipliers) some caller reads are built."""

    def __init__(self, build):
        self._build = build  # the dict itself starts empty

    def __missing__(self, k):
        value = self[k] = self._build(k)
        return value


@dataclass
class _Level:
    monomials: list[MultiIndex]
    col_of: dict[MultiIndex, int]
    weights: list[int]  # the weight of monomial coordinate c is weights[c] / den
    den: int
    comp_rows: list[ela.Row]  # orthogonal Gaussian-integer complement basis
    norms: list[int]  # den * <w_r, w_r>; <w_r, w_s> = 0 for r != s
    ideal_pivots: list[int]

    @cached_property
    def onb_scale(self) -> tuple[np.ndarray, np.ndarray]:
        """sqrt(g) for each Gram entry g = norms[r] / den, split as (x, s) with
        x * 2**s = sqrt(g), built on first read: exact-only reports never round
        it.  s = 0 while float(g) is a normal double; beyond that g is scaled by
        2**(-2s) into [1/4, 4) before rounding, so no Gram entry overflows or
        underflows the crossing.  g is read as int / int (correctly rounded), s
        from g in lowest terms."""
        xs, ss = [], []
        for g in self.norms:
            q = math.gcd(g, self.den)
            a, b = g // q, self.den // q
            e = a.bit_length() - b.bit_length()
            s = 0 if -1000 < e < 1000 else e // 2
            xs.append((a * 4 ** max(-s, 0) / (b * 4 ** max(s, 0))) ** 0.5)
            ss.append(s)
        return np.array(xs), np.array(ss, dtype=int)


class ModuleRealization:
    """Per-level exact orthogonal bases of an ambient space modulo an optional ideal.

    Each level holds its monomial weights as ints over one denominator.  For
    the full space the complement basis at level k is the monomial coordinate
    basis and the Gram diagonal is omega.  For a quotient by a
    plain-homogeneous ideal, S_k is the reduced echelon basis of the ideal
    level and the complement basis spans S_k^perp = {v : <v, u> = 0 for u in
    S_k}: Gaussian-integer kernel vectors read off that echelon form in closed
    form (no second elimination), orthogonalised by fraction-free Gram-Schmidt
    so that its Gram matrix is diagonal too.  Each level up to ``max_level``
    is built the first time it is read, and so is each block of
    :func:`mult_blocks`, of its adjoint (read off by co-invariance on a
    quotient, no projection) and of :func:`product_blocks`; all are
    memoised here, so a realization is not safe to share between threads
    without a lock, and no caller may mutate a block it reads.
    """

    def __init__(
        self,
        space: WeightedShiftSpace,
        ideal: GradedIdeal | None,
        max_level: int,
    ):
        if max_level < 0:
            raise WindowError(f"max_level must be >= 0, got {max_level}")
        if ideal is not None:
            if ideal.mode != "plain":
                raise ModeError("realizations require a plain-homogeneous ideal")
            if ideal.m != space.m:
                raise ModeError("ideal and space variable counts disagree")
        self.space = space
        self.ideal = ideal
        self.max_level = max_level
        # The caches refer to the realization weakly: a reference cycle would
        # keep every level alive until the next full garbage collection.
        me = weakref.proxy(self)
        self._levels = _OnDemand(partial(ModuleRealization._build_level, me))
        # polynomial -> blocks by source level of M_p and of M_p^*: one is built
        # directly (closed-form M_p, or M_p^* read off), the other as its adjoint
        if self.is_full:
            mult = lambda p: _OnDemand(partial(_mult_block, me, p))
            adj = lambda p: _OnDemand(partial(_adjoint_block, me, me._mult[p], p.degree))
        else:
            adj = lambda p: _OnDemand(partial(_coinvariant_block, me, p))
            mult = lambda p: _OnDemand(partial(_adjoint_block, me, me._adj[p], -p.degree))
        self._mult, self._adj = _OnDemand(mult), _OnDemand(adj)
        # (p, q) -> (M_p M_q^*, M_q^* M_p), each over every level
        self._prod = _OnDemand(lambda pq: _products(me, *pq))

    @property
    def is_full(self) -> bool:
        return self.ideal is None or self.ideal.is_zero_ideal

    def _build_level(self, k: int) -> _Level:
        if self.is_full:
            monomials = enumerate_level(self.space.m, k)
            n, den = self.space.level_weights(monomials)
            comp, norms, pivots = [{j: G_ONE} for j in range(len(n))], n, []
        else:
            # a plain ideal's level columns are enumerate_level's monomials
            pivots, red, monomials = self.ideal.level_data(k)
            n, den = self.space.level_weights(monomials)
            comp, norms = ela.orthogonalize(ela.complement_kernel(pivots, red, n), n)
        col_of = {a: j for j, a in enumerate(monomials)}
        return _Level(monomials, col_of, n, den, comp, norms, pivots)

    # -- level geometry -------------------------------------------------

    def _check_level(self, k: int) -> None:
        if k < 0 or k > self.max_level:
            raise WindowError(
                f"level {k} outside realization window [0, {self.max_level}]"
            )

    def level(self, k: int) -> _Level:
        self._check_level(k)
        return self._levels[k]

    def comp_dim(self, k: int) -> int:
        """dim S_k^perp; zero below level 0."""
        if k < 0:
            return 0
        self._check_level(k)
        return len(self._levels[k].comp_rows)

    def project_to_complement(self, k: int, coords: ela.Row, den: int) -> ela.Row:
        """Complement coordinates <coords, w_s> / (den <w_s, w_s>) of the
        orthogonal projection of a Gaussian-integer monomial-coordinate row
        ``coords`` / den at level k, zeros dropped: the reference that tests
        check multiplier blocks against (no block is built by projection)."""
        lv = self.level(k)
        return ela.project(coords, den, lv.comp_rows, lv.norms, lv.weights)


def full_realization(space: WeightedShiftSpace, max_level: int) -> ModuleRealization:
    return ModuleRealization(space, None, max_level)


def quotient_realization(
    space: WeightedShiftSpace, ideal: GradedIdeal, max_level: int
) -> ModuleRealization:
    """Realization of H / [I] with exact bases of S_k and S_k^perp to max_level."""
    return ModuleRealization(space, ideal, max_level)


class GradedOperator:
    """A graded operator as a family of per-level exact blocks.

    ``blocks[k]`` maps level-k complement coordinates to level-(k + shift)
    coordinates: one sparse row per target coordinate, its shape given by
    :meth:`block_shape`.  Blocks whose target level is negative have no rows
    (the operator kills those levels).  :meth:`block` raises WindowError when
    k, or a level its build reads, lies outside the realization's levels.
    ``blocks`` may be a plain dict or a cache that builds each block on first
    read.  Blocks may be shared with other operators and must not be mutated;
    ``adjoint`` optionally holds the adjoint's blocks, shared the same way.
    """

    def __init__(
        self,
        realization: ModuleRealization,
        shift: int,
        blocks: dict[int, list[ela.Row]],
        adjoint: dict[int, list[ela.Row]] | None = None,
    ):
        self.realization = realization
        self.shift = shift
        self._blocks = blocks
        self._adjoint = adjoint

    def block(self, k: int) -> list[ela.Row]:
        self.realization._check_level(k)
        return self._blocks[k]

    def block_shape(self, k: int) -> tuple[int, int]:
        r = self.realization
        return (r.comp_dim(k + self.shift), r.comp_dim(k))

    # -- float tier -----------------------------------------------------

    def onb_block(self, k: int) -> np.ndarray:
        """The block in orthonormal coordinates (norms become honest)."""
        b = self.block(k)
        nr, nc = self.block_shape(k)
        f = ela.to_complex_array(b, nc)
        if nr == 0 or nc == 0:
            return f.reshape(nr, nc)
        r = self.realization
        xt, st = r.level(k + self.shift).onb_scale
        xs, ss = r.level(k).onb_scale
        # power-of-two scaling is exact: with every s = 0 the factor is 1.0
        return f * xt[:, None] * (1.0 / xs) * np.ldexp(1.0, st[:, None] - ss)

    def norm(self, k: int) -> float:
        return float(self.singular_values(k).max(initial=0.0))

    def singular_values(self, k: int) -> np.ndarray:
        return svdvals([self.onb_block(k)])[0]


def _zero_block(realization: ModuleRealization, shift: int, k: int) -> list[ela.Row]:
    return [{} for _ in range(realization.comp_dim(k + shift))]


def identity_blocks(realization: ModuleRealization) -> GradedOperator:
    def block(k: int) -> list[ela.Row]:
        return [{i: G_ONE} for i in range(realization.comp_dim(k))]

    return GradedOperator(realization, 0, _OnDemand(block))


def _mult_block(r: ModuleRealization, p: GradedPolynomial, k: int) -> list[ela.Row]:
    """Block k of M_p on the full space: source level k, target k + deg p."""
    terms = list(p.terms())
    tgt = r.level(k + p.degree)
    block: list[ela.Row] = [{} for _ in tgt.monomials]
    for col, alpha in enumerate(r.level(k).monomials):
        for beta, c in terms:
            block[tgt.col_of[add_index(alpha, beta)]][col] = c
    return block


def _coinvariant_block(r: ModuleRealization, p: GradedPolynomial, j: int) -> list[ela.Row]:
    """Block j of the compressed M_p^* on a quotient, with no projection: [I]
    is M_p-invariant, so x = M_p^* w_s lies in S_k^perp, k = j - deg p.  At a
    free column f, x_f = sum_beta conj(c_beta) w_s[f+beta] n_j[f+beta] d_k /
    (d_j n_k[f]), in integers over p's common denominator.  Row w_t has free
    entries at f_0..f_t only, so one back-substitution gives x's coordinates."""
    k = j - p.degree
    if k < 0:
        return _zero_block(r, -p.degree, j)
    src, tgt = r.level(k), r.level(j)
    num, den = ela.over_common_denominator(dict(p.terms()))
    pivots, rows = set(src.ideal_pivots), src.comp_rows
    free = [c for c in range(len(src.weights)) if c not in pivots]
    tri = [(rows[t][f], [(i, rows[i][f]) for i in range(t + 1, len(rows)) if f in rows[i]])
           for t, f in enumerate(free)]
    # x_f = conj(<reads[f], w_s>) / dens[f], where reads[f] = {f + beta: num_beta d_k}
    reads = [{tgt.col_of[add_index(src.monomials[f], b)]: c * src.den for b, c in num.items()}
             for f in free]
    dens = [den * tgt.den * src.weights[f] for f in free]
    adj: list[ela.Row] = [{} for _ in free]
    for s, w in enumerate(tgt.comp_rows):
        x = [(re, -im) for re, im in (ela.inner(v, w, tgt.weights) for v in reads)]
        for t, y in ela.back_substitute(x, dens, tri).items():
            adj[t][s] = y
    return adj


def mult_blocks(
    realization: ModuleRealization, p: GradedPolynomial, K: int
) -> GradedOperator:
    """Blocks of the compression of M_p to the realization's module.

    On the full space these are the exact monomial-coordinate matrices of
    multiplication by p.  On a quotient column c holds the coordinates of the
    projection of p * w_c onto S_{k+d}^perp, built as the adjoint of M_p^*.  Each
    block is built the first time any operator returned here reads it, once
    per realization and polynomial, and shared by all of them.  K only checks
    that the realization has levels to K + d; block k reads levels k and k + d.
    """
    if p.is_zero or not p.is_homogeneous:
        raise ModeError(f"multiplier must be nonzero homogeneous, got {p}")
    if p.m != realization.space.m:
        raise ModeError("multiplier variable count disagrees with realization")
    d = p.degree
    if K < 0 or K + d > realization.max_level:
        raise WindowError(
            f"mult_blocks to K={K} needs realization levels to {K + d}, "
            f"have {realization.max_level}"
        )
    return GradedOperator(realization, d, realization._mult[p], realization._adj[p])


def adjoint_blocks(op: GradedOperator) -> GradedOperator:
    """The adjoint in the weighted inner product: G_k^{-1} B_k^dagger G_{k+d}.

    With diagonal Grams each block is one pass over the stored entries: entry
    (c, r) of block j is conj(B[r][c]) * g_j[r] / g_{j-d}[c] for the block B
    of op at source level j - d.  A source below the degree shift d maps into
    a negative level and gets a zero-row block.  Block j reads levels j and
    j - d; a multiplier's adjoint is built once per realization.
    """
    r, d = op.realization, op.shift
    blocks = op._adjoint
    if blocks is None:
        blocks = _OnDemand(partial(_adjoint_block, r, op._blocks, d))
    return GradedOperator(r, -d, blocks)


def _adjoint_block(r: ModuleRealization, blocks: dict, d: int, j: int) -> list[ela.Row]:
    """Block j of the adjoint of a degree-d operator."""
    k = j - d
    if k < 0:
        return _zero_block(r, -d, j)
    tgt, src = r.level(j), r.level(k)
    return ela.adjoint(blocks[k], tgt.norms, tgt.den, src.norms, src.den)


def compose(a: GradedOperator, b: GradedOperator) -> GradedOperator:
    """a after b: block j is a's block j + b.shift times b's block j."""
    assert a.realization is b.realization
    r = a.realization
    shift = a.shift + b.shift

    def block(j: int) -> list[ela.Row]:
        mid = j + b.shift
        if mid < 0:
            return _zero_block(r, shift, j)
        return ela.mat_mul(a.block(mid), b.block(j))

    return GradedOperator(r, shift, _OnDemand(block))


def _products(r: ModuleRealization, p, q) -> tuple[GradedOperator, GradedOperator]:
    mp = mult_blocks(r, p, r.max_level - p.degree)
    mq_adj = adjoint_blocks(mult_blocks(r, q, r.max_level - q.degree))
    return compose(mp, mq_adj), compose(mq_adj, mp)


def product_blocks(realization: ModuleRealization, p, q, adj_first: bool) -> GradedOperator:
    """M_q^* M_p if ``adj_first`` else M_p M_q^*.  Each block is built once
    per realization, pair and order and shared by every operator returned
    here.  The cached operator refers to the realization by a weak proxy, so
    each call wraps its blocks in one that refers to ``realization`` itself."""
    op = realization._prod[(p, q)][adj_first]
    return GradedOperator(realization, op.shift, op._blocks)


def op_sub(a: GradedOperator, b: GradedOperator) -> GradedOperator:
    assert a.realization is b.realization and a.shift == b.shift

    def block(k: int) -> list[ela.Row]:
        return ela.mat_sub(a.block(k), b.block(k))

    return GradedOperator(a.realization, a.shift, _OnDemand(block))


def commutator_blocks(
    realization: ModuleRealization, f: GradedPolynomial, g: GradedPolynomial
) -> GradedOperator:
    """Blocks of the cross commutator M_g^* M_f - M_f M_g^*.

    Degree shift deg f - deg g; block k reads levels up to k + deg f.  For
    f = g each block is Hermitian (and on the unilateral shift the level-0
    block is [1]).
    """
    for q in (f, g):
        if q.is_zero or not q.is_homogeneous:
            raise ModeError(f"commutator arguments must be nonzero homogeneous, got {q}")
    products = partial(product_blocks, realization, f, g)
    return op_sub(products(True), products(False))


def _sum_of_squares_defect(realization: ModuleRealization, adj_first: bool):
    """I - sum_i of the products of M_{z_i} and M_{z_i}^*, one exact square
    block per level."""
    m = realization.space.m
    acc = identity_blocks(realization)
    for i in range(m):
        zi = GradedPolynomial.variable(m, i)
        acc = op_sub(acc, product_blocks(realization, zi, zi, adj_first))
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


def _per_shape(fn, blocks: list[np.ndarray]) -> list:
    """``fn`` applied once to the stack of each shape's blocks, its results
    handed back per block in input order.  numpy runs LAPACK on each member
    of a stack in turn, so each result has the bits of a one-block call."""
    out = [None] * len(blocks)
    for shape in dict.fromkeys(b.shape for b in blocks):
        idx = [n for n, b in enumerate(blocks) if b.shape == shape]
        for n, res in zip(idx, fn(np.stack([blocks[n] for n in idx]))):
            out[n] = res
    return out


def svdvals(blocks: list[np.ndarray]) -> list[np.ndarray]:
    """The singular values of each block, one SVD per block shape (float tier)."""
    return _per_shape(partial(np.linalg.svd, compute_uv=False), blocks)


def hermitian_eigh(blocks: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(eigenvalues, eigenvectors) of each block, one eigh per block shape
    (float tier).  Every block must be Hermitian within ``HERMITIAN_TOL``
    relative to its size; its Hermitian part is decomposed."""
    def eigh(h: np.ndarray):
        ht = h.conj().swapaxes(-1, -2)
        scale = np.maximum(1.0, np.abs(h).max(axis=(-2, -1), initial=0.0))
        if (np.abs(h - ht).max(axis=(-2, -1), initial=0.0) > HERMITIAN_TOL * scale).any():
            raise WshmError("a Hermitian spectrum requires Hermitian blocks")
        return zip(*np.linalg.eigh((h + ht) / 2.0))

    return _per_shape(eigh, blocks)


def pn_split(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectral split H = P - N with P, N >= 0 and P N = 0 (float tier) from
    one-block :func:`hermitian_eigh`: the test reference for section5."""
    [(vals, vecs)] = hermitian_eigh([np.asarray(h, dtype=complex)])
    pos = vecs @ np.diag(np.clip(vals, 0.0, None)) @ vecs.conj().T
    neg = vecs @ np.diag(np.clip(-vals, 0.0, None)) @ vecs.conj().T
    return (pos + pos.conj().T) / 2.0, (neg + neg.conj().T) / 2.0
