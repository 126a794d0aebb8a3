"""Graded block realizations of multiplication operators and their adjoints.

Every operator here is graded: it maps the degree-k coordinate space of a
module realization to the degree-(k + shift) space, one exact block per
level.  Two arithmetic tiers are kept strictly apart:

* exact tier -- bases, Gram diagonals, block entries, traces and dimensions
  are Gaussian-rational and never rounded;
* float tier -- operator norms, singular values and spectral splits go
  through an orthonormal-coordinate conversion (each block scaled by the
  square roots of the Gram diagonals) into double precision.

Truncation windows are explicit.  An operator records the last trusted
source level ``k_valid``; any composition shrinks the window, and access
beyond it raises :class:`~wshm.errors.WindowError` -- silent truncation
artifacts are the main correctness hazard of this whole artifact.

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

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exact_linalg as ela
from .algebra import (
    G_ONE,
    G_ZERO,
    GaussianRational,
    GradedPolynomial,
    MultiIndex,
    add_index,
    enumerate_level,
)
from .errors import ModeError, WindowError, WshmError
from .ideals import GradedIdeal
from .spaces import WeightedShiftSpace


def _inner(u: ela.Row, v: ela.Row, omega: list[Fraction]) -> GaussianRational:
    """<u, v> = sum_c u_c conj(v_c) omega_c over sparse monomial coordinates."""
    acc = G_ZERO
    for c, x in u.items():
        y = v.get(c)
        if y is not None:
            acc = acc + x * y.conjugate() * omega[c]
    return acc


@dataclass
class _Level:
    monomials: list[MultiIndex]
    col_of: dict[MultiIndex, int]
    omega: list[Fraction]  # weight of each monomial coordinate
    comp_rows: list[ela.Row]  # orthogonal complement basis over monomial coords
    gram_diag: list[Fraction]  # <w_r, w_r>; <w_r, w_s> = 0 for r != s
    onb_scale: np.ndarray  # float sqrt(gram_diag): orthonormal coordinates
    ideal_pivots: list[int]
    ideal_rows: list[ela.Row]


class ModuleRealization:
    """Per-level exact orthogonal bases of an ambient space modulo an optional ideal.

    For the full space the complement basis at level k is the monomial
    coordinate basis and the Gram diagonal is omega.  For a quotient by a
    plain-homogeneous ideal, S_k is the exact echelon basis of the ideal
    level and the complement basis spans S_k^perp = {v : <v, u> = 0 for u in
    S_k}: an exact kernel, orthogonalised by unnormalised Gram-Schmidt so that
    its Gram matrix is diagonal too.  All levels are built eagerly at
    construction.  Multiplier blocks are built on first use by
    :func:`mult_blocks`, once per polynomial, and memoised here, so a
    realization is not safe to share between threads without a lock, and no
    caller may mutate a block it reads.
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
        self._levels = [self._build_level(k) for k in range(max_level + 1)]
        self._mult: dict[GradedPolynomial, dict[int, list[ela.Row]]] = {}

    @property
    def is_full(self) -> bool:
        return self.ideal is None or self.ideal.is_zero_ideal

    def _build_level(self, k: int) -> _Level:
        m = self.space.m
        monomials = enumerate_level(m, k)
        col_of = {a: j for j, a in enumerate(monomials)}
        dim = len(monomials)
        omega = [self.space.weight(a) for a in monomials]
        if self.is_full:
            comp, gram_diag = [{j: G_ONE} for j in range(dim)], omega
            pivots, red = [], []
        else:
            pivots, red, level_monos = self.ideal.level_data(k)
            assert level_monos == monomials
            # v in S_k^perp  <=>  sum_g v_g conj(u_g) omega(g) = 0 for each basis u
            constraint = [{c: u[c].conjugate() * omega[c] for c in u} for u in red]
            comp, gram_diag = [], []
            for v in ela.kernel_basis(constraint, dim):
                w = dict(v)
                for u, g in zip(comp, gram_diag):
                    c = _inner(v, u, omega) / g
                    if c:
                        for col, x in u.items():
                            s = w.get(col, G_ZERO) - c * x
                            if s:
                                w[col] = s
                            else:
                                w.pop(col, None)
                comp.append(w)
                gram_diag.append(_inner(w, w, omega).re)
        onb_scale = np.array([float(g) ** 0.5 for g in gram_diag])
        return _Level(monomials, col_of, omega, comp, gram_diag, onb_scale, pivots, red)

    # -- level geometry -------------------------------------------------

    def _check_level(self, k: int) -> None:
        if k > self.max_level:
            raise WindowError(
                f"level {k} beyond realization window (max_level={self.max_level})"
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

    def ideal_dim(self, k: int) -> int:
        if k < 0:
            return 0
        return len(self.level(k).ideal_pivots)

    def project_to_complement(self, k: int, coords: ela.Row) -> ela.Row:
        """Complement coordinates of the orthogonal projection of a sparse
        monomial-coordinate vector at level k: <coords, w_s> / <w_s, w_s>
        (exact), with zero coordinates dropped."""
        lv = self.level(k)
        out: ela.Row = {}
        for s, (ws, g) in enumerate(zip(lv.comp_rows, lv.gram_diag)):
            acc = _inner(coords, ws, lv.omega)
            if acc:
                out[s] = acc / g
        return out


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
    coordinates, for 0 <= k <= k_valid: one sparse row per target coordinate,
    its shape given by :meth:`block_shape`.  Blocks whose target level is
    negative have no rows (the operator kills those levels).  Blocks may be
    shared with other operators and must not be mutated.
    """

    def __init__(
        self,
        realization: ModuleRealization,
        shift: int,
        blocks: dict[int, list[ela.Row]],
        k_valid: int,
    ):
        self.realization = realization
        self.shift = shift
        self.k_valid = k_valid
        self._blocks = blocks

    def block(self, k: int) -> list[ela.Row]:
        if k < 0 or k > self.k_valid:
            raise WindowError(
                f"block {k} outside trusted window [0, {self.k_valid}]"
            )
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
        st = r.level(k + self.shift).onb_scale
        ss = r.level(k).onb_scale
        return f * st[:, None] * (1.0 / ss)

    def norm(self, k: int) -> float:
        m = self.onb_block(k)
        if min(m.shape) == 0:
            return 0.0
        return float(np.linalg.norm(m, 2))

    def singular_values(self, k: int) -> np.ndarray:
        m = self.onb_block(k)
        if min(m.shape) == 0:
            return np.zeros(0)
        return np.linalg.svd(m, compute_uv=False)

    def trace(self, k: int):
        """Exact trace of a square block (basis independent)."""
        if self.shift != 0:
            raise WshmError("trace requires a degree-0 operator")
        return ela.trace(self.block(k))


def _zero_block(realization: ModuleRealization, shift: int, k: int) -> list[ela.Row]:
    return [{} for _ in range(realization.comp_dim(k + shift))]


def identity_blocks(realization: ModuleRealization, K: int) -> GradedOperator:
    blocks = {
        k: [{i: G_ONE} for i in range(realization.comp_dim(k))] for k in range(K + 1)
    }
    return GradedOperator(realization, 0, blocks, K)


def _build_mult(
    realization: ModuleRealization, p: GradedPolynomial
) -> dict[int, list[ela.Row]]:
    """Every block of the compressed M_p that the realization holds: sources
    0..max_level - deg p."""
    d = p.degree
    terms = list(p.terms())
    blocks: dict[int, list[ela.Row]] = {}
    for k in range(realization.max_level - d + 1):
        src = realization.level(k)
        tgt = realization.level(k + d)
        if realization.is_full:
            block: list[ela.Row] = [{} for _ in tgt.monomials]
            for col, alpha in enumerate(src.monomials):
                for beta, c in terms:
                    block[tgt.col_of[add_index(alpha, beta)]][col] = c
            blocks[k] = block
            continue
        block = [{} for _ in tgt.comp_rows]
        for ci, w in enumerate(src.comp_rows):
            image: ela.Row = {}
            for g, x in w.items():
                mono = src.monomials[g]
                for beta, c in terms:
                    j = tgt.col_of[add_index(mono, beta)]
                    image[j] = image.get(j, G_ZERO) + x * c
            for ri, v in realization.project_to_complement(k + d, image).items():
                block[ri][ci] = v
        blocks[k] = block
    return blocks


def mult_blocks(
    realization: ModuleRealization, p: GradedPolynomial, K: int
) -> GradedOperator:
    """Blocks of the compression of M_p to the realization's module, trusted to K.

    On the full space these are the exact monomial-coordinate matrices of
    multiplication by p; on a quotient each column is the exact orthogonal
    projection of p * (complement basis vector) onto S_{k+d}^perp.  The
    blocks are built once per realization and polynomial, to the last level
    the realization allows, and shared by every operator returned here.
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
    blocks = realization._mult.get(p)
    if blocks is None:
        blocks = realization._mult[p] = _build_mult(realization, p)
    return GradedOperator(realization, d, blocks, K)


def adjoint_blocks(op: GradedOperator) -> GradedOperator:
    """The adjoint in the weighted inner product: G_k^{-1} B_k^dagger G_{k+d}.

    With diagonal Grams this is one pass over the stored entries: entry
    (c, r) of the adjoint block is conj(B[r][c]) * g_{k+d}[r] / g_k[c].
    Sources below the original degree shift map into negative levels and get
    zero-row blocks; the adjoint's window extends to k_valid + shift.
    """
    r = op.realization
    d = op.shift
    blocks: dict[int, list[ela.Row]] = {}
    k_valid = op.k_valid + d
    if k_valid > r.max_level:
        k_valid = r.max_level
    for j in range(k_valid + 1):
        k = j - d
        if k < 0:
            blocks[j] = _zero_block(r, -d, j)
            continue
        g_tgt, g_src = r.level(j).gram_diag, r.level(k).gram_diag
        adj: list[ela.Row] = [{} for _ in g_src]
        for ri, row in enumerate(op.block(k)):
            for c, x in row.items():
                adj[c][ri] = x.conjugate() * (g_tgt[ri] / g_src[c])
        blocks[j] = adj
    return GradedOperator(r, -d, blocks, k_valid)


def compose(a: GradedOperator, b: GradedOperator) -> GradedOperator:
    """a after b; the window shrinks by b's shift."""
    assert a.realization is b.realization
    r = a.realization
    shift = a.shift + b.shift
    k_valid = min(b.k_valid, a.k_valid - b.shift)
    blocks: dict[int, list[ela.Row]] = {}
    for j in range(k_valid + 1):
        mid = j + b.shift
        if mid < 0:
            blocks[j] = _zero_block(r, shift, j)
            continue
        blocks[j] = ela.mat_mul(a.block(mid), b.block(j))
    return GradedOperator(r, shift, blocks, k_valid)


def op_sub(a: GradedOperator, b: GradedOperator) -> GradedOperator:
    assert a.realization is b.realization and a.shift == b.shift
    k_valid = min(a.k_valid, b.k_valid)
    blocks = {k: ela.mat_sub(a.block(k), b.block(k)) for k in range(k_valid + 1)}
    return GradedOperator(a.realization, a.shift, blocks, k_valid)


def commutator_blocks(
    realization: ModuleRealization,
    f: GradedPolynomial,
    g: GradedPolynomial,
    K: int,
) -> GradedOperator:
    """Blocks of the cross commutator M_g^* M_f - M_f M_g^*.

    Degree shift deg f - deg g.  The trusted window is K - max(deg f, deg g)
    given realization bases to K + max(deg f, deg g); exceeding it is a hard
    error, never silently truncated garbage.  For f = g each block is
    Hermitian (and on the unilateral shift the level-0 block is [1]).
    """
    for q in (f, g):
        if q.is_zero or not q.is_homogeneous:
            raise ModeError(f"commutator arguments must be nonzero homogeneous, got {q}")
    df, dg = f.degree, g.degree
    mx = max(df, dg)
    if K + mx > realization.max_level:
        raise WindowError(
            f"commutator to K={K} needs realization levels to {K + mx}, "
            f"have {realization.max_level}"
        )
    mf = mult_blocks(realization, f, realization.max_level - df)
    mg = mult_blocks(realization, g, realization.max_level - dg)
    mg_adj = adjoint_blocks(mg)
    comm = op_sub(compose(mg_adj, mf), compose(mf, mg_adj))
    k_valid = min(comm.k_valid, K - mx)
    blocks = {k: comm.block(k) for k in range(max(k_valid, -1) + 1)}
    return GradedOperator(realization, df - dg, blocks, k_valid)


def defect_blocks(realization: ModuleRealization, K: int) -> GradedOperator:
    """I - sum_i M_{z_i}* M_{z_i}, one exact square block per level <= K."""
    if K + 1 > realization.max_level:
        raise WindowError(
            f"defect to K={K} needs realization levels to {K + 1}, "
            f"have {realization.max_level}"
        )
    m = realization.space.m
    acc = identity_blocks(realization, K)
    for i in range(m):
        zi = GradedPolynomial.variable(m, i)
        mi = mult_blocks(realization, zi, K)
        acc = op_sub(acc, compose(adjoint_blocks(mi), mi))
    return acc


def codefect_blocks(realization: ModuleRealization, K: int) -> GradedOperator:
    """I - sum_i M_{z_i} M_{z_i}*, the X operator of the block-shift analysis."""
    if K + 1 > realization.max_level:
        raise WindowError(
            f"codefect to K={K} needs realization levels to {K + 1}, "
            f"have {realization.max_level}"
        )
    m = realization.space.m
    acc = identity_blocks(realization, K)
    for i in range(m):
        zi = GradedPolynomial.variable(m, i)
        mi = mult_blocks(realization, zi, K)
        term = compose(mi, adjoint_blocks(mi))
        blocks = {k: term.block(k) for k in range(K + 1)}
        acc = op_sub(acc, GradedOperator(realization, 0, blocks, K))
    return acc


def block_shift_data(realization: ModuleRealization, i: int, k: int) -> list[ela.Row]:
    """The block A_{i,k} : S_k^perp -> S_{k+1}^perp of the compressed shift."""
    if k + 1 > realization.max_level:
        raise WindowError(
            f"A_{{i,{k}}} needs realization level {k + 1}, have {realization.max_level}"
        )
    zi = GradedPolynomial.variable(realization.space.m, i)
    return mult_blocks(realization, zi, k).block(k)


def pn_split(h: np.ndarray, hermitian_tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Spectral split H = P - N with P, N >= 0 and P N = 0 (float tier).

    Input must be Hermitian within ``hermitian_tol`` relative to its size.
    """
    h = np.asarray(h, dtype=complex)
    if h.size == 0:
        return h.copy(), h.copy()
    scale = max(1.0, float(np.abs(h).max()))
    if float(np.abs(h - h.conj().T).max()) > hermitian_tol * scale:
        raise WshmError("pn_split requires a Hermitian matrix")
    vals, vecs = np.linalg.eigh((h + h.conj().T) / 2.0)
    pos = vecs @ np.diag(np.clip(vals, 0.0, None)) @ vecs.conj().T
    neg = vecs @ np.diag(np.clip(-vals, 0.0, None)) @ vecs.conj().T
    pos = (pos + pos.conj().T) / 2.0
    neg = (neg + neg.conj().T) / 2.0
    return pos, neg


@dataclass
class SchattenPartial:
    """Per-level Schatten-p terms sum_j s_j(block_k)^p and their partial sums."""

    p: float
    terms: list[float]
    partial_sums: list[float]

    @property
    def total(self) -> float:
        return self.partial_sums[-1] if self.partial_sums else 0.0


def schatten_partial(op: GradedOperator, p: float, K: int) -> SchattenPartial:
    """Partial Schatten-p data over levels 0..K (float tier)."""
    if p < 1:
        raise WshmError(f"Schatten exponent must be >= 1, got {p}")
    if K > op.k_valid:
        raise WindowError(f"schatten_partial to K={K} exceeds window {op.k_valid}")
    terms: list[float] = []
    sums: list[float] = []
    acc = 0.0
    for k in range(K + 1):
        sv = op.singular_values(k)
        t = float(np.sum(sv**p)) if sv.size else 0.0
        acc += t
        terms.append(t)
        sums.append(acc)
    return SchattenPartial(p, terms, sums)
