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


@dataclass
class _Level:
    monomials: list[MultiIndex]
    col_of: dict[MultiIndex, int]
    comp_rows: ela.Matrix  # orthogonal complement basis, rows over monomial coords
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
    construction, after which the realization is immutable and safe to read
    concurrently.
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
            comp, gram_diag = ela.identity(dim), omega
            pivots, red = [], []
        else:
            pivots, red, level_monos = self.ideal.level_data(k)
            assert level_monos == monomials
            # v in S_k^perp  <=>  sum_g v_g conj(u_g) omega(g) = 0 for each basis u
            constraint = [{c: u[c].conjugate() * omega[c] for c in u} for u in red]

            def inner(u: ela.Row, v: ela.Row) -> GaussianRational:
                acc = G_ZERO
                for c, x in u.items():
                    y = v.get(c)
                    if y is not None:
                        acc = acc + x * y.conjugate() * omega[c]
                return acc

            basis: list[ela.Row] = []
            gram_diag = []
            for v in ela.kernel_basis(constraint, dim):
                w = dict(v)
                for u, g in zip(basis, gram_diag):
                    c = inner(v, u) / g
                    if c:
                        for col, x in u.items():
                            s = w.get(col, G_ZERO) - c * x
                            if s:
                                w[col] = s
                            else:
                                w.pop(col, None)
                basis.append(w)
                gram_diag.append(inner(w, w).re)
            comp = ela.rows_to_matrix(basis, dim)
        onb_scale = np.array([float(g) ** 0.5 for g in gram_diag])
        return _Level(monomials, col_of, comp, gram_diag, onb_scale, pivots, red)

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

    # -- Gram machinery ---------------------------------------------------

    def gram_apply(self, k: int, mat: ela.Matrix) -> ela.Matrix:
        """G_k @ mat (exact)."""
        return [[x * w for x in row] for row, w in zip(mat, self.level(k).gram_diag)]

    def gram_solve(self, k: int, mat: ela.Matrix) -> ela.Matrix:
        """G_k^{-1} @ mat (exact)."""
        return [[x / w for x in row] for row, w in zip(mat, self.level(k).gram_diag)]

    def project_to_complement(self, k: int, coords: list) -> list:
        """Complement coordinates of the orthogonal projection of a monomial-
        coordinate vector at level k: <coords, w_s> / <w_s, w_s> (exact)."""
        lv = self.level(k)
        out = []
        for ws, g in zip(lv.comp_rows, lv.gram_diag):
            acc = G_ZERO
            for c, x in enumerate(coords):
                if x and ws[c]:
                    acc = acc + x * ws[c].conjugate() * self.space.weight(lv.monomials[c])
            out.append(acc / g)
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
    coordinates, for 0 <= k <= k_valid.  Blocks whose target level is
    negative are stored with zero rows (the operator kills those levels).
    """

    def __init__(
        self,
        realization: ModuleRealization,
        shift: int,
        blocks: dict[int, ela.Matrix],
        k_valid: int,
    ):
        self.realization = realization
        self.shift = shift
        self.k_valid = k_valid
        self._blocks = blocks

    def block(self, k: int) -> ela.Matrix:
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
        f = ela.to_complex_array(b, ncols=nc)
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


def _zero_block(realization: ModuleRealization, shift: int, k: int) -> ela.Matrix:
    return ela.zeros(realization.comp_dim(k + shift), realization.comp_dim(k))


def identity_blocks(realization: ModuleRealization, K: int) -> GradedOperator:
    blocks = {
        k: ela.identity(realization.comp_dim(k)) for k in range(K + 1)
    }
    return GradedOperator(realization, 0, blocks, K)


def mult_blocks(
    realization: ModuleRealization, p: GradedPolynomial, K: int
) -> GradedOperator:
    """Blocks of the compression of M_p to the realization's module.

    On the full space these are the exact monomial-coordinate matrices of
    multiplication by p; on a quotient each column is the exact orthogonal
    projection of p * (complement basis vector) onto S_{k+d}^perp.
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
    terms = list(p.terms())
    blocks: dict[int, ela.Matrix] = {}
    for k in range(K + 1):
        src = realization.level(k)
        tgt = realization.level(k + d)
        ncomp_src = len(src.comp_rows)
        if realization.is_full:
            block = ela.zeros(len(tgt.monomials), len(src.monomials))
            for col, alpha in enumerate(src.monomials):
                for beta, c in terms:
                    block[tgt.col_of[add_index(alpha, beta)]][col] = c
            blocks[k] = block
            continue
        cols = []
        for ci in range(ncomp_src):
            w = src.comp_rows[ci]
            image = [G_ZERO] * len(tgt.monomials)
            for g, x in enumerate(w):
                if not x:
                    continue
                mono = src.monomials[g]
                for beta, c in terms:
                    j = tgt.col_of[add_index(mono, beta)]
                    image[j] = image[j] + x * c
            cols.append(realization.project_to_complement(k + d, image))
        ncomp_tgt = realization.comp_dim(k + d)
        block = ela.zeros(ncomp_tgt, ncomp_src)
        for ci, col in enumerate(cols):
            for ri in range(ncomp_tgt):
                block[ri][ci] = col[ri]
        blocks[k] = block
    return GradedOperator(realization, d, blocks, K)


def adjoint_blocks(op: GradedOperator) -> GradedOperator:
    """The adjoint in the weighted inner product: G_k^{-1} B_k^dagger G_{k+d}.

    Sources below the original degree shift map into negative levels and get
    zero-row blocks; the adjoint's window extends to k_valid + shift.
    """
    r = op.realization
    d = op.shift
    blocks: dict[int, ela.Matrix] = {}
    k_valid = op.k_valid + d
    if k_valid > r.max_level:
        k_valid = r.max_level
    for j in range(k_valid + 1):
        k = j - d
        if k < 0:
            blocks[j] = _zero_block(r, -d, j)
            continue
        b = op.block(k)  # (dim_j, dim_k)
        gb = r.gram_apply(j, b)  # G_j B
        btg = ela.conj_transpose(gb, ncols=r.comp_dim(k))  # B^dagger G_j
        blocks[j] = r.gram_solve(k, btg)
    return GradedOperator(r, -d, blocks, k_valid)


def compose(a: GradedOperator, b: GradedOperator) -> GradedOperator:
    """a after b; the window shrinks by b's shift."""
    assert a.realization is b.realization
    r = a.realization
    shift = a.shift + b.shift
    k_valid = min(b.k_valid, a.k_valid - b.shift)
    blocks: dict[int, ela.Matrix] = {}
    for j in range(k_valid + 1):
        mid = j + b.shift
        if mid < 0:
            blocks[j] = _zero_block(r, shift, j)
            continue
        bb = b.block(j)
        ab = a.block(mid)
        blocks[j] = ela.mat_mul(ab, bb, b_ncols=r.comp_dim(j)) if ab else ela.zeros(
            0, r.comp_dim(j)
        )
    return GradedOperator(r, shift, blocks, k_valid)


def op_sub(a: GradedOperator, b: GradedOperator) -> GradedOperator:
    assert a.realization is b.realization and a.shift == b.shift
    k_valid = min(a.k_valid, b.k_valid)
    blocks = {k: ela.mat_sub(a.block(k), b.block(k)) for k in range(k_valid + 1)}
    return GradedOperator(a.realization, a.shift, blocks, k_valid)


def op_add(a: GradedOperator, b: GradedOperator) -> GradedOperator:
    assert a.realization is b.realization and a.shift == b.shift
    k_valid = min(a.k_valid, b.k_valid)
    blocks = {k: ela.mat_add(a.block(k), b.block(k)) for k in range(k_valid + 1)}
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


def block_shift_data(realization: ModuleRealization, i: int, k: int) -> ela.Matrix:
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


def _entry_string(x) -> str:
    """Exact entry rendering for block exports: 'a/b', 'a/b+c/d i'."""
    if not x.im:
        return str(x.re)
    sign = "+" if x.im > 0 else "-"
    return f"{x.re}{sign}{abs(x.im)} i"


def export_block_json(op: GradedOperator, k: int) -> dict:
    """One block as JSON with exact entries rendered as strings."""
    block = op.block(k)
    nr, nc = op.block_shape(k)
    return {
        "level": k,
        "shift": op.shift,
        "shape": [nr, nc],
        "entries": [[_entry_string(x) for x in row] for row in block],
    }


def export_block_csv(op: GradedOperator, k: int) -> str:
    """One block as CSV of floats (real;imag pairs per entry)."""
    arr = ela.to_complex_array(op.block(k), ncols=op.block_shape(k)[1])
    lines = []
    for row in arr:
        lines.append(",".join(f"{v.real!r};{v.imag!r}" for v in row))
    return "\n".join(lines) + ("\n" if lines else "")


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
