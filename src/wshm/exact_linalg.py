"""Exact linear algebra over the Gaussian rationals.

Two representations are used:

* sparse rows ``dict[int, GaussianRational]`` for row reduction of graded
  spanning sets (rank, kernel, reduced bases) -- the rows arising from
  principal ideals are extremely sparse and reduction must exploit that;
* dense ``list[list[GaussianRational]]`` matrices for operator blocks and
  complement bases, with multiplication loops that skip stored zeros.

Everything here is exact field arithmetic: no tolerances and no floats.
Rank and dimension counts feed every downstream claim, so this module never
rounds.  Float conversion for the numeric tier happens in one place,
:func:`to_complex_array`.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .algebra import G_ONE, G_ZERO, GaussianRational

Row = dict[int, GaussianRational]
Matrix = list[list[GaussianRational]]


# ---------------------------------------------------------------------------
# sparse row reduction
# ---------------------------------------------------------------------------

def _leading(row: Row) -> int:
    return min(row)


def rref(rows: list[Row], ncols: int) -> tuple[list[int], list[Row]]:
    """Reduced row echelon form of the span of ``rows``.

    Returns (pivot columns ascending, reduced rows) where reduced row ``i``
    has a unit pivot at ``pivots[i]`` and zeros in every other pivot column.
    Deterministic: pivots are chosen left-to-right and ties between candidate
    rows are broken by input order, so identical input gives identical output.
    """
    pending: list[Row] = [dict(r) for r in rows if r]
    by_lead: dict[int, list[Row]] = {}
    for r in pending:
        by_lead.setdefault(_leading(r), []).append(r)

    pivots: list[int] = []
    pivot_rows: list[Row] = []
    for col in range(ncols):
        bucket = by_lead.pop(col, None)
        if not bucket:
            continue
        piv = bucket[0]
        pc = piv[col]
        for other in bucket[1:]:
            factor = other[col] / pc
            for c, v in piv.items():
                s = other.get(c, G_ZERO) - factor * v
                if s:
                    other[c] = s
                else:
                    other.pop(c, None)
            if other:
                by_lead.setdefault(_leading(other), []).append(other)
        pivots.append(col)
        pivot_rows.append(piv)

    # Normalize pivots and clear entries above, last pivot row first; for the
    # near-triangular systems produced by principal ideals this pass is linear.
    for i in range(len(pivot_rows) - 1, -1, -1):
        row = pivot_rows[i]
        pc = row[pivots[i]]
        if pc != G_ONE:
            for c in list(row):
                row[c] = row[c] / pc
        for j in range(i - 1, -1, -1):
            upper = pivot_rows[j]
            v = upper.get(pivots[i])
            if v is None:
                continue
            for c, w in row.items():
                s = upper.get(c, G_ZERO) - v * w
                if s:
                    upper[c] = s
                else:
                    upper.pop(c, None)
    return pivots, pivot_rows


def rank(rows: list[Row], ncols: int) -> int:
    return len(rref(rows, ncols)[0])


def kernel_basis(rows: list[Row], ncols: int) -> list[Row]:
    """Deterministic basis of the right kernel {v : R v = 0}.

    One basis vector per free column, in ascending column order, with a unit
    entry in its free column.
    """
    pivots, red = rref(rows, ncols)
    pivot_set = set(pivots)
    basis: list[Row] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v: Row = {free: G_ONE}
        for pc, row in zip(pivots, red):
            c = row.get(free)
            if c is not None and c:
                v[pc] = -c
        basis.append(v)
    return basis


def reduce_against(row: Row, pivots: list[int], red: list[Row]) -> tuple[list[GaussianRational], Row]:
    """Express ``row`` against an RREF basis.

    Returns (coefficients, residual): row = sum_i coeff_i * red_i + residual,
    with the residual supported off the pivot columns.
    """
    work = dict(row)
    coeffs: list[GaussianRational] = []
    for pc, basis_row in zip(pivots, red):
        c = work.get(pc, G_ZERO)
        coeffs.append(c)
        if c:
            for col, v in basis_row.items():
                s = work.get(col, G_ZERO) - c * v
                if s:
                    work[col] = s
                else:
                    work.pop(col, None)
    return coeffs, work


# ---------------------------------------------------------------------------
# dense matrices
# ---------------------------------------------------------------------------

def zeros(nrows: int, ncols: int) -> Matrix:
    return [[G_ZERO] * ncols for _ in range(nrows)]


def identity(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = G_ONE
    return out


def shape(a: Matrix) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a: Matrix, b: Matrix, b_ncols: int | None = None) -> Matrix:
    """Product a @ b, skipping stored zeros (operator blocks are very sparse)."""
    n = len(a)
    inner = len(a[0]) if a else 0
    if b_ncols is None:
        b_ncols = len(b[0]) if b else 0
    assert inner == len(b), "inner dimensions disagree"
    out = zeros(n, b_ncols)
    for i in range(n):
        arow = a[i]
        orow = out[i]
        for k in range(inner):
            aik = arow[k]
            if not aik:
                continue
            brow = b[k]
            for j in range(b_ncols):
                bkj = brow[j]
                if bkj:
                    orow[j] = orow[j] + aik * bkj
    return out


def conj_transpose(a: Matrix, ncols: int | None = None) -> Matrix:
    nr, nc = len(a), (len(a[0]) if a else (ncols or 0))
    return [[a[i][j].conjugate() for i in range(nr)] for j in range(nc)]


def trace(a: Matrix) -> GaussianRational:
    assert not a or len(a) == len(a[0]), "trace needs a square matrix"
    t = G_ZERO
    for i in range(len(a)):
        t = t + a[i][i]
    return t


def solve(a: Matrix, b: Matrix) -> Matrix:
    """Exact solve a @ x = b for square invertible a (Gaussian elimination).

    The package itself never needs a dense solve (every Gram matrix is
    diagonal); this is the reference that tests check projections against.
    """
    n = len(a)
    if n == 0:
        return [row[:] for row in b]
    ncols = len(b[0]) if b else 0
    aug = [a[i][:] + b[i][:] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix in exact solve")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        pval = aug[col][col]
        aug[col] = [x / pval for x in aug[col]]
        prow = aug[col]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], prow)]
    return [aug[i][n : n + ncols] for i in range(n)]


def rows_to_matrix(rows: list[Row], ncols: int) -> Matrix:
    out = zeros(len(rows), ncols)
    for i, r in enumerate(rows):
        for c, v in r.items():
            out[i][c] = v
    return out


def to_complex_array(a: Matrix, ncols: int | None = None) -> np.ndarray:
    """The single exact-to-float crossing point (numeric tier)."""
    nr = len(a)
    nc = len(a[0]) if a else (ncols or 0)
    out = np.zeros((nr, nc), dtype=complex)
    for i in range(nr):
        for j, v in enumerate(a[i]):
            if v:
                out[i, j] = complex(v)
    return out


def fraction_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    import math

    pn, pd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if pn * pn == q.numerator and pd * pd == q.denominator:
        return Fraction(pn, pd)
    return None
