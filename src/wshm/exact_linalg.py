"""Exact linear algebra over the Gaussian rationals.

One representation is used throughout: the sparse row
``Row = dict[int, GaussianRational]``, column index to nonzero entry, with
zeros never stored.  A spanning set, a kernel basis or a complement basis is
a ``list[Row]``; an operator block is a ``list[Row]`` with one row per target
coordinate, its column count kept by the caller.  The rows arising from
principal ideals and from multiplication operators are extremely sparse, and
reduction, products and adjoints only ever touch stored entries.

:func:`rref` is the one elimination the package runs for ideal levels;
:func:`rank` stops after forward elimination.  Every elimination, reduction
and orthogonalisation updates rows through :func:`sub_scaled`.
:func:`kernel_basis` and :func:`solve` are references that the package no
longer calls: tests check complement bases and projections against them.

Everything here is exact field arithmetic: no tolerances and no floats.  An
entry is (a + b i) / d over Python ints, so row operations create no Fraction.
Rank and dimension counts feed every downstream claim, so this module never
rounds.  Float conversion for the numeric tier happens in one place,
:func:`to_complex_array`.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .algebra import G_ONE, G_ZERO, GaussianRational

Row = dict[int, GaussianRational]


# ---------------------------------------------------------------------------
# sparse row reduction
# ---------------------------------------------------------------------------

def sub_scaled(dst: Row, c: GaussianRational, src: Row) -> None:
    """dst -= c * src in place, dropping the entries that cancel: the one row
    update behind every elimination, reduction and orthogonalisation."""
    for col, v in src.items():
        s = dst.get(col, G_ZERO) - c * v
        if s:
            dst[col] = s
        else:
            dst.pop(col, None)


def _echelon(rows: list[Row], ncols: int) -> tuple[list[int], list[Row]]:
    """Forward elimination: (pivot columns ascending, echelon rows), row ``i``
    leading at ``pivots[i]`` with its pivot not normalised.  Pivots are chosen
    left-to-right and ties between candidate rows are broken by input order."""
    by_lead: dict[int, list[Row]] = {}
    for r in rows:
        if r:
            by_lead.setdefault(min(r), []).append(dict(r))

    pivots: list[int] = []
    pivot_rows: list[Row] = []
    for col in range(ncols):
        bucket = by_lead.pop(col, None)
        if not bucket:
            continue
        piv = bucket[0]
        pc = piv[col]
        for other in bucket[1:]:
            sub_scaled(other, other[col] / pc, piv)
            if other:
                by_lead.setdefault(min(other), []).append(other)
        pivots.append(col)
        pivot_rows.append(piv)
    return pivots, pivot_rows


def rref(rows: list[Row], ncols: int) -> tuple[list[int], list[Row]]:
    """Reduced row echelon form of the span of ``rows``.

    Returns (pivot columns ascending, reduced rows) where reduced row ``i``
    has a unit pivot at ``pivots[i]`` and zeros in every other pivot column.
    Deterministic: identical input gives identical output.
    """
    pivots, pivot_rows = _echelon(rows, ncols)
    # Normalize pivots and clear entries above, last pivot row first; for the
    # near-triangular systems produced by principal ideals this pass is linear.
    for i in range(len(pivot_rows) - 1, -1, -1):
        row = pivot_rows[i]
        pc = row[pivots[i]]
        if pc != G_ONE:
            for c in list(row):
                row[c] = row[c] / pc
        for upper in pivot_rows[:i]:
            v = upper.get(pivots[i])
            if v is not None:
                sub_scaled(upper, v, row)
    return pivots, pivot_rows


def rank(rows: list[Row], ncols: int) -> int:
    """Rank of ``rows``, by forward elimination only."""
    return len(_echelon(rows, ncols)[0])


def kernel_basis(rows: list[Row], ncols: int) -> list[Row]:
    """Deterministic basis of the right kernel {v : R v = 0}.

    One basis vector per free column, in ascending column order, with a unit
    entry in its free column.  The package never calls this (complement bases
    are read off the ideal's reduced echelon form in closed form); it is the
    reference that tests check them against.
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
            sub_scaled(work, c, basis_row)
    return coeffs, work


# ---------------------------------------------------------------------------
# sparse blocks
# ---------------------------------------------------------------------------

def mat_sub(a: list[Row], b: list[Row]) -> list[Row]:
    """Row-wise a - b; entries that cancel are dropped."""
    out: list[Row] = []
    for ra, rb in zip(a, b):
        row = dict(ra)
        for j, v in rb.items():
            s = row.get(j, G_ZERO) - v
            if s:
                row[j] = s
            else:
                row.pop(j, None)
        out.append(row)
    return out


def mat_mul(a: list[Row], b: list[Row]) -> list[Row]:
    """Product a @ b, row by row (Gustavson): row i is sum_k a[i][k] * b[k]."""
    out: list[Row] = []
    for arow in a:
        acc: Row = {}
        for k, aik in arow.items():
            for j, bkj in b[k].items():
                acc[j] = acc.get(j, G_ZERO) + aik * bkj
        out.append({j: v for j, v in acc.items() if v})
    return out


def trace(a: list[Row]) -> GaussianRational:
    """Trace of a square block."""
    t = G_ZERO
    for i, row in enumerate(a):
        v = row.get(i)
        if v is not None:
            t = t + v
    return t


def solve(a: list[list], b: list[list]) -> list[list]:
    """Exact solve a @ x = b for square invertible a (Gaussian elimination).

    The package never calls this (every Gram matrix is diagonal); it is the
    reference that tests check projections against.
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


def to_complex_array(a: list[Row], ncols: int) -> np.ndarray:
    """The single exact-to-float crossing point (numeric tier)."""
    out = np.zeros((len(a), ncols), dtype=complex)
    for i, row in enumerate(a):
        for j, v in row.items():
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
