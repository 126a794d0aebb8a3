"""Exact linear algebra over the Gaussian rationals.

One representation is used throughout: the sparse row
``Row = dict[int, GaussianRational]``, column index to nonzero entry, with
zeros never stored.  A spanning set, a kernel basis or a complement basis is
a ``list[Row]``; an operator block is a ``list[Row]`` with one row per target
coordinate, its column count kept by the caller.  The rows arising from
principal ideals and from multiplication operators are extremely sparse, and
reduction, products and adjoints only ever touch stored entries.

Elimination and orthogonalisation are fraction-free.  Their rows are
Gaussian-integer rows (every entry has denominator 1) with integer content 1,
updated only by :func:`combine` (a * dst - b * src, content removed).
Normalisation does its work once: :func:`integral` skips the lcm for a row
with no denominator, and the content gcd stops as soon as it reaches 1, so a
row that is already primitive costs one short scan and comes back as itself.
:func:`rref` eliminates ideal levels up to a certified Groebner degree (past
it, levels clear tails by :func:`combine` alone); its rows keep their own
pivot entries, so a caller that needs the RREF divides once.  Its back phase
removes each row's Gaussian-integer content, so pivot entries' Gaussian
factors do not pile up.  :func:`rank` stops after forward elimination.
Complement geometry runs in Gram-applied coordinates x = omega v, the one
convention in which every level is stored (a monomial's vector
z^alpha / omega(alpha) is the unit row e_alpha) and in which the complement
of an ideal level is Euclidean: :func:`complement_kernel` reads its basis
off reduced rows in closed form with no weight, :func:`orthogonalize` makes
it orthogonal under the integer reciprocal weights 1 / omega (over one
denominator) with integer norms, and :func:`back_substitute` reads a
complement vector's coordinates off its free columns.  The block kernels
:func:`mat_mul`, :func:`mat_sub` and :func:`back_substitute` sum integer
triples over the lcm of their denominators and reduce once per output entry; :func:`adjoint`
and :func:`reduce_against` (its residual is exact) work entry by entry.
:func:`kernel_basis`, :func:`solve` and :func:`project` are references the
package no longer calls: tests check complement bases and blocks with them.

Everything here is exact: no tolerances and no floats.  An entry is
(a + b i) / d over Python ints; the integer kernels here read and build that
triple directly (the only module besides ``algebra`` that builds it), so row
operations create no Fraction.  Rank and dimension counts feed every
downstream claim, so this module never rounds.  Entries cross to the numeric
tier in one place, :func:`to_complex_array`, one scatter per stack of
same-shape blocks; exact square roots (Gram scales, read-off singular values,
qweights moduli) are rounded from int pairs by ``operators._sqrt_split``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .algebra import G_ONE, G_ZERO, GaussianRational, _make, _reduced

Row = dict[int, GaussianRational]


# ---------------------------------------------------------------------------
# sparse row reduction
# ---------------------------------------------------------------------------

def _content_free(row: Row) -> Row:
    """A Gaussian-integer row divided by the gcd of its real and imaginary
    parts, in one pass that stops as soon as that gcd reaches 1: a primitive
    (or empty) row is returned as ``row`` itself."""
    g = 0
    for x in row.values():
        g = math.gcd(g, x._a, x._b)
        if g == 1:
            return row
    return {c: _make(x._a // g, x._b // g, 1) for c, x in row.items()} if g else row


def _gaussian_content_free(row: Row) -> Row:
    """A Gaussian-integer row divided by the gcd in Z[i] of its entries (Euclid,
    folded entry by entry until a unit, when ``row`` itself is returned)."""
    ga = gb = 0
    for x in row.values():
        a, b = x._a, x._b
        while a or b:  # (g, x) <- (x, g - q x), q the Gaussian integer nearest g / x
            n2, re, im = 2 * (a * a + b * b), ga * a + gb * b, gb * a - ga * b
            qr, qi = (2 * re + n2 // 2) // n2, (2 * im + n2 // 2) // n2
            ga, gb, a, b = a, b, ga - qr * a + qi * b, gb - qr * b - qi * a
        if ga * ga + gb * gb == 1:
            return row
    n = ga * ga + gb * gb
    return {c: _make((x._a * ga + x._b * gb) // n, (x._b * ga - x._a * gb) // n, 1)
            for c, x in row.items()} if n else row


def over_common_denominator(row: Row) -> tuple[Row, int]:
    """(num, den): ``row`` as the Gaussian-integer row ``num`` over the least
    common denominator ``den`` of its entries, row = num / den exactly."""
    den = math.lcm(*[x._d for x in row.values()])
    if den > 1:
        s = {c: den // x._d for c, x in row.items()}
        row = {c: _make(x._a * s[c], x._b * s[c], 1) for c, x in row.items()}
    return row, den


def integral(row: Row) -> Row:
    """``row`` times the positive rational that makes it a primitive
    Gaussian-integer row (``row`` itself if it is one already).  A row whose
    entries all have denominator 1 skips the lcm and the copy."""
    for x in row.values():
        if x._d != 1:
            return _content_free(over_common_denominator(row)[0])
    return _content_free(row)


def combine(a: GaussianRational, dst: Row, b: GaussianRational, src: Row) -> Row:
    """The primitive form of a * dst - b * src, for Gaussian-integer rows and
    scalars: the one fraction-free row update behind every elimination and
    orthogonalisation.  a and b are divided by their common integer content
    first; a > 0 real keeps the sign of dst, and a = 1 keeps its untouched
    entries as they are.  The content gcd of the result stops at its first
    entries whenever they are already coprime (see :func:`_content_free`)."""
    ar, ai, br, bi = a._a, a._b, b._a, b._b
    g = math.gcd(ar, ai, br, bi)
    if g > 1:
        ar, ai, br, bi = ar // g, ai // g, br // g, bi // g
    if ar == 1 and not ai:
        out = dict(dst)
    else:
        out = {
            c: _make(ar * x._a - ai * x._b, ar * x._b + ai * x._a, 1)
            for c, x in dst.items()
        }
    for c, y in src.items():
        yr, yi = y._a, y._b
        x = out.get(c, G_ZERO)
        re, im = x._a - br * yr + bi * yi, x._b - br * yi - bi * yr
        if re or im:
            out[c] = _make(re, im, 1)
        else:
            out.pop(c, None)
    return _content_free(out)


def inner(u: Row, v: Row, n: list[int]) -> tuple[int, int]:
    """(re, im) of sum_c u_c conj(v_c) n_c, for Gaussian-integer rows and
    integer weights ``n``."""
    re = im = 0
    for c, x in u.items():
        y = v.get(c)
        if y is not None:
            xr, xi, yr, yi, w = x._a, x._b, y._a, y._b, n[c]
            re += (xr * yr + xi * yi) * w
            im += (xi * yr - xr * yi) * w
    return re, im


def project(row: Row, den: int, basis: list[Row], norms: list[int], n: list[int]) -> Row:
    """Coordinates of row / den against an orthogonal Gaussian-integer basis:
    entry s is <row, basis[s]> / (den * norms[s]), exact, under the integer
    weights ``n``, where norms[s] = <basis[s], basis[s]>.  A common scale of
    the weights cancels.  Zero coordinates are dropped."""
    out: Row = {}
    for s, (w, g) in enumerate(zip(basis, norms)):
        re, im = inner(row, w, n)
        if re or im:
            out[s] = _reduced(re, im, g * den)
    return out


def back_substitute(x: list[tuple[int, int]], dens: list[int], tri: list[tuple]) -> Row:
    """Coordinates a (zeros dropped) of sum_r a_r w_r, the vector whose entry
    at free column f_t is (re + im i) / dens[t] for x[t] = (re, im), where
    tri[t] = (w_t[f_t], [(r, w_r[f_t]) for later rows r]) is lower triangular."""
    a: Row = {}
    for t in range(len(x) - 1, -1, -1):
        (diag, later), (re, im), d = tri[t], x[t], dens[t]
        for r, y in later:
            z = a.get(r)
            if z is not None:
                za, zb, ya, yb = z._a, z._b, y._a, y._b
                re, im, d = _sum_triple(re, im, d, zb * yb - za * ya, -za * yb - zb * ya, z._d * y._d)
        if re or im:
            c, e, f = diag._a, diag._b, diag._d
            a[t] = _reduced((re * c + im * e) * f, (im * c - re * e) * f, d * (c * c + e * e))
    return a


def _echelon(rows: list[Row], ncols: int) -> tuple[list[int], list[Row]]:
    """Fraction-free forward elimination: (pivot columns ascending, primitive
    Gaussian-integer echelon rows), row ``i`` leading at ``pivots[i]``.
    Pivots are chosen left-to-right and ties between candidate rows are
    broken by input order."""
    by_lead: dict[int, list[Row]] = {}
    for r in rows:
        if r:
            by_lead.setdefault(min(r), []).append(integral(r))

    pivots: list[int] = []
    pivot_rows: list[Row] = []
    for col in range(ncols):
        bucket = by_lead.pop(col, None)
        if not bucket:
            continue
        piv = bucket[0]
        pc = piv[col]
        for other in bucket[1:]:
            other = combine(pc, other, other[col], piv)
            if other:
                by_lead.setdefault(min(other), []).append(other)
        pivots.append(col)
        pivot_rows.append(piv)
    return pivots, pivot_rows


def rref(rows: list[Row], ncols: int) -> tuple[list[int], list[Row]]:
    """Fraction-free reduced row echelon form of the span of ``rows``.

    Returns (pivot columns ascending, reduced rows) where reduced row ``i`` is
    a Gaussian-integer row whose entries have a unit gcd in Z[i], with a
    nonzero entry at ``pivots[i]`` and zeros in every other pivot column.
    Divided by that entry it is row ``i`` of the (unique) RREF.
    Deterministic: identical input gives identical output.
    """
    pivots, red = _echelon(rows, ncols)
    # Clear each pivot column above its row, last pivot row first.  Row i is
    # then zero in every later pivot column, so clearing it from a row above
    # adds entries in free columns only: the rows to clear are known upfront.
    # Row i is final when its turn comes; its Gaussian content goes first.
    index = {p: i for i, p in enumerate(pivots)}
    above: list[list[int]] = [[] for _ in pivots]
    for j, row in enumerate(red):
        for c in row:
            if index.get(c, j) > j:
                above[index[c]].append(j)
    for i in range(len(red) - 1, -1, -1):
        p, row = pivots[i], _gaussian_content_free(red[i])
        red[i] = row
        for j in above[i]:
            red[j] = combine(row[p], red[j], red[j][p], row)
    return pivots, red


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
            if c is not None:
                v[pc] = -c / row[pc]
        basis.append(v)
    return basis


def complement_kernel(pivots: list[int], red: list[Row], ncols: int) -> list[Row]:
    """Basis of {x : sum_c x_c conj(u_i[c]) = 0 for every reduced row u_i}, the
    complement under weights omega in Gram-applied coordinates x = omega v: one
    primitive Gaussian-integer vector per free column f, ascending, positive at f.

    u_i is zero in every pivot column but its own p_i, so the kernel vector for
    f with x_f = 1 is x_{p_i} = -conj(u_i[f] / u_i[p_i]) (a row's scale cancels),
    exactly :func:`kernel_basis` of the rows conj(u_i), scaled by the least
    L > 0 that makes it integral."""
    pivot_set = set(pivots)
    basis = {f: {f: G_ONE} for f in range(ncols) if f not in pivot_set}
    for p, u in zip(pivots, red):
        ur, ui = u[p]._a, u[p]._b
        dp = ur * ur + ui * ui
        make = _make if dp == 1 else _reduced  # a unit pivot needs no gcd
        for f, y in u.items():
            if f != p:
                yr, yi = y._a, y._b
                basis[f][p] = make(-(yr * ur + yi * ui), yi * ur - yr * ui, dp)
    return [integral(v) for v in basis.values()]


def orthogonalize(rows: list[Row], n: list[int]) -> tuple[list[Row], list[int]]:
    """Fraction-free Gram-Schmidt of Gaussian-integer rows under the integer
    weights ``n``: (basis, norms) with basis[r] orthogonal to every other row
    and norms[r] = <basis[r], basis[r]>.  Each row is updated by
    w <- g_u w - <w, u> u against the earlier basis rows u, content removed."""
    basis: list[Row] = []
    norms: list[int] = []
    for w in rows:
        for u, g in zip(basis, norms):
            re, im = inner(w, u, n)
            if re or im:
                w = combine(_make(g, 0, 1), w, _make(re, im, 1), u)
        basis.append(w)
        norms.append(inner(w, w, n)[0])
    return basis, norms


def reduce_against(row: Row, pivots: list[int], red: list[Row]) -> tuple[list[GaussianRational], Row]:
    """Express ``row`` against the reduced rows of :func:`rref`.

    Returns (coefficients, residual): row = sum_i coeff_i * red_i + residual,
    with the residual supported off the pivot columns.
    """
    work = dict(row)
    coeffs: list[GaussianRational] = []
    for pc, basis_row in zip(pivots, red):
        c = work.get(pc, G_ZERO)
        if c:
            c = c / basis_row[pc]
            for col, v in basis_row.items():
                s = work.get(col, G_ZERO) - c * v
                if s:
                    work[col] = s
                else:
                    work.pop(col, None)
        coeffs.append(c)
    return coeffs, work


# ---------------------------------------------------------------------------
# sparse blocks
# ---------------------------------------------------------------------------

def _sum_triple(a: int, b: int, d: int, c: int, e: int, f: int) -> tuple[int, int, int]:
    """(a + b i) / d + (c + e i) / f as an unreduced triple over lcm(d, f)."""
    if d == f:
        return a + c, b + e, d
    l = math.lcm(d, f)
    s, t = l // d, l // f
    return a * s + c * t, b * s + e * t, l


def mat_sub(a: list[Row], b: list[Row]) -> list[Row]:
    """Row-wise a - b; entries that cancel are dropped."""
    out: list[Row] = []
    for ra, rb in zip(a, b):
        row = dict(ra)
        for j, y in rb.items():
            x = row.get(j, G_ZERO)
            re, im, d = _sum_triple(x._a, x._b, x._d, -y._a, -y._b, y._d)
            if re or im:
                row[j] = _reduced(re, im, d)
            else:
                del row[j]
        out.append(row)
    return out


def mat_mul(a: list[Row], b: list[Row]) -> list[Row]:
    """Product a @ b, row by row (Gustavson): row i is sum_k a[i][k] * b[k],
    each entry summed as an integer triple and reduced once."""
    out: list[Row] = []
    for arow in a:
        acc: dict[int, tuple[int, int, int]] = {}
        for k, x in arow.items():
            xa, xb, xd = x._a, x._b, x._d
            for j, y in b[k].items():
                re, im, d = xa * y._a - xb * y._b, xa * y._b + xb * y._a, xd * y._d
                t = acc.get(j)
                acc[j] = (re, im, d) if t is None else _sum_triple(*t, re, im, d)
        out.append({j: _reduced(*t) for j, t in acc.items() if t[0] or t[1]})
    return out


def adjoint(block: list[Row], t_norms: list[int], t_den: int, s_norms: list[int], s_den: int) -> list[Row]:
    """Adjoint of a block between orthogonal bases with Gram diagonals s_norms / s_den
    (source) and t_norms / t_den (target): entry (c, r) is conj(block[r][c]) g_t[r] / g_s[c]."""
    out: list[Row] = [{} for _ in s_norms]
    for r, row in enumerate(block):
        n = t_norms[r] * s_den
        for c, x in row.items():
            out[c][r] = _reduced(x._a * n, -x._b * n, x._d * t_den * s_norms[c])
    return out


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


def to_complex_array(blocks: list[list[Row]], nrows: int, ncols: int) -> np.ndarray:
    """The single exact-to-float crossing (numeric tier): B blocks of one
    shape as one (B, nrows, ncols) array, filled by one scatter."""
    out = np.zeros((len(blocks), nrows, ncols), dtype=complex)
    at, vals = [], []
    for i, row in enumerate(r for block in blocks for r in block):
        at += [i * ncols + j for j in row]
        vals += map(complex, row.values())
    out.reshape(-1)[at] = vals
    return out


def fraction_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    pn, pd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if pn * pn == q.numerator and pd * pd == q.denominator:
        return Fraction(pn, pd)
    return None
