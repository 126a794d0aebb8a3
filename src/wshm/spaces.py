"""Weighted shift Hilbert modules given by their monomial weight function.

A space is determined by the exact rational weight ``omega(alpha) =
||z^alpha||^2 > 0`` on exponent tuples; monomials of distinct exponents are
orthogonal.  Built-in weights:

    drury-arveson   omega(alpha) = alpha! / |alpha|!
    hardy-ball      omega(alpha) = alpha! (m-1)! / (|alpha|+m-1)!
    bergman-ball    omega(alpha) = alpha! m! / (|alpha|+m)!
    polydisk-hardy  omega(alpha) = scale2^|alpha|   (scale2 = 1 by default)

``polydisk-hardy`` takes a rational ``scale2`` parameter, the squared scale
of the generator tuple: only squared quantities enter any computation, so the
1/sqrt(m)-scaled tuple stays in exact rational arithmetic via scale2 = 1/m.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, Iterable

from .algebra import (
    MultiIndex,
    WeightVector,
    add_index,
    check_multiindex,
    check_weight_vector,
    enumerate_level,
    residue_of,
    unit_index,
)
from .errors import ArityError, DimensionError, WshmError

WeightFn = Callable[[MultiIndex], Fraction]

BUILTIN_KINDS = ("drury-arveson", "hardy-ball", "bergman-ball", "polydisk-hardy", "custom")

_ALIASES = {
    "da": "drury-arveson",
    "drury-arveson": "drury-arveson",
    "hardy": "hardy-ball",
    "hardy-ball": "hardy-ball",
    "bergman": "bergman-ball",
    "bergman-ball": "bergman-ball",
    "polydisk": "polydisk-hardy",
    "polydisk-hardy": "polydisk-hardy",
    "custom": "custom",
}


class WeightedShiftSpace:
    """Immutable weighted shift Hilbert module.

    The weight cache fills idempotently (same key always maps to the same
    value), so concurrent readers never need coordination.
    """

    def __init__(
        self,
        kind: str,
        m: int,
        weight_fn: WeightFn,
        params: dict | None = None,
    ):
        if m < 1:
            raise ArityError(f"variable count must be >= 1, got {m}")
        self.kind = kind
        self.m = m
        self.params = dict(params or {})
        self._weight_fn = weight_fn
        self._cache: dict[MultiIndex, Fraction] = {}

    def weight(self, alpha: Iterable[int]) -> Fraction:
        """omega(alpha) = ||z^alpha||^2, exact and positive."""
        a = check_multiindex(alpha, self.m)
        w = self._cache.get(a)
        if w is None:
            w = Fraction(self._weight_fn(a))
            if w <= 0:
                raise WshmError(f"weight must be positive, got {w} at {a}")
            self._cache[a] = w
        return w

    def reciprocal_weights(self, monomials: list[MultiIndex]) -> tuple[list[int], int]:
        """(r, D): 1 / omega(alpha_j) = r[j] / D exactly, D the lcm of their denominators."""
        den = math.lcm(*[self.weight(a).numerator for a in monomials])
        return [den // w.numerator * w.denominator for w in map(self.weight, monomials)], den

    def shift_ratio(self, alpha: Iterable[int], i: int) -> Fraction:
        """omega(alpha + e_i) / omega(alpha) = ||z_i z^alpha||^2 / ||z^alpha||^2."""
        a = check_multiindex(alpha, self.m)
        if not 0 <= i < self.m:
            raise DimensionError(f"variable index {i} out of range for m={self.m}")
        return self.weight(add_index(a, unit_index(self.m, i))) / self.weight(a)

    def spherical_defect(self, alpha: Iterable[int]) -> Fraction:
        """Eigenvalue of I - sum_i M_{z_i}* M_{z_i} at z^alpha (exact), from
        the weights alone: the reference for the diagonal of
        :func:`~wshm.operators.defect_blocks`.

        The operator is diagonal in the monomial basis because monomials of
        distinct exponents are orthogonal.
        """
        a = check_multiindex(alpha, self.m)
        return 1 - sum(self.shift_ratio(a, i) for i in range(self.m))

    def describe(self, preview_degree: int = 3) -> dict:
        """JSON-ready descriptor with a weight table up to preview_degree."""
        sample = []
        for k in range(preview_degree + 1):
            for a in enumerate_level(self.m, k):
                sample.append({"alpha": list(a), "omega": str(self.weight(a))})
        return {
            "kind": self.kind,
            "m": self.m,
            "params": {k: str(v) for k, v in self.params.items()},
            "sample_weights": sample,
        }

    def __repr__(self) -> str:
        return f"WeightedShiftSpace({self.kind}, m={self.m}, params={self.params})"


class _KernelPowerSpace(WeightedShiftSpace):
    """Weights alpha! (shift-1)! / (|alpha|+shift-1)!, whose reciprocal
    weights, the one weight table a realization reads, are integers in
    closed form.

    shift = 1 gives Drury-Arveson, shift = m the Hardy ball, shift = m+1 the
    Bergman ball (these are the kernel powers of the respective spaces).
    Each space keeps a table of Pascal rows C(n, e) for
    :meth:`reciprocal_weights`; a read past the table's end replaces it by a
    longer copy (never extended in place, so a concurrent reader sees a whole
    table).
    """

    def __init__(self, kind: str, m: int, shift: int):
        def weight(alpha: MultiIndex) -> Fraction:
            num = math.prod(math.factorial(a) for a in alpha) * math.factorial(shift - 1)
            return Fraction(num, math.factorial(sum(alpha) + shift - 1))

        super().__init__(kind, m, weight)
        self._shift = shift
        self._pascal = [[1]]  # _pascal[n][e] = C(n, e), extended to the highest level read

    def reciprocal_weights(self, monomials: list[MultiIndex]) -> tuple[list[int], int]:
        """Over D = 1, with no division: 1 / omega(alpha) = (|alpha|+shift-1)! / (alpha!
        (shift-1)!) = C(|alpha|+shift-1, shift-1) prod_i C(alpha_1+...+alpha_i, alpha_i),
        each factor an entry of the Pascal table."""
        s1, rows = self._shift - 1, self._pascal
        top = max(map(sum, monomials), default=0) + s1
        if len(rows) <= top:
            rows = list(rows)
            for _ in range(len(rows), top + 1):
                rows.append([1, *map(operator.add, rows[-1], rows[-1][1:]), 1])
            self._pascal = rows
        out = []
        for alpha in monomials:
            x, n = 1, 0
            for a in alpha:
                n += a
                x *= rows[n][a]
            out.append(x * rows[n + s1][s1])
        return out, 1


# the only parameter keys each kind reads; any other key is an input error
_PARAM_KEYS = {"polydisk-hardy": ("scale2",), "custom": ("table",)}


def builtin_space(kind: str, m: int, params: dict | None = None) -> WeightedShiftSpace:
    """Construct one of the built-in spaces (or a custom one) by name.

    ``params`` may hold only the keys its kind reads: ``scale2`` (a positive
    rational, or "1/m") for polydisk-hardy and ``table`` (exponent tuple ->
    positive weight) for custom.
    """
    canonical = _ALIASES.get(str(kind).lower())
    if canonical is None:
        raise WshmError(f"unknown space kind {kind!r}; expected one of {BUILTIN_KINDS}")
    if m < 1:
        raise ArityError(f"variable count must be >= 1, got {m}")
    params = dict(params or {})
    unknown = set(params) - set(_PARAM_KEYS.get(canonical, ()))
    if unknown:
        raise WshmError(f"space {canonical} reads no parameter {min(unknown)!r}")

    if canonical == "drury-arveson":
        return _KernelPowerSpace(canonical, m, 1)
    if canonical == "hardy-ball":
        return _KernelPowerSpace(canonical, m, m)
    if canonical == "bergman-ball":
        return _KernelPowerSpace(canonical, m, m + 1)
    if canonical == "polydisk-hardy":
        raw = params.get("scale2", 1)
        try:
            scale2 = Fraction(1, m) if raw == "1/m" else Fraction(raw)
        except (ValueError, TypeError, ZeroDivisionError):
            scale2 = None
        if scale2 is None or scale2 <= 0:
            raise WshmError(f"scale2 must be a positive rational, got {raw!r}")

        def w(alpha: MultiIndex, _s=scale2) -> Fraction:
            return _s ** sum(alpha)

        return WeightedShiftSpace(canonical, m, w, params={"scale2": scale2})

    table = params.get("table")
    if not isinstance(table, dict):
        raise WshmError("custom space needs params['table'], a dict of exponent tuples to weights")
    tbl = {tuple(k): Fraction(v) for k, v in table.items()}

    def fn(alpha: MultiIndex) -> Fraction:
        if alpha not in tbl:
            raise WshmError(f"custom weight table has no entry for {alpha}")
        return tbl[alpha]

    return WeightedShiftSpace("custom", m, fn, params={"table": "inline"})


def weighted_piece(
    space: WeightedShiftSpace, n: WeightVector, alpha: MultiIndex
) -> WeightedShiftSpace:
    """The residue piece H^n(alpha) as a module in its own right.

    Its weight is omega_hat(beta) = omega(alpha + n*beta) (componentwise
    product), the module action being multiplication by z_i^{n_i}.  The
    residue class representative must satisfy 0 <= alpha < n.
    """
    n = check_weight_vector(n, space.m)
    a = check_multiindex(alpha, space.m)
    if residue_of(a, n) != a:
        raise DimensionError(f"residue representative {a} not in the box 0 <= alpha < {n}")

    def w(beta: MultiIndex) -> Fraction:
        return space.weight(tuple(x + ni * b for x, ni, b in zip(a, n, beta)))

    return WeightedShiftSpace(
        f"{space.kind}^piece",
        space.m,
        w,
        params={"n": n, "alpha": a, "base": space.kind, **space.params},
    )
