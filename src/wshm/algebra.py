"""Exact scalars, multi-index combinatorics, and graded polynomials.

Scalars are Gaussian rationals (a + b i) / d held as three Python ints in
lowest terms, so +, -, * and / are int arithmetic with one gcd and create no
`fractions.Fraction`; ``re``, ``im`` and ``abs2`` are Fraction-valued.  All
arithmetic is exact; there is no rounding anywhere in this module.

Monomials are exponent tuples ``alpha = (a_1, ..., a_m)`` and polynomials are
sparse maps from exponent tuple to coefficient (zero coefficients are never
stored).  ``GradedPolynomial(m, terms)`` checks m, each exponent and each
coefficient; arithmetic results, built from checked terms, are not checked
again.  A single deterministic monomial order -- graded lexicographic, with the
higher power of the earlier variable first inside each degree -- is used
everywhere so that matrices, bases and reports are bit-for-bit reproducible.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

from .errors import ArityError, DimensionError

MultiIndex = tuple[int, ...]
WeightVector = tuple[int, ...]

ScalarLike = Union["GaussianRational", Fraction, int]


class GaussianRational:
    """A complex number with rational real and imaginary parts.

    Stored as three ints (a, b, d) meaning (a + b i) / d, with d > 0 and
    gcd(a, b, d) = 1, and never mutated.  Closed under +, -, *, and / by a
    nonzero element.  Equality and hashing are exact and agree with
    Fraction/int on real values, so these can key dictionaries and be
    compared for bit-for-bit identity in tests.  Elsewhere only the integer row
    kernels of ``exact_linalg`` build the triple; they and ``operators.moduli_sq`` read it.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: ScalarLike = 0, im: ScalarLike = 0):
        re, im = Fraction(re), Fraction(im)
        d = self._d = math.lcm(re.denominator, im.denominator)
        self._a, self._b = re.numerator * d // re.denominator, im.numerator * d // im.denominator

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return not self._b and self._a == other.numerator and self._d == other.denominator
        return NotImplemented

    def __hash__(self):
        return hash(self.re) if not self._b else hash((self.re, self.im))

    @staticmethod
    def of(value: ScalarLike) -> "GaussianRational":
        return value if isinstance(value, GaussianRational) else GaussianRational(value)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        c, e, f = _parts(other)
        a, b, d = self._a, self._b, self._d
        if d == f:
            return _reduced(a + c, b + e, d)
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return _make(-self._a, -self._b, self._d)

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        return self + -other

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        return -self + other

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        c, e, f = _parts(other)
        a, b = self._a, self._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * f)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        c, e, f = _parts(other)
        a, b = self._a * f, self._b * f
        if not e:
            if not c:
                raise ZeroDivisionError("division by zero Gaussian rational")
            if c < 0:
                a, b, c = -a, -b, -c
            return _reduced(a, b, self._d * c)
        return _reduced(a * c + b * e, b * c - a * e, self._d * (c * c + e * e))

    def __rtruediv__(self, other: ScalarLike) -> "GaussianRational":
        return _make(*_parts(other)) / self

    def scaled(self, num: int, den: int) -> "GaussianRational":
        """self * num / den for ints num and den > 0, reduced once."""
        return _reduced(self._a * num, self._b * num, self._d * den)

    def conjugate(self) -> "GaussianRational":
        return _make(self._a, -self._b, self._d)

    def abs2(self, num: int = 1, den: int = 1) -> Fraction:
        """Squared modulus times num / den (ints, den > 0), an exact rational reduced once."""
        return Fraction((self._a * self._a + self._b * self._b) * num, self._d * self._d * den)

    def is_real(self) -> bool:
        return not self._b

    def __complex__(self) -> complex:
        # int / int is correctly rounded, the same double as float(Fraction)
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if not self._b:
            return str(self.re)
        im = f"{abs(self.im)}i" if abs(self.im) != 1 else "i"
        sign = "-" if self._b < 0 else "+"
        if not self._a:
            return im if sign == "+" else f"-{im}"
        return f"{self.re}{sign}{im}"


def _make(a: int, b: int, d: int) -> GaussianRational:
    """(a + b i) / d for a triple already in lowest terms with d > 0."""
    x = object.__new__(GaussianRational)
    x._a, x._b, x._d = a, b, d
    return x


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b i) / d for d > 0, reduced to lowest terms.  The gcd starts at d,
    so a Gaussian integer (d = 1) costs no big-int gcd."""
    g = math.gcd(d, a, b)
    return _make(a, b, d) if g == 1 else _make(a // g, b // g, d // g)


def _parts(x: ScalarLike) -> tuple[int, int, int]:
    """(a, b, d) of an operand; a real one (int, Fraction, float) has b = 0."""
    if isinstance(x, GaussianRational):
        return x._a, x._b, x._d
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x.numerator, 0, x.denominator


G_ZERO = GaussianRational()
G_ONE = GaussianRational(Fraction(1))
G_I = GaussianRational(Fraction(0), Fraction(1))


def check_multiindex(alpha: Iterable[int], m: int) -> MultiIndex:
    a = tuple(int(x) for x in alpha)
    if len(a) != m:
        raise DimensionError(f"multi-index length {len(a)} != variable count {m}")
    if any(x < 0 for x in a):
        raise DimensionError(f"multi-index entries must be >= 0, got {a}")
    return a


def check_weight_vector(n: Iterable[int], m: int) -> WeightVector:
    w = tuple(int(x) for x in n)
    if len(w) != m:
        raise DimensionError(f"weight vector length {len(w)} != variable count {m}")
    if any(x < 1 for x in w):
        raise DimensionError(f"weight vector entries must be >= 1, got {w}")
    return w


def grlex_key(alpha: MultiIndex) -> tuple:
    """Sort key realizing the graded lexicographic order used everywhere."""
    return (sum(alpha), tuple(-a for a in alpha))


def level_dimension(m: int, k: int) -> int:
    """Number of monomials of total degree k in m variables: C(m+k-1, k)."""
    if m < 1:
        raise ArityError(f"variable count must be >= 1, got {m}")
    if k < 0:
        return 0
    return math.comb(m + k - 1, k)


def enumerate_level(m: int, k: int) -> list[MultiIndex]:
    """All degree-k exponent tuples in m variables, in graded-lex order.

    The order is identical across runs: the first variable carries the
    highest power first, e.g. (2,2) -> [(2,0), (1,1), (0,2)].  This is
    :func:`enumerate_weighted_level` with n = (1,...,1).
    """
    return enumerate_weighted_level(m, (1,) * m, k)


def enumerate_weighted_level(m: int, n: WeightVector, ell: int) -> list[MultiIndex]:
    """All exponent tuples with weighted degree sum(n_i * a_i) = ell.

    Deterministic order: earlier variables take higher exponents first,
    consistent with :func:`enumerate_level` (which is the n = (1,...,1) case).
    The tuples are built one variable at a time, each prefix with the budget
    it leaves; the prefixes of every step are already in that order.
    """
    if m < 1:
        raise ArityError(f"variable count must be >= 1, got {m}")
    n = check_weight_vector(n, m)
    if ell < 0:
        return []
    parts = [((), ell)]
    for w in n[:-1]:
        parts = [(p + (e,), b - e * w) for p, b in parts for e in range(b // w, -1, -1)]
    w = n[-1]
    return [p + (b // w,) for p, b in parts if b % w == 0]


def weighted_degree(alpha: MultiIndex, n: WeightVector) -> int:
    """The weighted degree sum(n_i * alpha_i) of a monomial exponent."""
    if len(alpha) != len(n):
        raise DimensionError(
            f"multi-index length {len(alpha)} != weight length {len(n)}"
        )
    return sum(a * w for a, w in zip(alpha, n))


def residue_of(alpha: MultiIndex, n: WeightVector) -> MultiIndex:
    """Componentwise residue (alpha_i mod n_i); lies in the box 0 <= r < n."""
    if len(alpha) != len(n):
        raise DimensionError(
            f"multi-index length {len(alpha)} != weight length {len(n)}"
        )
    return tuple(a % w for a, w in zip(alpha, n))


def add_index(alpha: MultiIndex, beta: MultiIndex) -> MultiIndex:
    return tuple(map(operator.add, alpha, beta))


def sub_index(alpha: MultiIndex, beta: MultiIndex) -> MultiIndex | None:
    """alpha - beta componentwise, or None if any entry would go negative."""
    out = tuple(a - b for a, b in zip(alpha, beta))
    if any(x < 0 for x in out):
        return None
    return out


def unit_index(m: int, i: int) -> MultiIndex:
    return tuple(1 if j == i else 0 for j in range(m))


class GradedPolynomial:
    """A sparse polynomial with exact Gaussian-rational coefficients.

    Immutable once constructed; no zero coefficient is ever stored, so
    equality of term maps is equality of polynomials.
    """

    __slots__ = ("m", "_terms", "_degree", "_hash")

    def __init__(self, m: int, terms: Mapping[MultiIndex, ScalarLike] | None = None):
        if m < 1:
            raise ArityError(f"variable count must be >= 1, got {m}")
        items = terms.items() if terms else ()
        _poly(m, _summed((check_multiindex(a, m), GaussianRational.of(c)) for a, c in items), self)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("GradedPolynomial is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(m: int) -> "GradedPolynomial":
        return GradedPolynomial(m, {})

    @staticmethod
    def constant(m: int, value: ScalarLike) -> "GradedPolynomial":
        return GradedPolynomial(m, {(0,) * m: value})

    @staticmethod
    def variable(m: int, i: int) -> "GradedPolynomial":
        if not 0 <= i < m:
            raise DimensionError(f"variable index {i} out of range for m={m}")
        return GradedPolynomial(m, {unit_index(m, i): 1})

    # -- inspection ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> int | None:
        """Total degree, or None for the zero polynomial."""
        return self._degree

    def coefficient(self, alpha: MultiIndex) -> GaussianRational:
        return self._terms.get(tuple(alpha), G_ZERO)

    def terms(self) -> Iterator[tuple[MultiIndex, GaussianRational]]:
        """Terms in graded-lex order (deterministic)."""
        for alpha in sorted(self._terms, key=grlex_key):
            yield alpha, self._terms[alpha]

    def support(self) -> list[MultiIndex]:
        return sorted(self._terms, key=grlex_key)

    @property
    def is_homogeneous(self) -> bool:
        degs = {sum(a) for a in self._terms}
        return len(degs) <= 1

    def weighted_degree(self, n: WeightVector) -> int | None:
        """Max weighted degree over the support, or None for zero."""
        n = check_weight_vector(n, self.m)
        return max((weighted_degree(a, n) for a in self._terms), default=None)

    def is_quasi_homogeneous(self, n: WeightVector) -> bool:
        n = check_weight_vector(n, self.m)
        degs = {weighted_degree(a, n) for a in self._terms}
        return len(degs) <= 1

    # -- arithmetic ----------------------------------------------------

    def _require_same_ring(self, other: "GradedPolynomial") -> None:
        if self.m != other.m:
            raise DimensionError(
                f"polynomials over different variable counts: {self.m} vs {other.m}"
            )

    def __add__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        self._require_same_ring(other)
        return _poly(self.m, _summed([*self._terms.items(), *other._terms.items()]))

    def __neg__(self) -> "GradedPolynomial":
        return _poly(self.m, {a: -c for a, c in self._terms.items()})

    def __sub__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "GradedPolynomial":
        if isinstance(other, GradedPolynomial):
            self._require_same_ring(other)
            return _poly(self.m, _summed((add_index(a, b), ca * cb) for a, ca in self._terms.items()
                                         for b, cb in other._terms.items()))
        return self.scale(other)

    def __rmul__(self, other) -> "GradedPolynomial":
        return self.scale(other)

    def scale(self, c: ScalarLike) -> "GradedPolynomial":
        g = GaussianRational.of(c)
        if not g:
            return GradedPolynomial.zero(self.m)
        return _poly(self.m, {a: v * g for a, v in self._terms.items()})

    def times_monomial(self, beta: MultiIndex) -> "GradedPolynomial":
        b = check_multiindex(beta, self.m)
        return _poly(self.m, {add_index(a, b): c for a, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedPolynomial)
            and self.m == other.m
            and self._terms == other._terms
        )

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.m, frozenset(self._terms.items()))))
        return self._hash

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for alpha, c in self.terms():
            mono = "*".join(
                f"z{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(alpha)
                if e > 0
            )
            if not mono:
                parts.append(str(c))
            elif c == G_ONE:
                parts.append(mono)
            elif c == -G_ONE:
                parts.append(f"-{mono}")
            elif c.is_real():
                parts.append(f"{c}*{mono}")
            else:
                parts.append(f"({c})*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"GradedPolynomial({self})"


def _summed(terms: Iterable[tuple[MultiIndex, GaussianRational]]) -> dict[MultiIndex, GaussianRational]:
    """The term map of a sum of terms: coefficients added per exponent, zero sums dropped."""
    out: dict[MultiIndex, GaussianRational] = {}
    for a, c in terms:
        s = out.get(a)
        out[a] = c if s is None else s + c
    return {a: c for a, c in out.items() if c}


def _poly(m: int, terms: dict[MultiIndex, GaussianRational], p: GradedPolynomial | None = None
          ) -> GradedPolynomial:
    """The polynomial of a checked term map that stores no zero, unchecked as :func:`_make` is
    for scalars; built in ``p`` (the public constructor's instance) when given."""
    p = object.__new__(GradedPolynomial) if p is None else p
    object.__setattr__(p, "m", m)
    object.__setattr__(p, "_terms", terms)
    object.__setattr__(p, "_degree", max(map(sum, terms), default=None))
    object.__setattr__(p, "_hash", None)  # set on first hash
    return p
