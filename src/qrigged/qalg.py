"""Exact arithmetic kernel: Laurent polynomials in q, truncated power series,
Gaussian binomials and q-Pochhammer symbols.

All coefficients are arbitrary-precision integers.  A truncated series
keeps its exponents as integers over one denominator, its den: off/den,
then steps of stride/den, never rational coefficients.  Every value is
immutable; every operation is a pure function.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence, Union


class NonInvertibleSeriesError(ValueError):
    """Raised when a truncated series has no unit leading coefficient."""


class DivergentProductError(ValueError):
    """Raised for a q-Pochhammer product that is not a valid formal series."""


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------

class IntPolynomial:
    """Laurent polynomial in q with integer coefficients, stored dense.

    ``_coeffs`` holds the coefficients of q^offset, q^(offset+1), ... with
    both ends nonzero, and ``_offset`` is the least exponent, which may be
    negative.  The zero polynomial is offset 0 with the empty tuple, so
    equal polynomials have equal fields.  Storage grows with the span of
    the exponents, not with the number of terms.
    """

    __slots__ = ("_offset", "_coeffs")

    def __init__(self, terms: Union[Mapping[int, int], Iterable[tuple[int, int]], None] = None):
        """From a mapping exponent -> coefficient or from (exponent,
        coefficient) pairs; repeated exponents add up."""
        items = terms.items() if isinstance(terms, Mapping) else (terms or ())
        clean: dict[int, int] = {}
        for e, c in items:
            if not isinstance(e, int):
                raise TypeError(f"exponent must be an integer, got {e!r}")
            e = int(e)
            clean[e] = clean.get(e, 0) + int(c)
        nonzero = [e for e, c in clean.items() if c]
        lo = min(nonzero, default=0)
        self._offset = lo
        self._coeffs = tuple(clean.get(e, 0)
                             for e in range(lo, max(nonzero, default=lo - 1) + 1))

    @classmethod
    def _trusted(cls, offset: int, coeffs: Sequence[int]) -> "IntPolynomial":
        """Construct from the int coefficients of q^offset, q^(offset+1), ...
        without coercion or checks, for operations whose inputs are already
        polynomials; zero coefficients at either end are trimmed."""
        lo, hi = 0, len(coeffs)
        while lo < hi and not coeffs[lo]:
            lo += 1
        while hi > lo and not coeffs[hi - 1]:
            hi -= 1
        out = object.__new__(cls)
        out._offset = offset + lo if lo < hi else 0
        out._coeffs = tuple(coeffs[lo:hi])
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "IntPolynomial":
        return IntPolynomial._trusted(0, ())

    @staticmethod
    def one() -> "IntPolynomial":
        return IntPolynomial._trusted(0, (1,))

    @staticmethod
    def monomial(exponent: int) -> "IntPolynomial":
        return IntPolynomial._trusted(exponent, (1,))

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[int, int]:
        """Exponent -> nonzero coefficient, in increasing exponent."""
        return {self._offset + i: c for i, c in enumerate(self._coeffs) if c}

    def coefficient(self, exponent: int) -> int:
        i = exponent - self._offset
        return self._coeffs[i] if 0 <= i < len(self._coeffs) else 0

    def is_zero(self) -> bool:
        return not self._coeffs

    def degree(self) -> Optional[int]:
        return self._offset + len(self._coeffs) - 1 if self._coeffs else None

    def evaluate_at_one(self) -> int:
        return sum(self._coeffs)

    def is_palindromic(self) -> bool:
        return self._coeffs == self._coeffs[::-1]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        # a zero operand has no extent; its offset 0 must not widen the range
        if not other._coeffs:
            return self
        if not self._coeffs:
            return other
        lo = min(self._offset, other._offset)
        out = [0] * (max(self._offset + len(self._coeffs),
                         other._offset + len(other._coeffs)) - lo)
        start = self._offset - lo
        out[start:start + len(self._coeffs)] = self._coeffs
        for i, c in enumerate(other._coeffs, other._offset - lo):
            out[i] += c
        return IntPolynomial._trusted(lo, out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial._trusted(self._offset, [-c for c in self._coeffs])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for j, y in enumerate(b):
            for i, x in enumerate(a, j):
                out[i] += x * y
        return IntPolynomial._trusted(self._offset + other._offset, out)

    def shift(self, exponent: int) -> "IntPolynomial":
        """Multiply by q^exponent."""
        return IntPolynomial._trusted(self._offset + exponent, self._coeffs)

    def reverse(self) -> "IntPolynomial":
        """Substitute q -> 1/q."""
        return IntPolynomial._trusted(1 - self._offset - len(self._coeffs),
                                      self._coeffs[::-1])

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, IntPolynomial) and self._offset == other._offset
                and self._coeffs == other._coeffs)

    def __hash__(self) -> int:
        return hash((self._offset, self._coeffs))

    # -- rendering ---------------------------------------------------------

    def __repr__(self) -> str:
        return f"IntPolynomial({self.terms!r})"

    def __str__(self) -> str:
        return self.render()

    def render(self) -> str:
        """Canonical text form, terms in increasing exponent.

        Examples: ``0``, ``1 + 2*q^2 - q^3``, ``q^-1 + 1``.
        """
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for e, c in self.terms.items():
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                qpow = "q" if e == 1 else f"q^{e}"
                body = qpow if mag == 1 else f"{mag}*{qpow}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def to_json(self) -> list[list[object]]:
        """Canonical JSON form: [exponent, coefficient-as-string] pairs."""
        return [[e, str(c)] for e, c in self.terms.items()]


# ---------------------------------------------------------------------------
# The factor kernel: (1 - s*q^e)^(+/-1) on a dense integer list
# ---------------------------------------------------------------------------

def _apply_factor(c: list[int], e: int, sign: int, power: int) -> None:
    """Multiply the dense coefficient list `c` (of q^0 .. q^(len(c)-1)) in
    place by (1 - sign*q^e)^power, power = 1 or -1, truncating at len(c)."""
    if power == 1:
        for i in range(len(c) - 1, e - 1, -1):
            c[i] -= sign * c[i - e]
        return
    if e == 0:
        raise NonInvertibleSeriesError(
            f"non-invertible factor 1 - ({sign})*q^0: constant term is not a unit")
    for i in range(e, len(c)):
        c[i] += sign * c[i - e]


# ---------------------------------------------------------------------------
# Gaussian binomials
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def q_binomial(m: int, k: int) -> IntPolynomial:
    """Gaussian binomial [m choose k]_q = prod_{i=1..k} (1 - q^(m-k+i)) / (1 - q^i).

    The product is taken over k' = min(k, m - k) factor pairs on a dense list
    truncated at degree k'(m - k').  After the i-th pair the list holds
    [m - k' + i choose i]_q, of degree i(m - k') <= k'(m - k'), so working
    modulo q^(k'(m - k') + 1) loses nothing.  Returns the zero polynomial
    when k < 0 or k > m.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if k < 0 or k > m:
        return IntPolynomial.zero()
    k = min(k, m - k)
    c = [1] + [0] * (k * (m - k))
    for i in range(1, k + 1):
        _apply_factor(c, m - k + i, 1, 1)
        _apply_factor(c, i, 1, -1)
    return IntPolynomial._trusted(0, c)


# ---------------------------------------------------------------------------
# Truncated power series
# ---------------------------------------------------------------------------

def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _at(x: Fraction, d: int) -> int:
    """x * d, for x on the grid 1/d."""
    return x.numerator * (d // x.denominator)


def json_int(value, what: str) -> int:
    """`value` if it is a JSON integer, else ValueError naming `what`: bool
    is an int subclass, and int() would accept floats and digit strings."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_rational(value, what: str) -> Fraction:
    """`value` as a Fraction if it is a JSON integer or a string such as "5/2",
    else ValueError naming `what`: a float is inexact and a bool no number."""
    if type(value) not in (int, str):
        raise ValueError(f"{what} must be an integer or a string, got {value!r}")
    return Fraction(value)


class TruncatedSeries:
    """Power series sum_{i=0..order} coeffs[i] * q^((off + i*stride)/den).

    ``den``, ``off`` and ``stride`` are ints, stride a positive divisor of
    den, so the step is 1/d for a positive integer d; ``offset``, ``step``
    and ``frontier`` are their `Fraction` views.  ``order`` is the
    guaranteed truncation index: coefficients are exact for all exponents
    up to the frontier, offset + order*step (and implicitly zero below the
    offset).  Binary operations return the minimum guaranteed range; nothing
    is ever silently padded with zeros.  Equality and hash are by value, so
    the series moved to a multiple of its den (`_on`) is the same series.
    """

    __slots__ = ("coeffs", "den", "off", "stride")

    def __init__(self, coeffs: Iterable[int], offset=Fraction(0), step=Fraction(1)):
        coeffs, offset, step = tuple(map(int, coeffs)), _as_fraction(offset), _as_fraction(step)
        if not coeffs:
            raise ValueError("a truncated series needs at least one coefficient")
        if step <= 0 or step.numerator != 1:
            raise ValueError("step must be 1/d for a positive integer d")
        den = lcm(offset.denominator, step.denominator)
        self.coeffs, self.den, self.off, self.stride = (
            coeffs, den, _at(offset, den), den // step.denominator)

    @classmethod
    def _trusted(cls, coeffs: tuple[int, ...], den: int, off: int,
                 stride: int) -> "TruncatedSeries":
        """Construct without coercion or checks, from a valid series' fields."""
        out = object.__new__(cls)
        out.coeffs, out.den, out.off, out.stride = coeffs, den, off, stride
        return out

    def _on(self, den: int) -> "TruncatedSeries":
        """The same series on `den`, a multiple of its own."""
        m = den // self.den
        return self._trusted(self.coeffs, den, self.off * m, self.stride * m) if m > 1 else self

    # -- inspection --------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def offset(self) -> Fraction:
        return Fraction(self.off, self.den)

    @property
    def step(self) -> Fraction:
        return Fraction(self.stride, self.den)

    @property
    def frontier(self) -> Fraction:
        """Largest exponent whose coefficient is guaranteed."""
        return Fraction(self.off + self.order * self.stride, self.den)

    def coefficient(self, exponent) -> int:
        """Exact coefficient of q^exponent; errors beyond the frontier."""
        e = _as_fraction(exponent)
        if e > self.frontier:
            raise ValueError(f"exponent {e} beyond guaranteed order {self.frontier}")
        i = e * self.den - self.off
        if i < 0 or i.denominator != 1 or i.numerator % self.stride:
            return 0
        return self.coeffs[i.numerator // self.stride]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return series_sum((self, other))

    def __neg__(self) -> "TruncatedSeries":
        return self._trusted(tuple(-c for c in self.coeffs), self.den, self.off, self.stride)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return series_sum((self, -other))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        x, y = (s._on(lcm(self.den, other.den)) for s in (self, other))
        unit = gcd(x.stride, y.stride)
        a, b = x._spread(unit), y._spread(unit)
        order = min(len(a), len(b)) - 1
        out = [0] * (order + 1)
        for i, c1 in enumerate(a[:order + 1]):
            if not c1:
                continue
            for j in range(0, order - i + 1):
                c2 = b[j]
                if c2:
                    out[i + j] += c1 * c2
        return self._trusted(tuple(out), x.den, x.off + y.off, unit)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires leading coefficient +/-1.  The
        convolution skips the zero coefficients."""
        lead = self.coeffs[0]
        if lead not in (1, -1):
            raise NonInvertibleSeriesError(
                f"non-invertible series: leading coefficient {lead} is not a unit")
        n = self.order
        inv = [0] * (n + 1)
        inv[0] = lead
        terms = [(j, c) for j, c in enumerate(self.coeffs[1:], 1) if c]
        for k in range(1, n + 1):
            acc = 0
            for j, c in terms:
                if j > k:
                    break
                acc += c * inv[k - j]
            inv[k] = -lead * acc
        return self._trusted(tuple(inv), self.den, -self.off, self.stride)

    def times_pochhammer(self, *symbols: tuple["PochhammerSpec", int]) -> "TruncatedSeries":
        """self * prod spec^power over the pairs (spec, power), power = 1 or -1;
        self for no pair.  The den is refined once, until every factor exponent
        is an integer, and `_times` applies the factors.
        Raises NonInvertibleSeriesError for power = -1 on a factor of exponent 0."""
        if not symbols:
            return self
        d = lcm(self.den, *(x.denominator for spec, _ in symbols
                            for x in (spec.exponent, spec.step)))
        return self._on(d)._times([
            (_at(spec.exponent, d), _at(spec.step, d), spec.length, spec.sign, power)
            for spec, power in symbols])

    def _times(self, factors) -> "TruncatedSeries":
        """self times (1 - sign*q^((first + i*gap)/den))^power for i < length
        (every i inside the series if length is None) over the factors (first,
        gap, length, sign, power), on its stride refined once, to divide every
        first and gap; `_apply_factor` applies each factor in place."""
        unit = gcd(self.stride, *(x for first, gap, *_ in factors for x in (first, gap)))
        c = self._spread(unit)
        for first, gap, length, sign, power in factors:
            n = len(c) if length is None else length
            for e in range(first // unit, min(len(c), (first + n * gap) // unit), gap // unit):
                _apply_factor(c, e, sign, power)
        return self._trusted(tuple(c), self.den, self.off, unit)

    def _spread(self, unit: int) -> list[int]:
        """The coefficients as a dense list on `unit`, a divisor of the stride."""
        c = [0] * (self.order * (self.stride // unit) + 1)
        c[::self.stride // unit] = self.coeffs
        return c

    def shift(self, exponent) -> "TruncatedSeries":
        """Multiply by q^exponent."""
        e = _as_fraction(exponent)
        s = self._on(lcm(self.den, e.denominator))
        return s._trusted(s.coeffs, s.den, s.off + _at(e, s.den), s.stride)

    def truncate(self, frontier) -> "TruncatedSeries":
        """Restrict the guarantee to exponents <= frontier."""
        f = _as_fraction(frontier)
        order = (f.numerator * self.den // f.denominator - self.off) // self.stride
        if order >= self.order:
            return self
        if order < 0:
            raise ValueError("truncation below the series offset")
        return self._trusted(self.coeffs[:order + 1], self.den, self.off, self.stride)

    # -- comparison / rendering --------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TruncatedSeries) and \
            (self.coeffs, self.offset, self.step) == (other.coeffs, other.offset, other.step)

    def __hash__(self) -> int:
        return hash((self.coeffs, self.offset, self.step))

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.coeffs!r}, {self.offset!r}, {self.step!r})"

    def to_json(self) -> dict:
        """Canonical JSON form: offset, step and coefficients as strings."""
        return {"offset": str(self.offset), "step": str(self.step),
                "coeffs": [str(c) for c in self.coeffs]}


def _place(out: list[int], coeffs: Sequence[int], start: int, stride: int) -> None:
    """Add `coeffs` into the dense list `out` at indices start, start +
    stride, ..., dropping those past its end."""
    stop = min(len(out), start + len(coeffs) * stride)
    out[start:stop:stride] = map(int.__add__, out[start:stop:stride], coeffs)


def series_sum(terms: Sequence[TruncatedSeries]) -> TruncatedSeries:
    """Sum of a nonempty sequence of series, placed once on one grid.

    The terms are moved to the lcm of their dens; the grid starts at the least
    offset, on the gcd of every stride and offset difference, and ends at the
    least frontier, so the sum never goes past its guaranteed order."""
    den = lcm(*(s.den for s in terms))
    terms = [s._on(den) for s in terms]
    low = min(s.off for s in terms)
    unit = gcd(*(x for s in terms for x in (s.stride, s.off - low)))
    acc = [0] * ((min(s.off + (len(s.coeffs) - 1) * s.stride for s in terms) - low) // unit + 1)
    for s in terms:
        _place(acc, s.coeffs, (s.off - low) // unit, s.stride // unit)
    return TruncatedSeries._trusted(tuple(acc), den, low, unit)


def series_one(order: int) -> TruncatedSeries:
    return TruncatedSeries._trusted((1,) + (0,) * order, 1, 0, 1)


# ---------------------------------------------------------------------------
# q-Pochhammer symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PochhammerSpec:
    """The symbol (sign * q^exponent ; q^step)_length.

    ``exponent`` is nonnegative, so every factor lies on the series grid.
    ``length`` is a nonnegative integer or None for an infinite product,
    in which case ``exponent`` must be positive so the product converges
    as a formal series.
    """

    sign: int = 1
    exponent: Fraction = Fraction(1)
    step: Fraction = Fraction(1)
    length: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "exponent", _as_fraction(self.exponent))
        object.__setattr__(self, "step", _as_fraction(self.step))
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.length is None and self.exponent <= 0:
            raise DivergentProductError(
                "infinite q-Pochhammer product requires a positive exponent")
        if self.exponent < 0:
            raise ValueError("exponent must be nonnegative")
        if self.length is not None and self.length < 0:
            raise ValueError("length must be nonnegative")


def pochhammer(spec: PochhammerSpec, order: int) -> TruncatedSeries:
    """Expand (sign*q^r; q^m)_n = prod_k (1 - sign*q^(r+k*m)) to order
    `order` in exponents of q, on a step refined to hold the exponents."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return series_one(order).times_pochhammer((spec, 1))


def pochhammer_qq(length: Optional[int], order: int) -> TruncatedSeries:
    """Convenience for (q; q)_length (length None = infinity)."""
    return pochhammer(PochhammerSpec(1, Fraction(1), Fraction(1), length), order)
