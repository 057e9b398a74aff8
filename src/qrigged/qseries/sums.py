"""Generic fermionic multi-sum and bosonic alternating-sum evaluators.

A fermionic spec is a quadratic form over nonnegative lattice vectors with
per-variable q-Pochhammer factors (numerator or denominator) whose lengths
are affine in the summation variables, plus optional affine congruence and
inequality restrictions.  A bosonic spec is a theta-like alternating sum
over one integer index times a product of Pochhammer prefactors.  Both
evaluate to exact TruncatedSeries; termination is checked when the spec
is constructed.  Each lattice coordinate, theta index and weak-lemma n runs
over the integers `_quadratic_range` keeps within a bound, so a walk costs
what it returns; the lattice walk yields each point with its exponent, and
`eval_fermionic` nests its sum over the lattice (Horner).  Inside an
evaluator every exponent is an integer x on one scale, standing for
x / scale, and the returned series is on that scale or a multiple of it; a
Fraction appears only as the public `bound` of the lattice walk.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import floor, gcd, inf, isqrt, lcm
from typing import Optional, Sequence

from ..qalg import (NonInvertibleSeriesError, PochhammerSpec, TruncatedSeries,
                    _apply_factor, _as_fraction, _at, _place)


class NonTerminatingSumError(ValueError):
    """Raised when enumeration of a sum would not terminate."""


# Largest quadratic+linear part up to which `eval_fermionic` looks for a
# first lattice point that satisfies the restrictions.
FIRST_POINT_SEARCH_LIMIT = 1024


def _quadratic_range(a: int, b: int, c: int) -> range:
    """The integers n with a*n^2 + b*n + c <= 0 (integers, a > 0): those
    with |2an + b| <= isqrt(b^2 - 4ac), none if that is negative."""
    disc = b * b - 4 * a * c
    if disc < 0:
        return range(0)
    s = isqrt(disc)
    return range(-((b + s) // (2 * a)), (s - b) // (2 * a) + 1)


@dataclass(frozen=True)
class AffineForm:
    """constant + sum_i coeffs[i] * n_i with rational coefficients."""

    constant: Fraction
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "constant", _as_fraction(self.constant))
        object.__setattr__(self, "coeffs", tuple(_as_fraction(c) for c in self.coeffs))

    def __call__(self, point: Sequence[int]) -> Fraction:
        return self.constant + sum(c * x for c, x in zip(self.coeffs, point))


@dataclass(frozen=True)
class PochhammerFactor:
    """(sign * q^exponent ; q^step)_length^power, length affine or infinite.

    Checked once when built, as a `PochhammerSpec` at its length, or at 1
    when the length depends on the point; power -1 with exponent 0 is
    refused unless the length is the constant 0."""

    sign: int
    exponent: Fraction
    step: Fraction
    length: Optional[AffineForm]  # None = infinite product
    power: int = -1

    def __post_init__(self):
        object.__setattr__(self, "exponent", _as_fraction(self.exponent))
        object.__setattr__(self, "step", _as_fraction(self.step))
        if self.power not in (1, -1):
            raise ValueError("factor power must be +1 or -1")
        spec = (self.spec(()) if self.constant_length()
                else PochhammerSpec(self.sign, self.exponent, self.step, 1))
        if self.power == -1 and self.exponent == 0 and spec.length != 0:
            raise NonInvertibleSeriesError(
                f"non-invertible factor 1 - ({self.sign})*q^0: "
                "constant term is not a unit")

    def constant_length(self) -> bool:
        """Infinite, or a length with every coefficient zero."""
        return self.length is None or not any(self.length.coeffs)

    def spec(self, point: Sequence[int]) -> PochhammerSpec:
        """The symbol at `point`, without the power."""
        if self.length is None:
            length = None
        else:
            val = self.length(point)
            if val.denominator != 1 or val < 0:
                raise ValueError(
                    f"Pochhammer length {val} is not a nonnegative integer")
            length = int(val)
        return PochhammerSpec(self.sign, self.exponent, self.step, length)


@dataclass(frozen=True)
class Congruence:
    """affine(point) must be divisible by modulus."""

    form: AffineForm
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("congruence modulus must be at least 1")

    def satisfied(self, point: Sequence[int]) -> bool:
        v = self.form(point)
        return v.denominator == 1 and int(v) % self.modulus == 0


@dataclass(frozen=True)
class FermionicSumSpec:
    """sum over n in Z_{>=0}^dim of q^{(1/2) n^T A n + b.n + c} * factors.

    A must be symmetric with positive diagonal and nonnegative off-diagonal
    entries (checked on construction; this guarantees only finitely many
    lattice points contribute below any truncation order).
    """

    dim: int
    quadratic: tuple[tuple[Fraction, ...], ...]
    linear: tuple[Fraction, ...]
    constant: Fraction
    factors: tuple[PochhammerFactor, ...] = ()
    congruences: tuple[Congruence, ...] = ()
    inequalities: tuple[AffineForm, ...] = ()  # each must be >= 0

    def __post_init__(self):
        A = tuple(tuple(_as_fraction(x) for x in row) for row in self.quadratic)
        b = tuple(_as_fraction(x) for x in self.linear)
        object.__setattr__(self, "quadratic", A)
        object.__setattr__(self, "linear", b)
        object.__setattr__(self, "constant", _as_fraction(self.constant))
        if self.dim < 0:
            raise ValueError("dim must be nonnegative")
        if len(A) != self.dim or any(len(r) != self.dim for r in A):
            raise ValueError("quadratic matrix has the wrong shape")
        if len(b) != self.dim:
            raise ValueError("linear vector has the wrong length")
        for i in range(self.dim):
            for j in range(self.dim):
                if A[i][j] != A[j][i]:
                    raise ValueError("quadratic matrix must be symmetric")
                if i != j and A[i][j] < 0:
                    raise NonTerminatingSumError(
                        "off-diagonal quadratic entries must be nonnegative")
            if A[i][i] <= 0:
                raise NonTerminatingSumError(
                    f"diagonal entry A[{i}][{i}] <= 0: the exponent does not "
                    "grow and enumeration would not terminate")

    def _single_min(self, i: int) -> Fraction:
        """min over integers n >= 0 of f(n) = (1/2) A_ii n^2 + b_i n (cross
        terms >= 0): f is convex with real minimum at -b_i/A_ii, so this is
        min(f(0), f(n*), f(n* + 1)) with n* = max(0, floor(-b_i/A_ii))."""
        a, b = self.quadratic[i][i], self.linear[i]
        n = max(0, -b // a)
        return min(Fraction(0), *(a / 2 * m * m + b * m for m in (n, n + 1)))

    def lattice_points(self, bound: Fraction):
        """(scale, [(point, x)]) for all points with quadratic+linear part
        <= bound, restrictions applied, in lexicographic order; the point's
        exponent, constant included, is x / scale, scale the lcm of the
        denominators of the form and the constant.  Coordinate i takes the
        n >= 0 that `_quadratic_range` keeps within the bound and that each
        inequality on n_i alone admits; the leaf tests the rest."""
        scale = lcm(*((x / 2).denominator for row in self.quadratic for x in row),
                    *(x.denominator for x in self.linear), self.constant.denominator)
        constant = self.constant.numerator * (scale // self.constant.denominator)
        # row i: A_ij for j < i, then A_ii / 2
        rows = [[int(x * scale) for x in row[:i]] + [int(row[i] / 2 * scale)]
                for i, row in enumerate(self.quadratic)]
        linear, top = [int(x * scale) for x in self.linear], floor(bound * scale)
        suffix_min = [0] * (self.dim + 1)
        for i in range(self.dim - 1, -1, -1):
            suffix_min[i] = suffix_min[i + 1] + int(self._single_min(i) * scale)

        lo, hi, inequalities = [0] * self.dim, [inf] * self.dim, []  # n_i in [lo, hi)
        for f in self.inequalities:
            on = [i for i, c in enumerate(f.coeffs) if c]
            c = f.coeffs[on[0]] if len(on) == 1 else 0
            if c > 0:  # constant + c n_i >= 0
                lo[on[0]] = max(lo[on[0]], -(f.constant // c))
            elif c < 0:
                hi[on[0]] = min(hi[on[0]], f.constant // -c + 1)
            else:  # on several coordinates or on none
                inequalities.append(f)
        point = [0] * self.dim
        out: list[tuple[tuple[int, ...], int]] = []

        def rec(i: int, partial: int):
            # partial: quadratic+linear over assigned coords (cross terms
            # among assigned included; cross with unassigned are >= 0)
            if i == self.dim:
                if partial <= top \
                        and all(c.satisfied(point) for c in self.congruences) \
                        and all(f(point) >= 0 for f in inequalities):
                    out.append((tuple(point), partial + constant))
                return
            *cross, half = rows[i]
            slope = linear[i] + sum(c * x for c, x in zip(cross, point))
            ns = _quadratic_range(half, slope, partial + suffix_min[i + 1] - top)
            for n in range(max(lo[i], ns.start), min(hi[i], ns.stop)):
                point[i] = n
                rec(i + 1, partial + (half * n + slope) * n)

        rec(0, 0)
        return scale, out


def eval_fermionic(spec: FermionicSumSpec, order: int) -> TruncatedSeries:
    """Exact coefficients of the fermionic sum to relative order `order`.

    The result covers exponents low .. low + order, low the least exponent of
    a point that satisfies the restrictions, found by enumerating up to the
    sum of the `_single_min` plus order, then up to order minus that sum,
    doubling the bound until it passes FIRST_POINT_SEARCH_LIMIT (then
    ValueError).

    The points are summed by nested Horner over a trie, one coordinate per
    level: from the largest n_i = k whose factors still reach the order down
    to 0, acc = X_k + g_k * acc, g_k the k-th factor of each symbol of length
    n_i; the groups of larger k are added to acc as they are.  Constant and
    infinite symbols are applied once, to the sum; any other length
    multiplies its point's term at the trie's leaf.  The result is on the
    grid of `series_sum`, offset low / scale and step 1/d, on den scale * d."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    least = sum(spec._single_min(i) for i in range(spec.dim))
    bound = least + order
    while not (walk := spec.lattice_points(bound))[1]:
        if bound > FIRST_POINT_SEARCH_LIMIT and bound >= order - least:
            raise ValueError("no lattice point satisfies the restrictions with "
                             f"exponent <= {bound + spec.constant}")
        bound = max(order - least, 2 * bound + 1)
    scale, points = walk
    low = min(x for _, x in points)
    high = low + order * scale
    if Fraction(high, scale) - spec.constant > bound:
        points = spec.lattice_points(Fraction(high, scale) - spec.constant)[1]
    points = [(p, x) for p, x in points if x <= high]
    # i when a factor's length is n_i, -1 when constant or infinite, else dim
    levels = [-1 if f.constant_length() else spec.dim
              if f.length.constant or [c for c in f.length.coeffs if c] != [1]
              else f.length.coeffs.index(1) for f in spec.factors]
    symbols = [(f.spec(()), f.power) for f, i in zip(spec.factors, levels) if i == -1]
    d = lcm(*(x.denominator for f in spec.factors for x in (f.exponent, f.step)),
            scale // gcd(scale, *(x - low for _, x in points)))
    steps = [[(f.sign, int(f.exponent * d), int(f.step * d), f.power) for f, i
              in zip(spec.factors, levels) if i == level] for level in range(spec.dim)]
    # per level, the largest k whose factors can still reach q^(order*d)
    reach = [max((0, *((order * d - first) // gap + 1 for _, first, gap, _ in s)))
             for s in steps]
    leaf = [f for f, i in zip(spec.factors, levels) if i == spec.dim]

    def add(group, level, out):
        # add the terms of points sharing their first `level` coordinates
        if level == spec.dim:  # one point: its monomial times its own symbols
            _, at, own = group[0]
            if not own:
                out[at] += 1
                return
            term = TruncatedSeries._trusted((1,) + (0,) * (len(out) - 1 - at),
                                            d, 0, 1).times_pochhammer(*own)
            _place(out, term.coeffs, at, 1)
            return
        acc = [0] * (order * d + 1)
        by_k = {k: list(g) for k, g in groupby(group, lambda t: t[0][level])}
        top = reach[level]
        for k, g in by_k.items():  # every factor of these k is 1 here
            if k > top:
                add(g, level + 1, acc)
        for k in range(min(max(by_k), top), -1, -1):
            if k in by_k:
                add(by_k[k], level + 1, acc)
            for sign, first, gap, power in steps[level] if k else ():
                _apply_factor(acc, first + (k - 1) * gap, sign, power)
        out[:] = [a + b for a, b in zip(out, acc)]

    out = [0] * (order * d + 1)
    add([(p, (x - low) * d // scale, [(f.spec(p), f.power) for f in leaf])
         for p, x in points], 0, out)
    return TruncatedSeries._trusted(tuple(out), scale * d, low * d, scale) \
        .times_pochhammer(*symbols)


@dataclass(frozen=True)
class BosonicSumSpec:
    """(sum_{j in Z} (-1)^{parity*j} q^{a2 j^2 + a1 j + a0}) * prefactors.

    a2 must be positive so only finitely many j contribute per order.
    An absent theta part (a2 = None) means the constant series 1.
    """

    parity: int = 1
    a2: Optional[Fraction] = None
    a1: Fraction = Fraction(0)
    a0: Fraction = Fraction(0)
    prefactors: tuple[PochhammerFactor, ...] = ()

    def __post_init__(self):
        if self.a2 is not None:
            object.__setattr__(self, "a2", _as_fraction(self.a2))
            if self.a2 <= 0:
                raise NonTerminatingSumError(
                    "theta quadratic coefficient must be positive")
        object.__setattr__(self, "a1", _as_fraction(self.a1))
        object.__setattr__(self, "a0", _as_fraction(self.a0))
        if self.parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        for f in self.prefactors:
            if not f.constant_length():
                raise ValueError("bosonic prefactor lengths must be constant")

    def theta_terms(self, order: int) -> tuple[int, list[tuple[int, int]]]:
        """(scale, sorted [(x, sign)]) of the j whose exponent x / scale,
        a0 included, is at most the least, at floor(-a1 / 2a2) or one more,
        plus `order`; scale is the lcm of the denominators of a2, a1, a0."""
        if self.a2 is None:
            return self.a0.denominator, [(self.a0.numerator, 1)]
        scale = lcm(self.a2.denominator, self.a1.denominator, self.a0.denominator)
        a2, a1, a0 = (_at(x, scale) for x in (self.a2, self.a1, self.a0))
        j0 = -a1 // (2 * a2)
        least = min(a2 * j * j + a1 * j for j in (j0, j0 + 1))
        js = _quadratic_range(a2, a1, -least - order * scale)
        return scale, sorted((a2 * j * j + a1 * j + a0,
                              -1 if self.parity * j % 2 else 1) for j in js)


def eval_bosonic(spec: BosonicSumSpec, order: int) -> TruncatedSeries:
    """Exact coefficients of the bosonic sum to relative order `order`.  The
    theta sum is on the grid `series_sum` would give its terms, on den
    scale: offset low, the least exponent, stride gcd(scale, every x -
    low); one `times_pochhammer` call then applies the prefactors."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    scale, terms = spec.theta_terms(order)
    low = terms[0][0]
    g = gcd(scale, *(x - low for x, _ in terms))
    out = [0] * (order * scale // g + 1)
    for x, sign in terms:  # each x - low is at most order * scale
        out[(x - low) // g] += sign
    return TruncatedSeries._trusted(tuple(out), scale, low, g).times_pochhammer(
        *((f.spec(()), f.power) for f in spec.prefactors))


@dataclass(frozen=True)
class SeriesComparison:
    equal: bool
    checked_frontier: Fraction
    first_difference: Optional[Fraction] = None
    left_coefficient: Optional[int] = None
    right_coefficient: Optional[int] = None


def compare_series(a: TruncatedSeries, b: TruncatedSeries) -> SeriesComparison:
    """Equality verdict to the minimum guaranteed order, with the first
    discrepancy (exponent and both coefficients) on failure."""
    diff = a - b
    if diff.is_zero():
        return SeriesComparison(True, diff.frontier)
    first = next(i for i, c in enumerate(diff.coeffs) if c)
    bad = Fraction(diff.off + first * diff.stride, diff.den)
    return SeriesComparison(False, diff.frontier, bad,
                            a.coefficient(bad), b.coefficient(bad))
