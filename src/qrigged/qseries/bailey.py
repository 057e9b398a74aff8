"""Bailey pairs and the Bailey chain.

A Bailey pair relative to the base a = q^k is a pair of sequences with
beta_n = sum_{j<=n} alpha_j / ((q;q)_{n-j} (aq;q)_{n+j}).  A pair is a seed,
whose table builds each beta_n by one running product (O(N) kernel passes for
N entries), plus Bailey-lemma steps with parameters rho, sigma, each a finite
power of q or `INFINITY` = None.  `BaileyPair.table` folds the steps over the
seed's table by nested Horner sums, both regimes sharing the multipliers A, T
and D (O(N^2) kernel passes, as is the check).  The n -> infinity limit of
the defining relation is the weak lemma, `weak_lemma`.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Callable, Optional

from ..qalg import (PochhammerSpec, TruncatedSeries, _apply_factor, _place,
                    series_one, series_sum)
from .sums import _quadratic_range, compare_series

INFINITY = None
BaileyParam = Fraction | None
SeedTable = tuple[list[TruncatedSeries], list[TruncatedSeries]]


@dataclass(frozen=True)
class BaileyPair:
    """Coefficient sequences (alpha, beta) relative to a = q^base_exponent.

    ``seed`` is the seed's table (order, nmax) -> (alphas, betas), its exact
    entries for n <= nmax to the requested order, and ``steps`` the
    (rho, sigma) of each step applied to it.
    """

    base_exponent: Fraction
    seed: Callable[[int, int], SeedTable]
    name: str = "pair"
    steps: tuple[tuple[BaileyParam, BaileyParam], ...] = ()

    def table(self, order: int, nmax: int) -> SeedTable:
        """alpha_n, beta_n for n <= nmax, to `order`: the seed's table, then
        per step alpha_n -> D_n A_n alpha_n and beta_n -> D_n sum_m T_m Y_{n-m}
        (Y_j = A_j beta_j) as `_nested_sums`, g_m = T_m/T_{m-1} = (1 - q^{c+m-1})
        / (1 - q^m) with q^c = aq/(rho sigma), numerator 1 if a parameter is infinite."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        k = self.base_exponent
        alphas, betas = self.seed(order, nmax)
        for rho, sigma in self.steps:
            finite, ninf, c = _multiplier(k, rho, sigma)

            def scaled(j, s, n):  # D_n A_j s, A_j its limit for infinite parameters
                s = s.shift(j * c + ninf * Fraction(j * (j - 1), 2)).times_pochhammer(
                    *((PochhammerSpec(exponent=r, length=j), 1) for r in finite),
                    *((PochhammerSpec(exponent=1 + k - r, length=n), -1) for r in finite))
                return -s if ninf * j % 2 else s

            alphas = [scaled(n, x, n) for n, x in enumerate(alphas)]
            # n = 0 puts Y_j on D's grid, which holds c = (1 + k - rho) - sigma
            betas = list(_nested_sums(
                [scaled(j, x, 0) for j, x in enumerate(betas)], 1,
                None if ninf else lambda n: (c - 1, 1),
                lambda n: [(1 + k - r, n) for r in finite]))
        return alphas, betas


@dataclass(frozen=True)
class PairCheck:
    valid: bool
    order: int
    checked_n: int
    failing_n: Optional[int] = None
    failing_exponent: Optional[Fraction] = None


def verify_bailey_pair(pair: BaileyPair, order: int, max_n: int) -> PairCheck:
    """Check the defining relation coefficientwise up to `order`.

    Verifies n = 0 .. max_n.  Reports the first failing n and the first
    differing exponent.  The right-hand side reads alpha only:
    (alpha_n + g_1 (alpha_{n-1} + ... + g_n alpha_0)) / (aq;q)_{2n}, a
    `_nested_sums` with g_m = (1 - q^{1+k+2n-m}) / (1 - q^m)."""
    if min(order, max_n) < 0:
        raise ValueError(f"order {order} and max_n {max_n} must be nonnegative")
    k = pair.base_exponent
    if k <= -1:
        raise ValueError(f"base q^{k}: aq = q^{1 + k} must have positive exponent")
    alphas, betas = pair.table(order, max_n)
    for n, rhs in enumerate(_nested_sums(alphas, k.denominator,
                                         lambda n: (1 + k + 2 * n, -1),
                                         lambda n: [(1 + k, 2 * n)])):
        comparison = compare_series(betas[n], rhs)
        if not comparison.equal:
            return PairCheck(False, order, n, failing_n=n,
                             failing_exponent=comparison.first_difference)
    return PairCheck(True, order, max_n)


def unit_bailey_pair(base_exponent: Fraction = Fraction(0)) -> BaileyPair:
    """alpha_n = delta_{n,0}; beta_n = 1/((q;q)_n (aq;q)_n)."""
    k = Fraction(base_exponent)

    def seed(order: int, nmax: int) -> SeedTable:
        alphas = [series_one(order)] + [TruncatedSeries((0,) * (order + 1))] * nmax
        return alphas, _beta_table((Fraction(1), 1 + k), order, nmax)

    return BaileyPair(k, seed, "unit")


def rogers_ramanujan_seed() -> BaileyPair:
    """The classical pair relative to a = 1 used for the Rogers-Ramanujan
    chain: beta_n = 1/(q;q)_n and alpha_n = (-1)^n (q^{n(3n-1)/2} +
    q^{n(3n+1)/2}) for n >= 1, alpha_0 = 1."""

    def alpha(n: int, order: int) -> TruncatedSeries:
        coeffs = [0] * (order + 1)  # q^{n(3n-1)/2} (1 + q^n) for n >= 1
        for i in {0, n}:
            if i <= order:
                coeffs[i] += (-1) ** n
        return TruncatedSeries._trusted(tuple(coeffs), Fraction(n * (3 * n - 1), 2),
                                        Fraction(1))

    def seed(order: int, nmax: int) -> SeedTable:
        return ([alpha(n, order) for n in range(nmax + 1)],
                _beta_table((Fraction(1),), order, nmax))

    return BaileyPair(Fraction(0), seed, "rogers-ramanujan-seed")


def _beta_table(exponents: tuple[Fraction, ...], order: int, nmax: int
                ) -> list[TruncatedSeries]:
    """beta_n = 1/prod_e (q^e;q)_n = beta_{n-1} prod_e 1/(1 - q^{e+n-1}) for
    n <= nmax, to `order`, one kernel pass per factor on the grid 1/lcm(den e)."""
    for e in exponents:  # e < 0 is refused as by (q^e;q)_n itself
        PochhammerSpec(exponent=e, length=0)
    d = lcm(*(e.denominator for e in exponents))
    starts = [int((e - 1) * d) for e in exponents]
    acc = [1] + [0] * (order * d)
    betas = []
    for n in range(nmax + 1):
        for start in starts if n else ():
            _apply_factor(acc, start + n * d, 1, -1)
        betas.append(TruncatedSeries._trusted(tuple(acc), Fraction(0), Fraction(1, d)))
    return betas


def _multiplier(k: Fraction, rho: BaileyParam, sigma: BaileyParam):
    """(finite parameters, number of infinite ones, c with q^c = aq/(rho sigma))
    for the multipliers A_j = (rho)_j (sigma)_j (aq/rho sigma)^j or its limit,
    T_m = (aq/rho sigma)_m / (q)_m (numerator 1 if a parameter is infinite)
    and D_n = 1/((aq/rho)_n (aq/sigma)_n) over the finite parameters."""
    finite = [p for p in (rho, sigma) if p is not None]
    ninf = 2 - len(finite)
    c = 1 + k - sum(finite)  # aq/(rho sigma) = q^c
    for r in finite:
        if 1 + k - r <= 0:
            raise ValueError(
                f"parameter q^{r} is out of range for base q^{k}: "
                f"aq/param = q^{1 + k - r} must have positive exponent")
    if not ninf and c < 0:
        raise ValueError(
            f"parameters q^{rho}, q^{sigma} are out of range for base q^{k}: "
            f"aq/(rho sigma) = q^{c} must have nonnegative exponent")
    return finite, ninf, c


def _nested_sums(terms: list[TruncatedSeries], d: int, numerator, denominators):
    """For each n, (t_n + g_1 (t_{n-1} + ... + g_n t_0)) / prod (q^e; q)_l over
    denominators(n), t = terms, g_m = (1 - q^{a+bm}) / (1 - q^m) with
    (a, b) = numerator(n) (numerator 1 if None): O(n) kernel passes on one
    dense list, on the grid `series_sum` gives terms[:n + 1] refined by 1/d.
    Offset differences have one lcm of denominators from any reference, so
    offsets and frontiers are compared as integers on the last grid."""
    ref = terms[0].offset
    ds = list(accumulate(terms, lambda d, t: lcm(d, t.step.denominator, (
        t.offset - ref).denominator), initial=d))[1:]
    offs = [int((t.offset - ref) * ds[-1]) for t in terms]
    tops = [o + t.order * ds[-1] // t.step.denominator for o, t in zip(offs, terms)]
    for n, d in enumerate(ds):
        low, unit = min(offs[:n + 1]), ds[-1] // d
        acc = [0] * ((min(tops[:n + 1]) - low) // unit + 1)
        a, b = numerator(n) if numerator else (0, 0)
        a = int(a * d)
        for j, t in enumerate(terms[:n + 1]):
            _place(acc, t.coeffs, (offs[j] - low) // unit, d // t.step.denominator)
            if j < n:
                if numerator:
                    _apply_factor(acc, a + b * (n - j) * d, 1, 1)
                _apply_factor(acc, (n - j) * d, 1, -1)
        for e, length in denominators(n):
            for x in range(int(e * d), min(len(acc), int((e + length) * d)), d):
                _apply_factor(acc, x, 1, -1)
        yield TruncatedSeries._trusted(tuple(acc), ref + Fraction(low, ds[-1]),
                                       Fraction(1, d))


def bailey_step(pair: BaileyPair, rho: BaileyParam, sigma: BaileyParam) -> BaileyPair:
    """One link of the Bailey chain: checks the parameters and appends
    (rho, sigma) to the pair's steps; `verify_bailey_pair` checks the result."""
    _multiplier(pair.base_exponent, rho, sigma)
    label = ", ".join("INFINITY" if p is None else str(p) for p in (rho, sigma))
    return replace(pair, name=f"step({pair.name}; {label})",
                   steps=pair.steps + ((rho, sigma),))


def weak_lemma(pair: BaileyPair, order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """The n -> infinity identity of the pair:

        sum_n a^n q^{n^2} beta_n  =  (1/(aq;q)_inf) sum_n a^n q^{n^2} alpha_n

    Returns (lhs, rhs), summed over n with n^2 + kn <= order, to that order;
    equality certifies the identity to that order.
    """
    k = pair.base_exponent
    nmax = _quadratic_range(k.denominator, k.numerator,
                            -order * k.denominator).stop - 1
    alphas, betas = pair.table(order, nmax)
    lhs, rhs = (series_sum([x.shift(n * n + k * n) for n, x in enumerate(entries)])
                .truncate(Fraction(order)) for entries in (betas, alphas))
    return lhs, rhs.times_pochhammer((PochhammerSpec(exponent=1 + k), -1))
