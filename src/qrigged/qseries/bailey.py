"""Bailey pairs and the Bailey chain.

A Bailey pair relative to the base a = q^k is a pair of sequences with
beta_n = sum_{j<=n} alpha_j / ((q;q)_{n-j} (aq;q)_{n+j}).  A pair is a seed
plus Bailey-lemma steps with parameters rho, sigma, each a finite power of q
or the symbolic infinity; `BaileyPair.table` folds the steps over a table of
entries, both regimes sharing the multiplier triple (A, T, D).  The
n -> infinity limit of the defining relation is the weak lemma, `weak_lemma`.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import count
from typing import Callable, Optional

from ..qalg import (PochhammerSpec, TruncatedSeries, pochhammer_qq, series_one,
                    series_sum)
from .sums import compare_series


class InsufficientOrderError(ValueError):
    """Raised when a pair does not guarantee the order an operation needs."""


class Infinity:
    """Symbolic infinite Bailey parameter."""

    _instance: Optional["Infinity"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = Infinity()
BaileyParam = Fraction | Infinity


@dataclass(frozen=True)
class BaileyPair:
    """Coefficient sequences (alpha, beta) relative to a = q^base_exponent.

    alpha and beta are the seed's callables (n, order) -> TruncatedSeries
    producing its exact n-th entry to the requested order, and ``steps``
    the (rho, sigma) of each step applied to it.  ``order`` is the guaranteed
    truncation order (None for closed-form pairs exact at any order).
    """

    base_exponent: Fraction
    alpha: Callable[[int, int], TruncatedSeries]
    beta: Callable[[int, int], TruncatedSeries]
    order: Optional[int] = None
    name: str = "pair"
    steps: tuple[tuple[BaileyParam, BaileyParam], ...] = ()

    def require_order(self, order: int) -> None:
        if self.order is not None and order > self.order:
            raise InsufficientOrderError(
                f"{self.name}: requires order {order}, "
                f"but only order {self.order} is guaranteed")

    def table(self, order: int, nmax: int
              ) -> tuple[list[TruncatedSeries], list[TruncatedSeries]]:
        """alpha_n, beta_n for n <= nmax, to `order`: the seed once per n, then
        per step alpha_n -> D_n A_n alpha_n, beta_n -> D_n sum_j T_{n-j} A_j beta_j."""
        alphas = [self.alpha(n, order) for n in range(nmax + 1)]
        betas = [self.beta(n, order) for n in range(nmax + 1)]
        for rho, sigma in self.steps:
            a_factor, t_factor, d_factor = _multiplier(self.base_exponent, rho, sigma)
            alphas = [d_factor(n, a_factor(n, x)) for n, x in enumerate(alphas)]
            scaled = [a_factor(j, x) for j, x in enumerate(betas)]
            betas = [d_factor(n, series_sum([t_factor(n - j, scaled[j])
                                             for j in range(n + 1)]))
                     for n in range(nmax + 1)]
        return alphas, betas


@dataclass(frozen=True)
class PairCheck:
    valid: bool
    order: int
    checked_n: int
    failing_n: Optional[int] = None
    failing_exponent: Optional[Fraction] = None

    def as_dict(self) -> dict:
        out = {"valid": self.valid, "order": self.order,
               "checked_n": self.checked_n}
        if not self.valid:
            out["failing_n"] = self.failing_n
            out["failing_exponent"] = str(self.failing_exponent)
        return out


def verify_bailey_pair(pair: BaileyPair, order: int,
                       max_n: Optional[int] = None) -> PairCheck:
    """Check the defining relation coefficientwise up to `order`.

    Verifies n = 0 .. max_n (default: order).  Reports the first failing n
    and the first differing exponent.
    """
    pair.require_order(order)
    k = pair.base_exponent
    nmax = order if max_n is None else max_n
    alphas, betas = pair.table(order, nmax)
    for n in range(nmax + 1):
        rhs = series_sum([
            alphas[j].times_pochhammer(PochhammerSpec(length=n - j), -1)
            .times_pochhammer(PochhammerSpec(exponent=1 + k, length=n + j), -1)
            for j in range(n + 1)])
        comparison = compare_series(betas[n], rhs)
        if not comparison.equal:
            return PairCheck(False, order, n, failing_n=n,
                             failing_exponent=comparison.first_difference)
    return PairCheck(True, order, nmax)


def unit_bailey_pair(base_exponent: Fraction = Fraction(0)) -> BaileyPair:
    """alpha_n = delta_{n,0}; beta_n = 1/((q;q)_n (aq;q)_n)."""
    k = Fraction(base_exponent)

    def alpha(n: int, order: int) -> TruncatedSeries:
        if n == 0:
            return series_one(order)
        return TruncatedSeries((0,) * (order + 1))

    def beta(n: int, order: int) -> TruncatedSeries:
        return pochhammer_qq(n, order, -1) \
            .times_pochhammer(PochhammerSpec(exponent=1 + k, length=n), -1)

    return BaileyPair(k, alpha, beta, None, "unit")


def rogers_ramanujan_seed() -> BaileyPair:
    """The classical pair relative to a = 1 used for the Rogers-Ramanujan
    chain: beta_n = 1/(q;q)_n and alpha_n = (-1)^n (q^{n(3n-1)/2} +
    q^{n(3n+1)/2}) for n >= 1, alpha_0 = 1."""

    def alpha(n: int, order: int) -> TruncatedSeries:
        if n == 0:
            return series_one(order)
        sign = 1 if n % 2 == 0 else -1
        e1 = Fraction(n * (3 * n - 1), 2)
        e2 = Fraction(n * (3 * n + 1), 2)
        unit = series_one(order).scalar(sign)
        return unit.shift(e1) + unit.shift(e2)

    def beta(n: int, order: int) -> TruncatedSeries:
        return pochhammer_qq(n, order, -1)

    return BaileyPair(Fraction(0), alpha, beta, None, "rogers-ramanujan-seed")


def _multiplier(k: Fraction, rho: BaileyParam, sigma: BaileyParam):
    """The Bailey-lemma multiplier triple (A, T, D), each returning s times:

    A(j, s): the combined factor (rho)_j (sigma)_j (aq/rho sigma)^j in its finite
    or limiting form; T(m, s): (aq/rho sigma; q)_m / (q;q)_m, numerator 1 if a
    parameter is infinite; D(n, s): 1/((aq/rho)_n (aq/sigma)_n), finite params.
    """
    finite = [p for p in (rho, sigma) if not isinstance(p, Infinity)]
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

    def a_factor(j: int, s: TruncatedSeries) -> TruncatedSeries:
        # limit of prod (p)_j over infinite params * (aq/rho sigma)^j
        exp = j * c + ninf * Fraction(j * (j - 1), 2)
        s = s.shift(exp) if (ninf * j) % 2 == 0 else -s.shift(exp)
        for r in finite:
            s = s.times_pochhammer(PochhammerSpec(exponent=r, length=j))
        return s

    def t_factor(m: int, s: TruncatedSeries) -> TruncatedSeries:
        if not ninf:
            s = s.times_pochhammer(PochhammerSpec(exponent=c, length=m))
        return s.times_pochhammer(PochhammerSpec(length=m), -1)

    def d_factor(n: int, s: TruncatedSeries) -> TruncatedSeries:
        for r in finite:
            s = s.times_pochhammer(PochhammerSpec(exponent=1 + k - r, length=n), -1)
        return s

    return a_factor, t_factor, d_factor


def bailey_step(pair: BaileyPair, rho: BaileyParam, sigma: BaileyParam) -> BaileyPair:
    """One link of the Bailey chain: checks the parameters and appends
    (rho, sigma) to the pair's steps; `verify_bailey_pair` checks the result."""
    _multiplier(pair.base_exponent, rho, sigma)
    return replace(pair, name=f"step({pair.name}; {rho}, {sigma})",
                   steps=pair.steps + ((rho, sigma),))


def weak_lemma(pair: BaileyPair, order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """The n -> infinity identity of the pair:

        sum_n a^n q^{n^2} beta_n  =  (1/(aq;q)_inf) sum_n a^n q^{n^2} alpha_n

    Returns (lhs, rhs), summed over n with n^2 + kn <= order, to that order;
    equality certifies the identity to that order.
    """
    pair.require_order(order)
    k = pair.base_exponent
    nmax = next(n for n in count(1) if n * n + k * n > order) - 1
    alphas, betas = pair.table(order, nmax)
    lhs, rhs = (series_sum([x.shift(n * n + k * n) for n, x in enumerate(entries)])
                .truncate(Fraction(order)) for entries in (betas, alphas))
    rhs = rhs.times_pochhammer(PochhammerSpec(exponent=1 + k), -1)
    return lhs, rhs.truncate(Fraction(order))
