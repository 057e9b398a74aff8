"""`BaileyPair.table`, `weak_lemma` and `verify_bailey_pair` against a
per-term reference.

The reference builds each seed's entries itself, alpha_n from its formula
and beta_n = 1/prod_e (q^e; q)_n, and evaluates every term of the Bailey
lemma and of the defining relation on its own: each multiplier is a product
of explicit binomials 1 - q^e through `TruncatedSeries.__mul__`, a
denominator is that product's `.invert()`, and each sum is one `series_sum`.
It shares no code with the factor kernel (`_apply_factor`,
`times_pochhammer`), with the library's seed tables or with its nested
Horner sums.  Every multiplier refines the grid by the denominators of its
exponents, so each entry keeps the grid of the termwise products: offset,
step 1/d and frontier.  Results are compared on (coeffs, offset, step), and
every check fails through pytest.fail, so it also runs under python -O.
"""
from dataclasses import replace
from fractions import Fraction as F
from functools import lru_cache
from itertools import count
from math import lcm

import pytest

from qrigged.qalg import TruncatedSeries, series_sum
from qrigged.qseries.bailey import (INFINITY, BaileyPair, PairCheck, bailey_step,
                                    rogers_ramanujan_seed, unit_bailey_pair,
                                    verify_bailey_pair, weak_lemma)
from qrigged.qseries.sums import compare_series

# "seed-at-1/3" is no Bailey pair: the seed's entries relative to a = q^{1/3}
# stay on the integer grid, so only D's exponents 1 + k - rho refine it
# by 3, and the step's arithmetic is still compared term by term.
PAIRS = {"rogers-ramanujan-seed": rogers_ramanujan_seed,
         "unit": unit_bailey_pair,
         "unit-1/2": lambda: unit_bailey_pair(F(1, 2)),
         "seed-at-1/3": lambda: replace(rogers_ramanujan_seed(),
                                        base_exponent=F(1, 3), name="seed-at-1/3")}
PARAMETERS = {"inf-inf": (INFINITY, INFINITY), "1/2-inf": (F(1, 2), INFINITY),
              "1/3-1/4": (F(1, 3), F(1, 4)), "1/2-1/2": (F(1, 2), F(1, 2))}
NMAX = 8


@lru_cache(maxsize=None)
def _product(exponents, d, size, power):
    """prod (1 - q^e)^power over `exponents`, `size` coefficients on the
    grid of step 1/d; binomials past the last coefficient are 1."""
    out = TruncatedSeries((1,) + (0,) * (size - 1), F(0), F(1, d))
    for e in exponents:
        if e * d < size:
            binomial = [1] + [0] * (size - 1)
            binomial[int(e * d)] -= 1
            out = TruncatedSeries(tuple(binomial), F(0), F(1, d)) * out
    return out if power == 1 else out.invert()


def _times(s, d, exponents, power=1):
    """s times prod (1 - q^e)^power, on the grid 1/lcm(d, step of s);
    `__mul__` walks the nonzero coefficients of its left operand."""
    d = lcm(d, s.step.denominator)
    p = _product(tuple(exponents), d, s.order * (d // s.step.denominator) + 1, power)
    return s * p if s.coeffs.count(0) >= p.coeffs.count(0) else p * s


def _unit_alpha(n, order):  # delta_{n,0}
    return TruncatedSeries((int(n == 0),) + (0,) * order)


def _rr_alpha(n, order):  # (-1)^n q^{n(3n-1)/2} (1 + q^n), alpha_0 = 1
    return TruncatedSeries(tuple((-1) ** n * (i in (0, n)) for i in range(order + 1)),
                           F(n * (3 * n - 1), 2))


def _reference_seed(alpha, exponents):
    """The seed table (order, nmax) -> (alphas, betas) with
    beta_n = 1/prod_e (q^e; q)_n, a `_product` of its binomials on the grid
    1/d, d the lcm of the exponents' denominators."""
    d = lcm(*(e.denominator for e in exponents))

    def seed(order, nmax):
        return ([alpha(n, order) for n in range(nmax + 1)],
                [_product(tuple(e + i for e in exponents for i in range(n)), d,
                          order * d + 1, -1) for n in range(nmax + 1)])
    return seed


REFERENCE_SEEDS = {"rogers-ramanujan-seed": _reference_seed(_rr_alpha, (F(1),)),
                   "unit": _reference_seed(_unit_alpha, (F(1), F(1))),
                   "unit-1/2": _reference_seed(_unit_alpha, (F(1), F(3, 2)))}
REFERENCE_SEEDS["seed-at-1/3"] = REFERENCE_SEEDS["rogers-ramanujan-seed"]


def reference_table(pair, seed, order, nmax):
    """alpha_n and beta_n for n <= nmax after the pair's steps, from the
    reference `seed`, one term of beta'_n = D_n sum_j T_{n-j} A_j beta_j at
    a time."""
    k = pair.base_exponent
    alphas, betas = seed(order, nmax)
    for rho, sigma in pair.steps:
        finite = [p for p in (rho, sigma) if p is not INFINITY]
        ninf, c = 2 - len(finite), 1 + k - sum(finite)  # aq/(rho sigma) = q^c

        def a_times(j, s):
            # (rho)_j (sigma)_j (aq/rho sigma)^j; an infinite parameter
            # contributes its limit (-1)^j q^{j(j-1)/2}
            s = s.shift(j * c + ninf * F(j * (j - 1), 2))
            for r in finite:
                s = _times(s, r.denominator, [r + i for i in range(j)])
            return -s if ninf * j % 2 else s

        def t_times(m, s):  # (aq/rho sigma; q)_m / (q; q)_m
            if not ninf:
                s = _times(s, c.denominator, [c + i for i in range(m)])
            return _times(s, 1, range(1, m + 1), -1)

        def d_times(n, s):  # 1 / ((aq/rho; q)_n (aq/sigma; q)_n)
            for r in finite:
                s = _times(s, (1 + k - r).denominator,
                           [1 + k - r + i for i in range(n)], -1)
            return s

        alphas = [d_times(n, a_times(n, x)) for n, x in enumerate(alphas)]
        scaled = [a_times(j, x) for j, x in enumerate(betas)]
        betas = [d_times(n, series_sum([t_times(n - j, scaled[j])
                                        for j in range(n + 1)]))
                 for n in range(nmax + 1)]
    return alphas, betas


def reference_check(pair, seed, order, max_n):
    """PairCheck of beta_n = sum_j alpha_j / ((q)_{n-j} (aq)_{n+j}), one
    term at a time, on the reference table."""
    alphas, betas = reference_table(pair, seed, order, max_n)
    a = 1 + pair.base_exponent
    for n in range(max_n + 1):
        rhs = series_sum([
            _times(_times(alphas[j], 1, range(1, n - j + 1), -1), a.denominator,
                   [a + i for i in range(n + j)], -1) for j in range(n + 1)])
        diff = betas[n] - rhs
        bad = [diff.offset + i * diff.step for i, x in enumerate(diff.coeffs) if x]
        if bad:
            return PairCheck(False, order, n, failing_n=n, failing_exponent=bad[0])
    return PairCheck(True, order, max_n)


def reference_weak(pair, seed, order):
    """(lhs, rhs) of the weak lemma from the reference table."""
    k = pair.base_exponent
    nmax = next(n for n in count(1) if n * n + k * n > order) - 1
    alphas, betas = reference_table(pair, seed, order, nmax)
    lhs, rhs = (series_sum([x.shift(n * n + k * n) for n, x in enumerate(entries)])
                .truncate(F(order)) for entries in (betas, alphas))
    a, d = 1 + k, lcm((1 + k).denominator, rhs.step.denominator)
    rhs = _times(rhs, d, [a + i for i in range(rhs.order * d + 1)], -1)
    return lhs, rhs.truncate(F(order))


def _key(s):
    return s.coeffs, s.offset, s.step


def _same(label, got, want):
    if _key(got) != _key(want):
        first = next((i for i, (x, y) in enumerate(zip(got.coeffs, want.coeffs))
                      if x != y), None)
        pytest.fail(f"{label}: offset/step {got.offset}, {got.step} vs "
                    f"{want.offset}, {want.step}; {len(got.coeffs)} vs "
                    f"{len(want.coeffs)} coefficients, first differing index {first}")


def _chain(pair_name, steps, parameters):
    pair = PAIRS[pair_name]()
    for _ in range(steps):
        pair = bailey_step(pair, *PARAMETERS[parameters])
    return pair


def _corrupted(seed):
    """`seed` with q^5 added to beta_3."""
    def corrupted(order, nmax):
        alphas, betas = seed(order, nmax)
        betas[3] = betas[3] + TruncatedSeries((0,) * 5 + (1,) + (0,) * (order - 5))
        return alphas, betas
    return corrupted


CHAINS = [(name, 0, "inf-inf") for name in PAIRS] + [
    (name, steps, parameters) for name in PAIRS for steps in (1, 2, 3)
    for parameters in PARAMETERS if name != "seed-at-1/3" or steps < 3]


class TestAgainstReference:
    @pytest.mark.parametrize("pair_name, steps, parameters", CHAINS)
    def test_table_check_and_weak_limit(self, pair_name, steps, parameters):
        pair, seed = _chain(pair_name, steps, parameters), REFERENCE_SEEDS[pair_name]
        for order in (0, 1, 7, 20):
            nmax = min(order, NMAX)
            label = f"{pair.name} at order {order}"
            for side, got, want in zip(("alpha", "beta"), pair.table(order, nmax),
                                       reference_table(pair, seed, order, nmax)):
                if len(got) != nmax + 1 or len(want) != nmax + 1:
                    pytest.fail(f"{label}: {side} has {len(got)} entries, "
                                f"the reference {len(want)}; expected {nmax + 1}")
                for n, (x, y) in enumerate(zip(got, want)):
                    _same(f"{label}: {side}_{n}", x, y)
            got, want = (verify_bailey_pair(pair, order, max_n=nmax),
                         reference_check(pair, seed, order, nmax))
            if got != want or not (got.valid or pair_name == "seed-at-1/3"):
                pytest.fail(f"{label}: {got} vs reference {want}")
            for side, x, y in zip(("lhs", "rhs"), weak_lemma(pair, order),
                                  reference_weak(pair, seed, order)):
                _same(f"{label}: weak-limit {side}", x, y)

    @pytest.mark.parametrize("steps, parameters", [(0, "inf-inf"), (1, "1/2-inf"),
                                                   (2, "1/3-1/4")])
    def test_corrupted_beta(self, steps, parameters):
        # q^5 added to beta_3 of the unit pair's table and of the reference
        # seed, then the steps: each step moves it by A_3's shift
        # 3c + 3 * (number of infinite parameters), so the first failure is
        # pinned at n = 3, and the reference agrees
        base = unit_bailey_pair()
        pair = BaileyPair(base.base_exponent, _corrupted(base.seed), "corrupted")
        for _ in range(steps):
            pair = bailey_step(pair, *PARAMETERS[parameters])
        got, want = (verify_bailey_pair(pair, 12, max_n=6),
                     reference_check(pair, _corrupted(REFERENCE_SEEDS["unit"]), 12, 6))
        pinned = {0: (3, F(5)), 1: (3, F(19, 2)), 2: (3, F(15, 2))}[steps]
        if got != want or (got.failing_n, got.failing_exponent) != pinned:
            pytest.fail(f"{got} vs reference {want}, pinned {pinned}")


@pytest.mark.slow
class TestDeepChain:
    def test_three_steps_verified_at_order_200(self):
        pair = _chain("rogers-ramanujan-seed", 3, "inf-inf")
        got = verify_bailey_pair(pair, 200, max_n=14)
        want = reference_check(pair, REFERENCE_SEEDS["rogers-ramanujan-seed"], 200, 14)
        if got != PairCheck(True, 200, 14) or got != want:
            pytest.fail(f"3-step chain at order 200: {got}")

    def test_weak_limit_after_five_steps_at_order_400(self):
        pair = _chain("rogers-ramanujan-seed", 5, "inf-inf")
        got = weak_lemma(pair, 400)
        want = reference_weak(pair, REFERENCE_SEEDS["rogers-ramanujan-seed"], 400)
        for side, x, y in zip(("lhs", "rhs"), got, want):
            _same(f"5 steps at order 400: weak-limit {side}", x, y)
        if not compare_series(*got).equal:
            pytest.fail("5 steps at order 400: the weak-limit sides differ")
