import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qrigged.qalg import (DivergentProductError, IntPolynomial,
                          NonInvertibleSeriesError, PochhammerSpec,
                          TruncatedSeries, pochhammer, pochhammer_qq,
                          q_binomial, series_from_poly, series_one)


def P(terms):
    return IntPolynomial(terms)


# small m exhaustively, and a few larger m
BINOMIAL_ROWS = [*range(13), 20, 30, 40]


class TestPolynomials:
    def test_add_identity(self):
        p = P({0: 1, 3: -2})
        assert IntPolynomial.zero() + p == p

    def test_add_hand(self):
        assert P({0: 1, 1: 1}) + P({1: 1, 2: 1}) == P({0: 1, 1: 2, 2: 1})

    def test_add_cancellation(self):
        assert P({-1: 1}) + P({-1: -1}) == IntPolynomial.zero()

    def test_mul_identity(self):
        p = P({-2: 3, 5: 1})
        assert IntPolynomial.one() * p == p

    def test_mul_hand(self):
        assert P({0: 1, 1: 1}) * P({0: 1, 1: -1}) == P({0: 1, 2: -1})
        assert P({0: 1, 1: 1, 2: 1}) * P({0: 1, 2: 1}) == \
            P({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})

    def test_render(self):
        assert P({0: 1, 2: 2, 3: -1}).render() == "1 + 2*q^2 - q^3"
        assert P({-1: 1, 0: 1}).render() == "q^-1 + 1"
        assert IntPolynomial.zero().render() == "0"

    def test_json_roundtrip(self):
        p = P({-1: 3, 4: -7})
        assert IntPolynomial.from_json(p.to_json()) == p

    def test_no_zero_coefficients_stored(self):
        assert P({0: 1, 1: 0}).terms == {0: 1}


class TestQBinomial:
    def test_edges(self):
        assert q_binomial(5, 0) == IntPolynomial.one()
        assert q_binomial(3, -1) == IntPolynomial.zero()
        assert q_binomial(3, 5) == IntPolynomial.zero()

    def test_hand_values(self):
        assert q_binomial(2, 1) == P({0: 1, 1: 1})
        assert q_binomial(4, 2) == P({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})

    @pytest.mark.parametrize("m", range(13))
    def test_symmetry(self, m):
        for k in range(m + 1):
            assert q_binomial(m, k) == q_binomial(m, m - k)

    @pytest.mark.parametrize("m", BINOMIAL_ROWS[1:])
    def test_both_pascal_recurrences(self, m):
        for k in range(m + 1):
            lhs = q_binomial(m, k)
            assert lhs == q_binomial(m - 1, k - 1) + q_binomial(m - 1, k).shift(k)
            assert lhs == q_binomial(m - 1, k - 1).shift(m - k) + q_binomial(m - 1, k)

    @pytest.mark.parametrize("m", BINOMIAL_ROWS)
    def test_specializes_to_binomial(self, m):
        for k in range(m + 1):
            assert q_binomial(m, k).evaluate_at_one() == math.comb(m, k)

    @pytest.mark.parametrize("m", BINOMIAL_ROWS)
    def test_palindromic_with_degree(self, m):
        for k in range(m + 1):
            poly = q_binomial(m, k)
            assert poly.is_palindromic()
            assert poly.degree() == k * (m - k)

    def test_long_row(self):
        poly = q_binomial(3000, 5)
        assert poly.evaluate_at_one() == math.comb(3000, 5)
        assert poly.degree() == 5 * 2995


class TestSeries:
    def test_from_poly(self):
        s = series_from_poly(P({0: 1, 1: 1}), 3)
        assert s.coeffs == (1, 1, 0, 0) and s.offset == 0

        s = series_from_poly(P({-1: 1, 0: 1}), 2)
        assert s.coeffs == (1, 1, 0) and s.offset == -1

        s = series_from_poly(IntPolynomial.zero(), 5)
        assert s.coeffs == (0,) * 6 and s.offset == 0

    def test_invert_geometric(self):
        s = series_from_poly(P({0: 1, 1: -1}), 4)
        assert s.invert().coeffs == (1, 1, 1, 1, 1)

    def test_invert_law(self):
        s = TruncatedSeries((1, 3, -2, 5, 7), Fraction(2))
        assert (s * s.invert()).same_series(series_one(4))

    def test_invert_requires_unit(self):
        with pytest.raises(NonInvertibleSeriesError):
            TruncatedSeries((2, 1, 1)).invert()

    def test_mismatched_offsets_half_integer(self):
        a = TruncatedSeries((1, 0, 0, 0), Fraction(1, 2))
        b = TruncatedSeries((1, 0, 0, 0), Fraction(0))
        s = a + b
        assert s.offset == 0 and s.step == Fraction(1, 2)
        assert s.coefficient(Fraction(0)) == 1
        assert s.coefficient(Fraction(1, 2)) == 1

    def test_orders_never_extended(self):
        a = TruncatedSeries((1, 1), Fraction(0))     # guaranteed to q^1
        b = TruncatedSeries((1, 1, 1, 1), Fraction(0))
        assert (a + b).frontier == 1
        assert (a * b).frontier == 1
        with pytest.raises(ValueError):
            (a + b).coefficient(2)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
           st.lists(st.integers(-4, 4), min_size=4, max_size=4),
           st.lists(st.integers(-4, 4), min_size=4, max_size=4))
    def test_ring_laws(self, xs, ys, zs):
        a = TruncatedSeries(tuple(xs))
        b = TruncatedSeries(tuple(ys))
        c = TruncatedSeries(tuple(zs))
        assert ((a + b) + c).same_series(a + (b + c))
        assert ((a * b) * c).same_series(a * (b * c))
        assert (a * (b + c)).same_series(a * b + a * c)
        assert (a * b).same_series(b * a)


@st.composite
def pochhammer_specs(draw):
    sign = draw(st.sampled_from((1, -1)))
    exponent = draw(st.fractions(min_value=0, max_value=4, max_denominator=4))
    step = draw(st.fractions(min_value=0, max_value=3, max_denominator=4)
                .filter(lambda x: x > 0))
    length = draw(st.none() | st.integers(0, 6))
    if length is None and exponent == 0:
        exponent = step
    return PochhammerSpec(sign, exponent, step, length)


def outcome(expand):
    """The series `expand()` returns, or the error class if it raises one."""
    try:
        return expand()
    except NonInvertibleSeriesError:
        return NonInvertibleSeriesError


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer_qq(0, 10).same_series(series_one(10))

    def test_infinite_pentagonal(self):
        s = pochhammer_qq(None, 7)
        assert s.coeffs == (1, -1, -1, 0, 0, 1, 0, 1)

    def test_finite_hand(self):
        s = pochhammer_qq(2, 5)
        assert s.coeffs == (1, -1, -1, 1, 0, 0)

    def test_divergent_spec_rejected(self):
        with pytest.raises(DivergentProductError):
            PochhammerSpec(1, Fraction(0), Fraction(1), None)

    def test_inverse_law(self):
        for n in (1, 3, None):
            s = pochhammer_qq(n, 12)
            assert (s * s.invert()).same_series(series_one(12))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            PochhammerSpec(1, Fraction(-1), Fraction(1), 2)

    @settings(max_examples=200, deadline=None)
    @given(pochhammer_specs(), st.integers(0, 12))
    def test_reciprocal_equals_inverse(self, spec, order):
        assert outcome(lambda: pochhammer(spec, order, -1)) == \
            outcome(lambda: pochhammer(spec, order).invert())

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=10),
           st.fractions(min_value=-2, max_value=2, max_denominator=4),
           st.integers(1, 4), pochhammer_specs(), st.sampled_from((1, -1)),
           st.integers(0, 3))
    def test_times_pochhammer_equals_product(self, coeffs, offset, d, spec,
                                             power, extra):
        s = TruncatedSeries(tuple(coeffs), offset, Fraction(1, d))
        order = math.ceil(s.frontier - s.offset) + extra
        assert outcome(lambda: s.times_pochhammer(spec, power)) == \
            outcome(lambda: s * pochhammer(spec, order, power))

    def test_fractional_exponent(self):
        s = pochhammer(PochhammerSpec(1, Fraction(1, 2), Fraction(1), 1), 3)
        assert s.coefficient(Fraction(1, 2)) == -1
        assert s.coefficient(Fraction(0)) == 1
