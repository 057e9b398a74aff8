import math
import operator
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from qrigged.qalg import (DivergentProductError, IntPolynomial,
                          NonInvertibleSeriesError, PochhammerSpec,
                          TruncatedSeries, pochhammer, pochhammer_qq,
                          q_binomial, series_one,
                          series_sum)


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

    def test_no_zero_coefficients_stored(self):
        assert P({0: 1, 1: 0}).terms == {0: 1}


# -- the dense IntPolynomial against a plain dict exponent -> coefficient --
# Checked through pytest.fail, so the comparison also runs under python -O.

def _expect(got, want, what):
    if got != want:
        pytest.fail(f"{what}: got {got!r}, want {want!r}")


def _model(pairs):
    """Reference: nonzero coefficients by exponent, repeats added up."""
    out: dict[int, int] = {}
    for e, c in pairs:
        out[e] = out.get(e, 0) + c
    return {e: out[e] for e in sorted(out) if out[e]}


def _model_render(m):
    if not m:
        return "0"
    parts = []
    for e, c in m.items():
        qpow = "q" if e == 1 else f"q^{e}"
        body = str(abs(c)) if e == 0 else (
            qpow if abs(c) == 1 else f"{abs(c)}*{qpow}")
        sign = ("" if c > 0 else "-") if not parts else ("+ " if c > 0 else "- ")
        parts.append(sign + body)
    return " ".join(parts)


def _check_against(p, m, what):
    """Every inspection of p against the model m."""
    _expect(p.terms, m, f"{what} terms")
    _expect(list(p.terms), list(m), f"{what} exponent order")
    for e in range(-30, 31):
        _expect(p.coefficient(e), m.get(e, 0), f"{what} coefficient of q^{e}")
    _expect(p.degree(), max(m, default=None), f"{what} degree")
    _expect(p.is_zero(), not m, f"{what} is_zero")
    _expect(p.evaluate_at_one(), sum(m.values()), f"{what} at q = 1")
    dense = [m.get(e, 0) for e in range(min(m), max(m) + 1)] if m else []
    _expect(p.is_palindromic(), dense == dense[::-1], f"{what} palindromic")
    _expect(p.render(), _model_render(m), f"{what} render")
    _expect(p.to_json(), [[e, str(c)] for e, c in m.items()], f"{what} to_json")
    _expect(repr(p), f"IntPolynomial({m!r})", f"{what} repr")
    back = IntPolynomial(m)
    _expect(back, p, f"{what} built from the model")
    _expect(hash(back), hash(p), f"{what} hash of the model's build")


TERMS = st.lists(st.tuples(st.integers(-8, 8), st.integers(-3, 3)), max_size=7)


class TestDensePolynomialModel:
    @settings(max_examples=300, deadline=None)
    @given(TERMS, TERMS, st.integers(-6, 6))
    def test_operations_match_dict_model(self, xs, ys, k):
        a, b = IntPolynomial(xs), IntPolynomial(ys)
        ma, mb = _model(xs), _model(ys)
        _check_against(a, ma, "a")
        _check_against(a + b, _model([*ma.items(), *mb.items()]), "a + b")
        _check_against(a - b, _model([*ma.items(),
                                      *((e, -c) for e, c in mb.items())]), "a - b")
        _check_against(-a, {e: -c for e, c in ma.items()}, "-a")
        _check_against(a * b, _model((e1 + e2, c1 * c2)
                                     for e1, c1 in ma.items()
                                     for e2, c2 in mb.items()), "a * b")
        _check_against(a.shift(k), {e + k: c for e, c in ma.items()}, "shift")
        _check_against(a.reverse(), {-e: ma[e] for e in reversed(ma)}, "reverse")
        _expect(a == b, ma == mb, "a == b")
        if ma == mb:
            _expect(hash(a), hash(b), "hash of equal polynomials")
        # results that cancel to zero, through both operations that can
        for zero in (a - a, a + (-a), (a - b) - (a - b)):
            _expect(zero, IntPolynomial.zero(), "cancellation")
            _expect(hash(zero), hash(IntPolynomial.zero()), "hash of zero")

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-8, 8), st.lists(st.integers(-2, 2), max_size=8))
    def test_trusted_equals_checked_construction(self, offset, coeffs):
        trusted = IntPolynomial._trusted(offset, coeffs)
        checked = IntPolynomial({offset + i: c for i, c in enumerate(coeffs)})
        _expect(trusted, checked, "_trusted vs constructor")
        _expect(hash(trusted), hash(checked), "_trusted vs constructor hash")
        _check_against(trusted, _model((offset + i, c)
                                       for i, c in enumerate(coeffs)), "_trusted")

    def test_constructor_inputs(self):
        from types import MappingProxyType
        _expect(IntPolynomial(MappingProxyType({-2: 3, 4: 0, 5: -1})),
                IntPolynomial({-2: 3, 5: -1}), "MappingProxyType")
        _expect(IntPolynomial([(1, 2), (1, -2), (0, 7)]), IntPolynomial({0: 7}),
                "pairs with repeats")
        for bad in ({1.0: 1}, [("1", 2)], {Fraction(1): 1}):
            with pytest.raises(TypeError):
                IntPolynomial(bad)


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
    def test_invert_geometric(self):
        s = TruncatedSeries((1, -1, 0, 0, 0))
        assert s.invert().coeffs == (1, 1, 1, 1, 1)

    def test_invert_law(self):
        s = TruncatedSeries((1, 3, -2, 5, 7), Fraction(2))
        assert (s * s.invert() - series_one(4)).is_zero()

    def test_invert_requires_unit(self):
        with pytest.raises(NonInvertibleSeriesError):
            TruncatedSeries((2, 1, 1)).invert()

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from((1, -1)),
           st.lists(st.integers(-3, 3), max_size=30)
           | st.lists(st.sampled_from((0, 0, 0, 0, 0, 1, -1, 2)), max_size=60),
           st.fractions(min_value=-2, max_value=2, max_denominator=4),
           st.integers(1, 5))
    def test_invert_equals_dense_definition(self, lead, rest, offset, d):
        # inv_0 = 1/lead and inv_k = -lead * sum_{1 <= j <= k} c_j inv_{k-j},
        # over every coefficient, zeros included; dense and sparse tails
        coeffs = [lead, *rest]
        inv = [lead]
        for k in range(1, len(coeffs)):
            inv.append(-lead * sum(coeffs[j] * inv[k - j] for j in range(1, k + 1)))
        got = TruncatedSeries(coeffs, offset, Fraction(1, d)).invert()
        assert (got.coeffs, got.offset, got.step) == (tuple(inv), -offset, Fraction(1, d))

    def test_mismatched_offsets_half_integer(self):
        a = TruncatedSeries((1, 0, 0, 0), Fraction(1, 2))
        b = TruncatedSeries((1, 0, 0, 0), Fraction(0))
        s = a + b
        assert s.offset == 0 and s.step == Fraction(1, 2)
        assert s.coefficient(Fraction(0)) == 1
        assert s.coefficient(Fraction(1, 2)) == 1

    def test_truncate(self):
        # grid 1/2, 1, 3/2, 2: the guarantee ends at the last grid point at
        # or below the frontier, and a frontier below the offset is refused
        s = TruncatedSeries((1, 2, 3, 4), Fraction(1, 2), Fraction(1, 2))
        for frontier, coeffs in ((Fraction(3, 2), (1, 2, 3)),
                                 (Fraction(5, 4), (1, 2)),
                                 (Fraction(1, 2), (1,))):
            cut = s.truncate(frontier)
            assert (cut.coeffs, cut.offset, cut.step) == \
                (coeffs, Fraction(1, 2), Fraction(1, 2))
        assert s.truncate(2) is s and s.truncate(9) is s
        for frontier in (Fraction(1, 4), Fraction(-3)):
            with pytest.raises(ValueError, match="below the series offset"):
                s.truncate(frontier)

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
        assert (((a + b) + c) - (a + (b + c))).is_zero()
        assert (((a * b) * c) - (a * (b * c))).is_zero()
        assert ((a * (b + c)) - (a * b + a * c)).is_zero()
        assert ((a * b) - (b * a)).is_zero()


@st.composite
def series_lists(draw):
    """1-4 series, each with offset k/d1, step 1/d2 and order 0-8."""
    return [TruncatedSeries(tuple(draw(st.lists(st.integers(-3, 3),
                                                min_size=1, max_size=9))),
                            Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4))),
                            Fraction(1, draw(st.integers(1, 4))))
            for _ in range(draw(st.integers(1, 4)))]


class TestSeriesSum:
    # against a dict exponent -> coefficient, through pytest.fail (python -O)
    @settings(max_examples=300, deadline=None)
    @given(series_lists())
    def test_matches_dict_model(self, terms):
        total = series_sum(terms)
        offset = min(t.offset for t in terms)
        frontier = min(t.frontier for t in terms)
        d = math.lcm(*(t.step.denominator for t in terms),
                     *((t.offset - offset).denominator for t in terms))
        _expect((total.offset, total.frontier, total.step),
                (offset, frontier, Fraction(1, d)), "offset, frontier, step")
        model: dict[Fraction, int] = {}
        for t in terms:
            for i, c in enumerate(t.coeffs):
                e = t.offset + i * t.step
                model[e] = model.get(e, 0) + c
        grid = [offset + Fraction(i, d)
                for i in range(int((frontier - offset) * d) + 1)]
        _expect(list(total.coeffs), [model.get(e, 0) for e in grid], "coefficients")
        _expect([total.coefficient(e) for e in grid],
                [sum(t.coefficient(e) for t in terms) for e in grid], "coefficient()")
        _expect(reduce(operator.add, terms), total, "pairwise sum")


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
        assert (pochhammer_qq(0, 10) - series_one(10)).is_zero()

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
            assert (s * s.invert() - series_one(12)).is_zero()

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            PochhammerSpec(1, Fraction(-1), Fraction(1), 2)

    @settings(max_examples=200, deadline=None)
    @given(pochhammer_specs(), st.integers(0, 12))
    def test_reciprocal_equals_inverse(self, spec, order):
        assert outcome(lambda: series_one(order).times_pochhammer((spec, -1))) == \
            outcome(lambda: pochhammer(spec, order).invert())

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=10),
           st.fractions(min_value=-2, max_value=2, max_denominator=4),
           st.integers(1, 4),
           st.lists(st.tuples(pochhammer_specs(), st.sampled_from((1, -1))),
                    max_size=3),
           st.integers(0, 3))
    def test_times_pochhammer_equals_product(self, coeffs, offset, d, symbols,
                                             extra):
        # one call against the product of the single-symbol series
        s = TruncatedSeries(tuple(coeffs), offset, Fraction(1, d))
        order = math.ceil(s.frontier - s.offset) + extra

        def product():
            out = s
            for symbol in symbols:
                out = out * series_one(order).times_pochhammer(symbol)
            return out

        assert outcome(lambda: s.times_pochhammer(*symbols)) == outcome(product)

    def test_fractional_exponent(self):
        s = pochhammer(PochhammerSpec(1, Fraction(1, 2), Fraction(1), 1), 3)
        assert s.coefficient(Fraction(1, 2)) == -1
        assert s.coefficient(Fraction(0)) == 1


class TestSeriesValue:
    # a series is its value: moved to m times its den, with off and stride
    # scaled by m, it is equal, hashes equal, reads the same and gives the
    # same result under every operation, on either side of it
    @settings(max_examples=200, deadline=None)
    @given(series_lists(), st.integers(2, 6),
           st.fractions(min_value=-3, max_value=3, max_denominator=6),
           st.lists(st.tuples(pochhammer_specs(), st.sampled_from((1, -1))),
                    max_size=2),
           st.data())
    def test_moved_to_a_multiple_of_its_den(self, terms, m, exponent, symbols, data):
        a, c = terms[0], terms[-1]
        b = TruncatedSeries._trusted(a.coeffs, a.den * m, a.off * m, a.stride * m)
        _expect((b, hash(b)), (a, hash(a)), "value and hash")
        _expect([b.to_json(), b.offset, b.step, b.frontier],
                [a.to_json(), a.offset, a.step, a.frontier], "views")
        grid = [a.offset + Fraction(i, 12 * a.step.denominator)  # twelfths of a step
                for i in range(-2, 12 * a.order + 1)]
        _expect([b.coefficient(e) for e in grid], [a.coefficient(e) for e in grid],
                "coefficient()")
        frontier = data.draw(st.fractions(min_value=a.offset, max_value=a.frontier + 1,
                                          max_denominator=12), "frontier")
        for what, result in [("+", lambda s: s + c), ("+ (right)", lambda s: c + s),
                             ("-", lambda s: s - c), ("- (right)", lambda s: c - s),
                             ("*", lambda s: s * c), ("* (right)", lambda s: c * s),
                             ("shift", lambda s: s.shift(exponent)),
                             ("truncate", lambda s: s.truncate(frontier)),
                             ("invert", lambda s: outcome(s.invert)),
                             ("times_pochhammer",
                              lambda s: outcome(lambda: s.times_pochhammer(*symbols)))]:
            got, want = result(b), result(a)
            _expect(got, want, what)
            if isinstance(want, TruncatedSeries):
                _expect(got.to_json(), want.to_json(), f"{what} to_json")
