import hashlib
import random
from fractions import Fraction as F
from math import ceil, floor, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from qrigged.qalg import (DivergentProductError, NonInvertibleSeriesError,
                          TruncatedSeries, pochhammer_qq, series_sum)
from qrigged.qseries.bailey import (INFINITY, bailey_step, rogers_ramanujan_seed,
                                    unit_bailey_pair, weak_lemma)
from qrigged.qseries.presets import PresetRegistry
from gridutil import box_points
from qrigged.qseries.sums import (AffineForm, BosonicSumSpec, Congruence,
                                  FermionicSumSpec, NonTerminatingSumError,
                                  PochhammerFactor, _quadratic_range,
                                  compare_series, eval_bosonic,
                                  eval_fermionic)


def qq_factor(var_index, dim):
    coeffs = [F(0)] * dim
    coeffs[var_index] = F(1)
    return PochhammerFactor(1, F(1), F(1), AffineForm(F(0), tuple(coeffs)), -1)


def rr_spec(linear):
    return FermionicSumSpec(1, ((F(2),),), (F(linear),), F(0), (qq_factor(0, 1),))


class TestFermionic:
    def test_dim_zero_constant(self):
        spec = FermionicSumSpec(0, (), (), F(3, 4))
        s = eval_fermionic(spec, 5)
        assert s.offset == F(3, 4) and s.coeffs == (1, 0, 0, 0, 0, 0)
        # factors with constant lengths still apply: q^(3/4) / (q;q)_inf
        spec = FermionicSumSpec(0, (), (), F(3, 4), (
            PochhammerFactor(1, F(1), F(1), None, -1),))
        s = eval_fermionic(spec, 6)
        assert s.offset == F(3, 4) and s.coeffs == (1, 1, 2, 3, 5, 7, 11)

    def test_first_rogers_ramanujan_coefficients(self):
        s = eval_fermionic(rr_spec(0), 10)
        assert s.coeffs == (1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6)

    def test_second_rogers_ramanujan_coefficients(self):
        s = eval_fermionic(rr_spec(1), 10)
        assert s.coeffs == (1, 0, 1, 1, 1, 1, 2, 2, 3, 3, 4)

    def test_far_linear_vertex_is_exact(self):
        # linear -10^9: near n = 5*10^8 + m the exponent is m^2 - 2.5*10^17
        # and (q)_n is (q)_inf to any order, so the sum is q^(-2.5*10^17)
        # times sum_m q^(m^2) / (q)_inf; the walk starts at the vertex and
        # the Horner loop skips the k whose factors lie past the order
        order = 12
        partitions = [1] + [0] * order
        for part in range(1, order + 1):
            for k in range(part, order + 1):
                partitions[k] += partitions[k - part]
        theta = [0] * (order + 1)
        for m in range(-isqrt(order), isqrt(order) + 1):
            theta[m * m] += 1
        expected = tuple(sum(theta[j] * partitions[k - j] for j in range(k + 1))
                         for k in range(order + 1))
        s = eval_fermionic(rr_spec(-10 ** 9), order)
        if expected[:5] != (1, 3, 4, 7, 13) or (s.offset, s.step, s.coeffs) \
                != (-25 * 10 ** 16, 1, expected):
            pytest.fail(f"{s}, expected {expected} at q^(-2.5*10^17)")

    def test_prefix_stability(self):
        lo = eval_fermionic(rr_spec(0), 12)
        hi = eval_fermionic(rr_spec(0), 40)
        assert hi.coeffs[:13] == lo.coeffs

    def test_non_growing_exponent_rejected(self):
        with pytest.raises(NonTerminatingSumError):
            FermionicSumSpec(1, ((F(0),),), (F(1),), F(0))
        with pytest.raises(NonTerminatingSumError):
            FermionicSumSpec(2, ((F(2), F(-1)), (F(-1), F(2))),
                             (F(0), F(0)), F(0))

    def test_congruence_restriction(self):
        # only even n: sum q^{n^2}/(q)_n over n = 0, 2, 4, ...
        spec = FermionicSumSpec(
            1, ((F(2),),), (F(0),), F(0), (qq_factor(0, 1),),
            congruences=(Congruence(AffineForm(F(0), (F(1),)), 2),))
        full = eval_fermionic(rr_spec(0), 16)
        even = eval_fermionic(spec, 16)
        odd_spec = FermionicSumSpec(
            1, ((F(2),),), (F(0),), F(0), (qq_factor(0, 1),),
            congruences=(Congruence(AffineForm(F(1), (F(1),)), 2),))
        odd = eval_fermionic(odd_spec, 16)
        assert compare_series(even + odd, full).equal
        # the origin is excluded, so the range runs from q^1 to q^9, past the
        # n = 3 term q^9/(q)_3
        odd = eval_fermionic(odd_spec, 8)
        assert (odd.offset, odd.frontier) == (1, 9)
        assert odd.coeffs == (1, 1, 1, 1, 1, 1, 1, 1, 2)
        assert compare_series(odd, full - even).equal

    def test_inequality_restriction(self):
        # n >= 2 by inequality: equals full sum minus n=0,1 terms
        spec = FermionicSumSpec(
            1, ((F(2),),), (F(0),), F(0), (qq_factor(0, 1),),
            inequalities=(AffineForm(F(-2), (F(1),)),))
        s = eval_fermionic(spec, 12)
        assert s.offset == 4  # least exponent is n=2 -> q^4
        assert s.frontier == 16 and s.coefficient(16) == 16
        head = eval_fermionic(FermionicSumSpec(
            1, ((F(2),),), (F(0),), F(0), (qq_factor(0, 1),),
            inequalities=(AffineForm(F(1), (F(-1),)),)), 20)  # n <= 1
        full = eval_fermionic(rr_spec(0), 20)
        assert compare_series(s, full - head).equal
        # n >= 4: no point lies within the first enumeration bound
        s = eval_fermionic(FermionicSumSpec(
            1, ((F(2),),), (F(0),), F(0), (qq_factor(0, 1),),
            inequalities=(AffineForm(F(-4), (F(1),)),)), 10)
        assert (s.offset, s.frontier) == (16, 26)
        assert s.coeffs == (1, 1, 2, 3, 5, 6, 9, 11, 15, 19, 24)

    def test_inequality_on_one_coordinate_clamps_the_walk(self):
        # exponent n^2 - 10^9 n: the vertex n = 5 * 10^8 lies past n <= 10,
        # so the walk takes n = 0..10 only; n = 10 is least, at 100 - 10^10,
        # and n = 9 lies 10^9 higher, so to order 12 the sum is
        # q^(-9999999900)/(q)_10.  pytest.fail, so it also runs under -O
        spec = FermionicSumSpec(1, ((F(2),),), (F(-10 ** 9),), F(0),
                                (qq_factor(0, 1),),
                                inequalities=(AffineForm(F(10), (F(-1),)),))
        want = [1] + [0] * 12  # partitions of k into parts <= 10
        for part in range(1, 11):
            for k in range(part, 13):
                want[k] += want[k - part]
        s = eval_fermionic(spec, 12)
        if (s.offset, s.coeffs) != (-9_999_999_900, tuple(want)):
            pytest.fail(f"offset {s.offset}, coefficients {s.coeffs}")

    def test_unsatisfiable_restriction_rejected(self):
        spec = FermionicSumSpec(1, ((F(2),),), (F(0),), F(0),
                                inequalities=(AffineForm(F(-1), (F(0),)),))
        with pytest.raises(ValueError, match="no lattice point"):
            eval_fermionic(spec, 10)

    def test_negative_linear_term(self):
        # exponent n^2 - n has its minimum 0 at n = 0 and n = 1
        spec = FermionicSumSpec(1, ((F(2),),), (F(-1),), F(0),
                                (qq_factor(0, 1),))
        s = eval_fermionic(spec, 8)
        assert s.offset == 0
        assert s.coeffs[0] == 2  # n=0 and n=1 both contribute q^0

    @staticmethod
    def factor(sign, exponent, step, length, power):
        length = None if length is None else AffineForm(F(length[0]), length[1:])
        return PochhammerFactor(sign, F(exponent), F(step), length, power)

    # refused when the factor is built, whether its length is n_1, constant
    # or infinite, with the error that evaluating it would raise
    @pytest.mark.parametrize("factor, error, message", [
        ((1, 0, 1, (0, 0, 1), -1), NonInvertibleSeriesError, "not a unit"),
        ((1, 0, 1, (2, 0, 0), -1), NonInvertibleSeriesError, "not a unit"),
        ((1, 1, 0, (0, 1, 0), -1), ValueError, "step must be positive"),
        ((1, -1, 1, (0, 1, 0), 1), ValueError, "exponent must be nonnegative"),
        ((1, 1, 1, (F(1, 2), 0, 0), -1), ValueError, "length 1/2 is not"),
        ((1, 0, 1, None, -1), DivergentProductError, "positive exponent"),
    ])
    def test_factor_faults(self, factor, error, message):
        with pytest.raises(error, match=message):
            self.factor(*factor)

    def test_factor_fault_at_a_point(self):
        # a length n_0 - 2 is negative only at some points: refused there
        spec = FermionicSumSpec(2, ((2, 1), (1, 2)), (0, 0), 0, (
            self.factor(1, 1, 1, (-2, 1, 0), -1),))
        with pytest.raises(ValueError, match="length -2 is not"):
            eval_fermionic(spec, 12)

    def test_empty_factor_of_exponent_zero_is_one(self):
        # the constant length 0 has no first factor to invert
        bare = FermionicSumSpec(1, ((F(2),),), (F(0),), F(0))
        spec = FermionicSumSpec(1, ((F(2),),), (F(0),), F(0),
                                (self.factor(1, 0, 1, (0, 0), -1),))
        assert compare_series(eval_fermionic(spec, 8),
                              eval_fermionic(bare, 8)).equal


def _theta_window(spec, order):
    """Sorted (exponent, sign) of the theta terms within `order` of the
    least, by brute force: |j - v| <= sqrt(order / a2) + 1 around the real
    vertex v holds every such term, and the ends of the window must lie
    past it."""
    if spec.a2 is None:
        return [(spec.a0, 1)]
    v = floor(-spec.a1 / (2 * spec.a2))
    w = isqrt(ceil(order / spec.a2)) + 2
    window = range(v - w, v + w + 1)
    exps = {j: spec.a2 * j * j + spec.a1 * j + spec.a0 for j in window}
    top = min(exps.values()) + order
    if exps[window[0]] <= top or exps[window[-1]] <= top:
        pytest.fail(f"{spec}: window {window} is too narrow")
    return sorted((e, -1 if spec.parity * j % 2 else 1)
                  for j, e in exps.items() if e <= top)


class TestBosonic:
    def test_pentagonal_number_theorem(self):
        spec = BosonicSumSpec(1, F(3, 2), F(-1, 2), F(0))
        assert compare_series(eval_bosonic(spec, 30),
                              pochhammer_qq(None, 30)).equal

    def test_pentagonal_times_inverse_euler_is_one(self):
        theta = eval_bosonic(BosonicSumSpec(1, F(3, 2), F(-1, 2), F(0)), 30)
        product = theta * pochhammer_qq(None, 30).invert()
        one = TruncatedSeries((1,) + (0,) * 30)
        assert compare_series(product, one).equal

    def test_rogers_ramanujan_both_sides(self):
        fermionic = eval_fermionic(rr_spec(0), 50)
        bosonic = eval_bosonic(BosonicSumSpec(
            1, F(5, 2), F(-1, 2), F(0),
            (PochhammerFactor(1, F(1), F(1), None, -1),)), 50)
        assert compare_series(fermionic, bosonic).equal

    def test_normalized_leading_coefficient(self):
        bosonic = eval_bosonic(BosonicSumSpec(
            1, F(5, 2), F(3, 2), F(0),
            (PochhammerFactor(1, F(1), F(1), None, -1),)), 10)
        assert bosonic.coefficient(bosonic.offset) == 1

    def test_constant_length_with_zero_coefficients(self):
        # the same constant length as the fermionic side reads it: 3 + 0*n_1
        # is (q; q)_3, as 3 is
        def spec(length):
            return BosonicSumSpec(1, F(3, 2), F(-1, 2), F(0), (
                PochhammerFactor(1, F(1), F(1), length, 1),))
        assert eval_bosonic(spec(AffineForm(F(3), (F(0),))), 20) == \
            eval_bosonic(spec(AffineForm(F(3), ())), 20)

    def test_non_growing_theta_rejected(self):
        with pytest.raises(NonTerminatingSumError):
            BosonicSumSpec(1, F(0), F(1), F(0))

    # checked through pytest.fail, so it also runs under python -O
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_against_per_term_reference(self, data):
        # the reference places one series per theta term, at its Fraction
        # exponent from the brute-force window, by `series_sum`, then
        # multiplies by the prefactors
        def rational(low, high):
            return st.builds(F, st.integers(low, high), st.integers(1, 7))

        a2 = data.draw(st.none() | rational(1, 12), "a2")
        a1 = data.draw(rational(-12, 12) | st.sampled_from(
            [F(10 ** 9, 7), F(-10 ** 9, 7)]), "a1")
        prefactors = tuple(PochhammerFactor(
            data.draw(st.sampled_from([1, -1])),
            F(data.draw(st.integers(1, 4)), data.draw(st.integers(1, 2))),
            F(data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))),
            data.draw(st.none() | st.integers(0, 4).map(
                lambda n: AffineForm(F(n), ()))),
            data.draw(st.sampled_from([1, -1])))
            for _ in range(data.draw(st.integers(0, 2), "prefactors")))
        spec = BosonicSumSpec(data.draw(st.sampled_from([0, 1]), "parity"), a2,
                              a1, data.draw(rational(-12, 12), "a0"), prefactors)
        order = data.draw(st.integers(0, 40), "order")
        want = series_sum([TruncatedSeries((sign,) + (0,) * order, e)
                           for e, sign in _theta_window(spec, order)])
        for f in spec.prefactors:
            want = want.times_pochhammer((f.spec(()), f.power))
        got = eval_bosonic(spec, order)
        if got != want:
            pytest.fail(f"{spec} at order {order}: offset/step {got.offset}, "
                        f"{got.step} vs {want.offset}, {want.step}; "
                        f"{got.coeffs} vs {want.coeffs}")


class TestCompare:
    def test_self_comparison(self):
        s = eval_fermionic(rr_spec(0), 20)
        assert compare_series(s, s).equal

    def test_first_discrepancy_reported(self):
        rr1 = eval_fermionic(rr_spec(0), 50)
        rr2_bosonic = eval_bosonic(BosonicSumSpec(
            1, F(5, 2), F(3, 2), F(0),
            (PochhammerFactor(1, F(1), F(1), None, -1),)), 50)
        report = compare_series(rr1, rr2_bosonic)
        assert not report.equal
        assert report.first_difference == 1
        assert (report.left_coefficient, report.right_coefficient) == (1, 0)


class TestLatticeWalk:
    # checked through pytest.fail, so it also runs under python -O
    def test_exponents_are_the_quadratic_form(self):
        registry = PresetRegistry()
        for name in registry.names():
            spec = registry.get(name).fermionic
            scale, points = spec.lattice_points(F(30))
            if not points:
                pytest.fail(f"{name}: no lattice point up to 30")
            for p, x in points:
                e = F(x, scale)
                r = range(spec.dim)
                want = sum((spec.quadratic[i][j] * p[i] * p[j] for i in r for j in r),
                           F(0)) / 2 \
                    + sum(spec.linear[i] * p[i] for i in r) + spec.constant
                if e != want:
                    pytest.fail(f"{name}: point {p} has exponent {e}, want {want}")

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 4), st.integers(-40, 40), st.integers(1, 6))
    def test_single_min_is_the_least_value(self, an, ad, bn, bd):
        a, b = F(an, ad), F(bn, bd)
        # the real minimizer -b/a is at most 160, so n < 200 covers it
        want = min(a / 2 * n * n + b * n for n in range(200))
        got = FermionicSumSpec(1, ((a,),), (b,), F(0))._single_min(0)
        if got != want:
            pytest.fail(f"A = {a}, b = {b}: _single_min {got}, brute force {want}")


class TestQuadraticRange:
    # checked through pytest.fail, so it also runs under python -O
    def test_exact_against_brute_force(self):
        # for |n| > |b| + |c|, a*n^2 >= |n|(|b| + |c| + 1) > |b n + c|, so
        # the window holds both roots and every solution
        for a in range(1, 7):
            for b in range(-40, 41):
                for c in range(-40, 41):
                    w = abs(b) + abs(c) + 1
                    want = [n for n in range(-w, w + 1) if a * n * n + b * n + c <= 0]
                    got = _quadratic_range(a, b, c)
                    if list(got) != want:
                        pytest.fail(f"{a}n^2 + {b}n + {c} <= 0: {got}, brute "
                                    f"force {want}")


def _seeded_forms(count=24, seed=31):
    """Small forms of dimension 1..3 with negative linear terms, fractional
    entries, and some with a congruence or an inequality."""
    rng = random.Random(seed)
    forms = []
    for k in range(count):
        dim = rng.randint(1, 3)
        A = [[F(0)] * dim for _ in range(dim)]
        for i in range(dim):
            A[i][i] = F(rng.randint(1, 6), rng.randint(1, 2))
            for j in range(i):
                A[i][j] = A[j][i] = F(rng.randint(0, 2))
        linear = tuple(F(rng.randint(-6, 3), rng.randint(1, 3)) for _ in range(dim))
        congruences = inequalities = ()
        if k % 3 == 1:
            form = AffineForm(F(rng.randint(0, 2)),
                              tuple(F(rng.randint(0, 2)) for _ in range(dim)))
            congruences = (Congruence(form, rng.randint(2, 3)),)
        if k % 3 == 2:
            inequalities = (AffineForm(F(rng.randint(-3, 4)), tuple(
                F(rng.randint(-1, 1)) for _ in range(dim))),)
        forms.append(FermionicSumSpec(dim, tuple(map(tuple, A)), linear,
                                      F(rng.randint(-2, 2), 2),
                                      congruences=congruences,
                                      inequalities=inequalities))
    return forms


class TestWalkCompleteness:
    """Both walks return exactly the terms within their bound."""

    @pytest.mark.parametrize("name", sorted(PresetRegistry().names()))
    def test_lattice_points_of_preset_forms(self, name):
        self.check_lattice(name, PresetRegistry().get(name).fermionic)

    def test_lattice_points_of_seeded_forms(self):
        forms = _seeded_forms()
        assert any(c < 0 for f in forms for c in f.linear)
        assert any(f.congruences for f in forms) and any(f.inequalities for f in forms)
        for k, spec in enumerate(forms):
            self.check_lattice(f"seeded form {k}", spec)

    @staticmethod
    def check_lattice(name, spec):
        box = box_points(spec, F(40))
        for bound in range(41):
            want = [(p, e + spec.constant) for p, e in box if e <= bound]
            scale, got = spec.lattice_points(F(bound))
            got = [(p, F(x, scale)) for p, x in got]
            if got != want:
                pytest.fail(f"{name} at bound {bound}: walk {got}, box {want}")

    @staticmethod
    def check_theta(spec, order):
        want = _theta_window(spec, order)
        scale, got = spec.theta_terms(order)
        got = [(F(x, scale), sign) for x, sign in got]
        if got != want:
            pytest.fail(f"{spec} at order {order}: {got}, brute force {want}")

    def test_theta_terms_of_shipped_presets(self):
        registry = PresetRegistry()
        thetas = [registry.get(name).bosonic for name in sorted(registry.names())]
        thetas = [b for b in thetas if b.a2 is not None]
        assert len(thetas) == 5
        for spec in thetas:
            for order in range(61):
                self.check_theta(spec, order)

    @pytest.mark.parametrize("a2", [F(1, 2), F(5, 2), F(3, 7), F(2), F(7, 3)], ids=str)
    @pytest.mark.parametrize("a1", [F(0), F(-1, 2), F(3, 2), F(10 ** 9),
                                    F(-10 ** 9), F(10 ** 9 + 1, 3),
                                    F(-10 ** 9, 7)], ids=str)
    def test_theta_terms_of_fractional_coefficients(self, a2, a1):
        for parity, a0 in ((0, F(0)), (1, F(-1, 3))):
            spec = BosonicSumSpec(parity, a2, a1, a0)
            for order in (0, 1, 2, 5, 12, 30):
                self.check_theta(spec, order)

    def test_far_vertex_gives_the_terms_near_it(self):
        # the least exponent sits near j = -2 * 10^8, not at j = 0
        scale, terms = BosonicSumSpec(1, F(5, 2), F(10 ** 9), F(0)).theta_terms(12)
        assert len(terms) == 5
        assert F(terms[0][0], scale) == -10 ** 17


class TestSeriesOutputsPinned:
    """One sha256 over (offset, step, coefficients) of every series below,
    as computed before the evaluators kept their exponents as integers: no
    grid, offset or coefficient may move.  The golden files cover only
    rogers-ramanujan-1."""

    @staticmethod
    def series():
        registry = PresetRegistry()
        for name in sorted(registry.names()):
            preset = registry.get(name)
            for order in (0, 1, 30, 110):
                yield eval_fermionic(preset.fermionic, order)
                yield eval_bosonic(preset.bosonic, order)
        # the weak limits and verified tables of the qseries benchmark
        for steps, order in ((0, 90), (1, 60), (2, 40)):
            pair = rogers_ramanujan_seed()
            for _ in range(steps):
                pair = bailey_step(pair, INFINITY, INFINITY)
            yield from weak_lemma(pair, order)
        for rho, order in ((F(1, 2), 40), (F(1, 3), 30)):
            yield from weak_lemma(bailey_step(rogers_ramanujan_seed(), rho,
                                              INFINITY), order)
        for pair, max_n in ((unit_bailey_pair(), 10), (bailey_step(
                rogers_ramanujan_seed(), INFINITY, INFINITY), 8)):
            for entries in pair.table(24, max_n):
                yield from entries

    def test_digest(self):
        digest, count = hashlib.sha256(), 0
        for s in self.series():
            digest.update(repr((str(s.offset), str(s.step), s.coeffs)).encode())
            count += 1
        if (count, digest.hexdigest()) != (138, "134a93626b80a6f2298628420c637705"
                                                "c76a432e981bff88f3832a3cec72b122"):
            pytest.fail(f"{count} series, digest {digest.hexdigest()}")
