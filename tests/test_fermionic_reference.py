"""`eval_fermionic` against a per-point reference evaluator.

The reference enumerates its own lattice points, every point of a box that
bounds the walk (`gridutil.box_points`), and adds the constant to their
exponents itself.  It multiplies each point's monomial by explicit
binomials 1 - s*q^k through `TruncatedSeries.__mul__`, and divides by the
product of the denominator binomials through `.invert()`.  It shares no
walk or factor kernel with the library: no `lattice_points`,
`times_pochhammer`, `_apply_factor` or `series_sum`.  It returns the grid
the library documents: offset low, step 1/d, d the lcm of every factor
exponent and step denominator and of every e - low, and order*d + 1
coefficients.  Every check fails through pytest.fail, so it also runs
under python -O.
"""
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from gridutil import box_points
from qrigged.qalg import TruncatedSeries
from qrigged.qseries.presets import PresetRegistry
from qrigged.qseries.sums import (AffineForm, Congruence, FermionicSumSpec,
                                  PochhammerFactor, eval_fermionic)


def _binomial(sign, exponent, d, size):
    """1 - sign*q^exponent with `size` coefficients on the grid of step 1/d."""
    c = [1] + [0] * (size - 1)
    if exponent * d < size:
        c[int(exponent * d)] -= sign
    return TruncatedSeries(tuple(c), F(0), F(1, d))


def reference(spec, order):
    """(coeffs, offset, step) of the fermionic sum, one point at a time."""
    def walk(bound):  # (point, exponent) pairs, the constant added here
        return [(p, value + spec.constant) for p, value in box_points(spec, bound)]

    bound = F(order) - sum(spec._single_min(i) for i in range(spec.dim))
    for _ in range(12):
        if (points := walk(bound)):
            break
        bound = 2 * bound + 1
    else:
        pytest.fail("reference: no lattice point found")
    low = min(e for _, e in points)
    points = [(p, e) for p, e in walk(max(bound, low - spec.constant + order))
              if e <= low + order]
    d = lcm(*(x.denominator for f in spec.factors for x in (f.exponent, f.step)),
            *((e - low).denominator for _, e in points))
    out = [0] * (order * d + 1)
    for p, e in points:
        start = int((e - low) * d)
        size = len(out) - start
        num = den = TruncatedSeries((1,) + (0,) * (size - 1), F(0), F(1, d))
        for f in spec.factors:
            length = None if f.length is None else f.length(p)
            k = 0
            # binomials past the last coefficient are 1 on this range
            while (length is None or k < length) \
                    and (f.exponent + k * f.step) * d < size:
                b = _binomial(f.sign, f.exponent + k * f.step, d, size)
                if f.power == 1:
                    num = b * num
                else:
                    den = b * den
                k += 1
        for j, c in enumerate((num * den.invert()).coeffs):
            out[start + j] += c
    return tuple(out), low, F(1, d)


def _check(label, spec, order):
    got = eval_fermionic(spec, order)
    got = (got.coeffs, got.offset, got.step)
    want = reference(spec, order)
    if got != want:
        first = next((i for i, (a, b) in enumerate(zip(got[0], want[0]))
                      if a != b), None)
        pytest.fail(f"{label} at order {order}: offset/step {got[1:]} vs "
                    f"{want[1:]}, {len(got[0])} vs {len(want[0])} coefficients,"
                    f" first differing index {first}")


def _form(constant, *coeffs):
    return AffineForm(F(constant), tuple(F(c) for c in coeffs))


def _factor(sign, exponent, step, length, power=-1):
    return PochhammerFactor(sign, F(exponent), F(step), length, power)


# Between them these cover: a congruence that skips values of n_i, an
# inequality, constant-length and infinite factors, fractional exponents
# and steps, an e - low denominator (3) that no factor has, and lengths that
# are not one coordinate, with negative and fractional coefficients among
# them (which are applied per point at the leaf).
SYNTHETIC = {
    # n1 even only, n0 >= n1; q^(n0/3) puts thirds between the exponents
    "2d-congruence-inequality": FermionicSumSpec(
        2, ((2, 1), (1, 2)), (F(1, 3), 0), 0,
        (_factor(1, 1, 1, _form(0, 1, 0)),
         _factor(-1, F(1, 2), 1, _form(0, 0, 1), 1),
         _factor(1, 2, 1, _form(3, 0, 0), 1),
         _factor(1, 1, 2, None)),
        congruences=(Congruence(_form(0, 0, 1), 2),),
        inequalities=(_form(0, 1, -1),)),
    # n0 + n2 = 1 mod 3 excludes the origin; steps 3/2 and 2
    "3d-fractional-steps": FermionicSumSpec(
        3, ((2, 0, 1), (0, 4, 1), (1, 1, 2)), (0, -1, F(1, 2)), F(1, 4),
        (_factor(1, 1, 1, _form(0, 1, 0, 0)),
         _factor(1, F(1, 2), F(3, 2), _form(0, 0, 1, 0)),
         _factor(1, 2, 2, _form(0, 0, 0, 1), 1),
         _factor(-1, 1, 1, _form(2, 0, 0, 0)),
         _factor(-1, F(3, 2), 1, None, 1)),
        congruences=(Congruence(_form(-1, 1, 0, 1), 3),),
        inequalities=(_form(4, -1, -1, 0),)),
    # both symbols of one coordinate, and a coordinate with no symbol
    "3d-shared-and-bare": FermionicSumSpec(
        3, ((1, 0, 0), (0, 2, 0), (0, 0, 3)), (F(1, 2), 0, 0), 0,
        (_factor(1, 1, 1, _form(0, 1, 0, 0)),
         _factor(-1, 1, 1, _form(0, 1, 0, 0), 1),
         _factor(1, 1, 1, _form(0, 0, 0, 1)))),
    # length 2*n0: per-point evaluation, with a constant-length factor
    "2d-non-unit-coefficient": FermionicSumSpec(
        2, ((4, 1), (1, 2)), (F(1, 3), F(1, 2)), 0,
        (_factor(1, 1, 1, _form(0, 2, 0)),
         _factor(1, F(1, 2), 1, _form(0, 0, 1)),
         _factor(1, 1, 1, _form(2, 0, 0), 1),
         _factor(1, 1, 1, None)),
        congruences=(Congruence(_form(0, 1, 1), 2),)),
    # lengths n0 + n1 and n1 + 1: per-point evaluation
    "2d-mixed-lengths": FermionicSumSpec(
        2, ((2, 2), (2, 4)), (0, 0), 0,
        (_factor(1, 1, 1, _form(0, 1, 1)),
         _factor(-1, 1, 2, _form(1, 0, 1), 1)),
        inequalities=(_form(6, -1, -1),)),
    # lengths 2 + n0 - n1 (kept >= 0 by the inequality) and (n0 + n1)/2
    # (integral under the congruence), beside a length-n0 symbol
    "2d-negative-and-half-lengths": FermionicSumSpec(
        2, ((2, 1), (1, 2)), (0, F(1, 2)), 0,
        (_factor(1, 1, 1, _form(2, 1, -1)),
         _factor(-1, F(1, 2), 1, _form(0, F(1, 2), F(1, 2)), 1),
         _factor(1, 1, 1, _form(0, 1, 0))),
        congruences=(Congruence(_form(0, 1, 1), 2),),
        inequalities=(_form(2, 1, -1),)),
}


class TestAgainstReference:
    @pytest.mark.parametrize("order", [0, 1, 2, 7, 40, 110, 300])
    def test_every_preset(self, order):
        registry = PresetRegistry()
        for name in registry.names():
            _check(name, registry.get(name).fermionic, order)

    @pytest.mark.parametrize("order", [0, 1, 5, 17, 60])
    @pytest.mark.parametrize("name", sorted(SYNTHETIC))
    def test_synthetic(self, name, order):
        _check(name, SYNTHETIC[name], order)

    # exponent n^2 - 1000 n: the vertex is n = 500 at -250000, and the
    # restriction keeps only points far above it, n <= 10 (least -9900) or
    # n = 0 mod 1000 (n = 0 and n = 1000, both at 0), so the first-point
    # search must reach order + 250000 as the first bound of the reference
    @pytest.mark.parametrize("order", [0, 12])
    @pytest.mark.parametrize("restriction, low", [
        ({"inequalities": (_form(10, -1),)}, -9900),
        ({"congruences": (Congruence(_form(0, 1), 1000),)}, 0),
    ], ids=["n-at-most-10", "n-0-mod-1000"])
    def test_points_far_above_the_vertex(self, restriction, low, order):
        spec = FermionicSumSpec(1, ((2,),), (-1000,), 0,
                                (_factor(1, 1, 1, _form(0, 1)),), **restriction)
        if eval_fermionic(spec, order).offset != low:
            pytest.fail(f"offset {eval_fermionic(spec, order).offset}, "
                        f"expected {low}")
        _check(f"linear -1000, {restriction}", spec, order)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_random_specs(self, data):
        dim = data.draw(st.integers(1, 3), "dim")
        small = st.integers(0, 2)
        quadratic = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            quadratic[i][i] = data.draw(st.integers(1, 4))
            for j in range(i):
                quadratic[i][j] = quadratic[j][i] = data.draw(small)
        linear = tuple(F(data.draw(st.integers(-2, 3)), data.draw(st.integers(1, 3)))
                       for _ in range(dim))
        factors = []
        for _ in range(data.draw(st.integers(0, 3))):
            kind = data.draw(st.sampled_from(["unit", "unit", "constant",
                                              "infinite", "other"]))
            if kind == "unit":
                coeffs = [0] * dim
                coeffs[data.draw(st.integers(0, dim - 1))] = 1
                length = _form(0, *coeffs)
            elif kind == "constant":
                length = _form(data.draw(st.integers(0, 3)), *[0] * dim)
            elif kind == "infinite":
                length = None
            else:
                length = _form(data.draw(small), *[data.draw(small) for _ in range(dim)])
            factors.append(_factor(
                data.draw(st.sampled_from([1, -1])),
                F(data.draw(st.integers(1, 4)), data.draw(st.integers(1, 2))),
                F(data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))),
                length, data.draw(st.sampled_from([1, -1]))))
        congruences = ()
        if data.draw(st.booleans()):
            congruences = (Congruence(
                _form(0, *[data.draw(small) for _ in range(dim)]),
                data.draw(st.integers(2, 3))),)
        inequalities = ()
        if dim > 1 and data.draw(st.booleans()):
            inequalities = (_form(data.draw(small), 1, -1, *[0] * (dim - 2)),)
        spec = FermionicSumSpec(dim, tuple(map(tuple, quadratic)), linear, 0,
                                tuple(factors), congruences, inequalities)
        _check(repr(spec), spec, data.draw(st.integers(0, 25), "order"))
