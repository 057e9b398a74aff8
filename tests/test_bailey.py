import hashlib
from fractions import Fraction

import pytest

from qrigged.cli import main
from qrigged.qalg import NonInvertibleSeriesError, TruncatedSeries, pochhammer_qq
from qrigged.qseries import bailey
from qrigged.qseries.bailey import (INFINITY, BaileyPair, bailey_step,
                                    rogers_ramanujan_seed, unit_bailey_pair,
                                    verify_bailey_pair, weak_lemma)
from qrigged.qseries.sums import compare_series


class TestVerify:
    def test_unit_pair(self):
        check = verify_bailey_pair(unit_bailey_pair(), 20, max_n=10)
        assert check.valid

    def test_unit_pair_general_base(self):
        check = verify_bailey_pair(unit_bailey_pair(Fraction(1, 2)), 12, max_n=6)
        assert check.valid

    def test_corrupted_beta_detected_at_n2(self):
        base = unit_bailey_pair()

        def bad_seed(order, nmax):
            alphas, betas = base.seed(order, nmax)
            betas[2] = betas[2] + TruncatedSeries((0, 0, 1) + (0,) * (order - 2))
            return alphas, betas

        corrupted = BaileyPair(Fraction(0), bad_seed, "bad")
        check = verify_bailey_pair(corrupted, 10, max_n=5)
        assert not check.valid
        assert check.failing_n == 2
        # the CLI payload of a failing check names where it failed
        assert check.as_dict() == {"valid": False, "order": 10,
                                   "checked_n": 2, "failing_n": 2,
                                   "failing_exponent": "2"}

    def test_classical_seed_to_order_30(self):
        check = verify_bailey_pair(rogers_ramanujan_seed(), 30, max_n=12)
        assert check.valid

    @pytest.mark.parametrize("order, max_n", [(10, -1), (-1, -1), (-1, 10)])
    def test_empty_range_of_n_is_refused(self, order, max_n):
        # checking no n at all would otherwise come back valid
        with pytest.raises(ValueError, match=rf"order {order} and max_n "
                                             rf"{max_n} must be nonnegative"):
            verify_bailey_pair(unit_bailey_pair(), order, max_n=max_n)


class TestSeedTable:
    @pytest.mark.parametrize("make, factors", [
        (unit_bailey_pair, 2), (lambda: unit_bailey_pair(Fraction(1, 2)), 2),
        (rogers_ramanujan_seed, 1)], ids=["unit", "unit-1/2", "rogers-ramanujan"])
    def test_one_kernel_pass_per_factor(self, make, factors, monkeypatch):
        # beta_n is beta_{n-1} times one factor per exponent of the seed, so
        # a table of nmax entries past beta_0 costs nmax * |E| kernel passes;
        # rebuilding each entry from 1 would cost O(nmax^2)
        calls = []

        def counted(c, e, sign, power, _original=bailey._apply_factor):
            calls.append(e)
            return _original(c, e, sign, power)

        monkeypatch.setattr(bailey, "_apply_factor", counted)
        counts = []
        for nmax in (0, 1, 12, 30):
            calls.clear()
            make().table(30, nmax)
            counts.append(len(calls))
        if counts != [0, factors, 12 * factors, 30 * factors]:
            pytest.fail(f"kernel passes for nmax = 0, 1, 12, 30: {counts}")

    @pytest.mark.parametrize("k, nmax, error, message", [
        (Fraction(-3, 2), 3, ValueError, "exponent must be nonnegative"),
        (Fraction(-3, 2), 0, ValueError, "exponent must be nonnegative"),
        (Fraction(-1), 1, NonInvertibleSeriesError,
         "non-invertible factor 1 - (1)*q^0: constant term is not a unit")])
    def test_refusals_of_a_negative_base(self, k, nmax, error, message):
        # (aq; q)_n with aq = q^{1+k}: a negative exponent is refused for
        # every n, and exponent 0 once a factor 1 - q^0 is divided out
        with pytest.raises(ValueError) as info:
            unit_bailey_pair(k).table(10, nmax)
        if type(info.value) is not error or str(info.value) != message:
            pytest.fail(f"k = {k}: {type(info.value).__name__}: {info.value}")

    def test_base_minus_one_is_refused_only_past_beta_0(self):
        # (q^0; q)_0 = 1 divides out no factor yet
        if unit_bailey_pair(Fraction(-1)).table(10, 0)[1][0].coeffs != (1,) + (0,) * 10:
            pytest.fail("beta_0 of the unit pair at k = -1 is not 1")


class TestStep:
    def test_infinite_parameter_is_none_and_prints_as_infinity(self):
        names = [bailey_step(unit_bailey_pair(), INFINITY, Fraction(1, 2)).name,
                 bailey_step(rogers_ramanujan_seed(), INFINITY, INFINITY).name]
        if INFINITY is not None or names != [
                "step(unit; INFINITY, 1/2)",
                "step(rogers-ramanujan-seed; INFINITY, INFINITY)"]:
            pytest.fail(f"INFINITY = {INFINITY!r}, names {names}")

    def test_step_output_is_a_pair(self):
        stepped = bailey_step(rogers_ramanujan_seed(), INFINITY, INFINITY)
        assert verify_bailey_pair(stepped, 12, max_n=6).valid

    def test_finite_parameters(self):
        stepped = bailey_step(unit_bailey_pair(), Fraction(1, 2), INFINITY)
        assert verify_bailey_pair(stepped, 10, max_n=5).valid
        both = bailey_step(unit_bailey_pair(), Fraction(1, 2), Fraction(1, 3))
        assert verify_bailey_pair(both, 10, max_n=5).valid

    def test_out_of_range_parameter(self):
        with pytest.raises(ValueError):
            bailey_step(unit_bailey_pair(), Fraction(2), INFINITY)

    def test_out_of_range_parameter_product_rejected_at_step_time(self):
        # aq/(rho sigma) = q^{1 - 4/5 - 5/6} has a negative exponent
        with pytest.raises(ValueError, match=r"aq/\(rho sigma\) = q\^-19/30"):
            bailey_step(unit_bailey_pair(), Fraction(4, 5), Fraction(5, 6))
        # exponent exactly zero is a valid step
        edge = bailey_step(unit_bailey_pair(), Fraction(1, 2), Fraction(1, 2))
        assert verify_bailey_pair(edge, 8, max_n=4).valid


class TestChain:
    def test_rogers_ramanujan_from_one_step(self):
        # weak limit of the seed: sum q^{n^2}/(q)_n = pentagonal-type theta
        # over (q)_inf -- the first Rogers-Ramanujan identity, order 30
        lhs, rhs = weak_lemma(rogers_ramanujan_seed(), 30)
        assert compare_series(lhs, rhs).equal

    def test_second_chained_step_gives_modulus_seven(self):
        stepped = bailey_step(rogers_ramanujan_seed(), INFINITY, INFINITY)
        lhs, rhs = weak_lemma(stepped, 20)
        assert compare_series(lhs, rhs).equal
        # the lhs is the double fermionic sum of the Rogers-Selberg
        # modulus-7 identity; cross-check against the preset evaluator
        from qrigged.qseries.presets import PresetRegistry, character
        report = character(PresetRegistry().get("rogers-selberg-7"), 20)
        assert compare_series(lhs, report.fermionic).equal

    def test_durfee_square_from_unit_pair(self):
        # unit pair + weak limit: sum q^{n^2}/((q)_n)^2 = 1/(q)_inf
        lhs, rhs = weak_lemma(unit_bailey_pair(), 25)
        assert compare_series(lhs, rhs).equal
        assert compare_series(lhs, pochhammer_qq(None, 25).invert()).equal


class TestWeakLimitOutput:
    # sha256 of the stdout of `qrigged bailey --mode weak-limit` with these
    # flags, pinned so that the JSON stays byte-identical
    @pytest.mark.parametrize("flags, digest", [
        (["--steps", "2", "--order", "40"],
         "1d3f9048151e7b9c7268577a785afbe46d38cbd62b530b268d8e61477328d090"),
        (["--steps", "1", "--rho", "1/2", "--order", "30"],
         "038a15ce5eb84c810771630bcfa1698332fffea133fcfe855f30b8dc31a8ab60"),
    ], ids=["two-steps", "rho-1/2"])
    def test_stdout_digest(self, flags, digest, capsys):
        code = main(["bailey", "--mode", "weak-limit",
                     "--pair", "rogers-ramanujan-seed", *flags])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
