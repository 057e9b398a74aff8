import hashlib
from fractions import Fraction

import pytest

from qrigged.cli import main
from qrigged.qalg import TruncatedSeries, pochhammer_qq
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

        def bad_beta(n, order):
            out = base.beta(n, order)
            if n == 2:
                out = out + TruncatedSeries((0, 0, 1) + (0,) * (order - 2))
            return out

        corrupted = BaileyPair(Fraction(0), base.alpha, bad_beta, "bad")
        check = verify_bailey_pair(corrupted, 10, max_n=5)
        assert not check.valid
        assert check.failing_n == 2

    def test_classical_seed_to_order_30(self):
        check = verify_bailey_pair(rogers_ramanujan_seed(), 30, max_n=12)
        assert check.valid

    @pytest.mark.parametrize("order, max_n", [(10, -1), (-1, -1), (-1, 10)])
    def test_empty_range_of_n_is_refused(self, order, max_n):
        # checking no n at all would otherwise come back valid
        with pytest.raises(ValueError, match=rf"order {order} and max_n "
                                             rf"{max_n} must be nonnegative"):
            verify_bailey_pair(unit_bailey_pair(), order, max_n=max_n)


class TestStep:
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
