from itertools import permutations

import pytest

from gridutil import (dominant_partitions, instance_grid, weight_compositions,
                      width_tuples)
from qrigged.combinat import Composition, Partition, kostka_foulkes
from qrigged.kostka import (GLOBAL_NORMALIZATION, KostkaInstance, calibrate,
                            fermionic_kostka, fermionic_kostka_closed_form,
                            kostka_foulkes_via_paths, path_kostka,
                            restricted_kostka, verify_identity)
from qrigged.crystals import UnsupportedFactorShapeError, enumerate_paths
from qrigged.qalg import IntPolynomial
from qrigged.rc import MultiplicityArray


def instance(widths, n, weight):
    return KostkaInstance(MultiplicityArray.from_rows(widths, n),
                          Composition(weight))


class TestExamples:
    def test_empty_instance(self):
        inst = KostkaInstance(MultiplicityArray({}, 2), Composition(()))
        assert fermionic_kostka(inst) == IntPolynomial.one()
        assert path_kostka(inst) == IntPolynomial.one()
        assert verify_identity(inst).equal

    def test_two_boxes(self):
        inst = instance((1, 1), 2, (1, 1))
        poly = fermionic_kostka(inst)
        assert poly.evaluate_at_one() == 2
        assert poly == IntPolynomial({0: 1, 1: 1})

    def test_single_path_instances(self):
        inst = instance((2,), 2, (1, 1))
        assert path_kostka(inst) == IntPolynomial.one()
        assert fermionic_kostka(inst).evaluate_at_one() == 1

    def test_three_boxes(self):
        inst = instance((1, 1, 1), 2, (2, 1))
        poly = path_kostka(inst)
        assert poly.evaluate_at_one() == 3
        assert poly == IntPolynomial({0: 1, 1: 1, 2: 1})

    def test_rectangles_rejected_on_path_side(self):
        inst = KostkaInstance(MultiplicityArray({(2, 1): 1}, 3),
                              Composition((1, 1)))
        with pytest.raises(UnsupportedFactorShapeError):
            path_kostka(inst)


class TestTwoEvaluationRoutes:
    def test_closed_form_matches_enumeration(self):
        for n in (2, 3):
            for widths in width_tuples(4):
                for w in weight_compositions(sum(widths), n):
                    inst = instance(widths, n, w)
                    # fermionic_kostka asserts the agreement internally;
                    # check the closed form value explicitly as well
                    assert fermionic_kostka(inst) == \
                        fermionic_kostka_closed_form(inst)


class TestMainIdentity:
    def test_identity_on_grid(self):
        for n in (2, 3):
            for widths in width_tuples(4):
                for w in weight_compositions(sum(widths), n):
                    inst = instance(widths, n, w)
                    report = verify_identity(inst)
                    assert report.equal, (widths, n, w)
                    assert report.normalization == GLOBAL_NORMALIZATION

    def test_q1_specialization_counts_paths(self):
        for n in (2, 3):
            for widths in width_tuples(4):
                for w in weight_compositions(sum(widths), n):
                    inst = instance(widths, n, w)
                    count = len(enumerate_paths(widths, n, Composition(w)))
                    assert fermionic_kostka(inst).evaluate_at_one() == count

    @pytest.mark.slow
    def test_closed_form_equals_path_on_rank_4_grid(self):
        # opt-in extension of the acceptance grid to rank 4, <= 6 boxes
        instances = objects = 0
        for widths, n in instance_grid(6, ranks=(4,)):
            for w in weight_compositions(sum(widths), n):
                inst = instance(widths, n, w)
                closed = fermionic_kostka_closed_form(inst)
                assert closed == path_kostka(inst), (widths, n, w)
                count = len(enumerate_paths(widths, n, Composition(w)))
                assert closed.evaluate_at_one() == count, (widths, n, w)
                instances += 1
                objects += count
        assert (instances, objects) == (3968, 48433)

    def test_corrupted_normalization_detected(self):
        inst = instance((1, 1), 2, (1, 1))
        report = verify_identity(inst, normalization={"sign": 1, "shift": 1})
        assert not report.equal
        assert report.counterexample is not None
        assert "first_difference_exponent" in report.counterexample

    def test_weight_permutation_symmetry(self):
        # empirical finding, asserted: the unrestricted polynomial is
        # invariant under permuting the weight composition
        for n in (2, 3):
            for widths in ((1, 1), (2, 1), (1, 1, 1), (2, 2)):
                for w in weight_compositions(sum(widths), n):
                    base = fermionic_kostka(instance(widths, n, w))
                    for perm in set(permutations(w)):
                        assert fermionic_kostka(instance(widths, n, perm)) == base

    def test_calibration_matches_frozen(self):
        assert calibrate() == GLOBAL_NORMALIZATION


class TestRestrictedSpecialization:
    def test_diagonal(self):
        for size in range(1, 5):
            for lam in dominant_partitions(size, max_parts=3):
                n = max(2, len(lam))
                inst = instance(lam, n, lam + (0,) * (n - len(lam)))
                assert kostka_foulkes_via_paths(inst) == IntPolynomial.one()

    def test_hand_examples(self):
        inst = instance((1, 1, 1), 3, (2, 1, 0))
        assert kostka_foulkes_via_paths(inst) == IntPolynomial({1: 1, 2: 1})
        inst = instance((1, 1), 2, (2, 0))
        assert kostka_foulkes_via_paths(inst) == IntPolynomial({1: 1})
        assert restricted_kostka(inst) == IntPolynomial.one()

    def test_matches_classical_kostka_foulkes(self):
        for size in range(1, 6):
            for lam in dominant_partitions(size, max_parts=3):
                for mu in dominant_partitions(size):
                    n = max(2, len(lam))
                    inst = instance(mu, n, lam + (0,) * (n - len(lam)))
                    assert kostka_foulkes_via_paths(inst) == \
                        kostka_foulkes(Partition(lam), Partition(mu))

    def test_non_dominant_weight_rejected(self):
        with pytest.raises(ValueError):
            restricted_kostka(instance((1, 1), 2, (0, 2)))
