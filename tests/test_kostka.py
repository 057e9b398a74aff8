from collections import Counter
from itertools import combinations_with_replacement, permutations

import pytest

from gridutil import (dominant_partitions, instance_grid, weight_compositions,
                      width_tuples)
from oracles import classical_kostka, kostka_foulkes
from qrigged.combinat import Composition, Partition
from qrigged.kostka import (GLOBAL_NORMALIZATION, KostkaInstance,
                            fermionic_kostka, fermionic_kostka_closed_form,
                            kostka_foulkes_via_paths, path_kostka,
                            restricted_kostka)
from qrigged import crystals
from qrigged.bijection import rc_to_path
from qrigged.crystals import energy_sum, enumerate_paths, intrinsic_energy
from qrigged.qalg import IntPolynomial, q_binomial
from qrigged.qseries.presets import PresetRegistry, evaluate_side
from qrigged.rc import (Configuration, MultiplicityArray, RiggedConfiguration,
                        UnsupportedFactorShapeError, configuration_walk)


def instance(widths, n, weight):
    return KostkaInstance(MultiplicityArray.from_rows(widths, n),
                          Composition(weight))


def _closed_form_equals_path(max_boxes, n):
    """Check closed form = path side, and the q=1 count, on every ordered
    row-shape list with <= max_boxes boxes at rank n and every weight;
    return (instances, objects).

    The closed form depends only on the multiset of widths, so it is
    computed once per (L, weight); the path side sums q^energy over the
    paths of each ordering as given, so every ordering is checked."""
    closed_forms = {}
    instances = objects = 0
    for widths, _ in instance_grid(max_boxes, ranks=(n,)):
        for w in weight_compositions(sum(widths), n):
            inst = instance(widths, n, w)
            if inst not in closed_forms:
                closed_forms[inst] = fermionic_kostka_closed_form(inst)
            closed = closed_forms[inst]
            paths = enumerate_paths(widths, n, Composition(w))
            assert closed == IntPolynomial(
                Counter(map(intrinsic_energy, paths))), (widths, n, w)
            assert closed.evaluate_at_one() == len(paths), (widths, n, w)
            instances += 1
            objects += len(paths)
    return instances, objects


class TestExamples:
    def test_empty_instance(self):
        inst = KostkaInstance(MultiplicityArray({}, 2), Composition(()))
        assert fermionic_kostka(inst) == IntPolynomial.one()
        assert path_kostka(inst) == IntPolynomial.one()
        assert fermionic_kostka(inst) == path_kostka(inst)

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

    # written without assert so that it still checks under python -O
    @pytest.mark.parametrize("call", [
        lambda inst: inst.L.row_widths(),
        # riggings outside their windows: the shape is refused first
        lambda inst: rc_to_path(RiggedConfiguration(
            Configuration(((1,), ())), ((9,), ())), inst.L, (1,)),
        restricted_kostka,
    ], ids=["row_widths", "rc_to_path", "restricted_kostka"])
    def test_rectangles_rejected_by_every_row_reader(self, call):
        # path_kostka's case is test_rectangles_rejected_on_path_side
        inst = KostkaInstance(MultiplicityArray({(2, 1): 1}, 3),
                              Composition((1, 1)))
        try:
            call(inst)
        except UnsupportedFactorShapeError as exc:
            if str(exc) != "unsupported factor shape":
                pytest.fail(f"message: {exc}")
        else:
            pytest.fail("a 2x1 array was accepted")


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

    def test_block_minimum_identity(self):
        # the closed form's pieces of a block of m riggings in [lo, p]
        # against the tuples themselves: least rigging exactly x gives
        # q^(m x) [p - x + m - 1 choose m - 1], and every least rigging
        # from c on gives q^(m c) [p - c + m choose m]
        for m in range(1, 6):
            for p in range(-4, 7):
                for x in range(-4, p + 1):
                    tuples = list(combinations_with_replacement(range(x, p + 1), m))
                    exact = Counter(sum(t) for t in tuples if min(t) == x)
                    assert q_binomial(p - x + m - 1, m - 1).shift(m * x) == \
                        IntPolynomial(exact), (m, x, p)
                    from_x = Counter(sum(t) for t in tuples)
                    assert q_binomial(p - x + m, m).shift(m * x) == \
                        IntPolynomial(from_x), (m, x, p)

    def test_one_configuration_walk_per_instance(self):
        # fermionic_kostka runs enumeration and the closed form; both read
        # the cached walk, so the walk body runs once.  Checked through
        # pytest.fail so that it also runs under python -O.
        def only_tuples(x):
            if isinstance(x, Configuration):
                return only_tuples(x.nu)
            if isinstance(x, tuple):
                return all(map(only_tuples, x))
            return type(x) is int

        configuration_walk.cache_clear()
        inst = instance((2, 1, 1), 3, (2, 1, 1))
        fermionic_kostka(inst)
        info = configuration_walk.cache_info()
        if (info.misses, info.hits) != (1, 1):
            pytest.fail(f"walk ran {info.misses} times, read {info.hits} "
                        "times from the cache; expected 1 and 1")
        # an equal instance built afresh hits the same entry
        walk = configuration_walk(MultiplicityArray.from_rows((1, 1, 2), 3),
                                  Composition((2, 1, 1)))
        if configuration_walk.cache_info().misses != 1:
            pytest.fail("an equal (L, weight) walked again")
        if not walk or not only_tuples(walk):
            pytest.fail(f"cached walk holds a mutable or foreign value: {walk!r}")

    def test_disagreement_raises(self, monkeypatch):
        import qrigged.kostka as kostka_module
        inst = instance((1, 1), 2, (1, 1))
        shifted = fermionic_kostka_closed_form(inst).shift(1)
        monkeypatch.setattr(kostka_module, "fermionic_kostka_closed_form",
                            lambda _inst: shifted)
        with pytest.raises(AssertionError, match="evaluation paths disagree"):
            fermionic_kostka(inst)


class TestMainIdentity:
    def test_identity_on_grid(self):
        for n in (2, 3):
            for widths in width_tuples(4):
                for w in weight_compositions(sum(widths), n):
                    inst = instance(widths, n, w)
                    assert fermionic_kostka(inst) == path_kostka(inst), \
                        (widths, n, w)

    def test_q1_specialization_counts_paths(self):
        for n in (2, 3):
            for widths in width_tuples(4):
                for w in weight_compositions(sum(widths), n):
                    inst = instance(widths, n, w)
                    count = len(enumerate_paths(widths, n, Composition(w)))
                    assert fermionic_kostka(inst).evaluate_at_one() == count

    def test_closed_form_equals_path_on_rank_4_grid(self):
        # extension of the acceptance grid to rank 4, <= 6 boxes
        assert _closed_form_equals_path(6, 4) == (3968, 48433)

    @pytest.mark.slow
    def test_closed_form_equals_path_on_rank_4_grid_7_boxes(self):
        # opt-in: rank 4, <= 7 boxes
        assert _closed_form_equals_path(7, 4) == (11648, 304417)

    @pytest.mark.slow
    @pytest.mark.parametrize("widths, n, weight", [
        ((1,) * 14, 4, (4, 4, 3, 3)),
        ((2,) * 10, 3, (7, 7, 6)),
        ((3,) * 8, 3, (8, 8, 8)),
        ((3, 2, 1) * 4, 3, (8, 8, 8)),
        ((1,) * 10 + (2,) * 5, 3, (7, 7, 6)),
    ], ids=["1x14", "2x10", "3x8", "321x4", "1x10-2x5"])
    def test_closed_form_equals_path_at_scale(self, widths, n, weight):
        # opt-in: long products whose states merge by carried depth, each
        # against the transfer-matrix path side (written without assert so
        # that it still checks under python -O)
        inst = instance(widths, n, weight)
        closed, path = fermionic_kostka_closed_form(inst), path_kostka(inst)
        if closed != path:
            pytest.fail(f"closed form {closed} != path side {path}")

    @pytest.mark.slow
    def test_closed_form_equals_classical_on_rank_4_grid_8_boxes(self):
        # opt-in: every row multiset with <= 8 boxes at rank 4 and every
        # weight, against the classical decomposition; the closed form
        # depends only on the multiset of widths
        checked = 0
        for size in range(1, 9):
            for rows in dominant_partitions(size):
                for w in weight_compositions(size, 4):
                    assert fermionic_kostka_closed_form(instance(rows, 4, w)) \
                        == classical_kostka(rows, 4, w), (rows, w)
                    checked += 1
        assert checked == 7005

    @pytest.mark.slow
    def test_path_side_equals_classical_on_ordered_rank_4_grid_8_boxes(self):
        # opt-in: every ordered row list with <= 8 boxes at rank 4 and every
        # weight.  path_kostka reads the widths sorted from the array, so
        # it is checked once per multiset, and every ordering goes to
        # energy_sum, the sum it is built on; the oracle is computed once
        # per multiset
        oracle = {}
        checked = 0
        for widths, _ in instance_grid(8, ranks=(4,)):
            for w in weight_compositions(sum(widths), 4):
                key = (tuple(sorted(widths)), w)
                if key not in oracle:
                    oracle[key] = classical_kostka(widths, 4, w)
                    assert path_kostka(instance(widths, 4, w)) == oracle[key], key
                assert IntPolynomial(energy_sum(widths, 4, Composition(w))) \
                    == oracle[key], (widths, w)
                checked += 1
        assert (checked, len(oracle)) == (32768, 7005)

    def test_weight_permutation_symmetry(self):
        # a theorem, not only a finding: X = sum_lam K_{lam mu} *
        # q^{n(R)} K_{lam R}(1/q), and the Kostka number K_{lam mu} is
        # symmetric in mu (Bender-Knuth), so permuting the weight
        # composition leaves the polynomial unchanged
        for n in (2, 3):
            for widths in ((1, 1), (2, 1), (1, 1, 1), (2, 2)):
                for w in weight_compositions(sum(widths), n):
                    base = fermionic_kostka(instance(widths, n, w))
                    for perm in set(permutations(w)):
                        assert fermionic_kostka(instance(widths, n, perm)) == base

    @pytest.mark.parametrize("widths, weight", [
        ((3, 3), (3, 3)), ((2, 1), (1, 1, 1)), ((3,), (3,))])
    def test_independent_of_the_alphabet(self, widths, weight, monkeypatch):
        # the rank only pads the weight with zeros; the path side fills
        # rows from the weight's content and builds only the rows it
        # returns, so a high rank adds no rows.  pytest.fail so that it
        # also runs under python -O.
        smallest = max(2, len(weight))
        want = (path_kostka(instance(widths, smallest, weight)),
                fermionic_kostka(instance(widths, smallest, weight)))
        tables = {}

        def counted(width, left, _original=crystals._fits):
            tables[width, left] = rows = _original(width, left)
            return rows

        monkeypatch.setattr(crystals, "_fits", counted)
        for n in (40, 1000):
            tables.clear()
            inst = instance(widths, n, weight)
            got = (path_kostka(inst), fermionic_kostka(inst))
            if got != want:
                pytest.fail(f"rank {n} gives {got}, rank {smallest} {want}")
            built = sum(map(len, tables.values()))
            if n == 40 and built > 10:
                pytest.fail(f"rank 40 built {built} rows for {widths}")


class TestFiniteRogersRamanujan:
    """Andrews' finite Rogers-Ramanujan identities (Scripta Math. 28, 1970),
    each right-side binomial [L choose m]_q from the path side as the rank-2
    polynomial of L single boxes with weight (L - m, m):

        sum_j q^(j^2) [L-j choose j] = sum_k (-1)^k q^(k(5k+1)/2) [L choose (L-5k)//2],
        sum_j q^(j^2+j) [L-j choose j] = sum_k (-1)^k q^(k(5k+3)/2) [L+1 choose (L-5k)//2].

    As L grows the left sides tend to the fermionic sides of the presets
    rogers-ramanujan-1 and -2, and agree with them to order L - 1."""

    @staticmethod
    def check(top_length, limits_at=()):
        binomials = {}

        def binomial(top, m):
            if not 0 <= m <= top:
                return IntPolynomial.zero()
            if (top, m) not in binomials:
                binomials[top, m] = path_kostka(
                    instance((1,) * top, 2, (top - m, m)))
            return binomials[top, m]

        registry = PresetRegistry()
        for L in range(top_length + 1):
            for name, linear, extra in (("rogers-ramanujan-1", 0, 0),
                                        ("rogers-ramanujan-2", 1, 1)):
                left = sum((q_binomial(L - j, j).shift(j * j + linear * j)
                            for j in range(L // 2 + 1)), IntPolynomial.zero())
                right = IntPolynomial.zero()
                for k in range(-(L + 1) // 5 - 1, L // 5 + 1):
                    term = binomial(L + extra, (L - 5 * k) // 2).shift(
                        k * (5 * k + 1 + 2 * linear) // 2)
                    right = right - term if k % 2 else right + term
                if left != right:
                    pytest.fail(f"{name}, L = {L}: {left} != {right}")
                if L in limits_at:
                    series = evaluate_side(registry.get(name), L - 1, "fermionic")
                    got = [series.coefficient(e) for e in range(L)]
                    want = [left.coefficient(e) for e in range(L)]
                    if got != want:
                        pytest.fail(f"{name}, L = {L}: fermionic side {got}, "
                                    f"left side {want}")

    def test_up_to_20(self):
        self.check(20, limits_at=(20,))

    @pytest.mark.slow
    def test_up_to_60(self):
        self.check(60, limits_at=(60,))


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
