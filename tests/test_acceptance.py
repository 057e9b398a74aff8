"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each criterion prints a single PASS line with its runtime; stated runtime
budgets are asserted.  The desk-scale grid is every ordered list of row
factors with at most six boxes, ranks two and three, over every weight.
"""
import math
import time

import pytest

from gridutil import dominant_partitions, weight_compositions, width_tuples
from oracles import classical_kostka, kostka_foulkes, kostka_number
from test_presets import preset_sides
from qrigged.bijection import path_to_rc, rc_to_path
from qrigged.combinat import Composition, Partition
from qrigged.crystals import enumerate_paths, intrinsic_energy
from qrigged.kostka import (GLOBAL_NORMALIZATION, KostkaInstance,
                            fermionic_kostka_closed_form,
                            kostka_foulkes_via_paths, path_kostka)
from qrigged.qalg import IntPolynomial, q_binomial, pochhammer_qq
from qrigged.qseries.bailey import (INFINITY, bailey_step,
                                    rogers_ramanujan_seed, unit_bailey_pair,
                                    verify_bailey_pair, weak_lemma)
from qrigged.qseries.presets import PresetRegistry
from qrigged.qseries.sums import (BosonicSumSpec, compare_series,
                                  eval_bosonic)
from qrigged.rc import (MultiplicityArray, cocharge, configuration_sizes,
                        enumerate_rc)

GRID_BOXES = 6
GRID_RANKS = (2, 3)


def _report(name: str, started: float, budget: float | None, **stats):
    elapsed = time.monotonic() - started
    extra = " ".join(f"{k}={v}" for k, v in stats.items())
    print(f"\n[acceptance] {name}: PASS ({elapsed:.2f}s) {extra}")
    if budget is not None:
        assert elapsed < budget, f"{name} exceeded its {budget}s budget"


@pytest.fixture(scope="module")
def grid():
    """Shared desk-scale grid: per (widths, n, weight) the paths, their
    rigged-configuration images and both statistics."""
    data = []
    for n in GRID_RANKS:
        for widths in width_tuples(GRID_BOXES):
            L = MultiplicityArray.from_rows(widths, n)
            for w in weight_compositions(sum(widths), n):
                weight = Composition(w)
                paths = enumerate_paths(widths, n, weight)
                if not paths:
                    continue
                entries = [(p, path_to_rc(p)) for p in paths]
                data.append((widths, n, weight, L, entries))
    return data


def test_criterion_1_q_algebra_suite():
    started = time.monotonic()
    checked = 0
    for m in range(13):
        for k in range(m + 1):
            poly = q_binomial(m, k)
            assert poly == q_binomial(m, m - k)
            if m >= 1:
                assert poly == q_binomial(m - 1, k - 1) + \
                    q_binomial(m - 1, k).shift(k)
                assert poly == q_binomial(m - 1, k - 1).shift(m - k) + \
                    q_binomial(m - 1, k)
            assert poly.evaluate_at_one() == math.comb(m, k)
            assert poly.is_palindromic()
            assert poly.degree() == k * (m - k)
            checked += 1
    _report("criterion 1 (q-algebra, m <= 12)", started, 5.0, pairs=checked)


def test_criterion_2_classical_oracle_suite():
    started = time.monotonic()
    assert kostka_foulkes(Partition((2,)), Partition((1, 1))) == \
        IntPolynomial({1: 1})
    assert kostka_foulkes(Partition((2, 1)), Partition((1, 1, 1))) == \
        IntPolynomial({1: 1, 2: 1})
    polys = 0
    for size in range(1, 7):
        for lam in dominant_partitions(size):
            assert kostka_foulkes(Partition(lam), Partition(lam)) == \
                IntPolynomial.one()
            for mu in dominant_partitions(size):
                kf = kostka_foulkes(Partition(lam), Partition(mu))
                assert kf.evaluate_at_one() == \
                    kostka_number(Partition(lam), Composition(mu))
                polys += 1
    _report("criterion 2 (classical Kostka-Foulkes oracle, |lambda| <= 6)",
            started, 30.0, polynomials=polys)


def test_criterion_3_bijection_suite(grid):
    started = time.monotonic()
    instances = 0
    objects = 0
    for widths, n, weight, L, entries in grid:
        instances += 1
        seen = set()
        for p, rc in entries:
            objects += 1
            assert configuration_sizes(L, Composition(p.content())) == \
                tuple(map(sum, rc.config.nu))
            assert rc not in seen
            seen.add(rc)
            back = rc_to_path(rc, L, widths)
            assert back == p
        rcs = set(enumerate_rc(L, weight))
        assert seen == rcs, (widths, n, weight.parts)
        for rc in rcs:
            assert path_to_rc(rc_to_path(rc, L, widths)) == rc
    _report("criterion 3 (bijection round trips, n <= 3, boxes <= 6)",
            started, 120.0, instances=instances, objects=objects)


def test_criterion_4_main_theorem(grid):
    started = time.monotonic()
    assert GLOBAL_NORMALIZATION == {"sign": 1, "shift": 0}
    checked = 0
    for widths, n, weight, L, entries in grid:
        inst = KostkaInstance(L, weight)
        fermionic_enum = IntPolynomial.zero()
        for _, rc in entries:
            fermionic_enum = fermionic_enum + \
                IntPolynomial.monomial(cocharge(rc))
        closed = fermionic_kostka_closed_form(inst)
        assert fermionic_enum == closed, "fermionic evaluation paths disagree"
        path_side = IntPolynomial.zero()
        for p, _ in entries:
            path_side = path_side + \
                IntPolynomial.monomial(intrinsic_energy(p))
        assert fermionic_enum == path_side, (widths, n, weight.parts)
        # path_kostka sums the same paths by transfer matrix
        assert path_kostka(inst) == path_side, ("transfer", widths, n, weight.parts)
        # a third route, sharing no code with either side: the sum over
        # the classical components B(lambda) of the tensor product
        assert path_side == classical_kostka(widths, n, weight.parts), \
            ("classical", widths, n, weight.parts)
        assert fermionic_enum.evaluate_at_one() == len(entries)
        checked += 1
    _report("criterion 4 (fermionic = path = classical decomposition, "
            "two fermionic routes, q=1 counts)",
            started, None, instances=checked)


def test_criterion_5_restricted_specialization():
    started = time.monotonic()
    count = 0
    for size in range(1, 7):
        for lam in dominant_partitions(size):
            for mu in dominant_partitions(size):
                n = max(2, len(lam))
                inst = KostkaInstance(
                    MultiplicityArray.from_rows(mu, n),
                    Composition(lam + (0,) * (n - len(lam))))
                assert kostka_foulkes_via_paths(inst) == \
                    kostka_foulkes(Partition(lam), Partition(mu)), (lam, mu)
                count += 1
    _report("criterion 5 (restricted side reproduces Kostka-Foulkes, "
            "|lambda| <= 6)", started, None, pairs=count)


def test_criterion_6_q_series_suite():
    started = time.monotonic()
    # pentagonal-number theorem to order 30
    pent = eval_bosonic(BosonicSumSpec(1, "3/2", "-1/2", 0), 30)
    assert compare_series(pent, pochhammer_qq(None, 30)).equal
    # both Rogers-Ramanujan identities to order 50
    registry = PresetRegistry()
    for name in ("rogers-ramanujan-1", "rogers-ramanujan-2"):
        assert compare_series(*preset_sides(registry.get(name), 50)).equal
    # Bailey unit-pair verification
    assert verify_bailey_pair(unit_bailey_pair(), 30, max_n=12).valid
    # one Bailey-chain derivation of Rogers-Ramanujan to order 30:
    # the classical seed pair, one infinite-parameter step built in through
    # the weak limit, compared against the first identity's bosonic side
    seed = rogers_ramanujan_seed()
    assert verify_bailey_pair(seed, 30, max_n=12).valid
    lhs, rhs = weak_lemma(seed, 30)
    assert compare_series(lhs, rhs).equal
    fermionic, bosonic = preset_sides(registry.get("rogers-ramanujan-1"), 30)
    assert compare_series(lhs, fermionic).equal
    assert compare_series(rhs, bosonic).equal
    # a second chained step reaches the modulus-7 identity
    stepped = bailey_step(seed, INFINITY, INFINITY)
    lhs2, rhs2 = weak_lemma(stepped, 20)
    assert compare_series(lhs2, rhs2).equal
    _report("criterion 6 (pentagonal, Rogers-Ramanujan, Bailey chain)",
            started, 20.0)


def test_criterion_7_character_presets():
    started = time.monotonic()
    registry = PresetRegistry()
    verified = 0
    controls = 0
    for name in registry.names():
        preset = registry.get(name)
        assert preset.declared_order >= 20
        comparison = compare_series(*preset_sides(preset))
        if preset.negative_control:
            controls += 1
            assert not comparison.equal
            assert comparison.first_difference is not None
        else:
            verified += 1
            assert comparison.equal, name
    assert verified >= 5 and controls >= 1
    _report("criterion 7 (character presets + negative controls)",
            started, None, verified=verified, controls=controls)


def test_criterion_8_cli_contract(capsys):
    started = time.monotonic()
    import test_cli
    golden = test_cli.TestGolden()
    for name in sorted(test_cli.CASES):
        golden.test_against_golden_file(name, capsys)
        golden.test_byte_identical_reruns(name, capsys)
        golden.test_result_schema(name, capsys)
    codes = test_cli.TestExitCodes()
    codes.test_usage_error(capsys)
    codes.test_verified_inequality(capsys)
    codes.test_unsupported_shape(capsys)
    codes.test_unknown_preset(capsys)
    codes.test_success(capsys)
    _report("criterion 8 (CLI golden files, exit codes, determinism)",
            started, None, subcommands=len(test_cli.CASES))
