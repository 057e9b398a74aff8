import ast
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import combinations_with_replacement, product
from pathlib import Path as FsPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridutil import instance_grid, weight_compositions, width_tuples
from qrigged import crystals
from qrigged.cli import EXIT_OK, main
from oracles import charge, enumerate_ssyt, reading_word
from qrigged.combinat import Composition, Partition
from qrigged.crystals import (Path, e_op, energy_sum, enumerate_paths, f_op,
                              intrinsic_energy, is_highest_weight,
                              local_energy, r_matrix)


class TestEnumeration:
    def test_single_row_unique(self):
        out = enumerate_paths((2,), 2, Composition((1, 1)))
        assert [str(p) for p in out] == ["12"]

    def test_two_boxes(self):
        out = enumerate_paths((1, 1), 2, Composition((1, 1)))
        assert sorted(str(p) for p in out) == ["1(x)2", "2(x)1"]

    def test_three_boxes_weight_21(self):
        assert len(enumerate_paths((1, 1, 1), 2, Composition((2, 1)))) == 3

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            enumerate_paths((1, 1), 2, Composition((1,)))

    def test_sized_by_the_weight_not_the_rank(self):
        # the weight's letters bound every list; one list n long would be
        # 8 MB here.  pytest.fail so that it also runs under python -O.
        n = 10 ** 6
        tracemalloc.start()
        try:
            out = enumerate_paths((3, 3), n, Composition((3, 3)))
            total = energy_sum((3, 3), n, Composition((3, 3)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if len(out) != 4 or sum(total.values()) != 4 or peak > n:
            pytest.fail(f"{len(out)} paths, {total}, peak {peak} bytes at rank {n}")


def _fits_by_definition(width, left):
    """Each row over the letters of `left` whose content `left` covers, with
    the rest: the reference for `crystals._fits`."""
    letters = [x for x, c in enumerate(left, 1) if c]
    rests = ((row, tuple(c - row.count(x) for x, c in enumerate(left, 1)))
             for row in combinations_with_replacement(letters, width))
    return tuple((row, rest) for row, rest in rests if min(rest) >= 0)


class TestRowsThatFit:
    # pytest.fail so that these also run under python -O
    def test_against_the_definition(self):
        # every content of <= 9 boxes on 5 letters, zeros anywhere, and
        # every width up to boxes + 1: the same rows, rests and order
        checked = 0
        for left in product(range(10), repeat=5):
            for width in range(1, sum(left) + 2) if sum(left) <= 9 else ():
                got, want = crystals._fits(width, left), _fits_by_definition(width, left)
                if got != want:
                    pytest.fail(f"width {width}, content {left}: {got} != {want}")
                checked += 1
        if checked != 17017:
            pytest.fail(f"{checked} pairs, expected 17017")

    def test_one_wide_row(self):
        # 4,504,501 rows of width 3000 over three letters; the content fills one
        got = crystals._fits(3000, (1000, 1000, 1000))
        if got != (((1,) * 1000 + (2,) * 1000 + (3,) * 1000, (0, 0, 0)),):
            pytest.fail(f"{len(got)} rows")


class TestPathChecks:
    # a factor is its word, so the path checks the rank and every row
    @pytest.mark.parametrize("factors, n, message", [
        ([(1,)], 1, "rank n must be at least 2"),
        ([], 1, "rank n must be at least 2"),
        ([(1,), (0,)], 3, "letter 0 out of range 1..3"),
        ([(1, 4)], 3, "letter 4 out of range 1..3"),
        ([(1,), (2, 1)], 3, "row letters must weakly increase: (2, 1)"),
    ])
    def test_path_refuses(self, factors, n, message):
        with pytest.raises(ValueError) as exc:
            Path(factors, n)
        assert str(exc.value) == message

    def test_enumeration_refuses_rank_1(self):
        with pytest.raises(ValueError, match="rank n must be at least 2"):
            enumerate_paths((1,), 1, Composition((1,)))

    def test_transfer_matrix_refuses_rank_1(self):
        with pytest.raises(ValueError, match="rank n must be at least 2"):
            energy_sum((1,), 1, Composition((1,)))

    # from rank 10 letters are comma separated: the digit form of
    # (11,11) (x) (12) is no longer read as another path
    @pytest.mark.parametrize("text, n, message", [
        ("13(x)ab", 2, "letter 3 out of range 1..2"),
        ("ab(x)13", 2, "malformed path factor: 'ab'"),
        ("1111(x)12", 12, "letter 1111 out of range 1..12"),
        ("11,(x)12", 12, "malformed path factor: '11,'"),
        ("11, 11(x)12", 12, "malformed path factor: '11, 11'"),
    ])
    def test_parse_reports_the_first_faulty_factor(self, text, n, message):
        with pytest.raises(ValueError) as exc:
            Path.parse(text, n)
        if str(exc.value) != message:
            pytest.fail(f"{text!r} at rank {n}: {exc.value}")

    # from rank 10 a letter may take two digits, so commas part them; the
    # letters 1, n - 1 and n reach two digits at n = 10 and 12
    @pytest.mark.parametrize("n, literal", [
        (9, "18(x)9"), (10, "1,9(x)10"), (12, "1,11(x)12")])
    def test_literal_round_trips(self, n, literal):
        weight = Composition((1,) + (0,) * (n - 3) + (1, 1))
        paths = enumerate_paths((2, 1), n, weight)
        if literal not in map(str, paths):
            pytest.fail(f"rank {n}: {literal} not among {list(map(str, paths))}")
        for p in paths:
            if Path.parse(str(p), n) != p:
                pytest.fail(f"rank {n}: {str(p)!r} reads back as "
                            f"{Path.parse(str(p), n)}")

    @pytest.mark.parametrize("call", [local_energy, r_matrix])
    @pytest.mark.parametrize("u, v", [((2, 1), (1,)), ((1,), (3, 1, 2))])
    def test_pair_refuses_an_unsorted_word(self, call, u, v):
        with pytest.raises(ValueError, match="weakly increase"):
            call(u, v)


class TestCrystalOperators:
    def test_highest_weight_examples(self):
        assert e_op(Path([(1,), (1,)], 2), 1) is None
        assert is_highest_weight(Path([(1, 1)], 2))
        # the single row 12 raises to 11, consistent with the classical
        # specialization: no column-strict filling of (1,1) has content (2)
        assert not is_highest_weight(Path([(1, 2)], 2))
        assert not is_highest_weight(Path([(2,), (1,)], 2))

    def test_f_on_double_one(self):
        assert str(f_op(Path([(1,), (1,)], 2), 1)) == "2(x)1"

    def test_axioms_exhaustive(self):
        for n in (2, 3):
            for widths in width_tuples(4):
                for w in weight_compositions(sum(widths), n):
                    for p in enumerate_paths(widths, n, Composition(w)):
                        for i in range(1, n):
                            q = f_op(p, i)
                            if q is not None:
                                assert e_op(q, i) == p
                                c1, c2 = p.content(), q.content()
                                diff = [b - a for a, b in zip(c1, c2)]
                                assert diff[i - 1] == -1 and diff[i] == 1
                                assert all(d == 0 for k, d in enumerate(diff)
                                           if k not in (i - 1, i))
                            r = e_op(p, i)
                            if r is not None:
                                assert f_op(r, i) == p

    def test_highest_weight_is_dominant(self):
        for n in (2, 3):
            for widths in width_tuples(4):
                for w in weight_compositions(sum(widths), n):
                    for p in enumerate_paths(widths, n, Composition(w)):
                        if is_highest_weight(p):
                            c = p.content()
                            assert all(c[i] >= c[i + 1] for i in range(n - 1))

    def test_highest_weight_counts_match_tableau_multiplicities(self):
        # number of highest-weight paths of a dominant weight equals the
        # Kostka number of that shape with the instance's row content
        counts = {}
        for p in enumerate_paths((1, 1, 1), 3, Composition((1, 1, 1))):
            if is_highest_weight(p):
                counts[(1, 1, 1)] = counts.get((1, 1, 1), 0) + 1
        assert counts.get((1, 1, 1), 0) == \
            len(enumerate_ssyt(Partition((1, 1, 1)), Composition((1, 1, 1))))
        hw21 = [p for p in enumerate_paths((1, 1, 1), 3, Composition((2, 1, 0)))
                if is_highest_weight(p)]
        assert len(hw21) == \
            len(enumerate_ssyt(Partition((2, 1)), Composition((1, 1, 1))))


class TestLocalEnergyAndR:
    def test_empty_row_zero(self):
        assert local_energy((1, 2), ()) == 0
        assert local_energy((), (1, 2)) == 0

    def test_orderings_differ_by_one(self):
        assert {local_energy((1,), (2,)), local_energy((2,), (1,))} == {0, 1}

    def test_row_row_value(self):
        assert local_energy((1, 2), (1, 2)) == 1

    def test_equals_component_second_weight(self):
        # the insertion form agrees with the crystal-component definition
        for n in (2, 3):
            for s in (1, 2):
                for t in (1, 2):
                    for u in _rows(s, n):
                        for v in _rows(t, n):
                            cur = Path((u, v), n)
                            while not is_highest_weight(cur):
                                for i in range(1, n):
                                    nxt = e_op(cur, i)
                                    if nxt is not None:
                                        cur = nxt
                                        break
                            assert local_energy(u, v) == cur.content()[1]

    def test_r_matrix_properties(self):
        for n in (2, 3):
            for s in (1, 2, 3):
                for t in (1, 2, 3):
                    for u in _rows(s, n):
                        for v in _rows(t, n):
                            a, b = r_matrix(u, v)
                            assert len(a) == t and len(b) == s
                            assert sorted(a + b) == sorted(u + v)
                            # local energy is symmetric under the R-swap
                            assert local_energy(u, v) == local_energy(a, b)

    def test_highest_weight_pairs_are_the_pieri_targets(self):
        # the brute-force search the R-matrix replay target replaced: the
        # highest-weight elements of B^{1,s} (x) B^{1,t} are exactly
        # 1^s (x) 1^{t-k} 2^k for k <= min(s, t); pytest.fail so that it
        # also runs under python -O
        for n in range(2, 6):
            for s in range(1, 5):
                for t in range(1, 5):
                    found = {(u, v) for u in _rows(s, n) for v in _rows(t, n)
                             if is_highest_weight(Path([u, v], n))}
                    want = {((1,) * s, (1,) * (t - k) + (2,) * k)
                            for k in range(min(s, t) + 1)}
                    if found != want:
                        pytest.fail(f"n={n} s={s} t={t}: {sorted(found)}")


def test_paths_cost_the_same_at_every_rank(monkeypatch, capsys):
    # raising a path tries e_i only below its largest letter, so `paths`
    # on 1x3,1x3 with weight 3,3 makes the same e_op calls at every rank
    calls = []

    def counted(path, i, _original=crystals.e_op):
        calls.append(i)
        return _original(path, i)

    monkeypatch.setattr(crystals, "e_op", counted)
    counts = []
    for n in (16, 200, 1000):
        crystals._letter_pair.cache_clear()
        calls.clear()
        code = main(["paths", "--shapes", "1x3,1x3", "--n", str(n),
                     "--weight", "3,3"])
        if code != EXIT_OK or '"count":4' not in capsys.readouterr().out:
            pytest.fail(f"n = {n}: exit {code}")
        counts.append(len(calls))
    if counts[1:] != counts[:-1] or max(calls) > 1:
        pytest.fail(f"e_op calls at n = 16, 200, 1000: {counts}, "
                    f"largest index {max(calls)}")


def test_letter_pair_raises_through_its_own_letters(monkeypatch):
    # the memo of a pair of letters 1 and 2 costs the same at every rank
    calls = []

    def counted(path, i, _original=crystals.e_op):
        calls.append(i)
        return _original(path, i)

    monkeypatch.setattr(crystals, "e_op", counted)
    counts = []
    for n in (2, 16, 1000):
        crystals._letter_pair.cache_clear()
        calls.clear()
        for p in enumerate_paths((3, 3), n, Composition((3, 3))):
            intrinsic_energy(p)
        counts.append(len(calls))
    if counts[1:] != counts[:-1] or max(calls) > 1:
        pytest.fail(f"e_op calls at n = 2, 16, 1000: {counts}, "
                    f"largest index {max(calls)}")


def test_letter_pair_memo_is_shared_across_ranks():
    # the memo is keyed by the two words alone, so the same words at a
    # higher rank are all hits
    crystals._letter_pair.cache_clear()
    paths = enumerate_paths((2, 1, 1), 3, Composition((2, 1, 1)))
    energies = [intrinsic_energy(p) for p in paths]
    misses = crystals._letter_pair.cache_info().misses
    for n in (4, 16):
        again = [intrinsic_energy(Path(p.factors, n)) for p in paths]
        if again != energies or crystals._letter_pair.cache_info().misses != misses:
            pytest.fail(f"rank {n}: {crystals._letter_pair.cache_info()}")


class TestIntrinsicEnergy:
    def test_single_factor(self):
        assert intrinsic_energy(Path([(1, 2)], 2)) == 0

    def test_two_boxes(self):
        energies = sorted(intrinsic_energy(p)
                          for p in enumerate_paths((1, 1), 2, Composition((1, 1))))
        assert energies == [0, 1]

    def test_charge_multiset_on_standard_instances(self):
        # exhaustive k <= 5: highest-weight energy multisets reproduce the
        # charge multisets of standard tableaux via cocharge reversal
        for k in range(1, 6):
            n = k if k >= 2 else 2
            binom = k * (k - 1) // 2
            observed = []
            for w in weight_compositions(k, n):
                weight = Composition(w)
                if not weight.is_dominant():
                    continue
                shape = weight.trimmed()
                if not shape:
                    continue
                for p in enumerate_paths((1,) * k, n, weight):
                    if is_highest_weight(p):
                        observed.append((shape, intrinsic_energy(p)))
            expected = []
            for size_shape in _all_partitions(k, n):
                for t in enumerate_ssyt(Partition(size_shape),
                                        Composition((1,) * k)):
                    expected.append((size_shape,
                                     binom - charge(reading_word(t))))
            assert sorted(observed) == sorted(expected)


def restart_energy(path):
    """Reference O(k^3) definition: transport b_i from position i afresh for
    every j, through the public R-matrix, then add the local energy."""
    factors = path.factors
    total = 0
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            moved = factors[i]
            for m in range(i + 1, j):
                _, moved = r_matrix(moved, factors[m])
            total += local_energy(moved, factors[j])
    return total


class TestCarriedTransport:
    def test_matches_restart_on_rank_2_3_grid(self):
        checked = 0
        for widths, n in instance_grid(6):
            for w in weight_compositions(sum(widths), n):
                for p in enumerate_paths(widths, n, Composition(w)):
                    assert intrinsic_energy(p) == restart_energy(p), str(p)
                    checked += 1
        assert checked == 11830

    @pytest.mark.parametrize("widths", [(1,) * 6, (2, 1, 1, 1, 1)])
    def test_matches_restart_on_rank_4(self, widths):
        for w in weight_compositions(sum(widths), 4):
            for p in enumerate_paths(widths, 4, Composition(w)):
                assert intrinsic_energy(p) == restart_energy(p), str(p)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda n: st.lists(
        st.lists(st.integers(1, n), min_size=1, max_size=3).map(sorted),
        min_size=1, max_size=10).map(lambda words: Path(words, n))))
    def test_matches_restart_on_random_paths(self, path):
        assert intrinsic_energy(path) == restart_energy(path)


class TestEnergySum:
    """The transfer matrix against the sum of q^intrinsic_energy over the
    listed paths; pytest.fail so that it also checks under python -O."""

    def test_r_matrix_is_the_identity_on_equal_widths(self):
        # the fact the transfer matrix rests on: a run of equal widths
        # hands each factor on unchanged
        pairs = [(u, v) for s in (1, 2, 3) for u in _rows(s, 4) for v in _rows(s, 4)]
        moved = [(u, v) for u, v in pairs if r_matrix(u, v) != (u, v)]
        if len(pairs) != 516 or moved:
            pytest.fail(f"{len(pairs)} pairs; R moves {moved[:5]}")

    def test_equals_enumeration_on_grid(self):
        # every ordered row list with <= 6 boxes and every weight: the
        # acceptance grid at ranks 2 and 3, then rank 4
        checked = 0
        for ranks in ((2, 3), (4,)):
            for widths, n in instance_grid(6, ranks=ranks):
                for w in weight_compositions(sum(widths), n):
                    weight = Composition(w)
                    want = dict(Counter(map(intrinsic_energy,
                                            enumerate_paths(widths, n, weight))))
                    got = energy_sum(widths, n, weight)
                    if got != want:
                        pytest.fail(f"{widths}, n = {n}, weight {w}: {got} != {want}")
                    checked += 1
        if checked != 5759:
            pytest.fail(f"{checked} instances, expected 5759")

    def test_row_table_is_bounded(self):
        if crystals._fits.cache_info().maxsize is None:
            pytest.fail("the table of rows that fit a content is unbounded")


_CORRUPT_AND_CALL = """
import sys
from qrigged import crystals
if not sys.flags.optimize:
    sys.exit("expected to run under python -O")
crystals.%s = lambda *args: %s
try:
    crystals.r_matrix(%r, %r)
except AssertionError as exc:
    print(exc)
"""


@pytest.mark.parametrize("name, corrupt, u, v, message", [
    # the replay reaches no element
    ("f_op", "None", (2,), (2,), "R-matrix replay failed"),
    # insertion returns the word as one row: 1 (x) 12 is not its own image
    ("rsk_insert", "(args[0],)", (1,), (1, 2),
     "R-matrix output violates the insertion characterization"),
])
def test_r_matrix_checks_survive_optimize(name, corrupt, u, v, message):
    src = FsPath(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    code = _CORRUPT_AND_CALL % (name, corrupt, u, v)
    done = subprocess.run([sys.executable, "-O", "-c", code],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == message


def test_path_side_imports_no_rigged_configuration_code():
    # the main identity is a cross-check only while the energy is computed
    # without the rc, bijection or kostka modules
    tree = ast.parse(FsPath(crystals.__file__).read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
            modules.update(f"{node.module or ''}.{alias.name}"
                           for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    assert not {m for m in modules
                if m.rsplit(".", 1)[-1] in {"rc", "bijection", "kostka"}}


def _rows(width, n):
    def rec(prefix, lo):
        if len(prefix) == width:
            yield tuple(prefix)
            return
        for v in range(lo, n + 1):
            yield from rec(prefix + [v], v)
    yield from rec([], 1)


def _all_partitions(total, max_parts):
    out = []

    def rec(prefix, remaining, cap):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if len(prefix) == max_parts:
            return
        for p in range(min(cap, remaining), 0, -1):
            rec(prefix + [p], remaining - p, p)

    rec([], total, total)
    return out
