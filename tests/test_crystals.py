import ast
import os
import subprocess
import sys
from pathlib import Path as FsPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridutil import instance_grid, weight_compositions, width_tuples
from qrigged import crystals
from qrigged.combinat import Composition, Partition, charge, enumerate_ssyt
from qrigged.crystals import (Path, RowFactor, e_op, enumerate_paths, f_op,
                              intrinsic_energy, is_highest_weight,
                              local_energy, r_matrix)


def path_of(words, n):
    return Path(tuple(RowFactor(w, n) for w in words), n)


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


class TestCrystalOperators:
    def test_highest_weight_examples(self):
        assert e_op(path_of([(1,), (1,)], 2), 1) is None
        assert is_highest_weight(path_of([(1, 1)], 2))
        # the single row 12 raises to 11, consistent with the classical
        # specialization: no column-strict filling of (1,1) has content (2)
        assert not is_highest_weight(path_of([(1, 2)], 2))
        assert not is_highest_weight(path_of([(2,), (1,)], 2))

    def test_f_on_double_one(self):
        assert str(f_op(path_of([(1,), (1,)], 2), 1)) == "2(x)1"

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
        u = RowFactor((1, 2), 2)
        assert local_energy(u, RowFactor((), 2)) == 0
        assert local_energy(RowFactor((), 2), u) == 0

    def test_orderings_differ_by_one(self):
        a = local_energy(RowFactor((1,), 2), RowFactor((2,), 2))
        b = local_energy(RowFactor((2,), 2), RowFactor((1,), 2))
        assert {a, b} == {0, 1}

    def test_row_row_value(self):
        assert local_energy(RowFactor((1, 2), 2), RowFactor((1, 2), 2)) == 1

    def test_equals_component_second_weight(self):
        # the insertion form agrees with the crystal-component definition
        for n in (2, 3):
            for s in (1, 2):
                for t in (1, 2):
                    for u in _rows(s, n):
                        for v in _rows(t, n):
                            uu, vv = RowFactor(u, n), RowFactor(v, n)
                            p = Path((uu, vv), n)
                            cur = p
                            while not is_highest_weight(cur):
                                for i in range(1, n):
                                    nxt = e_op(cur, i)
                                    if nxt is not None:
                                        cur = nxt
                                        break
                            assert local_energy(uu, vv) == cur.content()[1]

    def test_r_matrix_properties(self):
        for n in (2, 3):
            for s in (1, 2, 3):
                for t in (1, 2, 3):
                    for u in _rows(s, n):
                        for v in _rows(t, n):
                            uu, vv = RowFactor(u, n), RowFactor(v, n)
                            a, b = r_matrix(uu, vv)
                            assert a.width() == t and b.width() == s
                            merged = sorted(uu.letters + vv.letters)
                            assert sorted(a.letters + b.letters) == merged
                            # local energy is symmetric under the R-swap
                            assert local_energy(uu, vv) == local_energy(a, b)


class TestIntrinsicEnergy:
    def test_single_factor(self):
        assert intrinsic_energy(path_of([(1, 2)], 2)) == 0

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
                                     binom - charge(t.reading_word())))
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
        min_size=1, max_size=10).map(lambda words: path_of(words, n))))
    def test_matches_restart_on_random_paths(self, path):
        assert intrinsic_energy(path) == restart_energy(path)


_CORRUPT_AND_CALL = """
import sys
from qrigged import crystals
from qrigged.crystals import RowFactor, r_matrix
if not sys.flags.optimize:
    sys.exit("expected to run under python -O")
# every weight maps to the all-2 product, which is not highest weight
crystals._highest_weight_pairs = lambda s, t, n: {
    w: crystals.Path((RowFactor((2,) * t, n), RowFactor((2,) * s, n)), n)
    for w in ((1, 1), (2, 0))}
try:
    r_matrix(RowFactor(%r, 2), RowFactor(%r, 2))
except AssertionError as exc:
    print(exc)
"""


@pytest.mark.parametrize("u, v, message", [
    ((2,), (2,), "R-matrix replay failed"),
    ((1,), (2,), "R-matrix output violates the insertion characterization"),
])
def test_r_matrix_checks_survive_optimize(u, v, message):
    src = FsPath(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-O", "-c", _CORRUPT_AND_CALL % (u, v)],
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
