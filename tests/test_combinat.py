import ast
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gridutil import dominant_partitions, weight_compositions
from oracles import (charge, enumerate_ssyt, kostka_foulkes, kostka_number,
                     reading_word)
from qrigged.combinat import Composition, Partition, rsk_insert
from qrigged.qalg import IntPolynomial


class TestEnumeration:
    def test_two_tableaux(self):
        out = enumerate_ssyt(Partition((2, 1)), Composition((1, 1, 1)))
        assert len(out) == 2

    def test_forced_filling(self):
        lam = Partition((3, 2, 1))
        out = enumerate_ssyt(lam, Composition(lam.parts))
        assert len(out) == 1
        assert out[0] == ((1, 1, 1), (2, 2), (3,))

    def test_column_strictness_blocks(self):
        assert enumerate_ssyt(Partition((1, 1)), Composition((2, 0))) == []

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            enumerate_ssyt(Partition((2,)), Composition((1,)))

    def test_deterministic_reading_word_order(self):
        out = enumerate_ssyt(Partition((2, 2)), Composition((1, 1, 1, 1)))
        words = [reading_word(t) for t in out]
        assert words == sorted(words)

    # a filling is a plain tuple of rows, so nothing validates it when it
    # is built: check each property of a column-strict filling on every
    # filling of every shape of at most 5 boxes with up to 4 letters
    FILLING_CHECKS = {
        "shape": lambda lam, mu, t: tuple(map(len, t)) == lam.parts,
        "content": lambda lam, mu, t: all(
            reading_word(t).count(x) == m
            for x, m in enumerate(mu.parts, start=1)),
        "entries": lambda lam, mu, t: all(
            1 <= x <= len(mu.parts) for x in reading_word(t)),
        "rows": lambda lam, mu, t: all(
            r[j] <= r[j + 1] for r in t for j in range(len(r) - 1)),
        "columns": lambda lam, mu, t: all(
            t[i - 1][j] < t[i][j]
            for i in range(1, len(t)) for j in range(len(t[i]))),
    }

    @pytest.mark.parametrize("check", sorted(FILLING_CHECKS))
    def test_fillings_are_column_strict(self, check):
        holds = self.FILLING_CHECKS[check]
        seen = 0
        for n in range(1, 6):
            for lam in map(Partition, dominant_partitions(n)):
                for mu in map(Composition, weight_compositions(n, 4)):
                    for t in enumerate_ssyt(lam, mu):
                        seen += 1
                        assert holds(lam, mu, t), (check, lam, mu, t)
        assert seen == sum(kostka_number(Partition(lam), Composition(mu))
                           for n in range(1, 6)
                           for lam in dominant_partitions(n)
                           for mu in weight_compositions(n, 4)) > 0


class TestCharge:
    def test_single_letter(self):
        assert charge((1,)) == 0

    def test_convention(self):
        assert charge((1, 2)) == 1
        assert charge((2, 1)) == 0

    def test_reading_words_of_the_two_tableaux(self):
        out = enumerate_ssyt(Partition((2, 1)), Composition((1, 1, 1)))
        assert sorted(charge(reading_word(t)) for t in out) == [1, 2]

    def test_non_dominant_rejected(self):
        with pytest.raises(ValueError):
            charge((2, 2, 1))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 8), st.randoms(use_true_random=False))
    def test_knuth_class_invariance(self, length, rng):
        # random word of bounded length with dominant content
        while True:
            word = tuple(rng.randint(1, 3) for _ in range(length))
            counts = [word.count(v) for v in range(1, max(word) + 1)]
            if all(counts[i] >= counts[i + 1] for i in range(len(counts) - 1)):
                break
        tab = rsk_insert(word)
        reading = tuple(x for row in reversed(tab) for x in row)
        assert charge(word) == charge(reading)


class TestKostkaFoulkes:
    def test_diagonal_is_one(self):
        for size in range(1, 7):
            for lam in dominant_partitions(size):
                assert kostka_foulkes(Partition(lam), Partition(lam)) == \
                    IntPolynomial.one()

    def test_hand_values(self):
        assert kostka_foulkes(Partition((2,)), Partition((1, 1))) == \
            IntPolynomial({1: 1})
        assert kostka_foulkes(Partition((2, 1)), Partition((1, 1, 1))) == \
            IntPolynomial({1: 1, 2: 1})

    def test_specialization_counts(self):
        for size in range(1, 6):
            for lam in dominant_partitions(size):
                for mu in dominant_partitions(size):
                    kf = kostka_foulkes(Partition(lam), Partition(mu))
                    assert kf.evaluate_at_one() == \
                        kostka_number(Partition(lam), Composition(mu))

    def test_kostka_number_content_symmetry(self):
        from itertools import permutations
        for size in range(1, 7):
            for lam in dominant_partitions(size):
                for mu in dominant_partitions(size):
                    base = kostka_number(Partition(lam), Composition(mu))
                    for perm in set(permutations(mu)):
                        assert kostka_number(Partition(lam), Composition(perm)) == base

    def test_max_degree_is_row_superstandard_charge(self):
        # computed, not assumed: compare against the charge of the tableau
        # whose rows are filled consecutively
        for size in range(1, 7):
            for lam in dominant_partitions(size):
                poly = kostka_foulkes(Partition(lam), Partition((1,) * size))
                rows = []
                nxt = 1
                for part in lam:
                    rows.append(tuple(range(nxt, nxt + part)))
                    nxt += part
                assert poly.degree() == charge(reading_word(tuple(rows)))


# the oracle must not run the code it checks: from qrigged it may import
# only these names
ORACLE_MAY_IMPORT = {("qrigged.combinat", "Composition"),
                     ("qrigged.combinat", "Partition"),
                     ("qrigged.qalg", "IntPolynomial")}


def _qrigged_imports_beyond_allowed(source: str) -> set:
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {(a.name, None) for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            found |= {(node.module, a.name) for a in node.names}
    return {(module, name) for module, name in found - ORACLE_MAY_IMPORT
            if module.split(".")[0] == "qrigged"}


class TestOracleIndependence:
    ORACLE_SOURCE = Path(__file__).with_name("oracles.py").read_text()

    def test_oracle_reads_only_the_partition_classes_and_polynomials(self):
        # pytest.fail, so that it also checks under python -O
        extra = _qrigged_imports_beyond_allowed(self.ORACLE_SOURCE)
        if extra:
            pytest.fail(f"tests/oracles.py imports {sorted(extra)} from qrigged")

    @pytest.mark.parametrize("line", [
        "from qrigged.kostka import path_kostka",
        "from qrigged.combinat import partitions_of",
        "import qrigged.rc",
    ])
    def test_an_added_import_of_checked_code_is_caught(self, line):
        extra = _qrigged_imports_beyond_allowed(
            self.ORACLE_SOURCE + "\n" + line + "\n")
        if len(extra) != 1:
            pytest.fail(f"adding {line!r} to the oracle gives {sorted(extra)}")
