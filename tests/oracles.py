"""The classical oracle: column-strict tableaux, the charge statistic,
Kostka numbers and Kostka-Foulkes polynomials (Lascoux-Schutzenberger),
and the classical decomposition of the unrestricted Kostka polynomial.

It stands apart from the routes it checks: from qrigged it imports only
the partition classes and IntPolynomial (test_combinat.py holds it to
that).  A tableau is a tuple of rows, built only by `enumerate_ssyt`.
Conventions: charge((1, 2)) = 1, charge((2, 1)) = 0, and reading words
take rows left to right, bottom row first.  Its refusals raise
ValueError, which python -O keeps.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Sequence

from gridutil import dominant_partitions
from qrigged.combinat import Composition, Partition
from qrigged.qalg import IntPolynomial

Rows = tuple[tuple[int, ...], ...]


def reading_word(rows: Rows) -> tuple[int, ...]:
    """Rows left to right, bottom row first."""
    return tuple(x for row in reversed(rows) for x in row)


def enumerate_ssyt(shape: Partition, content: Composition) -> list[Rows]:
    """All column-strict fillings of `shape` with multiplicities `content`.

    Deterministic order: lexicographic by reading word.  Raises on size
    mismatch.
    """
    if shape.size() != content.size():
        raise ValueError(f"|shape|={shape.size()} != |content|={content.size()}")
    nletters = len(content.parts)
    remaining = list(content.parts)
    rows: list[list[int]] = [[] for _ in shape.parts]
    out: list[Rows] = []
    # column heights, filled column by column, top to bottom
    cols = [sum(1 for p in shape.parts if p > c)
            for c in range(shape.parts[0] if shape.parts else 0)]

    def fill(col: int, row: int):
        if col == len(cols):
            out.append(tuple(tuple(r) for r in rows))
            return
        if row == cols[col]:
            fill(col + 1, 0)
            return
        lo = 1
        if row > 0:
            lo = max(lo, rows[row - 1][col] + 1)  # column strict
        if col > 0:
            lo = max(lo, rows[row][col - 1])      # row weak
        for x in range(lo, nletters + 1):
            if remaining[x - 1] == 0:
                continue
            remaining[x - 1] -= 1
            rows[row].append(x)
            fill(col, row + 1)
            rows[row].pop()
            remaining[x - 1] += 1

    fill(0, 0)
    out.sort(key=reading_word)
    return out


def charge(word: Sequence[int]) -> int:
    """Charge statistic of a word whose content is a partition.

    Standard-subword extraction: repeatedly scan right-to-left (cyclically)
    picking letters 1, 2, 3, ...; each extracted subword contributes via
    the index rule c_1 = 0, c_{k+1} = c_k + 1 iff k+1 lies to the right
    of k in the original word.
    """
    word = tuple(int(x) for x in word)
    if not word:
        return 0
    m = max(word)
    counts = [0] * m
    for x in word:
        if x < 1:
            raise ValueError("letters must be positive")
        counts[x - 1] += 1
    if any(counts[i] < counts[i + 1] for i in range(m - 1)):
        raise ValueError(f"charge is only defined for dominant content, got {counts}")

    used = [False] * len(word)
    total = 0
    remaining = len(word)
    while remaining:
        positions: list[int] = []
        target = 1
        pos = len(word)  # scan starts at the right end
        while True:
            found = -1
            for i in range(pos - 1, -1, -1):
                if not used[i] and word[i] == target:
                    found = i
                    break
            if found < 0:
                for i in range(len(word) - 1, pos - 1, -1):
                    if not used[i] and word[i] == target:
                        found = i
                        break
            if found < 0:
                break
            used[found] = True
            positions.append(found)
            remaining -= 1
            pos = found
            target += 1
        # index rule on the extracted standard subword
        c = 0
        for k in range(1, len(positions)):
            if positions[k] > positions[k - 1]:
                c += 1
            total += c
    return total


@lru_cache(maxsize=None)
def kostka_foulkes(lam: Partition, mu: Partition) -> IntPolynomial:
    """Kostka-Foulkes polynomial: sum of q^charge over column-strict
    fillings of `lam` with content `mu`."""
    if lam.size() != mu.size():
        raise ValueError("shape and content sizes differ")
    tableaux = enumerate_ssyt(lam, Composition(mu.parts))
    return IntPolynomial(Counter(charge(reading_word(t)) for t in tableaux))


@lru_cache(maxsize=None)
def kostka_number(lam: Partition, mu: Composition) -> int:
    """Number of column-strict fillings of `lam` with content `mu`."""
    if lam.size() != mu.size():
        raise ValueError("shape and content sizes differ")
    return len(enumerate_ssyt(lam, mu))


def classical_kostka(widths: Sequence[int], n: int,
                     weight: Sequence[int]) -> IntPolynomial:
    """The unrestricted Kostka polynomial of rows of `widths` at rank n and
    weight mu, by the classical decomposition of the tensor product:

        X = sum over lam |- |R|, l(lam) <= n of
            K_{lam mu} * q^{n(R)} * K_{lam R}(1/q),

    R the widths sorted into a partition.  Each classical component B(lam)
    has constant energy, so X sums the charge-normalized Kostka-Foulkes
    polynomial, reversed to the energy orientation, over the components."""
    rows = Partition(tuple(sorted(widths, reverse=True)))
    mu = Composition(tuple(weight))
    shift = rows.n_statistic()
    out = IntPolynomial.zero()
    for lam in dominant_partitions(rows.size(), max_parts=n):
        count = kostka_number(Partition(lam), mu)
        if count:
            out = out + IntPolynomial(
                {shift - e: count * c
                 for e, c in kostka_foulkes(Partition(lam), rows).terms.items()})
    return out
