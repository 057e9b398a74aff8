"""Partitions, compositions, column-strict tableaux and the charge statistic.

The charge statistic is the classical oracle against which the energy and
cocharge statistics elsewhere in the package are calibrated.  Conventions
are pinned by tests: charge("12") = 1, charge("21") = 0 and reading words
take rows left to right, bottom row first.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .qalg import IntPolynomial


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing sequence of positive integers (possibly empty)."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))
        for i, p in enumerate(self.parts):
            if p < 1:
                raise ValueError(f"partition parts must be positive, got {p}")
            if i and self.parts[i - 1] < p:
                raise ValueError(f"parts must weakly decrease: {self.parts}")

    def size(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        return Partition(tuple(sum(1 for p in self.parts if p >= c)
                               for c in range(1, self.parts[0] + 1)))

    def n_statistic(self) -> int:
        """n(mu) = sum_i (i-1) * mu_i."""
        return sum(i * p for i, p in enumerate(self.parts))

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts) if self.parts else "-"


@dataclass(frozen=True)
class Composition:
    """Finite sequence of nonnegative integers; trailing zeros harmless."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))
        if any(p < 0 for p in self.parts):
            raise ValueError(f"composition parts must be nonnegative: {self.parts}")

    def size(self) -> int:
        return sum(self.parts)

    def trimmed(self) -> tuple[int, ...]:
        parts = list(self.parts)
        while parts and parts[-1] == 0:
            parts.pop()
        return tuple(parts)

    def is_dominant(self) -> bool:
        t = self.trimmed()
        return all(t[i] >= t[i + 1] for i in range(len(t) - 1))

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts) if self.parts else "-"

    @staticmethod
    def parse(text: str) -> "Composition":
        text = text.strip()
        if text in ("", "-"):
            return Composition()
        items = text.split(",")
        if any(t.strip() == "" for t in items):
            raise ValueError(f"malformed composition: {text!r}")
        return Composition(tuple(int(t) for t in items))


@dataclass(frozen=True)
class Tableau:
    """Column-strict (semistandard) filling: rows weakly increase, columns
    strictly increase, row lengths form a partition."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        lengths = [len(r) for r in rows]
        if any(lengths[i] < lengths[i + 1] for i in range(len(lengths) - 1)):
            raise ValueError("row lengths must form a partition")
        for r in rows:
            if any(x < 1 for x in r):
                raise ValueError("entries must be positive")
            if any(r[i] > r[i + 1] for i in range(len(r) - 1)):
                raise ValueError("rows must weakly increase")
        for i in range(1, len(rows)):
            for j in range(len(rows[i])):
                if rows[i - 1][j] >= rows[i][j]:
                    raise ValueError("columns must strictly increase")

    def reading_word(self) -> tuple[int, ...]:
        """Rows left to right, bottom row first."""
        word: list[int] = []
        for r in reversed(self.rows):
            word.extend(r)
        return tuple(word)

    def __str__(self) -> str:
        return "/".join("".join(str(x) for x in r) for r in self.rows)


def enumerate_ssyt(shape: Partition, content: Composition) -> list[Tableau]:
    """All column-strict fillings of `shape` with multiplicities `content`.

    Deterministic order: lexicographic by reading word.  Raises on size
    mismatch.
    """
    if shape.size() != content.size():
        raise ValueError(f"|shape|={shape.size()} != |content|={content.size()}")
    nletters = len(content.parts)
    remaining = list(content.parts)
    rows: list[list[int]] = [[] for _ in shape.parts]
    out: list[Tableau] = []

    cols = list(shape.conjugate().parts)

    def fill(col: int, row: int):
        if col == len(cols):
            out.append(Tableau(tuple(tuple(r) for r in rows)))
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
    out.sort(key=lambda t: t.reading_word())
    return out


def charge(word: Sequence[int]) -> int:
    """Charge statistic of a word whose content is a partition.

    Standard-subword extraction: repeatedly scan right-to-left (cyclically)
    picking letters 1, 2, 3, ...; each extracted subword contributes via
    the index rule c_1 = 0, c_{k+1} = c_k + 1 iff k+1 lies to the right
    of k in the original word.  Conventions: charge((1,2)) = 1,
    charge((2,1)) = 0.
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


def kostka_foulkes(lam: Partition, mu: Partition) -> IntPolynomial:
    """Kostka-Foulkes polynomial: sum of q^charge over column-strict
    fillings of `lam` with content `mu`."""
    if lam.size() != mu.size():
        raise ValueError("shape and content sizes differ")
    tableaux = enumerate_ssyt(lam, Composition(mu.parts))
    return IntPolynomial(Counter(charge(t.reading_word()) for t in tableaux))


def kostka_number(lam: Partition, mu: Composition) -> int:
    """Number of column-strict fillings of `lam` with content `mu`."""
    if lam.size() != mu.size():
        raise ValueError("shape and content sizes differ")
    return len(enumerate_ssyt(lam, mu))


# ---------------------------------------------------------------------------
# Row insertion (used by the charge Knuth-class property and by crystals)
# ---------------------------------------------------------------------------

def rsk_insert(word: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Schensted row insertion; returns the insertion tableau's rows."""
    rows: list[list[int]] = []
    for x in word:
        cur: int | None = int(x)
        for r in rows:
            idx = bisect_right(r, cur)  # rows weakly increase
            if idx == len(r):
                r.append(cur)
                cur = None
                break
            cur, r[idx] = r[idx], cur
        if cur is not None:
            rows.append([cur])
    return tuple(tuple(r) for r in rows)


@lru_cache(maxsize=None)
def partitions_of(n: int, max_part: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of n with parts bounded by max_part."""
    if max_part is None:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)
