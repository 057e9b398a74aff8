"""Partitions, compositions, Schensted row insertion and partition listing.

The classical oracle (charge, Kostka-Foulkes polynomials) that calibrates
the statistics is in tests/oracles.py, where library code cannot call it.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable


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

    def n_statistic(self) -> int:
        """n(mu) = sum_i (i-1) * mu_i."""
        return sum(i * p for i, p in enumerate(self.parts))


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

    @staticmethod
    def parse(text: str) -> "Composition":
        text = text.strip()
        if text in ("", "-"):
            return Composition()
        items = text.split(",")
        if any(t.strip() == "" for t in items):
            raise ValueError(f"malformed composition: {text!r}")
        return Composition(tuple(int(t) for t in items))


# ---------------------------------------------------------------------------
# Row insertion (used by crystals)
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
