"""Type-A crystal paths: tensor products of single-row factors.

Raising/lowering operators use the signature (bracketing) rule on the word
obtained by scanning factors left to right with each factor's letters read
right to left; this realizes the tensor-product crystal in which, for
example, f_1(1 (x) 1) = 2 (x) 1 and 1 (x) 2 is highest weight.  The intrinsic
energy transports the left factor of each pair rightward with the
combinatorial R-matrix and adds local energies; with these conventions the
statistic agrees exactly with cocharge under the path/rigged-configuration
bijection (no global shift).  The transport of each factor is carried across
all positions to its right, so a path of k factors costs O(k^2) lookups in
letter-pair memo tables; each table entry is computed, and the R-matrix
entries checked, once per distinct pair of row words.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Optional, Sequence

from .combinat import Composition, rsk_insert


class UnsupportedFactorShapeError(ValueError):
    """Raised when an operation only defined for row factors sees a
    non-row factor."""


@dataclass(frozen=True)
class RowFactor:
    """A single-row crystal element: weakly increasing word over 1..n."""

    letters: tuple[int, ...]
    n: int

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(int(x) for x in self.letters))
        if self.n < 2:
            raise ValueError("rank n must be at least 2")
        for i, x in enumerate(self.letters):
            if not 1 <= x <= self.n:
                raise ValueError(f"letter {x} out of range 1..{self.n}")
            if i and self.letters[i - 1] > x:
                raise ValueError(f"row letters must weakly increase: {self.letters}")

    def width(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(str(x) for x in self.letters)


@dataclass(frozen=True)
class Path:
    """Element of a tensor product of row factors, written left to right."""

    factors: tuple[RowFactor, ...]
    n: int

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        for f in self.factors:
            if f.n != self.n:
                raise ValueError("all factors must share the same rank")

    def shapes(self) -> tuple[int, ...]:
        return tuple(f.width() for f in self.factors)

    def content(self) -> tuple[int, ...]:
        c = [0] * self.n
        for f in self.factors:
            for x in f.letters:
                c[x - 1] += 1
        return tuple(c)

    def __str__(self) -> str:
        return "(x)".join(str(f) for f in self.factors)

    @staticmethod
    def parse(text: str, n: int) -> "Path":
        factors = []
        for part in text.strip().split("(x)"):
            part = part.strip()
            if not part.isdigit():
                raise ValueError(f"malformed path factor: {part!r}")
            factors.append(RowFactor(tuple(int(ch) for ch in part), n))
        return Path(tuple(factors), n)


def _letter_positions(path: Path):
    """Scan factors left to right, letters within a factor right to left."""
    for fi, f in enumerate(path.factors):
        for li in range(len(f.letters) - 1, -1, -1):
            yield fi, li


def _signature_survivors(path: Path, i: int):
    """Bracketing rule for letters i (plus) and i+1 (minus): cancel adjacent
    +- pairs, return surviving positions."""
    stack: list[tuple[tuple[int, int], str]] = []
    for pos in _letter_positions(path):
        c = path.factors[pos[0]].letters[pos[1]]
        if c == i:
            stack.append((pos, "+"))
        elif c == i + 1:
            if stack and stack[-1][1] == "+":
                stack.pop()
            else:
                stack.append((pos, "-"))
    plus = [p for p, s in stack if s == "+"]
    minus = [p for p, s in stack if s == "-"]
    return plus, minus


def _replace_letter(path: Path, pos: tuple[int, int], letter: int) -> Path:
    fi, li = pos
    letters = list(path.factors[fi].letters)
    letters[li] = letter
    letters.sort()
    new_factor = RowFactor(tuple(letters), path.n)
    return Path(path.factors[:fi] + (new_factor,) + path.factors[fi + 1:], path.n)


def f_op(path: Path, i: int) -> Optional[Path]:
    """Crystal lowering operator; None when it annihilates the path."""
    if not 1 <= i <= path.n - 1:
        raise ValueError(f"index {i} out of range 1..{path.n - 1}")
    plus, _ = _signature_survivors(path, i)
    if not plus:
        return None
    return _replace_letter(path, plus[0], i + 1)


def e_op(path: Path, i: int) -> Optional[Path]:
    """Crystal raising operator; None when it annihilates the path."""
    if not 1 <= i <= path.n - 1:
        raise ValueError(f"index {i} out of range 1..{path.n - 1}")
    _, minus = _signature_survivors(path, i)
    if not minus:
        return None
    return _replace_letter(path, minus[-1], i)


def is_highest_weight(path: Path) -> bool:
    return all(e_op(path, i) is None for i in range(1, path.n))


@lru_cache(maxsize=None)
def _rows(width: int, n: int) -> tuple[RowFactor, ...]:
    """Every row factor of the given width over 1..n, in lexicographic order
    of its word.  Shared (factors are immutable) by every path built from
    it."""
    return tuple(RowFactor(word, n) for word in
                 combinations_with_replacement(range(1, n + 1), width))


def enumerate_paths(shape_list: Sequence[int], n: int, weight: Composition) -> list[Path]:
    """All tensor products of rows with the given widths and total content.

    Deterministic order: lexicographic in the tuple of factor words.
    """
    shape_list = tuple(int(s) for s in shape_list)
    if any(s < 1 for s in shape_list):
        raise ValueError("row widths must be positive")
    if len(weight.trimmed()) > n:
        raise ValueError("weight has more parts than the rank")
    if weight.size() != sum(shape_list):
        raise ValueError(
            f"total content {weight.size()} != total boxes {sum(shape_list)}")
    target = list(weight.parts) + [0] * (n - len(weight.parts))

    out: list[Path] = []
    counts = [0] * n

    def build(k: int, factors: list[RowFactor]):
        if k == len(shape_list):
            out.append(Path(tuple(factors), n))
            return
        for row in _rows(shape_list[k], n):
            ok = True
            for x in row.letters:
                counts[x - 1] += 1
                if counts[x - 1] > target[x - 1]:
                    ok = False
            if ok:
                factors.append(row)
                build(k + 1, factors)
                factors.pop()
            for x in row.letters:
                counts[x - 1] -= 1

    build(0, [])
    return out


# ---------------------------------------------------------------------------
# Local energy and the combinatorial R-matrix
# ---------------------------------------------------------------------------

def local_energy(u: RowFactor, v: RowFactor) -> int:
    """Local energy of the adjacent pair u (x) v.

    Computed by Schensted insertion of the concatenated word (right factor's
    word first, then the left factor's) and returning the length of the
    second row of the resulting tableau.  Equivalently the second component
    of the highest weight of the classical component containing u (x) v;
    the equivalence is asserted in the test suite.
    """
    if u.n != v.n:
        raise ValueError("factors must share the same rank")
    return _local_energy_cached(u.letters, v.letters)


@lru_cache(maxsize=None)
def _local_energy_cached(u_letters: tuple[int, ...],
                         v_letters: tuple[int, ...]) -> int:
    tableau = rsk_insert(v_letters + u_letters)
    return len(tableau[1]) if len(tableau) > 1 else 0


@lru_cache(maxsize=None)
def _highest_weight_pairs(s: int, t: int, n: int) -> dict[tuple[int, ...], "Path"]:
    """Highest-weight elements of B^{1,s} (x) B^{1,t}, keyed by weight."""
    out: dict[tuple[int, ...], Path] = {}
    for u in _rows(s, n):
        for v in _rows(t, n):
            p = Path((u, v), n)
            if is_highest_weight(p):
                out[p.content()] = p
    return out


@lru_cache(maxsize=None)
def _r_matrix_cached(u_letters: tuple[int, ...], v_letters: tuple[int, ...],
                     n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    u = RowFactor(u_letters, n)
    v = RowFactor(v_letters, n)
    path = Path((u, v), n)
    ops: list[int] = []
    cur = path
    while True:
        for i in range(1, n):
            nxt = e_op(cur, i)
            if nxt is not None:
                ops.append(i)
                cur = nxt
                break
        else:
            break
    target = _highest_weight_pairs(v.width(), u.width(), n)[cur.content()]
    cur2 = target
    for i in reversed(ops):
        cur2 = f_op(cur2, i)
        if cur2 is None:
            raise AssertionError("R-matrix replay failed")
    left, right = cur2.factors
    # insertion characterization: the pair of insertion tableaux must agree
    if rsk_insert(v_letters + u_letters) != \
            rsk_insert(right.letters + left.letters):
        raise AssertionError(
            "R-matrix output violates the insertion characterization")
    return left.letters, right.letters


def r_matrix(u: RowFactor, v: RowFactor) -> tuple[RowFactor, RowFactor]:
    """Combinatorial R: B^{1,s} (x) B^{1,t} -> B^{1,t} (x) B^{1,s}.

    The unique content-preserving bijection commuting with the crystal
    operators, computed by raising to the highest weight and replaying the
    lowering sequence on the swapped-shape product.
    """
    if u.n != v.n:
        raise ValueError("factors must share the same rank")
    lw, rw = _r_matrix_cached(u.letters, v.letters, u.n)
    return RowFactor(lw, u.n), RowFactor(rw, u.n)


def intrinsic_energy(path: Path) -> int:
    """Intrinsic energy D of a path of row factors.

    D = sum over pairs i < j of the local energy of (moved b_i) (x) b_j,
    where b_i is transported rightward to position j-1 through successive
    R-matrix swaps.  The moved factor is carried from j to j+1 by one more
    swap instead of being transported again from position i, so a path of
    k factors takes O(k^2) memoized letter-pair lookups.  With this
    normalization the generating function over a weight class equals the
    cocharge generating function over the corresponding unrestricted rigged
    configurations exactly.
    """
    words = [f.letters for f in path.factors]
    total = 0
    for i, moved in enumerate(words):
        for right in words[i + 1:]:
            total += _local_energy_cached(moved, right)
            _, moved = _r_matrix_cached(moved, right, path.n)
    return total
