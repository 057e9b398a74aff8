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
one letter-pair memo of local energy and R-matrix image, each entry computed
and checked once per distinct pair of row words.  The replay target comes
from the Pieri rule and the rows from the weight's letters, so no table
grows with the rank n.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Optional, Sequence

from .combinat import Composition, rsk_insert


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

    @classmethod
    def _trusted(cls, factors: tuple[RowFactor, ...], n: int) -> "Path":
        """Construct without checks, for a tuple of rank-n factors."""
        out = object.__new__(cls)
        object.__setattr__(out, "factors", factors)
        object.__setattr__(out, "n", n)
        return out

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
    top = max((f.letters[-1] for f in path.factors if f.letters), default=1)
    return all(e_op(path, i) is None for i in range(1, top))


@lru_cache(maxsize=1 << 12)
def row_factor(letters: tuple[int, ...], n: int) -> RowFactor:
    """`RowFactor(letters, n)`, checked when first built and shared after,
    so paths built from it compare their factors by identity."""
    return RowFactor(letters, n)


@lru_cache(maxsize=1 << 10)
def _rows(width: int, letters: tuple[int, ...], n: int) -> tuple[RowFactor, ...]:
    """Every row factor of the given width over `letters`, in lexicographic
    order of its word, each from `row_factor`."""
    return tuple(row_factor(word, n) for word in
                 combinations_with_replacement(letters, width))


def enumerate_paths(shape_list: Sequence[int], n: int, weight: Composition) -> list[Path]:
    """All tensor products of rows with the given widths and total content.

    Rows range over the weight's letters only.  Deterministic order:
    lexicographic in the tuple of factor words.
    """
    shape_list = tuple(int(s) for s in shape_list)
    if any(s < 1 for s in shape_list):
        raise ValueError("row widths must be positive")
    if weight.size() != sum(shape_list):
        raise ValueError(f"weight total {weight.size()} != boxes {sum(shape_list)}")
    if len(weight.trimmed()) > n:
        raise ValueError("weight has more parts than the rank")
    target = list(weight.parts) + [0] * (n - len(weight.parts))
    letters = tuple(x for x in range(1, n + 1) if target[x - 1])

    out: list[Path] = [] if shape_list else [Path((), n)]
    counts = [0] * n
    # row iterators of the chosen factors and the next; `for` resumes the top
    factors: list[RowFactor] = []
    stack = [iter(_rows(s, letters, n)) for s in shape_list[:1]]
    while stack:
        for row in stack[-1]:
            ok = True
            for x in row.letters:
                counts[x - 1] += 1
                if counts[x - 1] > target[x - 1]:
                    ok = False
            if ok and len(stack) < len(shape_list):
                factors.append(row)
                stack.append(iter(_rows(shape_list[len(stack)], letters, n)))
                break
            if ok:
                out.append(Path._trusted((*factors, row), n))
            for x in row.letters:
                counts[x - 1] -= 1
        else:
            stack.pop()
            for x in factors.pop().letters if factors else ():
                counts[x - 1] -= 1
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
    return _letter_pair(u.letters, v.letters, u.n)[0]


@lru_cache(maxsize=None)
def _letter_pair(u_letters: tuple[int, ...], v_letters: tuple[int, ...], n: int
                 ) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Local energy of u (x) v and the letters of its R-matrix image."""
    u = RowFactor(u_letters, n)
    v = RowFactor(v_letters, n)
    ops: list[int] = []
    cur = Path((u, v), n)
    top = max(u_letters + v_letters)  # raising never makes a letter above it
    while True:
        for i in range(1, top):
            nxt = e_op(cur, i)
            if nxt is not None:
                ops.append(i)
                cur = nxt
                break
        else:
            break
    # Pieri: the highest-weight elements of B^{1,t} (x) B^{1,s} are
    # 1^t (x) 1^{s-k} 2^k, one for each k <= min(s, t)
    s, t, k = u.width(), v.width(), cur.factors[1].letters.count(2)
    cur2 = Path((row_factor((1,) * t, n),
                 row_factor((1,) * (s - k) + (2,) * k, n)), n)
    for i in reversed(ops):
        cur2 = f_op(cur2, i)
        if cur2 is None:
            raise AssertionError("R-matrix replay failed")
    left, right = cur2.factors
    tableau = rsk_insert(v_letters + u_letters)
    # insertion characterization: the pair of insertion tableaux must agree
    if tableau != rsk_insert(right.letters + left.letters):
        raise AssertionError(
            "R-matrix output violates the insertion characterization")
    energy = len(tableau[1]) if len(tableau) > 1 else 0
    return energy, left.letters, right.letters


def r_matrix(u: RowFactor, v: RowFactor) -> tuple[RowFactor, RowFactor]:
    """Combinatorial R: B^{1,s} (x) B^{1,t} -> B^{1,t} (x) B^{1,s}.

    The unique content-preserving bijection commuting with the crystal
    operators, computed by raising to the highest weight and replaying the
    lowering sequence on the swapped-shape product, whose highest-weight
    elements the Pieri rule writes down.
    """
    if u.n != v.n:
        raise ValueError("factors must share the same rank")
    _, lw, rw = _letter_pair(u.letters, v.letters, u.n)
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
            energy, _, moved = _letter_pair(moved, right, path.n)
            total += energy
    return total
