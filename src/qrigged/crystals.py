"""Type-A crystal paths: tensor products of single-row factors.

A row factor, an element of B^{1,s}, is its weakly increasing word; `Path`
holds the words and the rank n, and is the one place they are checked.
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
and checked once per distinct pair of row words and shared across ranks.
`energy_sum` sums q^energy over all paths of a weight by transfer matrix,
without listing them: R is the identity on rows of equal width.  The replay
target comes from the Pieri rule and the rows from the weight's letters, so
no table grows with the rank n.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .combinat import Composition, rsk_insert


def _check_row(word: tuple[int, ...], n: int) -> None:
    if n < 2:
        raise ValueError("rank n must be at least 2")
    for i, x in enumerate(word):
        if not 1 <= x <= n:
            raise ValueError(f"letter {x} out of range 1..{n}")
        if i and word[i - 1] > x:
            raise ValueError(f"row letters must weakly increase: {word}")


@dataclass(frozen=True)
class Path:
    """Element of B^{1,s_1} (x) ... (x) B^{1,s_L}, written left to right:
    each factor is a weakly increasing word over 1..n."""

    factors: tuple[tuple[int, ...], ...]
    n: int

    def __post_init__(self):
        factors = tuple(tuple(int(x) for x in f) for f in self.factors)
        _check_row((), self.n)  # the rank, also for a path of no factors
        for f in factors:
            _check_row(f, self.n)
        object.__setattr__(self, "factors", factors)

    @classmethod
    def _trusted(cls, factors: tuple[tuple[int, ...], ...], n: int) -> "Path":
        """Construct without checks, for a tuple of rows over 1..n."""
        out = object.__new__(cls)
        object.__setattr__(out, "factors", factors)
        object.__setattr__(out, "n", n)
        return out

    def shapes(self) -> tuple[int, ...]:
        return tuple(len(f) for f in self.factors)

    def content(self) -> tuple[int, ...]:
        c = [0] * self.n
        for f in self.factors:
            for x in f:
                c[x - 1] += 1
        return tuple(c)

    def __str__(self) -> str:
        sep = "," if self.n >= 10 else ""  # from rank 10 a letter may take two digits
        return "(x)".join(sep.join(map(str, f)) for f in self.factors)

    @staticmethod
    def parse(text: str, n: int) -> "Path":
        factors = []
        for part in text.strip().split("(x)"):
            part = part.strip()
            letters = part.split(",") if n >= 10 else list(part)
            if not part or not all(x.isdigit() for x in letters):
                raise ValueError(f"malformed path factor: {part!r}")
            factors.append(tuple(map(int, letters)))
            _check_row(factors[-1], n)
        return Path._trusted(tuple(factors), n)


def _bracket(path: Path, i: int, lower: bool) -> Optional[Path]:
    """f_i (`lower`) or e_i by the signature rule.  Read right to left, a
    row shows its i+1s (minus) before its is (plus), and a plus cancels
    against the nearest free minus after it.  f changes the last i of the
    factor holding the leftmost free plus, e the first i+1 of the factor
    holding the rightmost free minus; neither breaks the row's order."""
    if not 1 <= i <= path.n - 1:
        raise ValueError(f"index {i} out of range 1..{path.n - 1}")
    old, new = (i, i + 1) if lower else (i + 1, i)
    factors = path.factors
    order = range(len(factors) - 1, -1, -1) if lower else range(len(factors))
    target, free = None, 0  # free: uncancelled `new` letters met so far
    for k in order:
        here = factors[k].count(old)
        if here > free:
            target = k
        free = max(0, free - here) + factors[k].count(new)
    if target is None:
        return None
    row = factors[target]
    j = row.index(i) + row.count(i) - 1 if lower else row.index(i + 1)
    row = row[:j] + (new,) + row[j + 1:]
    return Path._trusted(factors[:target] + (row,) + factors[target + 1:], path.n)


def f_op(path: Path, i: int) -> Optional[Path]:
    """Crystal lowering operator; None when it annihilates the path."""
    return _bracket(path, i, True)


def e_op(path: Path, i: int) -> Optional[Path]:
    """Crystal raising operator; None when it annihilates the path."""
    return _bracket(path, i, False)


def is_highest_weight(path: Path) -> bool:
    top = max((f[-1] for f in path.factors if f), default=1)
    return all(e_op(path, i) is None for i in range(1, top))


@lru_cache(maxsize=1 << 12)
def _fits(width: int, left: tuple[int, ...]
          ) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Each row of the width that `left` can fill, with the rest, in lexicographic
    order: letter by letter, most copies first, while the letters above can finish it."""
    rows, above = [((), width)], sum(left)  # a prefix, and the boxes it lacks
    for x, c in enumerate(left, 1):
        if c:
            above -= c
            rows = [(row + (x,) * k, need - k) for row, need in rows
                    for k in range(min(c, need), max(0, need - above) - 1, -1)]
    return tuple((row, tuple(c - row.count(x) if c else 0 for x, c in enumerate(left, 1)))
                 for row, need in rows if not need)


def _instance(shape_list: Sequence[int], n: int, weight: Composition
              ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The checked widths, and the weight trimmed to its last letter, not n."""
    shape_list = tuple(int(s) for s in shape_list)
    if any(s < 1 for s in shape_list):
        raise ValueError("row widths must be positive")
    if weight.size() != sum(shape_list):
        raise ValueError(f"weight total {weight.size()} != boxes {sum(shape_list)}")
    target = weight.trimmed()
    if len(target) > n:
        raise ValueError("weight has more parts than the rank")
    _check_row((), n)
    return shape_list, target


def enumerate_paths(shape_list: Sequence[int], n: int, weight: Composition) -> list[Path]:
    """All tensor products of rows with the given widths and total content.

    Rows range over the weight's letters only.  Deterministic order:
    lexicographic in the tuple of factor words.
    """
    shape_list, target = _instance(shape_list, n, weight)
    partial = [((), target)]  # every prefix ends some path: any content fits
    for width in shape_list:
        partial = [((*factors, row), rest) for factors, left in partial
                   for row, rest in _fits(width, left)]
    return [Path._trusted(factors, n) for factors, _ in partial]


# ---------------------------------------------------------------------------
# Local energy and the combinatorial R-matrix
# ---------------------------------------------------------------------------

def local_energy(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """Local energy of the adjacent pair of rows u (x) v.

    Computed by Schensted insertion of the concatenated word (right factor's
    word first, then the left factor's) and returning the length of the
    second row of the resulting tableau.  Equivalently the second component
    of the highest weight of the classical component containing u (x) v;
    the equivalence is asserted in the test suite.
    """
    return _letter_pair(u, v)[0]


@lru_cache(maxsize=None)
def _letter_pair(u: tuple[int, ...], v: tuple[int, ...]
                 ) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Local energy of u (x) v and its R-matrix image.  Neither depends on
    the rank, so the pair is checked as a path over its own letters."""
    top = max(u + v, default=1)  # raising never makes a letter above it
    n = max(2, top)
    ops: list[int] = []
    cur = Path((u, v), n)
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
    s, t, k = len(u), len(v), cur.factors[1].count(2)
    cur2 = Path._trusted(((1,) * t, (1,) * (s - k) + (2,) * k), n)
    for i in reversed(ops):
        cur2 = f_op(cur2, i)
        if cur2 is None:
            raise AssertionError("R-matrix replay failed")
    left, right = cur2.factors
    tableau = rsk_insert(v + u)
    # insertion characterization: the pair of insertion tableaux must agree
    if tableau != rsk_insert(right + left):
        raise AssertionError(
            "R-matrix output violates the insertion characterization")
    energy = len(tableau[1]) if len(tableau) > 1 else 0
    return energy, left, right


def r_matrix(u: tuple[int, ...], v: tuple[int, ...]
             ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Combinatorial R: B^{1,s} (x) B^{1,t} -> B^{1,t} (x) B^{1,s}, on rows.

    The unique content-preserving bijection commuting with the crystal
    operators, computed by raising to the highest weight and replaying the
    lowering sequence on the swapped-shape product, whose highest-weight
    elements the Pieri rule writes down.
    """
    return _letter_pair(u, v)[1:]


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
    words = path.factors
    total = 0
    for i, moved in enumerate(words):
        for right in words[i + 1:]:
            energy, _, moved = _letter_pair(moved, right)
            total += energy
    return total


def energy_sum(shape_list: Sequence[int], n: int, weight: Composition
               ) -> dict[int, int]:
    """Sum of q^D over the paths of `enumerate_paths`, as exponent -> count,
    by a transfer matrix that lists no path.

    R is the identity on rows of equal width, so in `intrinsic_energy` the
    factors of a run of equal widths reach its end as its last factor and
    move on as one.  So b_j, in the run that starts at `start`, adds
    (j - start) H(b_{j-1} (x) b_j), and each finished run beta adds
    |beta| H(m (x) b_j), its carried factor m advancing by the R-matrix
    swap.  A state is those factors and the content left; it holds the
    polynomial of the paths that reach it."""
    shape_list, target = _instance(shape_list, n, weight)
    # factors: the carried factor of each finished run, then the last factor
    states: dict[tuple, dict[int, int]] = {((), target): {0: 1}}
    sizes: list[int] = []  # |beta| of each finished run
    start, last = 0, len(shape_list) - 1
    for j, width in enumerate(shape_list):
        if j and width != shape_list[j - 1]:
            sizes.append(j - start)
            start = j
        new: dict[tuple, dict[int, int]] = {}
        for (factors, left), poly in states.items():
            for row, rest in _fits(width, left):
                d = (j - start) * _letter_pair(factors[-1], row)[0] if j > start else 0
                moved = []
                for m, size in zip(factors, sizes):
                    energy, _, m = _letter_pair(m, row)
                    d += size * energy
                    moved.append(m)
                key = ((*moved, row), rest) if j < last else None
                acc = new.setdefault(key, {})
                for e, c in poly.items():
                    acc[e + d] = acc.get(e + d, 0) + c
        states = new
    (total,) = states.values()  # the one state a path can end in
    return total
