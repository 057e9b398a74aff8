"""The statistic-preserving bijection between paths and unrestricted rigged
configurations, in both directions.

Letters are added factor by factor, left to right; within a row factor the
letters are processed in decreasing order, each as a single-box step, with
the partially consumed factor counted as that many separate boxes in the
multiplicity array until the factor is complete.  A single-box step for
letter j selects, for levels a = j-1 down to 1, the longest singular string
(rigging equal to vacancy) no longer than the previous selection, adds a box
to it (or starts a new string), makes changed strings singular with respect
to the new state and keeps all other riggings.  Box removal inverts this
exactly.

Both directions keep the vacancy numbers p_i^(a) in a table and update it
in place as boxes move.  p_i^(a) is Q_i(nu^(a-1)) - 2 Q_i(nu^(a)) +
Q_i(nu^(a+1)), where Q_i counts the boxes in the first i columns, nu^(n) is
empty and nu^(0) is the partition of factor rows (the factor term).  So a box
added at the end of a level-a string of width l changes only the entries
i > l: by -2 at level a and by +1 at levels a-1 and a+1, three rows that
each chosen string updates in place.  Removal is the exact inverse.  A
letter 1 chooses no string, so it is no step: only the count of consumed
boxes moves.  The factor term is the sum of min(i, s) over the factor
rows, each loose box of the partly consumed factor a row of width 1.  It is
the number of path boxes consumed so far minus the sum of max(0, s - i) over
complete rows.  That count shifts every p_i^(1) alike, so it is kept as one
integer added when level 1 is read.  Neither table is sized by the rank:
each has a row per level the object fills.  `path_to_rc` starts from a zero
table with rows for the levels 1..j-1 that its largest letter j fills,
|nu^(1)| + 1 wide, the letters above 1 plus one: no string at any level
outgrows |nu^(1)|.  `rc_to_path` starts from the vacancy table of the
`rc.configuration_frame` that `validate` returns, all factors complete,
with the path boxes taken off level 1.  Completing a width-s factor, or
popping it in the inverse, then changes the table only for i < s, and not
at all for s = 1.  Selecting a singular string is a scan of (width,
rigging) against the table, the chosen strings are kept by reference, and
each new rigging is one table read after the update.  A path factor is its
word, so both directions read and write rows as tuples of letters.

With these conventions the bijection is weight-preserving, round trips are
the identity on canonical forms, and intrinsic energy equals cocharge
pointwise (tested exhaustively at desk scale): the frozen normalization is
the identity, and `check_statistic` reports the two statistics it relates.
"""
from __future__ import annotations

from dataclasses import dataclass

from .crystals import Path, intrinsic_energy
from .rc import (Configuration, InvalidRiggedConfigurationError,
                 MultiplicityArray, RiggedConfiguration, cocharge, validate)

_HUGE = 10 ** 9

# Internal state: `levels[a-1]` holds the strings of nu^(a) as [width,
# rigging] lists in no particular order.  `p[a-1][i]` is p_i^(a) for
# 1 <= i <= m, m bounding every width the direction can reach, except that
# p[0] leaves out `boxes`, the number of path boxes consumed so far.


def _move_factor(p, s: int, d: int) -> None:
    """Update `p` for s loose boxes becoming one complete row (d = 1), or
    one row of width s becoming loose boxes (d = -1)."""
    for row in p[:1]:  # none when the path fills no level
        for i in range(1, min(s, len(row))):
            row[i] += d * (i - s)


def _insert_letter(levels, p, j: int, boxes: int) -> None:
    """Single-box step: add letter j to the state after `boxes` path boxes,
    mutating `levels` and `p` in place."""
    chosen = []
    cap = _HUGE
    for a in range(j - 1, 0, -1):
        pa = p[a - 1]
        shift = boxes if a == 1 else 0
        best = None
        width = 0
        for s in levels[a - 1]:
            w = s[0]
            if width < w <= cap and s[1] == pa[w] + shift:
                best, width = s, w
        chosen.append((a, best, width))
        cap = width
    for a, _, width in chosen:
        row = p[a - 1]
        for i in range(width + 1, len(row)):
            row[i] -= 2
        if a > 1:
            row = p[a - 2]
            for i in range(width + 1, len(row)):
                row[i] += 1
        if a < len(p):
            row = p[a]
            for i in range(width + 1, len(row)):
                row[i] += 1
    for a, s, width in chosen:
        value = p[a - 1][width + 1] + (boxes + 1 if a == 1 else 0)
        if s is None:
            levels[a - 1].append([1, value])
        else:
            s[0] = width + 1
            s[1] = value


def _extract_letter(levels, p, boxes: int) -> int:
    """Single-box step inverse: remove the last of `boxes` path boxes,
    mutating `levels` and `p` in place, and return its letter."""
    n = len(levels) + 1
    chosen = []
    floor = 1
    letter = n
    for a in range(1, n):
        pa = p[a - 1]
        shift = boxes if a == 1 else 0
        best = None
        width = _HUGE
        for s in levels[a - 1]:
            w = s[0]
            if floor <= w < width and s[1] == pa[w] + shift:
                best, width = s, w
        if best is None:
            if a == 1:
                return 1
            letter = a
            break
        chosen.append((a, best, width))
        floor = width
    for a, _, width in chosen:
        row = p[a - 1]
        for i in range(width, len(row)):
            row[i] += 2
        if a > 1:
            row = p[a - 2]
            for i in range(width, len(row)):
                row[i] -= 1
        if a < len(p):
            row = p[a]
            for i in range(width, len(row)):
                row[i] -= 1
    for a, s, width in chosen:
        if width == 1:
            levels[a - 1].remove(s)
        else:
            s[0] = width - 1
            s[1] = p[a - 1][width - 1] + (boxes - 1 if a == 1 else 0)
    return letter


def _finalize(levels) -> RiggedConfiguration:
    nu = []
    riggings = []
    for lv in levels:
        lv.sort(reverse=True)  # (-width, -rigging) order, the canonical one
        nu.append(tuple([w for w, _ in lv]))
        riggings.append(tuple([x for _, x in lv]))
    return RiggedConfiguration._trusted(Configuration._trusted(tuple(nu)),
                                        tuple(riggings))


def path_to_rc(path: Path) -> RiggedConfiguration:
    """Map a path to its unrestricted rigged configuration."""
    depth = max((f[-1] for f in path.factors if f), default=1) - 1
    levels: list[list[list[int]]] = [[] for _ in range(depth)]
    size = sum(len(f) - f.count(1) for f in path.factors) + 1
    p = [[0] * size for _ in range(depth)]
    boxes = 0
    for f in path.factors:
        for x in reversed(f):
            if x > 1:  # a letter 1 chooses no string: only `boxes` moves
                _insert_letter(levels, p, x, boxes)
            boxes += 1
        if len(f) > 1:  # a width-1 row leaves the table as it is
            _move_factor(p, len(f), 1)
    return _finalize(levels)


def rc_to_path(rc: RiggedConfiguration, L: MultiplicityArray,
               widths: tuple[int, ...]) -> Path:
    """Inverse direction: recover the path whose row factors have the
    widths `widths`, left to right.

    L must hold rows only (`L.row_widths` refuses it before anything else),
    the rigged configuration is re-validated, and `widths` must be the rows
    of L in some order.  The map is a bijection for every fixed order.  The
    starting vacancy table is read from the frame that `validate` returns.
    """
    rows = L.row_widths()
    table = validate(rc, L)[1]
    if tuple(sorted(widths, reverse=True)) != rows:
        raise ValueError("widths do not match the multiplicity array")
    levels: list[list[list[int]]] = [
        [[w, x] for w, x in zip(level, rigs)]
        for level, rigs in zip(rc.config.nu, rc.riggings)]
    boxes = sum(widths)
    p = ([[x - boxes for x in row] for row in table[:1]]
         + [list(row) for row in table[1:]])
    factors_rev: list[tuple[int, ...]] = []
    for s in reversed(widths):
        if s > 1:
            _move_factor(p, s, -1)
        letters = []
        for _ in range(s):
            x = _extract_letter(levels, p, boxes)
            if letters and x < letters[-1]:
                raise InvalidRiggedConfigurationError(
                    f"extracted letters {letters + [x]} do not form a row")
            letters.append(x)
            boxes -= 1
        factors_rev.append(tuple(letters))
    if any(lv for lv in levels):
        raise InvalidRiggedConfigurationError(
            "nonempty configuration left after extracting all factors")
    return Path._trusted(tuple(reversed(factors_rev)), L.n)


@dataclass(frozen=True)
class StatisticReport:
    energy: int
    cocharge: int

    def as_dict(self) -> dict:
        # cocharge = sign * energy + shift, against the frozen (1, 0)
        return {"energy": self.energy, "cocharge": self.cocharge,
                "relation": {"sign": 1, "shift": self.cocharge - self.energy}}


def check_statistic(path: Path, rc: RiggedConfiguration) -> StatisticReport:
    """Intrinsic energy of `path` and cocharge of `rc`, which must be
    `path_to_rc(path)`.  The bijection makes the two equal."""
    return StatisticReport(energy=intrinsic_energy(path), cocharge=cocharge(rc))
