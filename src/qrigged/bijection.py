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

Neither direction keeps a vacancy table.  `levels[a-1]` holds the strings
of nu^(a) as [width, d] lists in no order, d the rigging minus p_width^(a),
so a string is singular when d is 0 and the selection scan reads no table.
p_i^(a) is Q_i(nu^(a-1)) - 2 Q_i(nu^(a)) + Q_i(nu^(a+1)), Q_i the boxes in
the first i columns, nu^(n) empty and nu^(0) the factor rows.  A box added
at the end of a level-a string of width l changes p_i only for i > l, by -2
at level a and by +1 at levels a-1 and a+1, so only the d of strings wider
than l there move, and the chosen strings become singular; removal is the
exact inverse, over the strings at least as wide.  A letter 1 chooses no
string: only the count of consumed boxes moves.  Each loose box of the
partly consumed factor is a row of width 1, so the factor term is that
count minus the sum of max(0, s - i) over complete rows.  The count shifts
every p_i^(1) alike, so level 1 leaves it out of p, and a string there is
singular when d equals it.  Completing a width-s factor, or popping it in
the inverse, changes d only for the level-1 strings narrower than s, so
for a single box it is skipped.  `path_to_rc` grows the levels 1..j-1 as
its letters j need them and, at the end, reads p at each final string
width from `_final_vacancies`: `rc.vacancy_numbers` once per level for each
(factor widths, nu), kept for the last 64 with one shared `Configuration`;
`rc_to_path` starts from the strings that `validate` returns, which
carry these d, and pops a single box as its one letter, which is always a
row.  A path factor is its word, so both directions read and write rows
as tuples of letters.

With these conventions the bijection is weight-preserving, round trips are
the identity on canonical forms, and intrinsic energy equals cocharge
pointwise (tested exhaustively at desk scale): the frozen normalization is
the identity.
"""
from __future__ import annotations

from functools import lru_cache

from .crystals import Path
from .rc import (Configuration, InvalidRiggedConfigurationError,
                 MultiplicityArray, RiggedConfiguration, validate,
                 vacancy_numbers)

_HUGE = 10 ** 9


def _move_factor(levels, s: int, sign: int) -> None:
    """Update the level-1 strings for s loose boxes becoming one complete
    row (sign = 1), or one row of width s becoming loose boxes (sign = -1):
    p_i^(1) moves by sign * (i - s) for i < s, so not at all for s = 1."""
    for level in levels[:1]:  # none when the path fills no level
        for string in level:
            if string[0] < s:
                string[1] += sign * (s - string[0])


def _insert_letter(levels, j: int, boxes: int) -> None:
    """Single-box step: add letter j to the state after `boxes` path boxes,
    mutating `levels` in place.  Levels choose from j-1 down; once level a
    has chosen, every move that changes a d at level a+1 is known, so level
    a+1 is updated then, and level 1 last (a = 0)."""
    up2 = up1 = _HUGE  # old widths of the strings grown at levels a+2, a+1
    grown = None  # the string grown at level a+1, None for a new one
    for a in range(j - 1, -1, -1):
        best = None
        width = _HUGE
        if a:
            singular = boxes if a == 1 else 0
            width = 0
            for s in levels[a - 1]:
                w = s[0]
                if width < w <= up1 and s[1] == singular:
                    best, width = s, w
        if a < len(levels):
            # p_i^(a+1) moves by -2 for i > up1, by +1 for i > width, up2
            for s in levels[a]:
                w = s[0]
                s[1] += 2 * (w > up1) - (w > width) - (w > up2)
            if a + 1 < j:
                value = boxes + 1 if a == 0 else 0
                if grown is None:
                    levels[a].append([1, value])
                else:
                    grown[0] = up1 + 1
                    grown[1] = value
        grown, up2, up1 = best, up1, width


def _extract_letter(levels, boxes: int) -> int:
    """Single-box step inverse: remove the last of `boxes` path boxes,
    mutating `levels` in place, and return its letter.  Levels choose from
    1 up until one has no singular string wide enough; once level a has
    chosen, every move that changes a d at level a-1 is known, so level a-1
    is updated then."""
    n = len(levels) + 1
    down2 = down1 = _HUGE  # old widths of the strings shrunk at a-2, a-1
    shrunk = None  # the string shrunk at level a-1
    floor = 1
    a = 0
    while True:
        a += 1
        best = None
        width = _HUGE
        if a < n:
            singular = boxes if a == 1 else 0
            for s in levels[a - 1]:
                w = s[0]
                if floor <= w < width and s[1] == singular:
                    best, width = s, w
            if best is None and a == 1:
                return 1
        if a > 1:
            # p_i^(a-1) moves by +2 for i >= down1, by -1 for i >= width, down2
            level = levels[a - 2]
            for s in level:
                w = s[0]
                s[1] += (w >= width) + (w >= down2) - 2 * (w >= down1)
            if down1 == 1:
                level.remove(shrunk)
            else:
                shrunk[0] = down1 - 1
                shrunk[1] = boxes - 1 if a == 2 else 0
        if best is None:
            if a < n:  # p_i^(a) moves by -1 for i >= down1
                for s in levels[a - 1]:
                    s[1] += s[0] >= down1
            return a
        shrunk, down2, down1, floor = best, down1, width, width


@lru_cache(maxsize=64)
def _final_vacancies(factor: tuple[int, ...],
                     nu: tuple[tuple[int, ...], ...]) -> tuple:
    """One shared `Configuration` for nu and, per level, p_0..p_m at its
    widest string m, for factor rows of the widths `factor`: the paths of an
    instance share few final configurations, so a small cache serves them."""
    return Configuration._trusted(nu), tuple(
        tuple(vacancy_numbers(factor if a == 0 else (), nu[a - 1] if a else (),
                              here, nu[a + 1] if a + 1 < len(nu) else (),
                              here[0]))
        for a, here in enumerate(nu))


def path_to_rc(path: Path) -> RiggedConfiguration:
    """Map a path to its unrestricted rigged configuration."""
    levels: list[list[list[int]]] = []
    boxes = 0
    for f in path.factors:
        if f and f[-1] > len(levels) + 1:  # a row's last letter is its largest
            levels.extend([] for _ in range(f[-1] - 1 - len(levels)))
        for x in reversed(f):
            if x > 1:  # a letter 1 chooses no string: only `boxes` moves
                _insert_letter(levels, x, boxes)
            boxes += 1
        if len(f) > 1:  # completing a single box changes no p
            _move_factor(levels, len(f), 1)
    # rigging = d + p at the string's width
    nu = []
    for lv in levels:
        lv.sort(reverse=True)  # by width, then d: the canonical order
        nu.append(tuple([w for w, _ in lv]))
    config, rows = _final_vacancies(tuple(map(len, path.factors)), tuple(nu))
    riggings = []
    shift = boxes
    for lv, p in zip(levels, rows):
        riggings.append(tuple([d + p[w] - shift for w, d in lv]))
        shift = 0
    return RiggedConfiguration._trusted(config, tuple(riggings))


def rc_to_path(rc: RiggedConfiguration, L: MultiplicityArray,
               widths: tuple[int, ...]) -> Path:
    """Inverse direction: recover the path whose row factors have the
    widths `widths`, left to right.

    L must hold rows only (`L.row_widths` refuses it before anything else),
    the rigged configuration is re-validated, and `widths` must be the rows
    of L in some order.  The map is a bijection for every fixed order.  The
    strings start from those `validate` returns, with all the boxes
    consumed at level 1.
    """
    rows = L.row_widths()
    levels = validate(rc, L)
    if tuple(sorted(widths, reverse=True)) != rows:
        raise ValueError("widths do not match the multiplicity array")
    boxes = sum(widths)
    for string in levels[0] if levels else ():
        string[1] += boxes
    factors_rev: list[tuple[int, ...]] = []
    for s in reversed(widths):
        if s == 1:  # one letter is a row, and popping it changes no p
            factors_rev.append((_extract_letter(levels, boxes),))
            boxes -= 1
            continue
        _move_factor(levels, s, -1)
        letters = []
        for _ in range(s):
            x = _extract_letter(levels, boxes)
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

