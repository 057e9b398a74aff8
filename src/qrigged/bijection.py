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

With these conventions the bijection is weight-preserving, round trips are
the identity on canonical forms, and intrinsic energy equals cocharge
pointwise (tested exhaustively at desk scale).
"""
from __future__ import annotations

from dataclasses import dataclass

from .crystals import Path, RowFactor, UnsupportedFactorShapeError, intrinsic_energy
from .rc import (Configuration, InvalidRiggedConfigurationError,
                 MultiplicityArray, RiggedConfiguration, cocharge, validate)

_HUGE = 10 ** 9

# Internal state: levels = list over a = 1..n-1 of [width, rigging] pairs;
# the multiplicity array is a plain list of row widths (boxes are width 1).


def _vacancy_rows(levels, rows, a: int, i: int, n: int) -> int:
    p = -2 * sum(min(i, w) for (w, _) in levels[a - 1])
    if a == 1:
        p += sum(min(i, s) for s in rows)
    else:
        p += sum(min(i, w) for (w, _) in levels[a - 2])
    if a <= n - 2:
        p += sum(min(i, w) for (w, _) in levels[a])
    return p


def _insert_letter(levels, n: int, j: int, rows_old, rows_new) -> None:
    """Single-box step: add letter j, mutating `levels` in place."""
    selections: dict[int, int] = {}
    selected_vacancy: dict[int, int] = {}
    cap = _HUGE
    for a in range(j - 1, 0, -1):
        best = -1
        p_best = None
        for (w, x) in levels[a - 1]:
            if w <= cap and w > best and x == _vacancy_rows(levels, rows_old, a, w, n):
                best = w
                p_best = x
        selections[a] = best if best >= 0 else 0
        if best > 0:
            selected_vacancy[a] = p_best
        cap = selections[a]
    changed: dict[int, int] = {}
    for a, w in selections.items():
        lv = levels[a - 1]
        if w == 0:
            lv.append([1, None])
            changed[a] = 1
        else:
            for s in lv:
                if s[0] == w and s[1] == selected_vacancy[a]:
                    s[0] = w + 1
                    s[1] = None
                    changed[a] = w + 1
                    break
            else:
                raise AssertionError("selected singular string disappeared")
    for a, w in changed.items():
        value = _vacancy_rows(levels, rows_new, a, w, n)
        for s in levels[a - 1]:
            if s[1] is None:
                s[1] = value


def _extract_letter(levels, n: int, rows_old, rows_new) -> int:
    """Single-box step inverse: remove one box, return the letter."""
    selections: dict[int, int] = {}
    selected_vacancy: dict[int, int] = {}
    floor = 1
    letter = n
    for a in range(1, n):
        best = _HUGE
        p_best = None
        for (w, x) in levels[a - 1]:
            if floor <= w < best and x == _vacancy_rows(levels, rows_old, a, w, n):
                best = w
                p_best = x
        if best == _HUGE:
            letter = a
            break
        selections[a] = best
        selected_vacancy[a] = p_best
        floor = best
    for a, w in selections.items():
        lv = levels[a - 1]
        for idx, s in enumerate(lv):
            if s[0] == w and s[1] == selected_vacancy[a]:
                if w == 1:
                    lv.pop(idx)
                else:
                    s[0] = w - 1
                    s[1] = None
                break
        else:
            raise AssertionError("selected singular string disappeared")
    for a, w in selections.items():
        if w > 1:
            value = _vacancy_rows(levels, rows_new, a, w - 1, n)
            for s in levels[a - 1]:
                if s[1] is None:
                    s[1] = value
    return letter


def _finalize(levels) -> RiggedConfiguration:
    config = Configuration(tuple(
        tuple(sorted((w for w, _ in lv), reverse=True)) for lv in levels))
    riggings = []
    for lv in levels:
        pairs = sorted(((w, x) for (w, x) in lv), key=lambda t: (-t[0], -t[1]))
        riggings.append(tuple(x for _, x in pairs))
    return RiggedConfiguration(config, tuple(riggings))


def path_to_rc(path: Path) -> RiggedConfiguration:
    """Map a path to its unrestricted rigged configuration."""
    n = path.n
    levels: list[list[list[int]]] = [[] for _ in range(n - 1)]
    done: list[int] = []
    for f in path.factors:
        for t, x in enumerate(sorted(f.letters, reverse=True), start=1):
            rows_old = done + [1] * (t - 1)
            rows_new = done + [1] * t
            _insert_letter(levels, n, x, rows_old, rows_new)
        done.append(f.width())
    return _finalize(levels)


def rc_to_path(rc: RiggedConfiguration, L: MultiplicityArray,
               widths: tuple[int, ...] | None = None) -> Path:
    """Inverse direction: recover the path with factor widths given by L.

    The rigged configuration is re-validated first.  ``widths`` fixes the
    tensor-factor order of the output (left to right); by default the rows
    of L are taken in descending width order.  The map is a bijection for
    every fixed order.
    """
    if not L.is_row_only():
        raise UnsupportedFactorShapeError("unsupported factor shape")
    validate(rc, L)
    n = L.n
    if widths is None:
        widths = L.row_widths()
    elif tuple(sorted(widths, reverse=True)) != L.row_widths():
        raise ValueError("widths do not match the multiplicity array")
    levels: list[list[list[int]]] = [
        [[w, x] for (w, x) in rc.strings(a)] for a in range(1, n)]
    done = list(widths)
    factors_rev: list[RowFactor] = []
    for s in reversed(widths):
        done.pop()
        letters = []
        for t in range(s, 0, -1):
            rows_old = done + [1] * t
            rows_new = done + [1] * (t - 1)
            letters.append(_extract_letter(levels, n, rows_old, rows_new))
        if any(letters[i] > letters[i + 1] for i in range(len(letters) - 1)):
            raise InvalidRiggedConfigurationError(
                f"extracted letters {letters} do not form a row")
        factors_rev.append(RowFactor(tuple(letters), n))
    if any(lv for lv in levels):
        raise InvalidRiggedConfigurationError(
            "nonempty configuration left after extracting all factors")
    return Path(tuple(reversed(factors_rev)), n)


@dataclass(frozen=True)
class StatisticReport:
    energy: int
    cocharge: int
    sign: int
    shift: int

    def as_dict(self) -> dict:
        return {"energy": self.energy, "cocharge": self.cocharge,
                "relation": {"sign": self.sign, "shift": self.shift}}


def check_statistic(path: Path) -> StatisticReport:
    """Both statistics for one path plus the observed affine relation
    cocharge = sign * energy + shift."""
    d = intrinsic_energy(path)
    cc = cocharge(path_to_rc(path))
    return StatisticReport(energy=d, cocharge=cc, sign=1, shift=cc - d)
