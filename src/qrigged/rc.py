"""Unrestricted rigged configurations: vacancy numbers, generalized lower
bounds, enumeration and the cocharge statistic.

A rigged configuration for a multiplicity array L and weight w is a sequence
of partitions nu^(1), ..., nu^(n-1) whose sizes are forced by (L, w), with an
integer rigging on every row; the sizes vanish past the weight's last letter,
so a `Configuration` stores the levels up to its last nonempty one (only the
JSON forms spell out all n-1).  The vacancy number p_i^(a) is Q_i of the
height-a factor widths - 2 Q_i(nu^(a)) + Q_i(nu^(a-1)) + Q_i(nu^(a+1)), Q_i
the boxes in the first i columns, in `vacancy_numbers`.  p matters only at
the widths a level has, so the layer keeps it there alone, in the blocks
of `level_blocks` that `configuration_frame` caches for the walk,
`validate` and `rc_to_json`; `validate` also returns, from the same pass,
the strings the inverse bijection starts from.  Riggings of rows of width
i in nu^(a) live in the window [lower bound, vacancy p_i^(a)]; in the
unrestricted setting the lower bound may be negative and, beyond level 1,
it is raised by a carried depth computed from how far the riggings one
level down sit below their own floors (longer rows absorb part of the
carried depth).  This characterization is validated exhaustively against
path enumeration by the test suite.  The configuration part of cocharge is
cached per configuration, so `cocharge` is one lookup plus the rigging sum.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, groupby
from typing import Mapping, Optional, Sequence

from .combinat import Composition, partitions_of
from .qalg import json_int


class InvalidRiggedConfigurationError(ValueError):
    """Raised when riggings violate their windows or sizes do not match."""


class UnsupportedFactorShapeError(ValueError):
    """Raised when an operation only defined for row factors sees a
    non-row factor."""


@dataclass(frozen=True)
class MultiplicityArray:
    """Counts L_i^{(a)} of tensor factors of rectangular shape a x i.

    Row factors are a = 1.  Stored sparsely: absent means zero.
    """

    counts: tuple[tuple[tuple[int, int], int], ...]
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("rank n must be at least 2")
        norm: dict[tuple[int, int], int] = {}
        items = (self.counts.items() if isinstance(self.counts, Mapping)
                 else self.counts)
        for (a, i), c in items:
            a, i, c = int(a), int(i), int(c)
            if not 1 <= a <= self.n - 1:
                raise ValueError(f"rectangle height {a} out of range 1..{self.n - 1}")
            if i < 1:
                raise ValueError(f"rectangle width {i} must be positive")
            if c < 0:
                raise ValueError("multiplicities must be nonnegative")
            if c:
                norm[(a, i)] = norm.get((a, i), 0) + c
        object.__setattr__(self, "counts",
                           tuple(sorted(norm.items())))
        # not fields: derived from counts, so equality and hashing ignore
        # them; both stop at the tallest factor's height
        top = max((b for (b, _), _ in self.counts), default=0)
        widths: list[list[int]] = [[] for _ in range(top + 1)]
        for (a, i), c in self.counts:
            widths[a].extend([i] * c)
        object.__setattr__(self, "_factor_widths", tuple(
            tuple(sorted(level, reverse=True)) for level in widths))
        object.__setattr__(self, "_level_boxes", tuple(
            sum(min(a, b) * i * c for (b, i), c in self.counts)
            for a in range(top + 1)))

    @staticmethod
    def from_rows(widths: Sequence[int], n: int) -> "MultiplicityArray":
        counts: dict[tuple[int, int], int] = {}
        for w in widths:
            counts[(1, int(w))] = counts.get((1, int(w)), 0) + 1
        return MultiplicityArray(tuple(counts.items()), n)

    def total_boxes(self) -> int:
        return sum(a * i * c for (a, i), c in self.counts)

    def factor_widths(self, a: int) -> tuple[int, ...]:
        """Widths of the height-a factors (1 <= a <= n-1), one per factor,
        descending; () above the tallest factor."""
        return self._factor_widths[a] if a < len(self._factor_widths) else ()

    def row_widths(self) -> tuple[int, ...]:
        """Widths of the row factors, descending.  The one rows-only check:
        raises UnsupportedFactorShapeError when any factor is taller than
        a row."""
        if any(a != 1 for (a, _), _ in self.counts):
            raise UnsupportedFactorShapeError("unsupported factor shape")
        return self.factor_widths(1)

    def level_boxes(self) -> tuple[int, ...]:
        """Boxes in the first a rows of all factors together, sum min(a, b)
        i L_i^{(b)}, for a = 0 up to the tallest factor's height (constant
        from there on), summed once per array."""
        return self._level_boxes


@dataclass(frozen=True)
class Configuration:
    """Partitions nu^(1), nu^(2), ... up to the last nonempty one."""

    nu: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        nu = tuple(tuple(int(p) for p in level) for level in self.nu)
        for level in nu:
            if any(p < 1 for p in level):
                raise ValueError("partition parts must be positive")
            if any(level[i] < level[i + 1] for i in range(len(level) - 1)):
                raise ValueError("parts must weakly decrease")
        depth = max((a for a, level in enumerate(nu, 1) if level), default=0)
        object.__setattr__(self, "nu", nu[:depth])

    @classmethod
    def _trusted(cls, nu: tuple[tuple[int, ...], ...]) -> "Configuration":
        """Construct without coercion or checks, for weakly decreasing
        tuples of positive ints with a nonempty last level."""
        out = object.__new__(cls)
        object.__setattr__(out, "nu", nu)
        return out

    def level(self, a: int) -> tuple[int, ...]:
        """Partition nu^{(a)} for a >= 1 (empty past the stored levels)."""
        return self.nu[a - 1] if 1 <= a <= len(self.nu) else ()


@lru_cache(maxsize=1 << 14)
def column_sums(widths: tuple[int, ...], m: int) -> tuple[int, ...]:
    """(Q_0, ..., Q_m), Q_i = sum over the widths of min(i, width): the
    boxes in the first i columns.  Cached: every vacancy row reads four."""
    ends = [0] * (m + 1)
    for w in widths:
        ends[min(w, m)] += 1
    out = [0]
    height = len(widths) - ends[0]  # a width-0 row fills no column
    total = 0
    for i in range(1, m + 1):
        total += height
        out.append(total)
        height -= ends[i]
    return tuple(out)


def vacancy_numbers(factor: tuple[int, ...], below: tuple[int, ...],
                    here: tuple[int, ...], above: tuple[int, ...], m: int
                    ) -> list[int]:
    """[p_0, ..., p_m]: p_i = Q_i(factor) - 2 Q_i(here) + Q_i(below)
    + Q_i(above), each argument a tuple of widths: the one formula."""
    return [f - 2 * h + b + u for f, h, b, u in zip(
        column_sums(factor, m), column_sums(here, m),
        column_sums(below, m), column_sums(above, m))]


def vacancy(config: Configuration, L: MultiplicityArray, a: int, i: int) -> int:
    """Vacancy number p_i^{(a)}: the factor term minus the Cartan-matrix
    contraction of the column counts.  May be negative."""
    n = L.n
    if not 1 <= a <= n - 1:
        raise IndexError(f"level {a} out of range 1..{n - 1}")
    if i < 1:
        raise IndexError("column index must be positive")
    return vacancy_numbers(L.factor_widths(a), config.level(a - 1),
                           config.level(a), config.level(a + 1), i)[i]


def configuration_sizes(L: MultiplicityArray, weight: Composition) -> Optional[tuple[int, ...]]:
    """Forced sizes |nu^{(1)}|, ... up to the last nonzero one (() when
    none is), or None when some size is negative.

    The one check that (L, weight) is an instance: raises ValueError when
    the weight's total differs from L's boxes, then when the weight has
    more than n parts."""
    if weight.size() != L.total_boxes():
        raise ValueError(f"weight total {weight.size()} != boxes {L.total_boxes()}")
    parts = weight.trimmed()
    if len(parts) > L.n:
        raise ValueError("weight has more parts than the rank")
    boxes = L.level_boxes()
    top = len(boxes) - 1
    # |nu^(a)| = boxes[a] - (letters <= a), 0 from the weight's last letter
    # and the tallest factor on
    sizes, letters = [], 0
    for a in range(1, max(len(parts), top)):
        letters += parts[a - 1] if a <= len(parts) else 0
        sizes.append(boxes[min(a, top)] - letters)
    while sizes and not sizes[-1]:
        sizes.pop()
    return None if any(s < 0 for s in sizes) else tuple(sizes)


# ---------------------------------------------------------------------------
# Rigging windows: base floor plus carried depth
# ---------------------------------------------------------------------------

def level_blocks(config: Configuration, L: MultiplicityArray,
                 lam_next: int, a: int
                 ) -> tuple[tuple[int, int, int, int], ...]:
    """(width, mult, floor, p) for each block of equal-width rows of
    nu^{(a)}, widths descending.

    floor = -min(width, lam_next), lam_next = lambda_{a+1}, is the floor
    before carried depth and p the vacancy number; neither reads riggings.
    """
    level = config.level(a)
    if not level:
        return ()
    p = vacancy_numbers(L.factor_widths(a), config.level(a - 1), level,
                        config.level(a + 1), level[0])
    return tuple([(w, len(list(rows)), -min(w, lam_next), p[w])
                  for w, rows in groupby(level)])


def rigging_windows(blocks: Sequence[tuple[int, int, int, int]],
                    below: Sequence[tuple[int, int]]
                    ) -> list[tuple[int, int, int, int, int]]:
    """(width, mult, lo, p, carry) for each block of `level_blocks`.

    `below` holds the (width, depth) pairs passed up by the level beneath;
    a row of width v there absorbs max(0, v - width) units of its depth,
    and carry is the largest remainder (at least 0).  The window is [lo, p]
    with lo = floor + carry.  A block whose least rigging is x passes
    (width, max(0, carry - x)) up to the next level: a string's depth only
    falls as its rigging rises, so the block minimum carries the most.
    """
    out = []
    for (w, m, floor, p) in blocks:
        carry = 0
        for v, d in below:
            if v > w:
                d -= v - w
            if d > carry:
                carry = d
        out.append((w, m, floor + carry, p, carry))
    return out


@lru_cache(maxsize=256)
def configuration_frame(config: Configuration, L: MultiplicityArray) -> tuple:
    """The `level_blocks` of each stored level, p among them at every width
    a string has: all that the walk, `validate` (for the bijection too) and
    `rc_to_json` read of a configuration.  Tuples all the way down, so no
    reader can change a cached entry; the objects of an instance share few
    configurations, so a small cache serves them.  Raises
    InvalidRiggedConfigurationError when the sizes force a negative weight,
    since such sizes are unbounded.
    """
    boxes, depth = L.level_boxes(), len(config.nu)
    # boxes[a] - |nu^(a)| letters are <= a: the stored levels and one more
    # give lambda_1 .. lambda_{depth+1}, and every later part is a
    # difference of level boxes, never negative, that no level reads
    letters = [boxes[min(a, len(boxes) - 1)] - sum(config.level(a))
               for a in range(depth + 2)]
    lam = tuple(hi - lo for lo, hi in zip(letters, letters[1:]))
    if any(part < 0 for part in lam):
        raise InvalidRiggedConfigurationError(
            f"configuration sizes force a negative weight: {lam}")
    return tuple(level_blocks(config, L, lam[a], a)
                 for a in range(1, depth + 1))


@dataclass(frozen=True)
class RiggedConfiguration:
    """A configuration with an integer rigging per row.

    ``riggings[a-1][k]`` labels row k of nu^{(a)}; within a block of
    equal-width rows the labels are stored weakly decreasing (the canonical
    representative of the multiset), on the configuration's stored levels.
    """

    config: Configuration
    riggings: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        riggings = tuple(tuple(int(r) for r in level) for level in self.riggings)
        depth = len(self.config.nu)
        if len(riggings) < depth or any(riggings[depth:]):
            raise ValueError("one rigging per row is required")
        canonical = []
        for level, rig in zip(self.config.nu, riggings):
            if len(level) != len(rig):
                raise ValueError("one rigging per row is required")
            pairs = sorted(zip(level, rig), key=lambda t: (-t[0], -t[1]))
            canonical.append(tuple(r for _, r in pairs))
        object.__setattr__(self, "riggings", tuple(canonical))

    @classmethod
    def _trusted(cls, config: Configuration, riggings: tuple) -> "RiggedConfiguration":
        """Construct without coercion or checks, for canonical riggings."""
        out = object.__new__(cls)
        object.__setattr__(out, "config", config)
        object.__setattr__(out, "riggings", riggings)
        return out

    def strings(self, a: int) -> tuple[tuple[int, int], ...]:
        """(width, rigging) pairs of level a, canonical order."""
        level = self.config.level(a)
        return tuple(zip(level, self.riggings[a - 1] if level else ()))

    def __str__(self) -> str:
        levels = []
        for a in range(1, len(self.config.nu) + 1):
            strings = self.strings(a)
            body = " ".join(f"{w}:{r}" for w, r in strings) if strings else "-"
            levels.append(body)
        return " | ".join(levels)


def lower_bound(config: Configuration, L: MultiplicityArray, a: int, row: int) -> int:
    """Lower bound of the rigging window for the given row of nu^{(a)}.

    Computed with the all-singular reference: riggings below level a are
    taken at their vacancy numbers, which minimizes every carried depth
    simultaneously.  No valid rigged configuration on this configuration
    gives the row a smaller rigging.  The bound is attained whenever
    nu^{(a+1)} is empty; otherwise a rigging at the bound may carry so much
    depth up that a window at level a+1 is empty, and the row's least
    rigging over valid objects is then larger.
    """
    level = config.level(a)
    if not 0 <= row < len(level):
        raise IndexError(f"level {a} has no row {row}")
    below: tuple[tuple[int, int], ...] = ()
    for blocks in configuration_frame(config, L)[:a]:
        windows = rigging_windows(blocks, below)
        below = tuple((w, max(0, carry - p)) for (w, _, _, p, carry) in windows)
    return next(lo for (w, _, lo, _, _) in windows if w == level[row])


def validate(rc: RiggedConfiguration, L: MultiplicityArray) -> list:
    """Recompute every window and check the riggings sit inside; return,
    per stored level, a fresh list of [width, rigging - p] for its strings
    in canonical order, p the vacancy number at the width: the starting
    state of `rc_to_path`, read in the same pass.

    Raises InvalidRiggedConfigurationError on any violation.  External
    input must pass through here; vacancies are never trusted.
    """
    if len(rc.config.nu) > L.n - 1:
        raise InvalidRiggedConfigurationError(
            f"expected at most {L.n - 1} partitions, got {len(rc.config.nu)}")
    frame = configuration_frame(rc.config, L)
    below: list[tuple[int, int]] = []
    levels = []
    for a, (blocks, riggings) in enumerate(zip(frame, rc.riggings), 1):
        windows = rigging_windows(blocks, below)
        below = []
        strings = []
        start = 0
        for (w, m, lo, p, carry) in windows:
            block = riggings[start:start + m]
            start += m
            for x in block:
                if not lo <= x <= p:
                    raise InvalidRiggedConfigurationError(
                        f"rigging {x} of a width-{w} row at level {a} "
                        f"violates its window [{lo}, {p}]")
                strings.append([w, x - p])
            # canonical order: a block's riggings decrease, the last is least
            below.append((w, max(0, carry - block[-1])))
        levels.append(strings)
    return levels


@lru_cache(maxsize=8)
def configuration_walk(L: MultiplicityArray, weight: Composition
                       ) -> tuple[tuple[Configuration, tuple[tuple, ...]], ...]:
    """The configurations for (L, weight) that can carry a rigging, each
    with its `configuration_frame`: the levels up to the last one of
    nonzero size, the only ones walked, so the walk costs the same at any n.

    The walk runs once per (L, weight): its result is kept in a small LRU
    cache, so `enumerate_rc` and the closed form on one instance share it.
    It is tuples all the way down, so no consumer can change a cached entry.

    A depth-first walk on an explicit stack, so any rank fits under the
    recursion limit: nu^(1), nu^(2), ... are chosen in turn from
    `partitions_of(|nu^(a)|)`, so configurations come in the order of the
    full product with some removed.  A block with floor > p has an empty
    window whatever the riggings (lo = floor + carry, carry >= 0), and
    p_w^(a) reads nu^(a+1) only through Q_w(nu^(a+1)); so each width w of
    nu^(a) needs Q_w(nu^(a+1)) >= floor - (the rest of p_w^(a)), a child
    short of a need is never pushed, and the last level needs nothing.
    """
    sizes = configuration_sizes(L, weight)
    if sizes is None:
        return ()
    m = max(sizes, default=0)
    lam = weight.parts + (0,) * (len(sizes) + 1 - len(weight.parts))
    # per level a, each candidate nu^(a) with its Q_0..Q_m and, for each
    # width w, the part of its need that does not read nu^(a-1)
    choices = [[(part, q, tuple((w, 2 * q[w] - f[w] - min(w, lam[a]))
                                for w in dict.fromkeys(part)))
                for part in reversed(partitions_of(size))
                for q in [column_sums(part, m)]]
               for a, size in enumerate(sizes, 1)
               for f in [column_sums(L.factor_widths(a), m)]]
    out: list[tuple[Configuration, tuple[tuple, ...]]] = []
    # (levels chosen, Q of the last, its needs not met yet)
    stack = [((), column_sums((), m), ())]
    while stack:
        nu, below, needs = stack.pop()
        if len(nu) == len(sizes):
            config = Configuration._trusted(nu)
            out.append((config, configuration_frame(config, L)))
            continue
        last = len(nu) + 1 == len(sizes)
        for part, q, base in choices[len(nu)]:
            if any(q[w] < need for w, need in needs):
                continue
            unmet = tuple((w, c - below[w]) for w, c in base if c > below[w])
            if not (last and unmet):
                stack.append((nu + (part,), q, unmet))
    return tuple(out)


def enumerate_rc(L: MultiplicityArray, weight: Composition
                 ) -> list[RiggedConfiguration]:
    """All unrestricted rigged configurations for (L, weight).

    Riggings are generated level by level inside the windows of
    `rigging_windows`, over the configurations of `configuration_walk`.
    Canonical representatives, deterministic order: the last block's
    riggings vary fastest.
    """
    out: list[RiggedConfiguration] = []
    for config, blocks_by_level in configuration_walk(L, weight):
        # states: (riggings so far, (width, depth) pairs of previous level)
        states: list[tuple[tuple, tuple[tuple[int, int], ...]]] = [((), ())]
        for blocks in blocks_by_level:
            new_states = []
            for (prefix, below) in states:
                # fold the blocks into the level's flat (riggings, depths);
                # drawn from p, ..., lo, rigs weakly decreases: rigs[-1] is
                # least, and a block with an empty window leaves no tuple
                level = [((), ())]
                for (w, m, lo, p, carry) in rigging_windows(blocks, below):
                    options = [(rigs, ((w, max(0, carry - rigs[-1])),))
                               for rigs in combinations_with_replacement(
                                   range(p, lo - 1, -1), m)]
                    level = [(rigs0 + rigs, depths0 + depth)
                             for rigs0, depths0 in level for rigs, depth in options]
                new_states.extend((prefix + (rigs,), depths) for rigs, depths in level)
            states = new_states
        out.extend(RiggedConfiguration._trusted(config, levels) for levels, _ in states)
    return out


@lru_cache(maxsize=256)
def configuration_charge_form(config: Configuration) -> int:
    """The configuration part of cocharge: the sum over levels a and
    columns c of alpha_c^{(a)} (alpha_c^{(a)} - alpha_c^{(a+1)}), alpha the
    column heights."""
    heights = [[sum(1 for p in level if p >= c) for c in range(1, level[0] + 1)]
               if level else [] for level in config.nu] + [[]]
    return sum(h * (h - (up[c] if c < len(up) else 0))
               for cur, up in zip(heights, heights[1:]) for c, h in enumerate(cur))


def cocharge(rc: RiggedConfiguration) -> int:
    """cc(nu, J): `configuration_charge_form` plus the rigging sum.  May be
    negative in the unrestricted setting."""
    return configuration_charge_form(rc.config) + sum(map(sum, rc.riggings))


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

def rc_to_json(rc: RiggedConfiguration, L: MultiplicityArray) -> list[dict]:
    """Array over all n-1 levels of {partition, riggings, vacancies}; the
    vacancies are for inspection, recomputed (never trusted) on input."""
    out = []
    frame = configuration_frame(rc.config, L)
    for a in range(1, L.n):
        level = rc.config.level(a)
        blocks = frame[a - 1] if level else ()
        out.append({
            "partition": list(level),
            "riggings": list(rc.riggings[a - 1]) if level else [],
            "vacancies": [p for (_, m, _, p) in blocks for _ in range(m)],
        })
    return out


def _json_integers(level: Mapping, key: str) -> tuple[int, ...]:
    values = level[key]
    if type(values) is not list:
        raise ValueError(f"{key} must be a list of integers, got {values!r}")
    return tuple(json_int(v, f"each entry of {key}") for v in values)


def rc_from_json(data: Sequence[Mapping], L: MultiplicityArray) -> RiggedConfiguration:
    """Parse and re-validate an externally supplied rigged configuration.

    `data` is a JSON array of level objects whose parts and riggings are
    JSON integers; anything else raises ValueError."""
    if type(data) is not list:
        raise ValueError(f"expected a JSON array of levels, got {data!r}")
    if len(data) != L.n - 1:
        raise InvalidRiggedConfigurationError(
            f"expected {L.n - 1} levels, got {len(data)}")
    for a, level in enumerate(data, 1):
        if type(level) is not dict or {"partition", "riggings"} - level.keys():
            raise ValueError(f"level {a} must be an object with a partition "
                             f"and riggings, got {level!r}")
    config = Configuration(tuple(_json_integers(level, "partition")
                                 for level in data))
    rc = RiggedConfiguration(config,
                             tuple(_json_integers(level, "riggings")
                                   for level in data))
    validate(rc, L)
    return rc
