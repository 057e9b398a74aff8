"""Shared grid iteration helpers for the exhaustive desk-scale suites."""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import ceil


def weight_compositions(total: int, parts: int):
    """All compositions of `total` into exactly `parts` nonnegative parts."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in weight_compositions(total - first, parts - 1):
            yield (first,) + rest


def width_tuples(max_total: int):
    """All nonempty ordered tuples of positive widths with sum <= max_total."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int):
        if prefix:
            out.append(tuple(prefix))
        for s in range(1, remaining + 1):
            rec(prefix + [s], remaining - s)

    rec([], max_total)
    return out


def instance_grid(max_boxes: int, ranks=(2, 3)):
    """(widths, n) pairs for every ordered row shape list and rank."""
    for n in ranks:
        for widths in width_tuples(max_boxes):
            yield widths, n


def dominant_partitions(total: int, max_parts: int | None = None):
    """All partitions of `total` (as tuples), optionally bounded in length."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int, cap: int):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if max_parts is not None and len(prefix) == max_parts:
            return
        for p in range(min(cap, remaining), 0, -1):
            rec(prefix + [p], remaining - p, p)

    rec([], total, total)
    return out


def box_points(spec, bound):
    """(point, value) of every point of the box that bounds the lattice walk
    of a fermionic spec at `bound`, restrictions applied, in lexicographic
    order; value is the quadratic and linear part, without the constant.
    The other coordinates add at least their real minima -b_j^2 / 2A_jj,
    and past its vertex a coordinate's own part grows, so each side of the
    box ends at the first n past the vertex where the bound fails."""
    r = range(spec.dim)
    mins = [-spec.linear[i] ** 2 / (2 * spec.quadratic[i][i]) for i in r]
    sides = []
    for i in r:
        a, b = spec.quadratic[i][i] / 2, spec.linear[i]
        rest = sum(mins) - mins[i]
        n = max(0, ceil(-b / (2 * a)))
        while a * n * n + b * n + rest <= bound:
            n += 1
        sides.append(range(n))
    out = []
    for p in product(*sides):
        value = sum((spec.quadratic[i][j] * p[i] * p[j] for i in r for j in r),
                    Fraction(0)) / 2 + sum(spec.linear[i] * p[i] for i in r)
        if value <= bound and all(c.satisfied(p) for c in spec.congruences) \
                and all(f(p) >= 0 for f in spec.inequalities):
            out.append((p, value))
    return out
