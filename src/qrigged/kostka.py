"""Unrestricted Kostka polynomials, computed two independent ways.

The fermionic side sums q^cocharge over unrestricted rigged configurations
and checks the sum against a closed form that lists no rigging (q-binomial
pieces per block, each level's states merged by carried depth).  The path
side sums q^energy over all crystal paths of the weight by the transfer
matrix of `crystals.energy_sum`, which lists no path.  The two agree exactly
under the frozen global normalization, the identity (sign +1, shift 0).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product as iproduct

from .combinat import Composition, Partition
from .crystals import (energy_sum, enumerate_paths, intrinsic_energy,
                       is_highest_weight)
from .qalg import IntPolynomial, q_binomial
from .rc import (MultiplicityArray, cocharge, configuration_charge_form,
                 configuration_sizes, configuration_walk, enumerate_rc,
                 rigging_windows)

# Frozen global normalization between path energy and cocharge:
# cocharge = sign * energy + shift, pinned to the identity.  It is the one
# owner of the relation: the `kostka` and `bijection --check` outputs and
# their schemas carry it, and `--check` refuses any path off it.
GLOBAL_NORMALIZATION = {"sign": 1, "shift": 0}


@dataclass(frozen=True)
class KostkaInstance:
    """A multiplicity array with a weight whose total matches its boxes, of
    at most n parts: `configuration_sizes` checks both."""

    L: MultiplicityArray
    weight: Composition

    def __post_init__(self):
        configuration_sizes(self.L, self.weight)

    @property
    def n(self) -> int:
        return self.L.n


def fermionic_kostka(inst: KostkaInstance) -> IntPolynomial:
    """Sum of q^cocharge over the unrestricted rigged configurations.

    Asserts agreement with the closed-form evaluation (q-binomial block
    products) on every call; the two code paths share only the cached
    configuration walk and the window computation (`level_blocks`,
    `rigging_windows`), not the rigging loop.
    """
    by_enumeration = IntPolynomial(Counter(map(cocharge, enumerate_rc(inst.L, inst.weight))))
    closed = fermionic_kostka_closed_form(inst)
    if by_enumeration != closed:
        raise AssertionError(
            "fermionic evaluation paths disagree: "
            f"enumeration {by_enumeration} vs closed form {closed}")
    return by_enumeration


def fermionic_kostka_closed_form(inst: KostkaInstance) -> IntPolynomial:
    """Configuration-level sum with q-binomial window factors.

    For each configuration, riggings are never listed.  A level's states
    are keyed by the (width, depth) pairs they pass up, and the polynomials
    of equal keys are added, so the work follows the distinct depths, not
    the rigging combinations.  A block of m rows of width w and window
    [lo, p] whose least rigging is x < carry passes depth carry - x and
    contributes q^(m x) [p - x + m - 1 choose m - 1] (the other m - 1
    riggings lie in [x, p]); every least rigging from carry on passes depth
    0, and together they are the m-tuples in [carry, p] (lo <= carry, as
    the floor is <= 0): q^(m carry) [p - carry + m choose m].  On the last
    level no depth is passed, and the block is the m-tuples in [lo, p].
    A binomial equal to 1 costs a shift, not a product.  The configurations
    are those of `configuration_walk`, read from its cache when
    `enumerate_rc` has just walked the same instance.
    """
    total = IntPolynomial.zero()
    for config, blocks_by_level in configuration_walk(inst.L, inst.weight):
        # states: (width, depth) pairs of the previous level -> polynomial
        states = {(): IntPolynomial.monomial(configuration_charge_form(config))}
        for a, blocks in enumerate(blocks_by_level, start=1):
            # the block minimum only matters while a further level exists
            needs_split = bool(config.level(a + 1))
            new_states: dict[tuple[tuple[int, int], ...], IntPolynomial] = {}
            for below, poly in states.items():
                windows = rigging_windows(blocks, below)
                if any(lo > p for (_, _, lo, p, _) in windows):
                    continue
                # pieces q^e [k + j choose j], each with the pair passed up
                per_block = [
                    [(m * x, p - x, m - 1, (w, carry - x))
                     for x in range(lo, min(carry, p + 1))]
                    + [(m * carry, p - carry, m, (w, 0))] * (carry <= p)
                    if needs_split else [(m * lo, p - lo, m, (w, 0))]
                    for (w, m, lo, p, carry) in windows]
                for combo in iproduct(*per_block):
                    gf = poly.shift(sum(piece[0] for piece in combo))
                    for _, k, j, _ in combo:
                        if k and j:  # else the binomial is 1
                            gf = gf * q_binomial(k + j, j)
                    key = tuple(piece[3] for piece in combo)
                    new_states[key] = new_states[key] + gf if key in new_states else gf
            states = new_states
        total = sum(states.values(), total)
    return total


def path_kostka(inst: KostkaInstance) -> IntPolynomial:
    """Sum of q^energy over all paths of the instance's weight."""
    return IntPolynomial(energy_sum(inst.L.row_widths(), inst.n, inst.weight))


def restricted_kostka(inst: KostkaInstance) -> IntPolynomial:
    """Sum of q^energy over highest-weight paths only.

    Matches the Kostka-Foulkes polynomial through the cocharge
    normalization: restricted_kostka(L=rows mu, weight lam) equals
    q^{n(mu)} K_{lam,mu}(1/q).
    """
    widths = inst.L.row_widths()
    if not inst.weight.is_dominant():
        raise ValueError("restricted enumeration needs a dominant weight")
    paths = enumerate_paths(widths, inst.n, inst.weight)
    return IntPolynomial(Counter(map(intrinsic_energy, filter(is_highest_weight, paths))))


def kostka_foulkes_via_paths(inst: KostkaInstance) -> IntPolynomial:
    """Charge-normalized classical Kostka polynomial from the path side."""
    mu = Partition(inst.L.row_widths())
    restricted = restricted_kostka(inst)
    return restricted.reverse().shift(mu.n_statistic())

