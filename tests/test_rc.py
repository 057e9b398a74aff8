import hashlib
import json
import tracemalloc
from itertools import product

import pytest

from gridutil import (dominant_partitions, instance_grid, weight_compositions,
                      width_tuples)
from oracles import kostka_number
from qrigged.combinat import Composition, Partition, partitions_of
from qrigged.cli import EXIT_USAGE, main
from qrigged.bijection import path_to_rc
from qrigged.crystals import Path, enumerate_paths
from qrigged import rc
from qrigged.kostka import KostkaInstance
from qrigged.rc import (Configuration, InvalidRiggedConfigurationError,
                        MultiplicityArray, RiggedConfiguration, cocharge,
                        configuration_frame, configuration_sizes,
                        configuration_walk, enumerate_rc, level_blocks,
                        lower_bound, rc_from_json, rc_to_json, validate,
                        vacancy, vacancy_numbers)


def _rc_grid(max_boxes: int):
    """(L, weight) over row shapes with <= max_boxes boxes, ranks 2-3."""
    for total in range(1, max_boxes + 1):
        for mu in dominant_partitions(total):
            for n in (2, 3):
                L = MultiplicityArray.from_rows(mu, n)
                for w in weight_compositions(total, n):
                    yield L, Composition(w)


def _walk_against_full_product(instances):
    """Compare `configuration_walk` with the full product of partitions over
    the (L, weight) pairs of `instances`; return the numbers of
    configurations in the full product, kept by the walk and carrying an
    object, and the problems found.

    The product is built from the sizes of `configuration_sizes`.  A
    dropped configuration must have a block of some level a whose floor
    -min(width, w_{a+1}) exceeds its vacancy number, a kept one must have
    none, and its blocks must be `level_blocks` recomputed.  The walk
    depends on the row shapes only through L, so each (L, weight) is
    checked once and counted for every ordering of its rows.
    """
    problems: list = []
    checked: dict = {}
    counts = [0, 0, 0]
    for L, w in instances:
        if (L, w) not in checked:
            checked[L, w] = _check_walk(L, w, problems)
        counts = [t + c for t, c in zip(counts, checked[L, w])]
    return tuple(counts), problems


def _row_instances(max_boxes: int, ranks):
    """(L, weight) for every ordered row-shape list and weight."""
    for widths, n in instance_grid(max_boxes, ranks=ranks):
        L = MultiplicityArray.from_rows(widths, n)
        for w in weight_compositions(sum(widths), n):
            yield L, w


def _rectangle_instances(max_boxes: int, ranks):
    """(L, weight) for every multiplicity array with a factor taller than a
    row and at most `max_boxes` boxes, and every weight."""
    for n in ranks:
        arrays = [((), 0)]  # (counts, boxes)
        for a in range(1, n):
            for i in range(1, max_boxes // a + 1):
                arrays = [(counts + (((a, i), c),), boxes + c * a * i)
                          for counts, boxes in arrays
                          for c in range((max_boxes - boxes) // (a * i) + 1)]
        for counts, _ in arrays:
            if any(a > 1 and c for (a, _), c in counts):
                L = MultiplicityArray(counts, n)
                for w in weight_compositions(L.total_boxes(), n):
                    yield L, w


def _check_walk(L: MultiplicityArray, w: tuple[int, ...], problems: list):
    weight = Composition(w)
    walk = configuration_walk(L, weight)
    walked = [config.nu for config, _ in walk]
    carried = {rc.config.nu for rc in enumerate_rc(L, weight)}
    if not carried <= set(walked):
        problems.append(("dropped a configuration with an object",
                         L, w, sorted(carried - set(walked))[:1]))
    for config, blocks in walk:
        if blocks != tuple(level_blocks(config, L, w[a], a)
                           for a in range(1, len(config.nu) + 1)):
            problems.append(("blocks differ from level_blocks", L, w, config))
        if any(floor > p for level in blocks for (_, _, floor, p) in level):
            problems.append(("kept a block with floor > p", L, w, config))
    sizes = configuration_sizes(L, weight)
    full = 0
    remaining = iter(walked)
    upcoming = next(remaining, None)
    for nu in (product(*map(partitions_of, sizes))
               if sizes is not None else ()):
        full += 1
        if Configuration(nu).nu == upcoming:
            upcoming = next(remaining, None)
            continue
        config = Configuration(nu)
        if not any(-min(width, w[a]) > vacancy(config, L, a, width)
                   for a, level in enumerate(nu, 1) for width in set(level)):
            problems.append(("dropped a configuration with floor <= p in "
                             "every block", L, w, nu))
    if upcoming is not None:
        problems.append(("not a subsequence of the full product",
                         L, w, upcoming))
    return full, len(walked), len(carried)


def _vacancy_by_definition(config: Configuration, L: MultiplicityArray,
                           a: int, i: int) -> int:
    """p_i^(a) = sum_j min(i, j) L_j^(a) - 2 Q_i(nu^(a)) + Q_i(nu^(a-1))
    + Q_i(nu^(a+1)), Q_i(lambda) = sum_j min(i, lambda_j), nu^(0) and
    nu^(n) empty."""
    def q(b):
        return sum(min(i, part) for part in config.level(b)) if b < L.n else 0
    factor = sum(min(i, j) * c for (b, j), c in L.counts if b == a)
    return factor - 2 * q(a) + q(a - 1) + q(a + 1)


# (L, boxes, least w_1): the full product of the 14-box array reaches
# 5.2 million configurations over all weights, 1,785 with w_1 >= 7
RECTANGLE_ARRAYS = (
    (MultiplicityArray({(1, 2): 1, (2, 3): 2}, 4), 14, 7),
    (MultiplicityArray({(2, 1): 1}, 3), 2, 0),
    (MultiplicityArray({(1, 1): 1, (2, 1): 1}, 3), 3, 0),
    (MultiplicityArray({}, 3), 0, 0),
)


class TestVacancy:
    def test_empty_configuration_pure_factor_term(self):
        L = MultiplicityArray({(1, 2): 1, (2, 3): 2}, 4)
        empty = Configuration(((), (), ()))
        factor_widths = {1: (2,), 2: (3, 3), 3: ()}
        for a in range(1, 4):
            for i in (1, 2, 3):
                assert vacancy(empty, L, a, i) == \
                    sum(min(i, j) for j in factor_widths[a])

    @staticmethod
    def _check_full_product(L, weight, m):
        checked = 0
        sizes = configuration_sizes(L, Composition(weight))
        if sizes is None:
            return 0
        for nu in product(*(partitions_of(s) for s in sizes)):
            config = Configuration(nu)
            for a in range(1, L.n):
                row = vacancy_numbers(L.factor_widths(a), config.level(a - 1),
                                      config.level(a), config.level(a + 1), m)
                expected = [_vacancy_by_definition(config, L, a, i)
                            for i in range(m + 1)]
                if row != expected:
                    pytest.fail(f"{L}, {nu}, level {a}: {row} != {expected}")
                for i in range(1, m + 1):
                    if vacancy(config, L, a, i) != expected[i]:
                        pytest.fail(f"{L}, {nu}, p_{i}^({a}) != {expected[i]}")
            checked += 1
        return checked

    def test_rows_match_definition_on_full_product(self):
        # every configuration, not only the walked ones, and columns past
        # the longest row
        checked = 0
        for L, weight in _rc_grid(4):
            checked += self._check_full_product(L, weight.parts,
                                                L.total_boxes() + 1)
        assert checked == 672

    def test_rows_match_definition_on_rectangles(self):
        checked = 0
        for L, total, least in RECTANGLE_ARRAYS:
            for w in weight_compositions(total, L.n):
                if w[0] >= least:
                    checked += self._check_full_product(L, w, total + 1)
        assert checked == 1812

    def test_level_boxes_are_summed_once_per_array(self):
        # configuration_sizes and configuration_frame read the sums the
        # array holds
        L = MultiplicityArray({(2, 3): 1, (1, 2): 1}, 4)
        # up to the tallest factor's height, constant from there on
        assert L.level_boxes() == (0, 5, 8)
        assert L.level_boxes() is L.level_boxes()

    def test_array_is_sized_by_its_tallest_factor(self):
        # factor widths and level boxes stop at the tallest factor's height;
        # one list n long would be 800 kB here.  pytest.fail so that it
        # also runs under python -O.
        n = 10 ** 5
        tracemalloc.start()
        try:
            L = MultiplicityArray.from_rows((3, 3), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        got = (L.factor_widths(1), L.factor_widths(2), L.factor_widths(n - 1))
        if got != ((3, 3), (), ()) or peak > n:
            pytest.fail(f"factor widths {got}, peak {peak} bytes at rank {n}")

    def test_sizes_stop_at_the_last_filled_level(self):
        # 1x3,1x3 with weight 3,3 fills level 1 alone; one tuple n - 1
        # long would be 8 MB here
        n = 10 ** 6
        L = MultiplicityArray.from_rows((3, 3), n)
        tracemalloc.start()
        try:
            sizes = configuration_sizes(L, Composition((3, 3)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if sizes != (3,) or peak > n:
            pytest.fail(f"sizes {sizes}, peak {peak} bytes at rank {n}")

    def test_frame_reads_the_stored_levels_and_one_more(self):
        # lambda_1 and lambda_2 come from |nu^(1)| and the level boxes; no
        # later part of the weight is built
        n = 10 ** 6
        L = MultiplicityArray.from_rows((3, 3), n)
        config = Configuration(((2, 1),))
        configuration_frame.cache_clear()
        tracemalloc.start()
        try:
            frame = configuration_frame(config, L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if frame != (((2, 1, -2, -2), (1, 1, -1, -2)),) or peak > n:
            pytest.fail(f"frame {frame}, peak {peak} bytes at rank {n}")

    def test_negative_weight_refusal_names_the_computed_parts(self, capsys):
        # three boxes at level 1 on two one-box rows force lambda_1 = -1;
        # the message names lambda_1 and lambda_2, not all n parts
        n = 10 ** 5
        payload = json.dumps(
            [{"partition": [1, 1, 1], "riggings": [0, 0, 0]}]
            + [{"partition": [], "riggings": []}] * (n - 2))
        code = main(["bijection", "--n", str(n), "--shapes", "1x1,1x1",
                     "--rc", payload])
        out, err = capsys.readouterr()
        if (code, out, err) != (EXIT_USAGE, "", "error: invalid rigged "
                                "configuration: configuration sizes force a "
                                "negative weight: (-1, 3)\n"):
            pytest.fail(f"exit {code}, stdout {out[:200]!r}, stderr of "
                        f"{len(err)} characters {err[:200]!r}")

    def test_two_boxes(self):
        L = MultiplicityArray({(1, 1): 2}, 2)
        assert vacancy(Configuration(((1,),)), L, 1, 1) == 0

    def test_negative_in_unrestricted_setting(self):
        L = MultiplicityArray({(1, 2): 1}, 2)
        assert vacancy(Configuration(((1,),)), L, 1, 1) == -1

    def test_index_errors(self):
        L = MultiplicityArray({(1, 1): 2}, 2)
        with pytest.raises(IndexError):
            vacancy(Configuration(((1,),)), L, 2, 1)
        with pytest.raises(IndexError):
            vacancy(Configuration(((1,),)), L, 1, 0)


class TestLowerBound:
    def test_two_box_window(self):
        L = MultiplicityArray({(1, 1): 2}, 2)
        assert lower_bound(Configuration(((1,),)), L, 1, 0) == -1

    def test_classical_floor_when_next_weight_part_vanishes(self):
        # lambda_{a+1} = 0 and no carried depth: the floor is 0
        L = MultiplicityArray({(1, 1): 4}, 3)
        config = Configuration(((2,), (2,)))  # weight (2, 0, 2)
        assert configuration_sizes(L, Composition((2, 0, 2))) == \
            tuple(map(sum, config.nu))
        assert lower_bound(config, L, 1, 0) == 0

    def test_unrestricted_floor_tracks_next_weight_part(self):
        L = MultiplicityArray({(1, 1): 3}, 2)
        config = Configuration(((1,),))   # weight (2, 1) -> floor -1
        assert configuration_sizes(L, Composition((2, 1))) == \
            tuple(map(sum, config.nu))
        assert lower_bound(config, L, 1, 0) == -1
        L3 = MultiplicityArray({(1, 1): 2}, 3)
        config3 = Configuration(((1,), ()))  # weight (1, 1, 0)
        assert configuration_sizes(L3, Composition((1, 1, 0))) == \
            tuple(map(sum, config3.nu))
        assert lower_bound(config3, L3, 1, 0) == -1

    def test_empty_window_case(self):
        # bound above vacancy: the configuration contributes nothing
        L = MultiplicityArray({(1, 2): 1}, 2)
        config = Configuration(((1, 1),))  # would need weight (0, 2)
        assert configuration_sizes(L, Composition((0, 2))) == \
            tuple(map(sum, config.nu))
        assert lower_bound(config, L, 1, 0) == -1
        assert vacancy(config, L, 1, 1) == -3  # window [-1, -3] is empty
        out = enumerate_rc(L, Composition((0, 2)))
        assert len(out) == 1  # only the single-row configuration survives
        assert all(rc.config != config for rc in out)

    def test_row_index_checked(self):
        L = MultiplicityArray({(1, 1): 2}, 2)
        with pytest.raises(IndexError):
            lower_bound(Configuration(((1,),)), L, 1, 1)

    def test_bound_unreached_when_it_empties_the_next_window(self):
        # a level-1 rigging at -1 carries depth 1 up, which lifts the
        # level-2 floor to 0 above its vacancy -1
        L = MultiplicityArray.from_rows((1, 1, 1, 1), 3)
        config = Configuration(((1, 1, 1), (1, 1)))
        assert configuration_sizes(L, Composition((1, 1, 2))) == \
            tuple(map(sum, config.nu))
        assert lower_bound(config, L, 1, 0) == -1
        out = [rc for rc in enumerate_rc(L, Composition((1, 1, 2)))
               if rc.config == config]
        assert [rc.riggings for rc in out] == [((0, 0, 0), (-1, -1))]

    def test_bound_against_enumeration_on_grid(self):
        # every row of every configuration that carries an object, over
        # ranks 2-3 with <= 5 boxes: the bound is never undercut, and it is
        # attained whenever nothing sits on the next level
        rows = unreached = 0
        for L, weight in _rc_grid(5):
            least: dict = {}
            for rc in enumerate_rc(L, weight):
                for a, level in enumerate(rc.riggings, start=1):
                    for row, x in enumerate(level):
                        key = (rc.config, a, row)
                        least[key] = min(least.get(key, x), x)
            for (config, a, row), x in least.items():
                bound = lower_bound(config, L, a, row)
                assert bound <= x, (L, weight, config, a, row)
                if not config.level(a + 1):
                    assert bound == x, (L, weight, config, a, row)
                rows += 1
                unreached += bound < x
        assert (rows, unreached) == (1081, 21)


class TestEnumeration:
    def test_empty_instance(self):
        L = MultiplicityArray({}, 3)
        out = enumerate_rc(L, Composition(()))
        assert len(out) == 1
        assert out[0].config.nu == ()
        assert cocharge(out[0]) == 0

    def test_two_box_instance(self):
        L = MultiplicityArray({(1, 1): 2}, 2)
        out = enumerate_rc(L, Composition((1, 1)))
        assert len(out) == 2

    def test_single_row_instance(self):
        L = MultiplicityArray({(1, 2): 1}, 2)
        out = enumerate_rc(L, Composition((1, 1)))
        assert len(out) == 1

    # written without assert so that it still checks under python -O; the
    # path side keeps its own check, in the same order and words
    @pytest.mark.parametrize("weight, message", [
        ("1,0", "weight total 1 != boxes 2"),
        ("1,0,1", "weight has more parts than the rank"),
        ("1,1,1", "weight total 3 != boxes 2"),
    ], ids=["total-mismatch", "too-many-parts", "both"])
    @pytest.mark.parametrize("caller", ["enumerate_rc", "configuration_walk",
                                        "KostkaInstance", "rc-list",
                                        "enumerate_paths", "paths"])
    def test_instance_check(self, caller, weight, message, capsys):
        # two boxes on two rows of width 1, at rank 2
        if caller in ("rc-list", "paths"):
            code = main([caller, "--shapes", "1x1,1x1", "--n", "2",
                         "--weight", weight])
            outcome = (code, capsys.readouterr().err)
        else:
            call = {"enumerate_rc": enumerate_rc,
                    "configuration_walk": configuration_walk,
                    "KostkaInstance": KostkaInstance,
                    "enumerate_paths": lambda L, w: enumerate_paths(
                        L.row_widths(), L.n, w)}[caller]
            try:
                outcome = call(MultiplicityArray.from_rows((1, 1), 2),
                               Composition.parse(weight))
            except ValueError as exc:
                outcome = (EXIT_USAGE, f"error: {exc}\n")
        if outcome != (EXIT_USAGE, f"error: {message}\n"):
            pytest.fail(f"{caller} on weight {weight}: {outcome!r}")

    def test_counts_match_paths(self):
        for n in (2, 3):
            for widths in width_tuples(4):
                L = MultiplicityArray.from_rows(widths, n)
                for w in weight_compositions(sum(widths), n):
                    weight = Composition(w)
                    assert len(enumerate_rc(L, weight)) == \
                        len(enumerate_paths(widths, n, weight))

    def test_classical_restriction_reproduces_kostka(self):
        # keeping only nonnegative riggings yields the classical count
        for lam_size in range(1, 6):
            from gridutil import dominant_partitions
            for lam in dominant_partitions(lam_size, max_parts=3):
                for mu in dominant_partitions(lam_size):
                    n = max(2, len(lam))
                    if len(lam) > n:
                        continue
                    L = MultiplicityArray.from_rows(mu, n)
                    weight = Composition(lam + (0,) * (n - len(lam)))
                    classical = [rc for rc in enumerate_rc(L, weight)
                                 if all(r >= 0 for lv in rc.riggings for r in lv)]
                    assert len(classical) == \
                        kostka_number(Partition(lam), Composition(mu))

    def test_emitted_objects_equal_checked_construction(self):
        # enumerate_rc skips the constructor's checks; on the acceptance grid
        # every object must equal the checked, re-sorted one (no assert, so
        # that it still checks under python -O)
        objects = 0
        for widths, n in instance_grid(6):
            L = MultiplicityArray.from_rows(widths, n)
            for w in weight_compositions(sum(widths), n):
                for rc in enumerate_rc(L, Composition(w)):
                    checked = RiggedConfiguration(rc.config, rc.riggings)
                    if rc != checked or hash(rc) != hash(checked):
                        pytest.fail(f"{rc} differs from {checked} for {L}, {w}")
                    objects += 1
        if objects != 11830:
            pytest.fail(f"grid changed: {objects} objects")

    def test_listing_order_is_pinned(self):
        # the digest of every object's text, in the order enumerate_rc lists
        # them over the acceptance grid: a faster listing may not reorder
        digest = hashlib.sha256()
        for widths, n in instance_grid(6):
            L = MultiplicityArray.from_rows(widths, n)
            for w in weight_compositions(sum(widths), n):
                for rc in enumerate_rc(L, Composition(w)):
                    digest.update(f"{rc}\n".encode())
        if digest.hexdigest() != ("68d71268b23ba75930c37a61072888d7"
                                  "a813fa66abd826e9d577de151d9f858b"):
            pytest.fail(f"listing order changed: {digest.hexdigest()}")


class TestConfigurationWalk:
    # written without assert so that it still checks under python -O
    # the rectangle grid has 2,702 instances, 269 of them with no
    # configuration at all
    @pytest.mark.parametrize("instances, boxes, ranks, counts", [
        (_row_instances, 6, (2, 3), (23647, 4104, 3740)),
        (_row_instances, 6, (4,), (304096, 16743, 13854)),
        (_rectangle_instances, 6, (3, 4), (71394, 5162, 3576)),
        pytest.param(_row_instances, 7, (4,), (2013664, 74671, 57579),
                     marks=pytest.mark.slow),
    ], ids=["acceptance_grid", "rank_4", "rectangles", "rank_4_7_boxes"])
    def test_walk_keeps_every_configuration_with_an_object(
            self, instances, boxes, ranks, counts):
        found, problems = _walk_against_full_product(instances(boxes, ranks))
        if problems:
            pytest.fail(f"{len(problems)} walk problems, first: {problems[:3]}")
        if found != counts:
            pytest.fail(f"grid changed: (full, kept, with an object) = {found}")

    def test_blocks_are_built_for_kept_configurations_only(self, monkeypatch):
        # a candidate short of a need is never pushed, and the blocks come
        # from the frame of each kept configuration, one level_blocks per
        # stored level
        calls = []

        def counted(config, L, lam_next, a, _original=rc.level_blocks):
            calls.append(a)
            return _original(config, L, lam_next, a)

        monkeypatch.setattr(rc, "level_blocks", counted)
        kept = levels = 0
        for L, w in _row_instances(6, (2, 3)):
            configuration_walk.cache_clear()
            configuration_frame.cache_clear()
            walk = configuration_walk(L, Composition(w))
            kept += len(walk)
            levels += sum(len(config.nu) for config, _ in walk)
        if (len(calls), levels, kept) != (6970, 6970, 4104):
            pytest.fail(f"(level_blocks calls, kept levels, kept) = "
                        f"{(len(calls), levels, kept)}")

    def test_walks_only_the_levels_the_weight_fills(self, monkeypatch):
        # 1x3,1x3 with weight 3,3 has |nu^(a)| = 0 for a >= 2, so the walk
        # costs the same at every rank, and the objects hold the one level
        calls = []

        def counted(config, L, lam_next, a, _original=rc.level_blocks):
            calls.append(a)
            return _original(config, L, lam_next, a)

        monkeypatch.setattr(rc, "level_blocks", counted)
        counts = []
        for n in (16, 200, 1000):
            configuration_walk.cache_clear()
            calls.clear()
            L = MultiplicityArray.from_rows((3, 3), n)
            objects = enumerate_rc(L, Composition((3, 3)))
            counts.append((len(calls), max(calls)))
            if len(objects) != 4 or any(
                    (len(x.config.nu), len(x.riggings)) != (1, 1)
                    for x in objects):
                pytest.fail(f"n = {n}: {len(objects)} objects, levels "
                            f"{[(len(x.config.nu), len(x.riggings)) for x in objects]}")
            for x in objects:
                validate(x, L)
        if counts[1:] != counts[:-1] or counts[0][1] > 1:
            pytest.fail("level_blocks (calls, largest level) at n = 16, 200, "
                        f"1000: {counts}")


class TestCanonicalForm:
    """A configuration stores the levels up to its last nonempty one."""

    @pytest.mark.parametrize("nu, riggings, text", [
        (((2, 1), (), (1, 1)), ((0, -1), (), (3, 3)), "2:0 1:-1 | - | 1:3 1:3"),
        (((1,), ()), ((0,),), "1:0"),
        ((), (), ""),
    ], ids=["gap", "trailing", "empty"])
    def test_str_names_the_stored_levels(self, nu, riggings, text):
        # width:rigging per string in canonical order, "-" for an empty
        # level below a filled one
        got = str(RiggedConfiguration(Configuration(nu), riggings))
        if got != text:
            pytest.fail(f"{nu}, {riggings}: {got!r} != {text!r}")

    def test_trailing_empty_levels_are_dropped(self):
        short = Configuration(((1,),))
        for nu in (((1,), ()), ((1,), (), ())):
            long = Configuration(nu)
            if (long.nu, long, hash(long)) != (((1,),), short, hash(short)):
                pytest.fail(f"{nu} stored as {long.nu}")
        # an empty level below a nonempty one stays: 2x1 at n = 3 with
        # weight (1, 0, 1) fills level 2 only
        L = MultiplicityArray({(2, 1): 1}, 3)
        out = enumerate_rc(L, Composition((1, 0, 1)))
        if [(x.config.nu, x.riggings) for x in out] != [(((), (1,)), ((), (-1,)))]:
            pytest.fail(f"{out}")

    def test_hand_built_object_equals_the_bijection_image(self):
        image = path_to_rc(Path.parse("13(x)2", 5))
        built = RiggedConfiguration(Configuration(((2,), (1,), (), ())),
                                    ((0,), (-1,), (), ()))
        # a level past the stored ones has no strings, as it has no rows
        if (built, hash(built), built.riggings, built.strings(4)) != (
                image, hash(image), ((0,), (-1,)), ()):
            pytest.fail(f"{built} != {image}")

    @pytest.mark.parametrize("riggings", [((0,), (5,)), ((0,), (), (5,))])
    def test_rigging_on_an_empty_trailing_level_is_refused(self, riggings):
        config = Configuration(((1,), ()))
        with pytest.raises(ValueError,
                           match=r"^one rigging per row is required$"):
            RiggedConfiguration(config, riggings)

    def test_rigging_on_an_empty_trailing_level_is_refused_by_the_cli(
            self, capsys):
        payload = ('[{"partition": [1], "riggings": [0]}, '
                   '{"partition": [], "riggings": [5]}]')
        code = main(["bijection", "--n", "3", "--shapes", "1x1,1x1",
                     "--rc", payload])
        out, err = capsys.readouterr()
        if (code, out, err) != (EXIT_USAGE, "", "error: malformed rc JSON: "
                                "one rigging per row is required\n"):
            pytest.fail(f"exit {code}, stdout {out!r}, stderr {err!r}")


class TestCocharge:
    def test_rigging_shift_linearity(self):
        L = MultiplicityArray({(1, 1): 2}, 2)
        a, b = enumerate_rc(L, Composition((1, 1)))
        # same configuration, riggings differ by one
        assert abs(cocharge(a) - cocharge(b)) == 1

    def test_block_permutation_invariance(self):
        config = Configuration(((1, 1),))
        rc1 = RiggedConfiguration(config, ((0, -1),))
        # non-canonical input ordering is normalized
        rc2 = RiggedConfiguration(config, ((-1, 0),))
        assert rc1.riggings == rc2.riggings == ((0, -1),)
        assert cocharge(rc1) == cocharge(rc2)


class TestValidationAndJson:
    def test_validator_accepts_enumerated(self):
        for n in (2, 3):
            for widths in ((1, 1), (2, 1), (2, 2)):
                L = MultiplicityArray.from_rows(widths, n)
                for w in weight_compositions(sum(widths), n):
                    for rc in enumerate_rc(L, Composition(w)):
                        validate(rc, L)

    def test_validator_rejects_window_violations(self):
        L = MultiplicityArray({(1, 1): 2}, 2)
        config = Configuration(((1,),))
        with pytest.raises(InvalidRiggedConfigurationError):
            validate(RiggedConfiguration(config, ((1,),)), L)   # above vacancy
        with pytest.raises(InvalidRiggedConfigurationError):
            validate(RiggedConfiguration(config, ((-2,),)), L)  # below bound

    def test_validator_agrees_with_enumeration_at_window_edges(self):
        # move each rigging of each enumerated object by +-1; validate must
        # accept exactly the candidates that enumeration produces.  Written
        # without assert so that it still checks under python -O.
        candidates = rejected = 0
        disagreements = []
        for L, weight in _rc_grid(5):
            objects = enumerate_rc(L, weight)
            valid = set(objects)
            for rc in objects:
                for a, level in enumerate(rc.riggings):
                    for row in range(len(level)):
                        for step in (-1, 1):
                            riggings = [list(lv) for lv in rc.riggings]
                            riggings[a][row] += step
                            moved = RiggedConfiguration(
                                rc.config, tuple(map(tuple, riggings)))
                            try:
                                validate(moved, L)
                                accepted = True
                            except InvalidRiggedConfigurationError:
                                accepted = False
                                rejected += 1
                            candidates += 1
                            if accepted != (moved in valid):
                                disagreements.append((L, weight, moved, accepted))
        if disagreements:
            pytest.fail(f"validate and enumerate_rc disagree: {disagreements[:3]}")
        if (candidates, rejected) != (5342, 3660):
            pytest.fail(f"grid changed: {candidates} candidates, {rejected} rejected")

    def test_validate_returns_the_starting_strings(self):
        # per stored level, [width, rigging - p] for each string in
        # canonical order, p from `vacancy` and not from the frame, over
        # every object of the acceptance grid; the lists are fresh on every
        # call, since `rc_to_path` changes them
        objects = 0
        for L, weight in _rc_grid(6):
            for x in enumerate_rc(L, weight):
                expected = [[[w, r - vacancy(x.config, L, a, w)]
                             for w, r in x.strings(a)]
                            for a in range(1, len(x.config.nu) + 1)]
                for string in (s for level in validate(x, L) for s in level):
                    string[1] += 1
                if validate(x, L) != expected:
                    pytest.fail(f"{L}, {weight}: {x} -> {validate(x, L)}, "
                                f"expected {expected}")
                objects += 1
        if objects != 4135:
            pytest.fail(f"grid changed: {objects} objects")

    def test_json_roundtrip_recomputes_vacancies(self):
        L = MultiplicityArray({(1, 1): 2}, 2)
        rc = enumerate_rc(L, Composition((1, 1)))[0]
        payload = rc_to_json(rc, L)
        assert payload[0]["vacancies"] == [0]
        payload[0]["vacancies"] = [999]  # tampering is ignored on input
        back = rc_from_json(payload, L)
        assert back == rc

    def test_json_rejects_invalid(self):
        L = MultiplicityArray({(1, 1): 2}, 2)
        bad = [{"partition": [1], "riggings": [7], "vacancies": [0]}]
        with pytest.raises(InvalidRiggedConfigurationError):
            rc_from_json(bad, L)

    def test_json_roundtrip_spells_out_trailing_empty_levels(self):
        # rows fill the levels below the weight's last letter and no more;
        # at rank 7 the JSON form still has six, and reads back to the
        # stored object
        L = MultiplicityArray.from_rows((2, 1), 7)
        objects = shallow = 0
        for w in weight_compositions(3, 7):
            depth = max(a for a, part in enumerate(w) if part)
            for x in enumerate_rc(L, Composition(w)):
                payload = rc_to_json(x, L)
                if (len(x.config.nu) != depth or len(payload) != 6
                        or rc_from_json(payload, L) != x):
                    pytest.fail(f"{w}: {x} -> {payload}")
                objects += 1
                shallow += depth < 6
        if (objects, shallow) != (196, 126):
            pytest.fail(f"grid changed: {objects} objects, {shallow} with "
                        "a trailing empty level")

    def test_validate_refuses_more_than_n_minus_1_levels(self):
        L = MultiplicityArray.from_rows((1, 1), 2)
        deep = RiggedConfiguration(Configuration(((1,), (1,))), ((0,), (0,)))
        with pytest.raises(InvalidRiggedConfigurationError,
                           match=r"^expected at most 1 partitions, got 2$"):
            validate(deep, L)

    def test_vacancy_untouched_by_block_sorting(self):
        L = MultiplicityArray.from_rows((1, 1, 1, 1), 2)
        config = Configuration(((1, 1),))
        assert configuration_sizes(L, Composition((2, 2))) == \
            tuple(map(sum, config.nu))
        v = vacancy(config, L, 1, 1)
        for riggings in ((v, v - 1), (v - 1, v)):
            rc = RiggedConfiguration(config, (riggings,))
            assert vacancy(rc.config, L, 1, 1) == v
