import re
from itertools import chain

import pytest

from gridutil import instance_grid, weight_compositions, width_tuples
from qrigged.bijection import (_extract_letter, _insert_letter, _move_factor,
                               path_to_rc, rc_to_path)
from qrigged.combinat import Composition
from qrigged.crystals import Path, enumerate_paths, intrinsic_energy
from qrigged import bijection as bijection_module, rc as rc_module
from qrigged.cli import EXIT_OK, main
from qrigged.rc import (Configuration, InvalidRiggedConfigurationError,
                        MultiplicityArray, RiggedConfiguration, cocharge,
                        configuration_frame, configuration_sizes,
                        configuration_walk, enumerate_rc, level_blocks,
                        lower_bound, rc_from_json, rc_to_json, vacancy)


class TestExamples:
    def test_single_letter_one(self):
        rc = path_to_rc(Path([(1,)], 2))
        assert rc.config.nu == ()
        L = MultiplicityArray.from_rows((1,), 2)
        assert len(enumerate_rc(L, Composition((1, 0)))) == 1

    def test_empty_rc_maps_back(self):
        L = MultiplicityArray.from_rows((1,), 2)
        rc = enumerate_rc(L, Composition((1, 0)))[0]
        assert str(rc_to_path(rc, L, (1,))) == "1"

    def test_two_box_instance_bijective(self):
        paths = enumerate_paths((1, 1), 2, Composition((1, 1)))
        images = {path_to_rc(p) for p in paths}
        L = MultiplicityArray.from_rows((1, 1), 2)
        assert images == set(enumerate_rc(L, Composition((1, 1))))

    def test_statistics_single_factor(self):
        path = Path([(1, 1, 2)], 2)
        assert intrinsic_energy(path) == cocharge(path_to_rc(path)) == 0

    def test_statistic_multiset_two_boxes(self):
        paths = enumerate_paths((1, 1), 2, Composition((1, 1)))
        pairs = [(intrinsic_energy(p), cocharge(path_to_rc(p))) for p in paths]
        assert sorted(e for e, _ in pairs) == [0, 1]
        assert sorted(c for _, c in pairs) == [0, 1]
        assert all(e == c for e, c in pairs)


class TestRoundTrips:
    GRID_BOXES = 4  # the acceptance suite runs the full 6-box grid

    def test_grid(self):
        for n in (2, 3):
            for widths in width_tuples(self.GRID_BOXES):
                L = MultiplicityArray.from_rows(widths, n)
                for w in weight_compositions(sum(widths), n):
                    weight = Composition(w)
                    paths = enumerate_paths(widths, n, weight)
                    rcs = set(enumerate_rc(L, weight))
                    seen = set()
                    for p in paths:
                        rc = path_to_rc(p)
                        # weight preservation
                        assert configuration_sizes(
                            L, Composition(p.content())) == \
                            tuple(map(sum, rc.config.nu))
                        assert rc not in seen, "path_to_rc must be injective"
                        seen.add(rc)
                        assert rc_to_path(rc, L, widths) == p
                    assert seen == rcs
                    for rc in rcs:
                        assert path_to_rc(rc_to_path(rc, L, widths)) == rc

    def test_statistics_pointwise(self):
        for n in (2, 3):
            for widths in width_tuples(4):
                for w in weight_compositions(sum(widths), n):
                    for p in enumerate_paths(widths, n, Composition(w)):
                        assert intrinsic_energy(p) == cocharge(path_to_rc(p))

    @pytest.mark.slow
    def test_rank_4_grid(self):
        # opt-in: path -> rc -> path over rank 4, <= 6 boxes, and the image
        # of each instance is exactly its enumerate_rc
        instances = objects = 0
        for widths in width_tuples(6):
            L = MultiplicityArray.from_rows(widths, 4)
            for w in weight_compositions(sum(widths), 4):
                weight = Composition(w)
                image = set()
                for p in enumerate_paths(widths, 4, weight):
                    rc = path_to_rc(p)
                    assert rc_to_path(rc, L, widths) == p
                    image.add(rc)
                    objects += 1
                rcs = enumerate_rc(L, weight)
                assert len(image) == len(rcs) and image == set(rcs)
                instances += 1
        assert (instances, objects) == (3968, 48433)

    def test_relation_constant_per_instance(self):
        # the relation is the frozen identity, not merely constant
        for n in (2, 3):
            for widths in ((1, 1), (2, 1), (1, 2), (2, 2)):
                for w in weight_compositions(sum(widths), n):
                    for p in enumerate_paths(widths, n, Composition(w)):
                        energy = intrinsic_energy(p)
                        assert cocharge(path_to_rc(p)) == energy, (p, energy)


class TestLongSingleBoxProducts:
    """Products of many single boxes: every factor move is the width-1 move
    that changes no p, and the paths of one instance share few final
    configurations."""

    @pytest.mark.parametrize("count, n, weight, paths", [
        (9, 3, (5, 3, 1), 504),
        (7, 4, (3, 2, 1, 1), 420),
    ])
    def test_round_trip_image_and_statistic(self, count, n, weight, paths):
        widths = (1,) * count
        L = MultiplicityArray.from_rows(widths, n)
        image = set()
        for p in enumerate_paths(widths, n, Composition(weight)):
            rc = path_to_rc(p)
            if rc in image:
                pytest.fail(f"{p}: image {rc} met twice")
            if rc_to_path(rc, L, widths) != p:
                pytest.fail(f"{p} -> {rc} -> {rc_to_path(rc, L, widths)}")
            if cocharge(rc) != intrinsic_energy(p):
                pytest.fail(f"{p} -> {rc}: cocharge {cocharge(rc)}, "
                            f"energy {intrinsic_energy(p)}")
            image.add(rc)
        rcs = enumerate_rc(L, Composition(weight))
        if len(set(rcs)) != len(rcs):
            pytest.fail("enumerate_rc lists an object twice")
        if image != set(rcs) or len(image) != paths:
            pytest.fail(f"{len(image)} images, {len(rcs)} objects; missing "
                        f"{sorted(map(str, set(rcs) - image))[:1]}, extra "
                        f"{sorted(map(str, image - set(rcs)))[:1]}")


def test_empty_factor_fills_no_column():
    # a width-0 row adds nothing to Q_i, so an empty factor changes no
    # vacancy number and the image is that of the path without it
    sums = rc_module.column_sums((0,), 3)
    if sums != (0, 0, 0, 0):
        pytest.fail(f"column_sums((0,), 3) = {sums}")
    path = Path(((1, 2), (), (1,)), 2)
    rc, without = path_to_rc(path), path_to_rc(Path(((1, 2), (1,)), 2))
    if rc != without or str(rc) != "1:-1":
        pytest.fail(f"{path} -> {rc}, 12(x)1 -> {without}")
    if (cocharge(rc), intrinsic_energy(path)) != (0, 0):
        pytest.fail(f"cocharge {cocharge(rc)}, energy "
                    f"{intrinsic_energy(path)}; both must be 0")


def _tuples_and_ints(value) -> bool:
    if type(value) is tuple:
        return all(map(_tuples_and_ints, value))
    return type(value) is int


class TestCachedFrame:
    """`configuration_frame` caches what depends only on the configuration;
    `validate` must still range-check every rigging when the frame is read
    from the cache."""

    def test_cached_frame_still_rejects_out_of_window_riggings(self):
        configs = rejected = 0
        for widths, n in instance_grid(6):
            L = MultiplicityArray.from_rows(widths, n)
            for w in weight_compositions(sum(widths), n):
                valid = {}
                for path in enumerate_paths(widths, n, Composition(w)):
                    rc = path_to_rc(path)
                    valid.setdefault(rc.config, (rc, path))
                for config, (rc, path) in valid.items():
                    assert rc_to_path(rc, L, widths) == path  # caches the frame
                    hits = configuration_frame.cache_info().hits
                    frame = configuration_frame(config, L)
                    assert configuration_frame.cache_info().hits == hits + 1
                    assert _tuples_and_ints(frame), frame
                    # the blocks of each stored level and nothing else
                    assert frame == tuple(
                        level_blocks(config, L, w[a], a)
                        for a in range(1, len(config.nu) + 1)), frame
                    configs += 1
                    for a, level in enumerate(config.nu, 1):
                        for row, width in enumerate(level):
                            # p from `vacancy`, not the frame's blocks;
                            # lo from the all-singular bound, which no
                            # valid rigging undercuts
                            for x in (vacancy(config, L, a, width) + 1,
                                      lower_bound(config, L, a, row) - 1):
                                self.check_rejected(rc, L, widths, a, row, x)
                                rejected += 1
        assert (configs, rejected) == (3740, 17632)

    def test_one_frame_read_per_inverse_map(self):
        # the frame is read once per inverse map, inside `validate`
        reads = 0
        for widths, n in instance_grid(4):
            L = MultiplicityArray.from_rows(widths, n)
            for w in weight_compositions(sum(widths), n):
                for path in enumerate_paths(widths, n, Composition(w)):
                    rc = path_to_rc(path)
                    before = configuration_frame.cache_info()
                    back = rc_to_path(rc, L, widths)
                    after = configuration_frame.cache_info()
                    if back != path or (after.hits + after.misses
                                        != before.hits + before.misses + 1):
                        pytest.fail(f"{path}: {before} -> {after}")
                    reads += 1
        assert reads == 560

    @staticmethod
    def check_rejected(rc, L, widths, a, row, x):
        payload = rc_to_json(rc, L)
        payload[a - 1]["riggings"][row] = x
        with pytest.raises(InvalidRiggedConfigurationError):
            rc_from_json(payload, L)
        riggings = [list(level) for level in rc.riggings]
        riggings[a - 1][row] = x
        bad = RiggedConfiguration(rc.config, tuple(map(tuple, riggings)))
        with pytest.raises(InvalidRiggedConfigurationError):
            rc_to_path(bad, L, widths)


def test_check_costs_the_same_at_every_rank(monkeypatch, capsys):
    # 1x3,1x3 with weight 3,3 fills level 1 only, so both directions and
    # `validate` open the same rigging windows and vacancy rows at every rank;
    # `path_to_rc` reads its vacancy rows through its own import
    calls = []
    for name in ("rigging_windows", "vacancy_numbers"):
        def counted(*args, _name=name, _original=getattr(rc_module, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(rc_module, name, counted)
    monkeypatch.setattr(bijection_module, "vacancy_numbers",
                        rc_module.vacancy_numbers)
    counts = []
    for n in (16, 200, 1000):
        configuration_walk.cache_clear()
        configuration_frame.cache_clear()
        # keyed on (widths, nu), not the rank: a later rank would hit it
        bijection_module._final_vacancies.cache_clear()
        calls.clear()
        code = main(["bijection", "--shapes", "1x3,1x3", "--n", str(n),
                     "--weight", "3,3", "--check"])
        if code != EXIT_OK or '"paths":4' not in capsys.readouterr().out:
            pytest.fail(f"n = {n}: exit {code}")
        counts.append((calls.count("rigging_windows"),
                       calls.count("vacancy_numbers")))
    if counts[1:] != counts[:-1]:
        pytest.fail("(rigging_windows, vacancy_numbers) calls at n = 16, 200, "
                    f"1000: {counts}")


class TestValidation:
    def test_corrupted_rigging_rejected(self):
        L = MultiplicityArray.from_rows((1, 1), 2)
        good = enumerate_rc(L, Composition((1, 1)))[0]
        bad = RiggedConfiguration(good.config, ((5,),))
        with pytest.raises(InvalidRiggedConfigurationError):
            rc_to_path(bad, L, (1, 1))

    def test_width_mismatch_rejected(self):
        L = MultiplicityArray.from_rows((2, 1), 2)
        rc = enumerate_rc(L, Composition((2, 1)))[0]
        with pytest.raises(ValueError):
            rc_to_path(rc, L, (1, 1, 1))

    @pytest.mark.parametrize("rows, rigging, message", [
        ((1, 1), -3, "nonempty configuration left after extracting all factors"),
        ((2,), 0, "extracted letters [2, 1] do not form a row"),
    ])
    def test_extraction_guards_without_validate(self, monkeypatch, rows,
                                                rigging, message):
        # validate refuses both objects; with it switched off, handing over
        # the unchecked starting lists, the guards of the extraction loop
        # must still refuse them
        L = MultiplicityArray.from_rows(rows, 2)
        rc = RiggedConfiguration(Configuration(((1,),)), ((rigging,),))
        with pytest.raises(InvalidRiggedConfigurationError, match="window"):
            rc_to_path(rc, L, rows)
        monkeypatch.setattr("qrigged.bijection.validate", lambda rc, L: [
            [[w, r - vacancy(rc.config, L, a, w)] for w, r in rc.strings(a)]
            for a in range(1, len(rc.config.nu) + 1)])
        with pytest.raises(InvalidRiggedConfigurationError,
                           match=re.escape(message)):
            rc_to_path(rc, L, rows)


class TestStringValues:
    """Each string is [width, d] with d its rigging minus the vacancy number
    at its width, at level 1 minus the consumed boxes as well.  After every
    single-box step and every row move, in both directions, d must equal
    the rigging minus `vacancy` recomputed from scratch, where a string that
    keeps its width keeps its rigging and a string that moves or is new is
    singular (its rigging is the vacancy number)."""

    GRID_BOXES = 5

    @staticmethod
    def check(levels, before, rows, boxes, n):
        """`before` maps id(string) to (string, width, rigging) before the
        step; return the same map after it."""
        # rows: the complete factor rows; the other consumed boxes are loose
        L = MultiplicityArray.from_rows(
            list(rows) + [1] * (boxes - sum(rows)), n)
        config = Configuration(tuple(
            tuple(sorted((w for w, _ in lv), reverse=True)) for lv in levels))
        after = {}
        for a, level in enumerate(levels, 1):
            for s in level:
                w, d = s
                p = vacancy(config, L, a, w)
                _, width, rigging = before.get(id(s), (s, None, p))
                if width != w:
                    rigging = p
                if d != rigging - p + (boxes if a == 1 else 0):
                    pytest.fail(f"{levels}, rows {rows}, {boxes} boxes: "
                                f"level {a} string {s}, rigging {rigging}, "
                                f"vacancy {p}")
                after[id(s)] = (s, w, rigging)
        return after

    def paths(self):
        # rank 4 has a level with strings both below and above it
        for widths, n in chain(instance_grid(self.GRID_BOXES),
                               instance_grid(4, ranks=(4,))):
            for w in weight_compositions(sum(widths), n):
                for path in enumerate_paths(widths, n, Composition(w)):
                    yield widths, n, path

    def test_insert_steps(self):
        paths = steps = 0
        for widths, n, path in self.paths():
            paths += 1
            levels = [[] for _ in range(n - 1)]
            strings = {}
            rows = []
            boxes = 0
            for s, f in zip(widths, path.factors):
                for x in reversed(f):
                    _insert_letter(levels, x, boxes)
                    boxes += 1
                    strings = self.check(levels, strings, rows, boxes, n)
                    steps += 1
                _move_factor(levels, s, 1)
                rows.append(s)
                strings = self.check(levels, strings, rows, boxes, n)
        assert (paths, steps) == (2556 + 1225, 12064 + 4672)

    def test_extract_steps(self):
        paths = steps = 0
        for widths, n, path in self.paths():
            paths += 1
            rc = path_to_rc(path)
            rows = list(widths)
            boxes = sum(widths)
            # the starting state of rc_to_path: d from the frame's p
            frame = configuration_frame(
                rc.config, MultiplicityArray.from_rows(widths, n))
            levels = []
            strings = {}
            for a, blocks in enumerate(frame, 1):
                p = [p for (_, m, _, p) in blocks for _ in range(m)]
                level = [[w, x - pw + (boxes if a == 1 else 0)]
                         for (w, x), pw in zip(rc.strings(a), p)]
                strings.update((id(s), (s, w, x))
                               for s, (w, x) in zip(level, rc.strings(a)))
                levels.append(level)
            strings = self.check(levels, strings, rows, boxes, n)
            for s in reversed(widths):
                _move_factor(levels, s, -1)
                rows.pop()
                strings = self.check(levels, strings, rows, boxes, n)
                for _ in range(s):
                    _extract_letter(levels, boxes)
                    boxes -= 1
                    strings = self.check(levels, strings, rows, boxes, n)
                    steps += 1
            assert not any(levels)
        assert (paths, steps) == (2556 + 1225, 12064 + 4672)
