"""The sweep and window ply functions in `geom` against the plain scans
they replaced (kept in `depth_reference`): exact equality on seeded fuzz
and on degenerate arrangements."""
import itertools
import math
import random
from fractions import Fraction as F

import pytest

import depth_reference as ref

from plycover.geom import (EPS_COVER, Point, UnitDisk, UnitRect,
                           disk_depth_within, ply_disks, ply_rects,
                           rect_depth_within)


def _rect(rng, step):
    # coarse coordinates make shared and abutting sides common
    return UnitRect(F(rng.randint(0, 12), step), F(rng.randint(0, 12), step),
                    F(rng.randint(1, 2 * step), step))


def _rect_sets(seed):
    rng = random.Random(seed)
    step = rng.choice((1, 2, 4))
    rects = [_rect(rng, step) for _ in range(rng.randint(0, 14))]
    if rects and rng.random() < 0.3:
        rects += rng.sample(rects, rng.randint(1, len(rects)))
    regions = rects[:3] + [_rect(rng, step)]
    return rects, regions


def _assert_rects_agree(rects, regions):
    assert ply_rects(rects) == ref.ply_rects(rects)
    for region in regions:
        assert (rect_depth_within(rects, region)
                == ref.rect_depth_within(rects, region))


# the gap steps of the near-tangent columns: one inside the fixed disk
# tolerance, one far outside it
GAPS = (EPS_COVER, 1e-6)


def _near_copy(disk, gap, angle):
    return UnitDisk(Point(disk.center.x + gap * math.cos(angle),
                          disk.center.y + gap * math.sin(angle)))


def _disk_sets(seed):
    rng = random.Random(seed)
    if seed % 2:
        def coord():
            return rng.randint(0, 12) / 4
    else:
        def coord():
            return rng.uniform(0.0, 3.5)
    disks = [UnitDisk(Point(coord(), coord()))
             for _ in range(rng.randint(0, 14))]
    if disks and rng.random() < 0.3:
        disks += rng.sample(disks, rng.randint(1, len(disks)))
    regions = disks[:3] + [UnitDisk(Point(coord(), coord()))]
    return disks, regions


def _assert_disks_agree(disks, regions):
    assert ply_disks(disks) == ref.ply_disks(disks)
    for region in regions:
        assert (disk_depth_within(disks, region)
                == ref.disk_depth_within(disks, region))


class TestRects:
    def test_seeded_fuzz(self):
        for seed in range(300):
            _assert_rects_agree(*_rect_sets(seed))

    def test_shared_and_abutting_sides(self):
        rects = [UnitRect(F(0), F(0)), UnitRect(F(1), F(0)),
                 UnitRect(F(0), F(1)), UnitRect(F(1), F(1)),
                 UnitRect(F(1, 2), F(1, 2), F(1, 2)),
                 UnitRect(F(0), F(0), F(2))]
        for k in range(1, len(rects) + 1):
            for sub in itertools.combinations(rects, k):
                _assert_rects_agree(list(sub), rects)

    def test_duplicates(self):
        r = UnitRect(F(1, 3), F(2, 7), F(5, 4))
        for k in range(1, 5):
            _assert_rects_agree([r] * k, [r, UnitRect(F(2), F(2))])
        assert ply_rects([r] * 4) == 4

    def test_empty(self):
        _assert_rects_agree([], [UnitRect(F(0), F(0))])


class TestDisks:
    @pytest.mark.parametrize("gap", GAPS)
    def test_seeded_fuzz(self, gap):
        # every third set also holds a copy of its first disk moved by gap
        for seed in range(200):
            disks, regions = _disk_sets(seed)
            if disks and seed % 3 == 0:
                disks.append(_near_copy(disks[0], gap, 0.1 * seed))
            _assert_disks_agree(disks, regions)

    @pytest.mark.parametrize("gap", GAPS)
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_center_distance_one_plus_k_eps(self, gap, k):
        d = 1.0 + k * gap
        for angle in (0.0, math.pi / 2, math.pi / 4, 0.3):
            ox, oy = 0.25, -1.5
            a = UnitDisk(Point(ox, oy))
            b = UnitDisk(Point(ox + d * math.cos(angle),
                               oy + d * math.sin(angle)))
            mid = UnitDisk(Point(ox + d / 2 * math.cos(angle),
                                 oy + d / 2 * math.sin(angle)))
            disks = [a, b, mid]
            for sub in itertools.combinations(disks, 2):
                _assert_disks_agree(list(sub), disks)
            _assert_disks_agree(disks, disks)

    @pytest.mark.parametrize("gap", GAPS)
    def test_duplicates(self, gap):
        # exact copies, and copies moved by gap, all count in the ply
        a, b = UnitDisk(Point(0.0, 0.0)), UnitDisk(Point(0.7, 0.1))
        near = _near_copy(a, gap, 0.3)
        for k in range(1, 4):
            _assert_disks_agree([a] * k + [b], [a, b])
            _assert_disks_agree([a] * k + [near, b], [a, near, b])
        assert ply_disks([a] * 3 + [b]) == 4
        assert ply_disks([a] * 3 + [near, b]) == 5

    def test_empty(self):
        _assert_disks_agree([], [UnitDisk(Point(0.0, 0.0))])
