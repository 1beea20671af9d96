import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depth_reference import grid_depth_disks

from plycover.geom import (Point, UnitDisk, UnitRect, WeightedInterval,
                           disks_disjoint, membership_at, ply_disks,
                           ply_rects, rect_depth_within, rects_cover,
                           verify_cover)
from plycover.stripdag import SideEvent


def sq(left, bottom):
    return UnitRect(F(left), F(bottom))


class TestMembership:
    def test_empty(self):
        assert membership_at(Point(F(0), F(0)), []) == 0

    def test_interior(self):
        assert membership_at(Point(F(1, 2), F(1, 2)), [sq(0, 0)]) == 1

    def test_shared_edge_of_closed_squares_counts_twice(self):
        both = [sq(0, 0), sq(1, 0)]
        assert membership_at(Point(F(1), F(1, 2)), both) == 2

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            membership_at(Point(0.0, 0.0), [sq(0, 0), UnitDisk(Point(0.0, 0.0))])

    def test_weighted_sum_for_intervals(self):
        ivs = [WeightedInterval(F(0), F(2), F(3)), WeightedInterval(F(1), F(4), F(5))]
        assert membership_at(F(3, 2), ivs, weighted=True) == 8
        assert membership_at(F(3, 2), ivs) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_monotone_in_object_set(self, data):
        coords = st.integers(-8, 24)
        small = data.draw(st.lists(st.tuples(coords, coords), max_size=5))
        extra = data.draw(st.lists(st.tuples(coords, coords), max_size=5))
        a = [UnitRect(F(x, 8), F(y, 8)) for x, y in small]
        b = a + [UnitRect(F(x, 8), F(y, 8)) for x, y in extra]
        p = Point(F(data.draw(coords), 8), F(data.draw(coords), 8))
        assert membership_at(p, a) <= membership_at(p, b)


class TestPlyRects:
    def test_empty(self):
        assert ply_rects([]) == 0

    def test_two_overlapping(self):
        assert ply_rects([sq(0, 0), UnitRect(F(1, 2), F(0))]) == 2

    def test_abutting_closed_squares_have_ply_two(self):
        assert ply_rects([sq(0, 0), sq(1, 0)]) == 2

    def test_matches_corner_sampler_on_random_squares(self):
        # independent route: all rectangle corners plus the corners and
        # midpoints of every pairwise intersection region
        for seed in range(12):
            rng = random.Random(seed)
            rects = [UnitRect(F(rng.randint(0, 16), 8), F(rng.randint(0, 16), 8))
                     for _ in range(8)]
            assert ply_rects(rects) == _sampler_depth(rects)

    def test_never_below_sampled_membership(self):
        rng = random.Random(5)
        rects = [UnitRect(F(rng.randint(0, 24), 8), F(rng.randint(0, 24), 8))
                 for _ in range(10)]
        reported = ply_rects(rects)
        for _ in range(200):
            p = Point(F(rng.randint(-8, 40), 8), F(rng.randint(-8, 40), 8))
            assert membership_at(p, rects) <= reported

    def test_depth_within_region(self):
        rects = [sq(0, 0), UnitRect(F(1, 2), F(0)), sq(5, 5)]
        assert rect_depth_within(rects, rects[0]) == 2
        assert rect_depth_within(rects, rects[2]) == 1

    def test_staggered_squares_reach_ply_three_off_points(self):
        # input points see membership at most 2, yet the ply is 3
        rects = [sq(0, 0), UnitRect(F(2, 5), F(0)), UnitRect(F(4, 5), F(0))]
        points = [Point(F(1, 2), F(1, 2)), Point(F(6, 5), F(1, 2))]
        assert ply_rects(rects) == 3
        assert max(membership_at(p, rects) for p in points) == 2


def _sampler_depth(rects):
    cands = []
    for r in rects:
        for x in (r.left, r.right):
            for y in (r.bottom, r.top):
                cands.append(Point(x, y))
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            a, b = rects[i], rects[j]
            il, ir = max(a.left, b.left), min(a.right, b.right)
            ib, it = max(a.bottom, b.bottom), min(a.top, b.top)
            if il <= ir and ib <= it:
                cands.append(Point((il + ir) / 2, (ib + it) / 2))
                for x in (il, ir):
                    for y in (ib, it):
                        cands.append(Point(x, y))
    return max((membership_at(p, rects) for p in cands), default=0)


class TestPlyDisks:
    def test_single(self):
        assert ply_disks([UnitDisk(Point(0.0, 0.0))]) == 1

    def test_disjoint_pair(self):
        assert ply_disks([UnitDisk(Point(0.0, 0.0)), UnitDisk(Point(2.0, 0.0))]) == 1

    def test_three_near_coincident(self):
        disks = [UnitDisk(Point(0.0, 0.0)), UnitDisk(Point(0.1, 0.05)),
                 UnitDisk(Point(0.05, 0.12))]
        assert ply_disks(disks) == 3
        assert grid_depth_disks(disks) == 3

    def test_agrees_with_grid_sampler_on_lattice_instances(self):
        # quarter-unit lattice keeps every arrangement cell wider than the
        # 0.01 grid pitch, so sampling attains the exact depth
        for seed in range(10):
            rng = random.Random(seed)
            m = rng.randint(1, 10)
            disks = [UnitDisk(Point(rng.randint(0, 12) / 4, rng.randint(0, 12) / 4))
                     for _ in range(m)]
            assert ply_disks(disks) == grid_depth_disks(disks)


class TestRectsCover:
    def test_matches_contains_on_shared_and_abutting_sides(self):
        # coarse grids: sides shared and abutting in x and y, duplicate
        # rects, points on corners and edges, points given as ints, floats
        # and Fractions
        rng = random.Random(0xC0F)
        for seed in range(300):
            step = rng.choice((1, 2, 4))

            def c():
                return F(rng.randint(-2, 10), step)
            rects = [UnitRect(c(), c(), F(rng.randint(1, 2 * step), step))
                     for _ in range(rng.randint(0, 12))]
            if rects and seed % 3 == 0:
                rects += rng.sample(rects, rng.randint(1, len(rects)))
            points = [Point(c(), c()) for _ in range(rng.randint(0, 20))]
            for r in rects[:3]:
                points += [Point(r.left, r.bottom), Point(r.right, r.top),
                           Point(r.right, r.bottom + F(1, 2))]
            points += [Point(int(p.x), float(p.y)) for p in points[:2]]
            want = [any(r.contains(p) for r in rects) for p in points]
            assert rects_cover(points, rects) == want, seed

    def test_abutting_squares(self):
        rects = [sq(0, 0), sq(1, 0), sq(0, 1)]
        points = [Point(F(1), F(1, 2)), Point(F(2), F(2)), Point(F(1), F(2)),
                  Point(F(-1, 100), F(0)), Point(F(2), F(1))]
        assert rects_cover(points, rects) == [True, False, True, False, True]


class TestDisjoint:
    def test_far(self):
        assert disks_disjoint(UnitDisk(Point(0.0, 0.0)), UnitDisk(Point(1.5, 0.0)))

    def test_overlapping(self):
        assert not disks_disjoint(UnitDisk(Point(0.0, 0.0)), UnitDisk(Point(0.9, 0.0)))

    def test_touching_closed_disks_are_not_disjoint(self):
        assert not disks_disjoint(UnitDisk(Point(0.0, 0.0)), UnitDisk(Point(1.0, 0.0)))


class TestVerifyCover:
    def test_empty(self):
        assert verify_cover([], [])

    def test_hit(self):
        assert verify_cover([Point(F(1, 2), F(1, 2))], [sq(0, 0)])

    def test_miss(self):
        assert not verify_cover([Point(F(5), F(5))], [sq(0, 0)])


class TestSideEvent:
    keys = st.tuples(st.integers(-4, 4), st.integers(0, 2), st.integers(-4, 4),
                     st.integers(0, 2))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(keys, min_size=2, max_size=6))
    def test_strict_total_order(self, raw):
        ks = [SideEvent(F(x), c, F(y), o) for x, c, y, o in raw]
        for a in ks:
            for b in ks:
                assert (a < b) + (b < a) + (a == b) == 1
                for c in ks:
                    if a < b and b < c:
                        assert a < c

    def test_side_ordering_at_equal_x(self):
        left = SideEvent(F(1), 0, F(0), 2)
        point = SideEvent(F(1), 1, F(-9), 1)
        right = SideEvent(F(1), 2, F(-9), 0)
        assert left < point < right


def test_invariants_validation():
    with pytest.raises(ValueError):
        UnitRect(F(0), F(0), F(0))
    with pytest.raises(ValueError):
        WeightedInterval(F(2), F(1))
    with pytest.raises(ValueError):
        WeightedInterval(F(0), F(1), F(-1))
