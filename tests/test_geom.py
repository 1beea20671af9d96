import copy
import math
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import depth_reference
from conftest import depth_at, nudged
from depth_reference import grid_depth_disks

from plycover.geom import (LEFT, POINT, RIGHT, Point, UnitDisk, UnitRect,
                           WeightedInterval, disks_cover, disks_disjoint,
                           disks_share_point, ply_disks, ply_rects,
                           rects_cover, sweep_events)
from plycover.intervals import chosen_loads


def sq(left, bottom):
    return UnitRect(F(left), F(bottom))


class TestMembership:
    """Closed point membership as the package counts it: the cover sweeps
    of rects and disks, and the per-point loads of chosen intervals."""

    def test_empty(self):
        p = Point(F(0), F(0))
        assert rects_cover([p], []) == [False]
        assert disks_cover([Point(0.0, 0.0)], []) == [False]
        assert chosen_loads([F(0)], [])[:2] == ([0], [0])

    def test_interior(self):
        assert rects_cover([Point(F(1, 2), F(1, 2))], [sq(0, 0)]) == [True]
        assert disks_cover([Point(0.1, 0.2)], [UnitDisk(Point(0.0, 0.0))]) \
            == [True]

    def test_shared_edge_of_closed_squares_counts_twice(self):
        both = [sq(0, 0), sq(1, 0)]
        edge = Point(F(1), F(1, 2))
        assert rects_cover([edge], both[:1]) == rects_cover([edge], both[1:]) \
            == [True]
        assert depth_at(edge, both) == 2

    def test_weighted_sum_for_intervals(self):
        ivs = [WeightedInterval(F(0), F(2), F(3)), WeightedInterval(F(1), F(4), F(5))]
        counts, loads, w_scale = chosen_loads([F(3, 2), F(4), F(9, 2)], ivs)
        assert counts == [2, 1, 0]
        assert [F(w, w_scale) for w in loads] == [8, 5, 0]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_monotone_in_object_set(self, data):
        coords = st.integers(-8, 24)
        small = data.draw(st.lists(st.tuples(coords, coords), max_size=5))
        extra = data.draw(st.lists(st.tuples(coords, coords), max_size=5))
        a = [UnitRect(F(x, 8), F(y, 8)) for x, y in small]
        b = a + [UnitRect(F(x, 8), F(y, 8)) for x, y in extra]
        p = Point(F(data.draw(coords), 8), F(data.draw(coords), 8))
        assert rects_cover([p], a) == [depth_at(p, a) > 0]
        assert rects_cover([p], a)[0] <= rects_cover([p], b)[0]
        assert depth_at(p, a) <= ply_rects(a) <= ply_rects(b)


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
            assert depth_at(p, rects) <= reported

    def test_depth_within_region(self):
        # the ply with one more rectangle q is the larger of the old ply
        # and the depth inside q, which the exact oracle prices by
        rects = [sq(0, 0), UnitRect(F(1, 2), F(0)), sq(5, 5)]
        assert depth_reference.rect_depth_within(rects, rects[0]) == 2
        assert depth_reference.rect_depth_within(rects, rects[2]) == 1
        for q in rects + [UnitRect(F(1), F(1, 2)), sq(4, 4)]:
            assert ply_rects(rects + [q]) == max(
                ply_rects(rects), depth_reference.rect_depth_within(
                    rects + [q], q))

    def test_staggered_squares_reach_ply_three_off_points(self):
        # input points see membership at most 2, yet the ply is 3
        rects = [sq(0, 0), UnitRect(F(2, 5), F(0)), UnitRect(F(4, 5), F(0))]
        points = [Point(F(1, 2), F(1, 2)), Point(F(6, 5), F(1, 2))]
        assert ply_rects(rects) == 3
        assert max(depth_at(p, rects) for p in points) == 2


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
    return max((depth_at(p, rects) for p in cands), default=0)


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
            # closed boxes are deepest at some (left, bottom) corner pair
            assert ply_rects(rects) == max(
                (depth_at(Point(a.left, b.bottom), rects)
                 for a in rects for b in rects), default=0), seed

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


def _share(*centres) -> bool:
    """`disks_share_point` of the disks at these centres, asserted the
    same in every argument order."""
    disks = [UnitDisk(Point(x, y)) for x, y in centres]
    got = {disks_share_point(*[disks[i] for i in order])
           for order in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0),
                         (2, 0, 1), (2, 1, 0))}
    assert len(got) == 1, centres
    return got.pop()


class TestSharePoint:
    def test_right_triangle_with_hypotenuse_one(self):
        # the hypotenuse is the least circle's diameter; one ulp up makes
        # the triangle acute and its circumradius just over 1/2, one ulp
        # down makes it obtuse
        assert _share((0.0, 0.0), (1.0, 0.0), (0.5, 0.5))
        assert not _share((0.0, 0.0), (1.0, 0.0), (0.5, nudged(0.5, 1)))
        assert _share((0.0, 0.0), (1.0, 0.0), (0.5, nudged(0.5, -1)))

    def test_collinear_centres(self):
        assert _share((0.0, 0.0), (0.25, 0.0), (1.0, 0.0))
        assert _share((0.35, -0.35), (0.0, 0.0), (-0.35, 0.35))
        assert not _share((0.375, -0.375), (0.0, 0.0), (-0.375, 0.375))
        assert not _share((0.0, 0.0), (0.25, 0.0), (nudged(1.0, 1), 0.0))

    def test_coincident_centres(self):
        assert _share((0.3, 0.7), (0.3, 0.7), (0.3, 0.7))
        assert _share((0.0, 0.0), (0.0, 0.0), (0.0, 1.0))
        assert not _share((0.0, 0.0), (0.0, 0.0), (0.0, nudged(1.0, 1)))

    def test_equilateral(self):
        # circumradius side / sqrt(3): 0.566 at side 0.98 and 0.497 at
        # side 0.86, while every two disks meet at both sides
        for side, want in ((0.98, False), (0.86, True)):
            assert _share((0.0, 0.0), (side, 0.0),
                          (side / 2, side * math.sqrt(3) / 2)) == want

    def test_matches_reference_ply(self):
        # three disks share a point iff their exact ply is 3
        rng = random.Random(3)
        both = set()
        for seed in range(300):
            scale = (4, 8, None)[seed % 3]
            if scale:
                cs = [(rng.randint(0, scale) / scale,
                       rng.randint(0, scale) / scale) for _ in range(3)]
            else:
                cs = [(rng.uniform(0, 1), rng.uniform(0, 1))
                      for _ in range(3)]
            want = depth_reference.ply_disks(
                [UnitDisk(Point(x, y)) for x, y in cs]) == 3
            assert _share(*cs) == want, cs
            both.add(want)
        assert both == {True, False}


def _share_triples(rng):
    """Centre triples for the float filter of `disks_share_point`: random,
    near its thresholds, degenerate, far apart and tiny."""
    def jitter(cs):  # each coordinate moved by -4 to 4 ulps
        return [(nudged(x, rng.randint(-4, 4)), nudged(y, rng.randint(-4, 4)))
                for x, y in cs]
    for _ in range(400):
        yield [(rng.uniform(0, 1.2), rng.uniform(0, 1.2)) for _ in range(3)]
        # equilateral of side sqrt(3)/2, whose circumradius is 1/2
        ox, oy = rng.randint(-8, 8) / 4, rng.randint(-8, 8) / 4
        side = math.sqrt(3) / 2
        yield jitter([(ox, oy), (ox + side, oy), (ox + side / 2, oy + 0.75)])
        # a right angle on a circle of diameter 1
        a = rng.uniform(0, 2 * math.pi)
        yield jitter([(ox, oy), (ox + 1.0, oy),
                      (ox + 0.5 + 0.5 * math.cos(a), oy + 0.5 * math.sin(a))])
        # collinear centres, the outer two about 1 apart, and coincident
        t, far = rng.uniform(0, 1), nudged(1.0, rng.randint(-4, 4))
        ux, uy = far * math.cos(a), far * math.sin(a)
        yield [(ox, oy), (ox + t * ux, oy + t * uy), (ox + ux, oy + uy)]
        yield [(ox, oy), (ox, oy), rng.choice(((ox, oy), (ox, oy + far)))]
        # far apart: differences or their squares overflow
        big = rng.choice((1e16, 1e300, 1.7e308))
        yield [(rng.choice((-big, 0.0, big)) + rng.uniform(0, 1),
                rng.choice((-big, 0.0, big)) + rng.uniform(0, 1))
               for _ in range(3)]
        # tiny: the squared sides underflow
        yield [(1e-200 * rng.uniform(-1, 1), 1e-200 * rng.uniform(-1, 1))
               for _ in range(3)]


class TestShareFilter:
    def test_matches_the_int_test(self):
        # the filtered test against the int test it filters, in every
        # argument order, on 2,800 seeded triples
        rng = random.Random(0x5EED)
        answers = set()
        for cs in _share_triples(rng):
            want = depth_reference.disks_share_point(
                *[UnitDisk(Point(x, y)) for x, y in cs])
            assert _share(*cs) == want, cs
            answers.add(want)
        assert answers == {True, False}


class TestSweepEvents:
    coords = st.integers(-4, 4)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(coords, st.integers(0, 3), coords), max_size=5),
           st.lists(st.tuples(coords, coords), max_size=5))
    def test_one_event_per_side_and_point_in_sweep_order(self, spans, points):
        spans = [(F(a), F(a + w), F(y)) for a, w, y in spans]
        points = [(F(x), F(y)) for x, y in points]
        events = sweep_events(spans, points)
        want = ([(left, LEFT, y, i) for i, (left, _, y) in enumerate(spans)]
                + [(right, RIGHT, y, i)
                   for i, (_, right, y) in enumerate(spans)]
                + [(x, POINT, y, j) for j, (x, y) in enumerate(points)])
        assert sorted(events) == sorted(want)
        assert all(type(e) is tuple for e in events)
        # at equal x lefts, then points, then rights; then y, then index
        rank = {LEFT: 0, POINT: 1, RIGHT: 2}
        keys = [(x, rank[cls], y, i) for x, cls, y, i in events]
        assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_lefts_points_rights_at_equal_x_then_y_then_index(self):
        # at x = 1 a right side low, points between, left sides high
        spans = [(F(0), F(1), F(-9)), (F(1), F(2), F(5)), (F(1), F(3), F(5))]
        points = [(F(1), F(0)), (F(1), F(-1)), (F(1), F(-1))]
        assert [(cls, i) for _, cls, _, i in sweep_events(spans, points)] == [
            (LEFT, 0), (LEFT, 1), (LEFT, 2), (POINT, 1), (POINT, 2),
            (POINT, 0), (RIGHT, 0), (RIGHT, 1), (RIGHT, 2)]
        assert sweep_events([]) == []


def test_invariants_validation():
    with pytest.raises(ValueError):
        UnitRect(F(0), F(0), F(0))
    with pytest.raises(ValueError):
        WeightedInterval(F(2), F(1))
    with pytest.raises(ValueError):
        WeightedInterval(F(0), F(1), F(-1))


class TestValueTypes:
    """The four value types compare, hash, print, copy and refuse as the
    frozen records they have always been."""

    VALUES = [Point(1.5, -2.0), UnitDisk(Point(0.5, 0.0)),
              UnitRect(F(1, 2), 0), WeightedInterval(0, F(3, 2), 2)]
    FIELDS = [("x", "y"), ("center",), ("left", "bottom", "width"),
              ("lo", "hi", "weight")]

    def test_equality(self):
        assert Point(1, 2) == Point(F(1), F(2)) == Point(x=1, y=2)
        assert Point(1, 2) != Point(2, 1)
        assert not Point(1, 2) != Point(1, 2)
        assert Point(1, 2) != (1, 2) and (1, 2) != Point(1, 2)
        assert UnitDisk(Point(0.0, 0.0)) == UnitDisk(Point(0.0, 0.0))
        assert UnitDisk(Point(0.0, 0.0)) != UnitDisk(Point(0.0, 1.0))
        assert UnitDisk(Point(0.0, 0.0)) != Point(0.0, 0.0)
        assert UnitRect(0, 0) == UnitRect(F(0), F(0), F(1))
        assert UnitRect(0, 0, 2) != UnitRect(0, 0)
        assert UnitRect(0, 1, 1) != WeightedInterval(0, 1, 1)
        assert UnitRect(0, 1, 1) != (F(0), F(1), F(1))
        assert WeightedInterval(0, 1) == WeightedInterval(F(0), F(1), 1)
        assert WeightedInterval(0, 1, 2) != WeightedInterval(0, 1)
        with pytest.raises(TypeError):
            Point(0, 0) < Point(1, 1)

    def test_hash_is_the_field_tuple_hash(self):
        for value, fields in zip(self.VALUES, self.FIELDS):
            assert hash(value) == hash(tuple(getattr(value, f)
                                             for f in fields))
        assert len({Point(1, 2), Point(F(1), F(2)), Point(2, 1)}) == 2

    def test_repr(self):
        assert [repr(v) for v in self.VALUES] == [
            "Point(x=1.5, y=-2.0)",
            "UnitDisk(center=Point(x=0.5, y=0.0))",
            "UnitRect(left=Fraction(1, 2), bottom=Fraction(0, 1), "
            "width=Fraction(1, 1))",
            "WeightedInterval(lo=Fraction(0, 1), hi=Fraction(3, 2), "
            "weight=Fraction(2, 1))"]

    def test_assignment_is_refused(self):
        for value, fields in zip(self.VALUES, self.FIELDS):
            for f in fields + ("other",):
                with pytest.raises(AttributeError):
                    setattr(value, f, 0)
            with pytest.raises(AttributeError):
                delattr(value, fields[0])
        assert repr(self.VALUES[0]) == "Point(x=1.5, y=-2.0)"

    def test_copy_and_pickle(self):
        for value in self.VALUES:
            copies = [copy.copy(value), copy.deepcopy(value)]
            copies += [pickle.loads(pickle.dumps(value, protocol))
                       for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for other in copies:
                assert other == value and type(other) is type(value)
                assert repr(other) == repr(value)

    def test_fields_become_fractions(self):
        r = UnitRect(0.5, 2)
        assert (r.left, r.bottom, r.width) == (F(1, 2), F(2), F(1))
        s = WeightedInterval("1/3", 1)
        assert (s.lo, s.hi, s.weight) == (F(1, 3), F(1), F(1))
        for v in (r.left, r.bottom, r.width, s.lo, s.hi, s.weight):
            assert type(v) is F
        assert UnitRect(left=0, bottom=0, width=2).right == 2

    def test_refusals(self):
        for args in ((0, 0, 0), (0, 0, -1)):
            with pytest.raises(ValueError,
                               match="^rectangle width must be positive$"):
                UnitRect(*args)
        for args in ((1, 1), (2, 1)):
            with pytest.raises(ValueError, match="^interval needs lo < hi$"):
                WeightedInterval(*args)
        with pytest.raises(ValueError,
                           match="^interval weight must be nonnegative$"):
            WeightedInterval(0, 1, -1)
