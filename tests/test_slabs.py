import math
import random
import re
from fractions import Fraction as F

import pytest

from plycover import disks as disks_mod
from plycover import rects as rects_mod
from plycover import slabs as slabs_mod
from plycover import stripdag, tricolor
from plycover.disks import dedupe_disks, disk_spans
from plycover.errors import BudgetExceeded, Infeasible
from plycover.geom import (Box, Point, UnitDisk, UnitRect, disks_disjoint,
                           ply_rects)
from plycover.instances import generate
from plycover.oracle import exact_min_ply
from plycover.rects import rect_spans
from plycover.slabs import assign_slabs, live_objects, solve_mpc
from plycover.tricolor import solve_3color

from conftest import (covers, forced_pair_disks, forced_pair_rects, nudged,
                      ply3_not_3colorable, slab_points, triangle_3colorable)


def sq(left, bottom):
    return UnitRect(F(left), F(bottom))


def _least_y(points, objects, kind):
    """The slab offset by its rule, on Fractions: the least point y or
    object bottom, 0 when there is none."""
    if kind == "rects":
        bottoms = [r.bottom for r in objects]
    else:
        bottoms = [F(d.center.y) - F(1, 2) for d in objects]
    return min([F(p.y) for p in points] + bottoms, default=F(0))


def _bounds(slab):
    """The bottom and top of a slab, as Fractions."""
    lo = F(*slab.offset) + 2 * slab.index
    return lo, lo + 2


def _offset(points, objects, kind):
    return F(*assign_slabs(points, objects, kind)[0].offset)


class TestAssignSlabs:
    def test_unit_box_is_one_slab(self):
        pts = [Point(F(1, 4), F(1, 4)), Point(F(3, 4), F(3, 4))]
        slabs = assign_slabs(pts, [sq(0, 0)], "rects")
        assert len(slabs) == 1
        assert slabs[0].point_indices == [0, 1]
        assert slabs[0].objects == [0]

    def test_far_points_make_two_slabs(self):
        pts = [Point(F(1, 2), F(1, 2)), Point(F(1, 2), F(21, 2))]
        slabs = assign_slabs(pts, [sq(0, 0), sq(0, 10)], "rects")
        assert len(slabs) == 2
        assert slabs[1].index - slabs[0].index >= 2
        assert slabs[0].objects == [0] and slabs[1].objects == [1]

    def test_rect_offset_is_the_lowest_y(self):
        pts = [Point(F(1, 2), F(5, 2)), Point(F(1, 2), F(3))]
        assert _offset(pts, [sq(0, 2), sq(0, 1)], "rects") == 1
        assert _offset(pts, [sq(0, 3)], "rects") == F(5, 2)
        assert assign_slabs([], [sq(0, 0)], "rects") == []

    def test_disk_offset_is_the_lowest_y(self):
        # the rect rule: the least point y or disk bottom, exactly
        pts = [Point(0.5, 2.5), Point(0.5, 3.0)]
        disks = [UnitDisk(Point(0.0, 2.25)), UnitDisk(Point(0.0, 2.1))]
        assert _offset(pts, disks[:1], "disks") == F(7, 4)
        assert _offset(pts, disks, "disks") == F(2.1) - F(1, 2)
        assert _offset(pts[1:], [], "disks") == 3
        assert assign_slabs([], disks, "disks") == []

    def test_every_point_in_exactly_one_slab(self):
        rng = random.Random(3)
        for seed in range(15):
            inst = generate("rects", rng.randint(1, 15), rng.randint(1, 10),
                            "uniform", seed=seed)
            slabs = assign_slabs(inst.points, inst.objects, "rects")
            assert sorted(k for s in slabs for k in s.point_indices) == list(
                range(len(inst.points)))

    def test_objects_span_at_most_two_consecutive_slabs(self):
        rng = random.Random(4)
        for seed in range(15):
            kind = "rects" if seed % 2 else "disks"
            inst = generate(kind, rng.randint(1, 15), rng.randint(1, 10),
                            "uniform", seed=seed)
            slabs = assign_slabs(inst.points, inst.objects, kind)
            where = {}
            for s in slabs:
                for o in s.objects:
                    where.setdefault(o, []).append(s.index)
            for idxs in where.values():
                assert len(idxs) <= 2
                if len(idxs) == 2:
                    assert idxs[1] - idxs[0] == 1

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            assign_slabs([], [], "intervals")

    def test_matches_scan_over_every_slab(self):
        rng = random.Random(0xA55)
        near = 0
        for seed in range(300):
            if seed % 3 == 0:
                kind = ("rects", "disks")[seed % 2]
                inst = generate(kind, rng.randint(1, 15), rng.randint(1, 12),
                                rng.choice(["uniform", "clustered",
                                            "slab-stress"]), seed=seed)
                points, objects = inst.points, inst.objects
            elif seed % 3 == 1:
                kind = "rects"
                points, objects = _mixed_rects(rng)
            else:
                kind = "disks"
                points, objects = _disks_near_boundaries(rng)
                off = _least_y(points, objects, kind)
                near += sum(abs((F(y) - off + 1) % 2 - 1) < F(1, 500)
                            for d in objects
                            for y in (d.center.y - 0.5, d.center.y + 0.5))
            slabs = assign_slabs(points, objects, kind)
            got = [(s.index, *_bounds(s), slab_points(points, s), s.objects)
                   for s in slabs]
            assert got == _assign_reference(points, objects, kind), seed
            if kind == "disks":
                # disks of slabs two apart share no point, extrema on the
                # boundaries included (the 3-color colors rely on it)
                assert all(disks_disjoint(objects[a], objects[b])
                           for s in slabs for t in slabs
                           if t.index >= s.index + 2
                           for a in s.objects for b in t.objects), seed
        assert near > 300


def _assign_reference(points, objects, kind):
    """The scan `assign_slabs` replaced, on Fractions: every object against
    every slab, attached when it reaches into the half-open slab."""
    off = _least_y(points, objects, kind)
    by_slab = {}
    for p in points:
        by_slab.setdefault(math.floor((F(p.y) - off) / 2), []).append(p)
    if kind == "rects":
        spans = [(r.bottom, r.top) for r in objects]
    else:
        spans = [(F(d.center.y) - F(1, 2), F(d.center.y) + F(1, 2))
                 for d in objects]
    out = []
    for j in sorted(by_slab):
        lo, hi = off + 2 * j, off + 2 * (j + 1)
        out.append((j, lo, hi, by_slab[j],
                    [i for i, (ylo, yhi) in enumerate(spans)
                     if yhi >= lo and ylo < hi]))
    return out


def _mixed_rects(rng):
    """Rects and points on coordinates of mixed denominators."""
    def coord(lo, hi):
        d = rng.choice((1, 2, 3, 7, 8, 12))
        return F(rng.randint(lo * d, hi * d), d)
    rects = [UnitRect(coord(0, 6), coord(-6, 8), coord(1, 2))
             for _ in range(rng.randint(1, 14))]
    points = [Point(coord(0, 8), coord(-6, 9))
              for _ in range(rng.randint(1, 10))]
    return points, rects


def _disks_near_boundaries(rng):
    """Disks whose extrema lie on a slab boundary, one ulp off it or a
    little off it, and points on boundaries too: with a point at y = 0
    below every extremum, the boundaries sit at the even ints."""
    n, m = rng.randint(1, 6), rng.randint(1, 12)
    disks = []
    for _ in range(m):
        cy = 2 * rng.randint(1, 5) + rng.choice((0.5, -0.5))
        if rng.random() < 0.5:
            cy = nudged(cy, rng.choice((-1, 0, 1)))
        else:
            cy += rng.choice((1, -1)) * rng.choice((1e-9, 1e-6, 1e-3))
        disks.append(UnitDisk(Point(rng.uniform(0, 6), cy)))
    points = [Point(0.0, 0.0)]
    for _ in range(n - 1):
        y = nudged(2.0 * rng.randint(1, 5), rng.choice((-1, 0, 1)))
        points.append(Point(rng.uniform(0, 6),
                            rng.choice((y, rng.uniform(0.1, 10.5)))))
    return points, disks


def _rows(points, objects, kind):
    """`assign_slabs` in the form of `_assign_reference`."""
    return [(s.index, *_bounds(s), slab_points(points, s), s.objects)
            for s in assign_slabs(points, objects, kind)]


def _disks_off_grid(rng):
    """A point at a random y0, the offset, and disks and points a few ulps
    off the slab boundaries y0 + 2j, at magnitudes up to 2**48: the float
    differences round, some of them onto a boundary."""
    y0 = rng.uniform(-1, 1) * rng.choice((1, 2 ** 20, 2 ** 48))

    def near(shift):
        return nudged(y0 + shift, rng.randint(-3, 3))
    disks = [UnitDisk(Point(rng.uniform(0, 4), near(
        2 * rng.randint(1, 3) + rng.choice((0.5, -0.5)))))
        for _ in range(rng.randint(1, 12))]
    points = [Point(rng.uniform(0, 4), near(2 * rng.randint(1, 3)))
              for _ in range(rng.randint(0, 8))]
    return [Point(0.0, y0)] + points, disks


class TestFloatSlabIndex:
    """Disk slabs are indexed in floats, and on the exact pairs
    (`slabs._index`) only where the float quotient lies near an integer,
    is not finite, or a coordinate is not a float."""

    @pytest.fixture
    def exact(self, monkeypatch):
        calls, index = [0], slabs_mod._index

        def spy(*args):
            calls[0] += 1
            return index(*args)
        monkeypatch.setattr(slabs_mod, "_index", spy)
        return calls

    def test_floats_index_seeded_disks(self, exact):
        # on workload-like disk instances the ints index under 1% of the
        # point ys, disk bottoms and disk tops
        rng = random.Random(0xF10)
        values = 0
        for seed in range(60):
            m = rng.randint(40, 120)
            inst = generate("disks", m, m, ("clustered", "uniform",
                                            "slab-stress")[seed % 3],
                            seed=seed)
            assign_slabs(inst.points, inst.objects, "disks")
            values += len(inst.points) + 2 * len(inst.objects)
        assert values > 10000
        assert exact[0] < 0.01 * values

    def test_ints_decide_near_boundaries(self, exact):
        rng = random.Random(0xB0D)
        for seed in range(100):
            points, objects = _disks_near_boundaries(rng)
            assert _rows(points, objects, "disks") == _assign_reference(
                points, objects, "disks"), seed
        assert exact[0] > 0

    def test_rounded_differences_match_the_reference(self, exact):
        rng = random.Random(0x1A6)
        for seed in range(200):
            points, objects = _disks_off_grid(rng)
            assert _rows(points, objects, "disks") == _assign_reference(
                points, objects, "disks"), seed
        assert exact[0] > 0

    @pytest.mark.parametrize("y", [1, F(1, 3), 10 ** 400])
    def test_non_float_coordinates_go_to_the_ints(self, exact, y):
        points = [Point(0.5, 0.25), Point(0.5, y)]
        objects = [UnitDisk(Point(0.5, 0.5)), UnitDisk(Point(0.5, y))]
        assert _rows(points, objects, "disks") == _assign_reference(
            points, objects, "disks")
        assert exact[0] == 6

    @pytest.mark.parametrize("y, error", [(math.inf, OverflowError),
                                          (math.nan, ValueError)])
    def test_non_finite_coordinates_raise_as_exact_pairs_do(self, y, error):
        with pytest.raises(error):
            assign_slabs([Point(0.5, 0.25), Point(0.5, y)],
                         [UnitDisk(Point(0.5, 0.5))], "disks")


class TestSolveMpc:
    def test_single_point_single_square(self):
        sol = solve_mpc([Point(F(1, 2), F(1, 2))], [sq(0, 0)], "rects")
        assert sol.chosen == [0]
        assert sol.objective == 1

    def test_empty_points(self):
        sol = solve_mpc([], [sq(0, 0)], "rects")
        assert sol.chosen == [] and sol.objective == 0

    def test_uncovered_point_is_infeasible(self):
        with pytest.raises(Infeasible):
            solve_mpc([Point(F(5), F(5))], [sq(0, 0)], "rects")
        # disks sharing a centre x; the message names the input point
        disks = [UnitDisk(Point(0.5, 0.7)), UnitDisk(Point(0.5, 3.1))]
        points = [Point(0.55, 0.75), Point(9.0, 3.1)]
        with pytest.raises(Infeasible, match=r"Point\(x=9.0, y=3.1\)"):
            solve_mpc(points, disks, "disks")
        # of two uncovered points, in one strip or in two slabs, the first
        # in input order is named, whatever their sweep or slab order
        for far in (Point(F(5), F(1, 2)), Point(F(5), F(-9))):
            points = [Point(F(7), F(1, 2)), far]
            with pytest.raises(Infeasible,
                               match=r"Point\(x=Fraction\(7, 1\)"):
                solve_mpc(points, [sq(0, 0)], "rects")

    def test_budget_cap_exceeded(self):
        points, rects = forced_pair_rects()
        with pytest.raises(BudgetExceeded):
            solve_mpc(points, rects, "rects", ell_max=1)

    def test_never_infeasible_on_coverable_fuzz(self):
        rng = random.Random(12)
        for seed in range(25):
            kind = "rects" if seed % 2 else "disks"
            inst = generate(kind, rng.randint(1, 12), rng.randint(1, 8),
                            rng.choice(["uniform", "clustered"]), seed=seed)
            sol = solve_mpc(inst.points, inst.objects, kind)
            assert covers(inst.points, [inst.objects[i] for i in sol.chosen])

    def test_union_ply_bounded_by_twice_max_slab_ply(self):
        rng = random.Random(13)
        for seed in range(20):
            inst = generate("rects", rng.randint(2, 15), rng.randint(2, 10),
                            "uniform", seed=seed + 50)
            sol = solve_mpc(inst.points, inst.objects, "rects")
            chosen = set(sol.chosen)
            slabs = assign_slabs(inst.points, inst.objects, "rects")
            per_slab = []
            for s in slabs:
                objs = [inst.objects[i] for i in s.objects if i in chosen]
                per_slab.append(ply_rects(objs))
            assert sol.objective <= 2 * max(per_slab)


def _lifted(points, rects, dy):
    return ([Point(p.x, p.y + dy) for p in points],
            [UnitRect(r.left, r.bottom + dy, r.width) for r in rects])


def _two_slabs(needs_two_first):
    """A slab needing ell = 2 and, 10 units away, a slab with an uncovered
    point; `needs_two_first` puts the ell = 2 slab lower."""
    pair_pts, pair_rects = forced_pair_rects()
    bad_pts = [Point(F(1, 2), F(1, 2)), Point(F(9), F(1, 2))]
    bad_rects = [sq(0, 0)]
    lo, hi = (0, 10) if needs_two_first else (10, 0)
    p1, r1 = _lifted(pair_pts, pair_rects, lo)
    p2, r2 = _lifted(bad_pts, bad_rects, hi)
    return p1 + p2, r1 + r2


def _slab_bound(opts):
    # objects touch at most two consecutive slabs; a slab index without
    # points contributes a budget of 0
    return max(v + opts.get(j + 1, 0) for j, v in opts.items())


class TestPerSlabBudgets:
    @pytest.mark.parametrize("needs_two_first", [True, False])
    @pytest.mark.parametrize("ell_max", [None, 1])
    def test_uncovered_point_in_one_slab_is_infeasible(self, needs_two_first,
                                                       ell_max):
        points, rects = _two_slabs(needs_two_first)
        assert len(assign_slabs(points, rects, "rects")) == 2
        with pytest.raises(Infeasible, match="covered by no object"):
            solve_mpc(points, rects, "rects", ell_max=ell_max)

    def test_budget_exceeded_when_one_slab_needs_two(self):
        pair_pts, pair_rects = forced_pair_rects()
        far_pts, far_rects = _lifted([Point(F(1, 2), F(1, 2))], [sq(0, 0)], 10)
        points, rects = pair_pts + far_pts, pair_rects + far_rects
        assert len(assign_slabs(points, rects, "rects")) == 2
        with pytest.raises(BudgetExceeded):
            solve_mpc(points, rects, "rects", ell_max=1)
        sol = solve_mpc(points, rects, "rects", ell_max=2)
        assert sol.chosen == [0, 1, 2] and sol.objective == 2

    def test_lowest_failing_slab_is_named_and_no_later_one_searched(
            self, monkeypatch):
        pair_pts, pair_rects = forced_pair_rects()
        up_pts, up_rects = _lifted(pair_pts, pair_rects, 10)
        points, rects = pair_pts + up_pts, pair_rects + up_rects
        lower, upper = assign_slabs(points, rects, "rects")
        searched = []
        real = rects_mod.solve_slab_rects

        def spy(pts, objs, ell, problem):
            searched.append(pts)
            return real(pts, objs, ell, problem)

        monkeypatch.setattr(rects_mod, "solve_slab_rects", spy)
        with pytest.raises(BudgetExceeded,
                           match="^slab %d has no cover within ply budget 1$"
                           % lower.index):
            solve_mpc(points, rects, "rects", ell_max=1)
        to_rank = dict(zip(points, _ranked(points, rects)[0]))
        assert searched == [[to_rank[p] for p in slab_points(points, lower)]]
        searched.clear()
        assert solve_mpc(points, rects, "rects", ell_max=2).objective == 2
        assert searched[-1] == [to_rank[p]
                                for p in slab_points(points, upper)]

    def test_rects_within_adjacent_slab_optima(self):
        rng = random.Random(0x51AB)
        for seed in range(40):
            inst = generate("rects", rng.randint(1, 14), rng.randint(1, 10),
                            rng.choice(["uniform", "clustered"]),
                            seed=seed + 900)
            sol = solve_mpc(inst.points, inst.objects, "rects")
            opts = {}
            for s in assign_slabs(inst.points, inst.objects, "rects"):
                objs = [inst.objects[i] for i in s.objects]
                opts[s.index] = exact_min_ply(slab_points(inst.points, s),
                                              objs, "rects")[0]
            assert sol.objective <= _slab_bound(opts), seed

    def test_disks_within_adjacent_slab_optima(self):
        rng = random.Random(0xD5AB)
        for seed in range(40):
            inst = generate("disks", rng.randint(1, 14), rng.randint(1, 10),
                            rng.choice(["uniform", "clustered"]),
                            seed=seed + 1900)
            sol = solve_mpc(inst.points, inst.objects, "disks")
            uniq, _ = dedupe_disks(inst.objects)
            opts = {}
            for s in assign_slabs(inst.points, uniq, "disks"):
                objs = [uniq[i] for i in s.objects]
                opts[s.index] = exact_min_ply(slab_points(inst.points, s),
                                              objs, "disks")[0]
            assert sol.objective <= _slab_bound(opts), seed


class TestCoverageFromMasks:
    """The cover masks prove coverage: no solver scans the points against
    the objects, and no strip problem built for a coverable instance names
    an uncovered point."""

    @pytest.fixture(autouse=True)
    def uncovered(self, monkeypatch):
        # StripProblem.uncovered of every strip problem built; each test
        # builds at least one, and none may name a point
        seen = []

        def spy(*args):
            problem = stripdag.build_problem(*args)
            seen.append(problem.uncovered)
            return problem

        for mod in (rects_mod, disks_mod):
            monkeypatch.setattr(mod, "build_problem", spy)
        yield seen
        assert seen and all(u is None for u in seen)

    def test_no_point_scan_is_bound(self):
        solve_mpc([Point(F(1, 2), F(1, 2))], [sq(0, 0)], "rects")
        for mod in (slabs_mod, tricolor):
            assert not hasattr(mod, "verify_cover")

    def test_slabs_needing_two(self):
        pair_pts, pair_rects = forced_pair_rects()
        points, rects = _lifted(pair_pts, pair_rects, 10)
        points, rects = pair_pts + points, pair_rects + rects
        assert solve_mpc(points, rects, "rects").objective == 2
        for ell_max in (0, 1):
            with pytest.raises(BudgetExceeded,
                               match="within ply budget %d" % ell_max):
                solve_mpc(points, rects, "rects", ell_max=ell_max)
        points, disks = forced_pair_disks()
        assert solve_mpc(points, disks, "disks").objective == 2
        with pytest.raises(BudgetExceeded, match="within ply budget 1"):
            solve_mpc(points, disks, "disks", ell_max=1)

    def test_coverable_fuzz(self):
        rng = random.Random(0xC0F)
        for seed in range(30):
            kind = "rects" if seed % 2 else "disks"
            inst = generate(kind, rng.randint(1, 14), rng.randint(1, 10),
                            rng.choice(["uniform", "clustered"]), seed=seed)
            sol = solve_mpc(inst.points, inst.objects, kind)
            assert sol.objective >= 1

    def test_3color(self):
        points, disks = triangle_3colorable()
        assert solve_3color(points, disks).chosen == [0, 1, 2]
        points, disks = ply3_not_3colorable()
        with pytest.raises(Infeasible, match="admits no 3-colorable cover"):
            solve_3color(points, disks)


class TestUncoveredWithoutSearch:
    """Slabs searched at no budget still name an uncovered point."""

    def test_slab_without_objects(self):
        points = [Point(F(1, 2), F(1, 2)), Point(F(1, 2), F(21, 2))]
        for ell_max in (None, 0):
            with pytest.raises(Infeasible, match=r"y=Fraction\(21, 2\)"):
                solve_mpc(points, [sq(0, 0)], "rects", ell_max=ell_max)
        disks = [UnitDisk(Point(0.5, 0.5))]
        points = [Point(0.6, 0.5), Point(0.6, 10.5)]
        with pytest.raises(Infeasible, match=r"y=10.5"):
            solve_mpc(points, disks, "disks")
        with pytest.raises(Infeasible, match=r"y=10.5"):
            solve_3color(points, disks)

    def test_zero_budget_on_coverable_slab(self):
        points = [Point(F(1, 2), F(1, 2))]
        with pytest.raises(BudgetExceeded, match="budget 0"):
            solve_mpc(points, [sq(0, 0)], "rects", ell_max=0)
        with pytest.raises(Infeasible, match="covered by no object"):
            solve_mpc(points + [Point(F(3), F(1, 2))], [sq(0, 0)], "rects",
                      ell_max=0)


def _even_grid_rects(rng):
    """Rects with left and right sides on even ints and a bottom or top on
    an even int, and points on even ints inside them, the lowest at y = 0:
    every point and a horizontal side of every rect lie on a boundary of
    the slabs, which start at y = 0."""
    rects = [UnitRect(2 * rng.randint(0, 4), rng.randint(0, 7) if k else 0,
                      2 * rng.randint(1, 2))
             for k in range(rng.randint(1, 8))]
    points = []
    for k in range(rng.randint(1, 8)):
        r = rng.choice(rects) if k else rects[0]
        points.append(Point(r.left + 2 * rng.randint(0, int(r.width) // 2),
                            r.bottom if r.bottom % 2 == 0 else r.top))
    return points, rects


class TestHalfOpenRectSlabs:
    """Rect slabs are half-open, [y_lo, y_hi), with no offset search: a
    rect is attached to each slab it reaches into, also when only its top
    touches the slab's bottom boundary."""

    def test_even_grid_fuzz(self):
        rng = random.Random(0xE7E)
        tops_on_boundary = 0
        for seed in range(150):
            points, rects = _even_grid_rects(rng)
            slabs = assign_slabs(points, rects, "rects")
            where = {}
            for s in slabs:
                y_lo, y_hi = _bounds(s)
                assert (y_lo, y_hi) == (2 * s.index, 2 * s.index + 2)
                for p in slab_points(points, s):
                    assert y_lo <= p.y < y_hi, seed
                    for i, r in enumerate(rects):
                        if r.contains(p):
                            assert i in s.objects, seed
                            tops_on_boundary += r.top == y_lo
                for i in s.objects:
                    where.setdefault(i, []).append(s.index)
            for js in where.values():
                assert js in ([js[0]], [js[0], js[0] + 1]), seed
            sol = solve_mpc(points, rects, "rects")
            opts = {s.index: exact_min_ply(slab_points(points, s),
                                           [rects[i] for i in s.objects],
                                           "rects")[0]
                    for s in slabs}
            assert sol.objective <= _slab_bound(opts), seed
            opt, _ = exact_min_ply(points, rects, "rects")
            assert sol.objective <= 2 * opt, seed
        assert tops_on_boundary > 50


def _ranked(points, rects):
    """The rect instance on coordinate ranks, found by sorting the
    rationals: (rank Points, Boxes), as the rect search runs on them."""
    xs = sorted({p.x for p in points} | {r.left for r in rects}
                | {r.right for r in rects})
    ys = sorted({p.y for p in points} | {r.bottom for r in rects}
                | {r.top for r in rects})
    xr = {v: k for k, v in enumerate(xs)}
    yr = {v: k for k, v in enumerate(ys)}
    return ([Point(xr[p.x], yr[p.y]) for p in points],
            [Box(xr[r.left], xr[r.right], yr[r.bottom], yr[r.top])
             for r in rects])


def _brute_live(points, objects, indices):
    return [i for i in indices if any(objects[i].contains(p) for p in points)]


def _half_grid_rects(rng):
    """Rects with sides on the half-integer grid, so sides are shared and
    abut, and points on that grid, some at rect corners."""
    rects = [UnitRect(F(rng.randint(0, 12), 2), F(rng.randint(0, 8), 2),
                      F(rng.randint(1, 4), 2))
             for _ in range(rng.randint(1, 10))]
    points = [Point(F(rng.randint(-1, 16), 2), F(rng.randint(-1, 12), 2))
              for _ in range(rng.randint(1, 8))]
    for _ in range(rng.randint(0, 4)):
        r = rng.choice(rects)
        points.append(Point(rng.choice((r.left, r.right)),
                            rng.choice((r.bottom, r.top))))
    return points, rects


def _grid_disks_with_edge_points(rng):
    """Disks centred on the half-integer grid, with points at centres, on
    the boundary circle at the x-extrema and one ulp inside or outside
    there."""
    disks = [UnitDisk(Point(rng.randint(0, 8) / 2, rng.randint(0, 6) / 2))
             for _ in range(rng.randint(1, 9))]
    points = [Point(rng.uniform(-1, 5), rng.uniform(-1, 4))
              for _ in range(rng.randint(0, 4))]
    for _ in range(rng.randint(1, 8)):
        c = rng.choice(disks).center
        dx = rng.choice((0.0, 0.5, 0.5, 0.5))
        dy = rng.choice((0.0, 0.0, 0.25, 0.5))
        points.append(Point(nudged(c.x + rng.choice((-1, 1)) * dx,
                                   rng.choice((-1, 0, 1))),
                            c.y + rng.choice((-1, 1)) * dy))
    return points, disks


class TestLiveObjects:
    """Each slab is searched over the objects that contain one of its
    points, and nothing else reaches its strip problem."""

    @pytest.fixture
    def built(self, monkeypatch):
        # per strip problem built: for each of its objects, whether it
        # contains one of the problem's points
        seen = []

        def spy(points, objects, *rest):
            seen.append([any(map(o.contains, points)) for o in objects])
            return stripdag.build_problem(points, objects, *rest)

        for mod in (rects_mod, disks_mod):
            monkeypatch.setattr(mod, "build_problem", spy)
        return seen

    @pytest.mark.parametrize("kind", ["rects", "disks", "3color"])
    def test_object_covering_no_slab_point_is_never_built(self, built, kind):
        if kind == "rects":
            points, objects = [Point(F(1, 2), F(1, 2))], [sq(0, 0), sq(5, 0)]
        else:
            points = [Point(0.5, 0.5)]
            objects = [UnitDisk(Point(0.5, 0.5)), UnitDisk(Point(5.0, 0.5))]
        obj_kind = "rects" if kind == "rects" else "disks"
        assert assign_slabs(points, objects, obj_kind)[0].objects == [0, 1]
        if kind == "3color":
            sol = solve_3color(points, objects)
        else:
            sol = solve_mpc(points, objects, kind)
        assert sol.chosen == [0]
        assert built == [[True]]

    @pytest.mark.parametrize("kind", ["rects", "disks", "3color"])
    def test_fuzz_builds_exactly_the_live_objects(self, built, kind):
        rng = random.Random(0x11E + len(kind))
        obj_kind = "rects" if kind == "rects" else "disks"
        live = dead = 0
        for seed in range(40):
            inst = generate(obj_kind, rng.randint(4, 20), rng.randint(4, 14),
                            rng.choice(["uniform", "clustered",
                                        "slab-stress"]), seed=seed)
            objects = inst.objects
            if obj_kind == "disks":
                objects, _ = dedupe_disks(objects)
            for s in assign_slabs(inst.points, objects, obj_kind):
                n = len(_brute_live(slab_points(inst.points, s), objects,
                                    s.objects))
                live += n
                dead += len(s.objects) - n
            try:
                if kind == "3color":
                    solve_3color(inst.points, inst.objects)
                else:
                    solve_mpc(inst.points, inst.objects, kind)
            except Infeasible:
                assert kind == "3color"
        assert dead > 0
        assert all(all(flags) for flags in built)
        assert sum(len(flags) for flags in built) == live

    @pytest.mark.parametrize("points, objects", [
        ([Point(F(5), F(5))], [sq(0, 0)]),
        _two_slabs(True),
        _two_slabs(False),
        ([Point(F(1, 2), F(1, 2)), Point(F(3), F(1, 2))], [sq(0, 0), sq(5, 0)]),
        ([Point(0.55, 0.75), Point(9.0, 3.1)],
         [UnitDisk(Point(0.5, 0.7)), UnitDisk(Point(0.5, 3.1))]),
        ([Point(9.0, 9.0)], [UnitDisk(Point(0.0, 0.0))]),
        ([Point(0.6, 0.5), Point(0.6, 10.5)], [UnitDisk(Point(0.5, 0.5))]),
        ([Point(0.5, 0.5), Point(3.0, 0.5)],
         [UnitDisk(Point(0.5, 0.5)), UnitDisk(Point(5.0, 0.5))]),
    ])
    def test_infeasible_names_the_input_point(self, points, objects):
        lost, = [p for p in points
                 if not any(o.contains(p) for o in objects)]
        name = re.escape(repr(lost))
        if isinstance(objects[0], UnitRect):
            with pytest.raises(Infeasible, match=name):
                solve_mpc(points, objects, "rects")
            return
        with pytest.raises(Infeasible, match=name):
            solve_mpc(points, objects, "disks")
        with pytest.raises(Infeasible, match=name):
            solve_3color(points, objects)

    def test_rects_match_brute_force_on_half_grid(self):
        rng = random.Random(0x11F)
        for seed in range(300):
            points, rects = _half_grid_rects(rng)
            rank_points, boxes = _ranked(points, rects)
            to_rank = dict(zip(points, rank_points))
            every = range(len(rects))
            spans, box_spans = rect_spans(rects), rect_spans(boxes)
            assert (live_objects(points, rects, every, spans)
                    == _brute_live(points, rects, every)), seed
            for s in assign_slabs(points, rects, "rects"):
                slab_pts = slab_points(points, s)
                want = _brute_live(slab_pts, rects, s.objects)
                assert live_objects(slab_pts, rects, s.objects,
                                    spans) == want, seed
                pts = [to_rank[p] for p in slab_pts]
                assert live_objects(pts, boxes, s.objects, box_spans) == want
                assert _brute_live(pts, boxes, s.objects) == want

    def test_disks_match_brute_force_on_half_grid(self):
        rng = random.Random(0xD11F)
        for seed in range(300):
            points, disks = _grid_disks_with_edge_points(rng)
            every = range(len(disks))
            spans = disk_spans(disks)
            assert (live_objects(points, disks, every, spans)
                    == _brute_live(points, disks, every)), seed
            for s in assign_slabs(points, disks, "disks"):
                pts = slab_points(points, s)
                assert (live_objects(pts, disks, s.objects, spans)
                        == _brute_live(pts, disks, s.objects)), seed
