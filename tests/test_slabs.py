import math
import random
from fractions import Fraction as F

import pytest

from plycover import slabs as slabs_mod
from plycover import tricolor
from plycover.disks import dedupe_disks
from plycover.errors import BudgetExceeded, Infeasible
from plycover.geom import (EPS_COVER, Point, UnitDisk, UnitRect, ply_rects,
                           verify_cover)
from plycover.instances import generate
from plycover.oracle import exact_min_ply
from plycover.slabs import _BOUNDARY_TOL, assign_slabs, slab_offset, solve_mpc
from plycover.tricolor import solve_3color

from conftest import (forced_pair_disks, forced_pair_rects,
                      ply3_not_3colorable, triangle_3colorable)


def sq(left, bottom):
    return UnitRect(F(left), F(bottom))


class TestAssignSlabs:
    def test_unit_box_is_one_slab(self):
        pts = [Point(F(1, 4), F(1, 4)), Point(F(3, 4), F(3, 4))]
        slabs = assign_slabs(pts, [sq(0, 0)], "rects")
        assert len(slabs) == 1
        assert len(slabs[0].points) == 2
        assert slabs[0].objects == [0]

    def test_far_points_make_two_slabs(self):
        pts = [Point(F(1, 2), F(1, 2)), Point(F(1, 2), F(21, 2))]
        slabs = assign_slabs(pts, [sq(0, 0), sq(0, 10)], "rects")
        assert len(slabs) == 2
        assert slabs[1].index - slabs[0].index >= 2
        assert slabs[0].objects == [0] and slabs[1].objects == [1]

    def test_offset_avoids_boundary_through_square_edge(self):
        # bottom exactly on the zero-offset boundary forces a shift
        pts = [Point(F(1, 2), F(1, 2))]
        rects = [sq(0, 0)]
        off = slab_offset(pts, rects, "rects")
        for y in (F(0), F(1), F(1, 2)):
            assert (y - off) % 2 != 0

    def test_offset_matches_candidate_scan(self):
        # the residue rule returns the offset the plain scan over every
        # candidate and every y finds, on both paths, also when many early
        # candidates are blocked
        rng = random.Random(0x0FF5)
        shifted = 0
        for seed in range(400):
            c = rng.randint(1, 30)
            step = rng.choice((1, 2, 8))
            ys = [F(rng.randint(-40, 40), step) for _ in range(c)]
            if seed % 2:
                ys = _blocking_ys(c)[:c]
                rng.shuffle(ys)
            pts = [Point(F(0), y) for y in ys]
            off = slab_offset(pts, [], "rects")
            assert off == _offset_reference([p.y for p in pts], True)
            shifted += off != min(ys) - F(1, 8 * (c + 1))
            for scale in (1.0, 1e3, 1e-3):
                fys = [float(y) * scale for y in ys]
                fpts = [Point(0.0, y) for y in fys]
                assert (slab_offset(fpts, [], "disks")
                        == _offset_reference(fys, False))
        assert shifted > 100

    @pytest.mark.parametrize("exact", [True, False])
    def test_offset_is_linear_on_blocking_ys(self, exact):
        # ys at 2 - k/(8(C+1)) block candidates k = 1..C-1 one by one; the
        # plain scan subtracted each candidate from every y, about C**2/2
        # times.  Count the subtractions with y on the left instead of timing.
        c = 600
        num = _CountingFraction if exact else _CountingFloat
        ys = [num(y if exact else float(y)) for y in _blocking_ys(c)]
        pts = [Point(F(0) if exact else 0.0, y) for y in reversed(ys)]
        _Count.subs = 0
        off = slab_offset(pts, [], "rects" if exact else "disks")
        assert _Count.subs <= 8 * c, _Count.subs
        assert off == _offset_reference([p.y for p in pts], exact)
        assert float(off) == float(-F(c, 8 * (c + 1)))

    def test_every_point_in_exactly_one_slab(self):
        rng = random.Random(3)
        for seed in range(15):
            inst = generate("rects", rng.randint(1, 15), rng.randint(1, 10),
                            "uniform", seed=seed)
            slabs = assign_slabs(inst.points, inst.objects, "rects")
            assert sum(len(s.points) for s in slabs) == len(inst.points)

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
                off = slab_offset(points, objects, kind)
                near += sum(abs((y - off + 1) % 2 - 1) < 2e-3
                            for d in objects
                            for y in (d.center.y - 0.5, d.center.y + 0.5))
            got = [(s.index, s.y_lo, s.y_hi, s.points, s.objects)
                   for s in assign_slabs(points, objects, kind)]
            assert got == _assign_reference(points, objects, kind), seed
        assert near > 300

    def test_boundary_margin_exceeds_the_disk_tolerance(self):
        # a slab attaches disks by their exact y-extents; with point ys and
        # extrema kept _BOUNDARY_TOL from every boundary, no point lies
        # within EPS_COVER of a disk its slab does not hold
        assert _BOUNDARY_TOL > 2 * EPS_COVER


def _assign_reference(points, objects, kind):
    """The scan `assign_slabs` replaced: every object against every slab."""
    off = slab_offset(points, objects, kind)
    by_slab = {}
    for p in points:
        by_slab.setdefault(math.floor((p.y - off) / 2), []).append(p)
    if kind == "rects":
        spans = [(r.bottom, r.top) for r in objects]
    else:
        spans = [(d.center.y - 0.5, d.center.y + 0.5) for d in objects]
    out = []
    for j in sorted(by_slab):
        lo, hi = off + 2 * j, off + 2 * (j + 1)
        out.append((j, lo, hi, by_slab[j],
                    [i for i, (ylo, yhi) in enumerate(spans)
                     if yhi > lo and ylo < hi]))
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
    """Disks whose extrema lie just off the slab boundaries: with a point at
    y = 0 below every extremum, the boundaries sit at 2j - 1/(8(C+1)) when
    the first candidate offset is not blocked."""
    n, m = rng.randint(1, 6), rng.randint(1, 12)
    shift = 1.0 / (8 * (n + 2 * m + 1))
    disks = []
    for _ in range(m):
        edge = 2 * rng.randint(1, 5) - shift
        delta = rng.choice((1, -1)) * rng.choice((2e-7, 1e-6, 1e-5, 1e-3))
        cy = edge + delta + rng.choice((0.5, -0.5))
        disks.append(UnitDisk(Point(rng.uniform(0, 6), max(cy, 0.5))))
    points = [Point(0.0, 0.0)] + [
        Point(rng.uniform(0, 6), rng.uniform(0.1, 10.5)) for _ in range(n - 1)]
    return points, disks


def _blocking_ys(c):
    """0 and 2 - k/(8(c+1)) for k = 1..c-1: y number k puts the candidate
    offset -k/(8(c+1)) on a slab boundary."""
    return [F(0)] + [2 - F(k, 8 * (c + 1)) for k in range(1, c)]


def _offset_reference(ys, exact):
    """The plain scan: try k = 1..C+1 against every y."""
    n = len(ys)
    base = min(ys)
    for k in range(1, n + 2):
        if exact:
            cand = base - F(k, 8 * (n + 1))
            if all((y - cand) % 2 != 0 for y in ys):
                return cand
        else:
            cand = float(base) - k / (8.0 * (n + 1))
            if all(1e-7 <= (y - cand) % 2.0 <= 2.0 - 1e-7 for y in ys):
                return cand
    raise AssertionError("no candidate")


class _Count:
    subs = 0


class _CountingFraction(F):
    def __sub__(self, other):
        _Count.subs += 1
        return F.__sub__(self, other)


class _CountingFloat(float):
    def __sub__(self, other):
        _Count.subs += 1
        return float(self) - other


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
            assert verify_cover(inst.points,
                                [inst.objects[i] for i in sol.chosen])

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
                opts[s.index] = exact_min_ply(s.points, objs, "rects")[0]
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
                opts[s.index] = exact_min_ply(s.points, objs, "disks")[0]
            assert sol.objective <= _slab_bound(opts), seed


def _scan_refused(*args):
    raise AssertionError("points were scanned against the objects")


class TestCoverageFromMasks:
    """The cover masks show that every point is covered, so coverable
    instances are never scanned point by point."""

    @pytest.fixture(autouse=True)
    def no_scan(self, monkeypatch):
        monkeypatch.setattr(slabs_mod, "verify_cover", _scan_refused)
        monkeypatch.setattr(tricolor, "verify_cover", _scan_refused)

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
