import math
import random

from conftest import covers, forced_pair_disks

from plycover.disks import dedupe_disks, disk_spans, solve_slab_disks
from plycover.geom import (EventClass, Point, UnitDisk, ply_disks,
                           sweep_events)
from plycover.instances import generate
from plycover.oracle import exact_min_ply
from plycover.slabs import assign_slabs, solve_mpc
from plycover.tricolor import solve_3color

EIGHT_POINTS = [(sx * 0.25, sy) for sx in (-1, 1)
                for sy in (-1.125, -0.375, 0.375, 1.125)]


class TestTies:
    def test_points_above_and_at_a_centre_solve(self):
        # no strip is cut at a centre, and a point sharing a disk's x is
        # placed by the symbolic event order; both searches solve
        dks = [UnitDisk(Point(2.0, 0.0))]
        for pts in ([Point(2.0, 0.3)], [Point(2.0, 0.0)]):
            assert solve_mpc(pts, dks, "disks").chosen == [0]
            assert solve_3color(pts, dks).colors == {0: 1}

    def test_equal_center_x_ties_break_symbolically(self):
        # shared extremum x-coordinates, and points on them, are ordered
        # (x, class, y, obj) as rectangle sides are
        dks = [UnitDisk(Point(1.0, 0.0)), UnitDisk(Point(1.0, 2.5))]
        pts = [Point(1.0, 0.0), Point(1.0, 2.5), Point(0.5, 0.0),
               Point(1.5, 2.5)]
        events = sweep_events(disk_spans(dks))
        assert [(e[1], e[3]) for e in events] == [
            (EventClass.LEFT_SIDE, 0), (EventClass.LEFT_SIDE, 1),
            (EventClass.RIGHT_SIDE, 0), (EventClass.RIGHT_SIDE, 1)]
        sol = solve_mpc(pts, dks, "disks")
        assert sol.chosen == [0, 1] and sol.objective == 1
        assert solve_3color(pts, dks).chosen == [0, 1]

    def test_duplicate_disks_collapse(self):
        dks = [UnitDisk(Point(1.0, 1.0)), UnitDisk(Point(1.0, 1.0))]
        uniq, orig = dedupe_disks(dks)
        assert len(uniq) == 1 and orig == [0]


class TestSolveSlab:
    def test_single_point_single_disk(self):
        assert solve_slab_disks([Point(0.5, 0.5)], [UnitDisk(Point(0.5, 0.5))], 1) == [0]

    def test_forced_pair_needs_budget_two(self):
        points, disks = forced_pair_disks()
        assert exact_min_ply(points, disks, "disks")[0] == 2
        assert solve_slab_disks(points, disks, 1) is None
        assert solve_slab_disks(points, disks, 2) == [0, 1]

    def test_success_iff_oracle_budget(self):
        rng = random.Random(7)
        for seed in range(30):
            inst = generate("disks", rng.randint(1, 10), rng.randint(1, 8),
                            "slab-stress", seed=seed)
            slabs = assign_slabs(inst.points, inst.objects, "disks")
            for slab in slabs:
                objs = [inst.objects[i] for i in slab.objects]
                opt, _ = exact_min_ply(slab.points, objs, "disks")
                for ell in range(1, opt + 2):
                    res = solve_slab_disks(slab.points, objs, ell)
                    assert (res is not None) == (ell >= opt)
                    if res is not None:
                        chosen = [objs[i] for i in res]
                        assert covers(slab.points, chosen)
                        assert ply_disks(chosen) <= ell

    def test_strip_capacity_bound_on_optimal_solutions(self):
        # no strip is crossed by more than 8*ell disks of a ply-ell cover
        rng = random.Random(8)
        for seed in range(30):
            inst = generate("disks", rng.randint(1, 10), rng.randint(2, 8),
                            "slab-stress", seed=seed + 100)
            slabs = assign_slabs(inst.points, inst.objects, "disks")
            for slab in slabs:
                objs = [inst.objects[i] for i in slab.objects]
                opt, wit = exact_min_ply(slab.points, objs, "disks")
                events = sweep_events(disk_spans(objs))
                left, right = {}, {}
                for pos, e in enumerate(events):
                    (left if e[1] == EventClass.LEFT_SIDE else right)[e[3]] = pos
                for i in range(len(events) + 1):
                    count = sum(1 for o in wit if left[o] < i <= right[o])
                    assert count <= 8 * opt


class TestEightPointCover:
    def test_box_is_covered_by_the_eight_disks(self):
        # any disk spanning a strip has its center in a 1 x 3 box; the box
        # is covered by eight unit disks, so the disk grabs one of their
        # centers
        rng = random.Random(9)
        for _ in range(4000):
            cx = rng.uniform(-0.5, 0.5)
            cy = rng.uniform(-1.5, 1.5)
            best = min(math.hypot(cx - px, cy - py) for px, py in EIGHT_POINTS)
            assert best <= 0.5 + 1e-12

    def test_disks_spanning_a_strip_contain_an_anchor(self):
        rng = random.Random(10)
        for _ in range(500):
            cx = rng.uniform(-0.49, 0.49)
            cy = rng.uniform(-1.49, 1.49)
            d = UnitDisk(Point(cx, cy))
            assert any(d.contains(Point(px, py)) for px, py in EIGHT_POINTS)


def _rotate(points, disks, angle):
    """The instance turned by `angle` about the origin."""
    c, s = math.cos(angle), math.sin(angle)

    def turn(p):
        return Point(p.x * c - p.y * s, p.x * s + p.y * c)
    return [turn(p) for p in points], [UnitDisk(turn(d.center))
                                       for d in disks]


class TestRotationInvariance:
    def test_approximation_guarantee_survives_prerotation(self):
        # the slab budget itself depends on the orientation of the slab
        # grid, but the optimum is geometric, so the 2-approximation bound
        # holds in every frame
        rng = random.Random(11)
        for seed in range(10):
            inst = generate("disks", rng.randint(2, 8), rng.randint(1, 6),
                            "uniform", seed=seed)
            opt, _ = exact_min_ply(inst.points, inst.objects, "disks")
            for angle in (0.0, 0.31):
                rp, rd = _rotate(inst.points, inst.objects, angle)
                ropt, _ = exact_min_ply(rp, rd, "disks")
                assert ropt == opt
                sol = solve_mpc(rp, rd, "disks")
                assert sol.objective <= 2 * opt
