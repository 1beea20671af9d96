import itertools
import random
import re

import pytest

from conftest import (covers, k4_clique, ply3_not_3colorable,
                      triangle_3colorable)

from plycover.errors import Infeasible
from plycover.geom import Point, UnitDisk, disks_disjoint
from plycover.instances import generate
from plycover.oracle import exact_3color_cover, exact_min_ply
from plycover.tricolor import solve_3color, solve_slab_3color


class TestSlabSolver:
    def test_single_point_single_disk(self):
        out = solve_slab_3color([Point(0.5, 0.5)], [UnitDisk(Point(0.5, 0.5))])
        assert out == ((0,), (), ())

    def test_k4_clique_has_no_3coloring(self):
        points, disks = k4_clique()
        assert solve_slab_3color(points, disks) is None
        assert exact_3color_cover(points, disks) is None

    def test_triangle_uses_one_disk_per_class(self):
        points, disks = triangle_3colorable()
        out = solve_slab_3color(points, disks)
        assert out is not None
        assert sorted(len(c) for c in out) == [1, 1, 1]
        assert exact_3color_cover(points, disks) is not None


class TestSolve3Color:
    def test_single_slab_uses_low_colors(self):
        points, disks = triangle_3colorable()
        sol = solve_3color(points, disks)
        assert set(sol.colors.values()) <= {1, 2, 3}
        assert sorted(sol.colors) == sol.chosen
        assert covers(points, [disks[i] for i in sol.chosen])

    def test_two_slab_instance_disjoint_classes(self):
        disks = [UnitDisk(Point(0.5, 0.7)), UnitDisk(Point(1.1, 0.7)),
                 UnitDisk(Point(0.5, 3.1)), UnitDisk(Point(1.1, 3.1))]
        points = [Point(0.35, 0.7), Point(1.25, 0.7),
                  Point(0.35, 3.1), Point(1.25, 3.1)]
        sol = solve_3color(points, disks)
        assert len(set(sol.colors.values())) <= 6
        by_class = {}
        for i, c in sol.colors.items():
            by_class.setdefault(c, []).append(i)
        for members in by_class.values():
            for a, b in itertools.combinations(members, 2):
                assert disks_disjoint(disks[a], disks[b])
        assert covers(points, [disks[i] for i in sol.chosen])

    def test_uncoverable_point_is_infeasible(self):
        with pytest.raises(Infeasible, match=r"Point\(x=9.0, y=9.0\)"):
            solve_3color([Point(9.0, 9.0)], [UnitDisk(Point(0.0, 0.0))])
        # disks sharing a centre x; the message names the input point
        disks = [UnitDisk(Point(0.5, 0.7)), UnitDisk(Point(0.5, 3.1))]
        points = [Point(0.55, 0.75), Point(9.0, 3.1)]
        with pytest.raises(Infeasible, match=r"Point\(x=9.0, y=3.1\)"):
            solve_3color(points, disks)

    @pytest.mark.parametrize("far_y", [10.0, -10.0])
    def test_uncovered_point_wins_over_a_failed_slab(self, far_y):
        # four pairwise-meeting disks, each holding only the point at 2.16
        # times its centre, make a slab with no 3-colorable cover; a point
        # covered by no disk, above or below that slab, is still named
        centres = [Point(sx * 0.3, sy * 0.3) for sx in (-1, 1)
                   for sy in (-1, 1)]
        points = [Point(2.16 * c.x, 2.16 * c.y) for c in centres]
        disks = [UnitDisk(c) for c in centres]
        with pytest.raises(Infeasible, match="admits no 3-colorable cover"):
            solve_3color(points, disks)
        lost = Point(0.0, far_y)
        with pytest.raises(Infeasible, match=re.escape(
                "point %r is covered by no object" % (lost,))):
            solve_3color(points + [lost], disks)

    def test_k4_clique_infeasible(self):
        points, disks = k4_clique()
        with pytest.raises(Infeasible):
            solve_3color(points, disks)

    def test_ply3_witness_not_3colorable(self):
        points, disks = ply3_not_3colorable()
        opt, _ = exact_min_ply(points, disks, "disks")
        assert opt == 3
        assert exact_3color_cover(points, disks) is None
        with pytest.raises(Infeasible):
            solve_3color(points, disks)

    def test_colors_partition_chosen(self):
        rng = random.Random(31)
        for seed in range(15):
            inst = generate("disks", rng.randint(1, 10), rng.randint(1, 8),
                            "uniform", seed=seed)
            try:
                sol = solve_3color(inst.points, inst.objects)
            except Infeasible:
                continue
            assert sorted(sol.colors) == sol.chosen
            assert all(1 <= c <= 6 for c in sol.colors.values())

    def test_iff_oracle_on_single_band_fuzz(self):
        # inside one slab the solver decides 3-colorability exactly
        rng = random.Random(32)
        for seed in range(30):
            inst = generate("disks", rng.randint(1, 8), rng.randint(1, 8),
                            "slab-stress", seed=seed)
            witness = exact_3color_cover(inst.points, inst.objects)
            try:
                sol = solve_3color(inst.points, inst.objects)
                feasible = True
            except Infeasible:
                feasible = False
            assert feasible == (witness is not None)
            if feasible:
                assert covers(inst.points,
                              [inst.objects[i] for i in sol.chosen])

    def test_oracle_feasible_implies_solver_feasible_multislab(self):
        rng = random.Random(33)
        for seed in range(20):
            inst = generate("disks", rng.randint(1, 10), rng.randint(1, 8),
                            "uniform", seed=seed + 200)
            witness = exact_3color_cover(inst.points, inst.objects)
            if witness is None:
                continue
            sol = solve_3color(inst.points, inst.objects)  # must not raise
            assert covers(inst.points, [inst.objects[i] for i in sol.chosen])
