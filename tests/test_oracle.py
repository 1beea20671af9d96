import random
from fractions import Fraction as F

import pytest

from conftest import greedy_trap_instance, k4_clique
from depth_reference import grid_depth_disks
from oracle_reference import exhaustive_min_ply

from plycover.errors import Infeasible, InstanceTooLarge
from plycover.geom import (Point, UnitDisk, UnitRect, WeightedInterval,
                           ply_disks, ply_rects, verify_cover)
from plycover.instances import generate
from plycover.oracle import exact_3color_cover, exact_intervals, exact_min_ply


class TestCaps:
    def test_min_ply_cap(self):
        rects = [UnitRect(F(i), F(0)) for i in range(21)]
        with pytest.raises(InstanceTooLarge):
            exact_min_ply([], rects, "rects")

    def test_3color_cap(self):
        disks = [UnitDisk(Point(float(i), 0.0)) for i in range(13)]
        with pytest.raises(InstanceTooLarge):
            exact_3color_cover([], disks)

    def test_intervals_cap(self):
        ivs = [WeightedInterval(F(i), F(i + 1)) for i in range(13)]
        with pytest.raises(InstanceTooLarge):
            exact_intervals([], ivs)


class TestMinPly:
    def test_single(self):
        assert exact_min_ply([Point(F(1, 2), F(1, 2))],
                             [UnitRect(F(0), F(0))], "rects") == (1, [0])

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            exact_min_ply([Point(F(9), F(9))], [UnitRect(F(0), F(0))], "rects")

    def test_pruned_matches_unpruned(self):
        rng = random.Random(51)
        for seed in range(20):
            kind = "rects" if seed % 2 else "disks"
            inst = generate(kind, rng.randint(1, 10), rng.randint(1, 8),
                            "uniform", seed=seed)
            opt, wit = exact_min_ply(inst.points, inst.objects, kind)
            ref_opt, _ = exhaustive_min_ply(inst.points, inst.objects, kind)
            assert opt == ref_opt
            chosen = [inst.objects[i] for i in wit]
            assert verify_cover(inst.points, chosen)
            ply = ply_rects(chosen) if kind == "rects" else ply_disks(chosen)
            assert ply == opt


class TestThreeColor:
    def test_single_disk(self):
        out = exact_3color_cover([Point(0.0, 0.0)], [UnitDisk(Point(0.0, 0.0))])
        assert out == ((0,), (), ())

    def test_k4_clique_none(self):
        points, disks = k4_clique()
        assert exact_3color_cover(points, disks) is None

    def test_disjoint_disks_fit_one_class(self):
        disks = [UnitDisk(Point(0.0, 0.0)), UnitDisk(Point(2.0, 0.0)),
                 UnitDisk(Point(4.0, 0.0))]
        points = [d.center for d in disks]
        out = exact_3color_cover(points, disks)
        assert out == ((0, 1, 2), (), ())

    def test_uncoverable_returns_none(self):
        assert exact_3color_cover([Point(9.0, 9.0)],
                                  [UnitDisk(Point(0.0, 0.0))]) is None


class TestIntervals:
    def test_single(self):
        opt, wit = exact_intervals([F(1)], [WeightedInterval(F(0), F(2), F(4))])
        assert opt == 4 and wit == [0]

    def test_fixture(self):
        points, intervals = greedy_trap_instance()
        assert exact_intervals(points, intervals, "mmsc") == (3, [0, 2, 3])

    def test_unit_weight_chain_hand_count(self):
        # both intervals are forced by private points, so the shared point
        # gets membership 2; enumerating all four subsets by hand gives 2
        ivs = [WeightedInterval(F(0), F(2)), WeightedInterval(F(1), F(3))]
        points = [F(1, 2), F(3, 2), F(5, 2)]
        opt, wit = exact_intervals(points, ivs, "mmsc")
        assert opt == 2
        assert wit == [0, 1]
        assert verify_cover(points, [ivs[i] for i in wit])

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            exact_intervals([F(5)], [WeightedInterval(F(0), F(1))])

    def test_mpc_counts_pointless_overlap(self):
        ivs = [WeightedInterval(F(0), F(2), F(2)),
               WeightedInterval(F(1), F(3), F(3))]
        points = [F(1, 4), F(11, 4)]
        mmsc, _ = exact_intervals(points, ivs, "mmsc")
        mpc, _ = exact_intervals(points, ivs, "mpc")
        assert mmsc == 3
        assert mpc == 5  # the overlap region holds no point but both weights


class TestGridSampler:
    def test_empty(self):
        assert grid_depth_disks([]) == 0

    def test_never_exceeds_candidate_ply(self):
        rng = random.Random(52)
        for seed in range(10):
            inst = generate("disks", 0, rng.randint(1, 8), "uniform",
                            seed=seed)
            assert grid_depth_disks(inst.objects) <= ply_disks(inst.objects)
