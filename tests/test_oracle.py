import random
import re
from fractions import Fraction as F

import pytest

import depth_reference
from conftest import covers, greedy_trap_instance, k4_clique, nudged
from depth_reference import grid_depth_disks
from oracle_reference import exhaustive_min_ply

from plycover.errors import Infeasible, InstanceTooLarge
from plycover.geom import (Point, UnitDisk, UnitRect, WeightedInterval,
                           ply_disks)
from plycover.instances import generate
from plycover.intervals import evaluate_objective
from plycover.oracle import exact_3color_cover, exact_intervals, exact_min_ply


class TestCaps:
    def test_min_ply_cap(self):
        rects = [UnitRect(F(i), F(0)) for i in range(21)]
        with pytest.raises(InstanceTooLarge):
            exact_min_ply([], rects, "rects")

    def test_3color_cap(self):
        disks = [UnitDisk(Point(float(i), 0.0)) for i in range(13)]
        with pytest.raises(InstanceTooLarge, match="^at most 12 disks$"):
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
        # the first uncovered point in input order is named, not (7, 0),
        # the first in sweep order
        points = [Point(F(9), F(9)), Point(F(1, 2), F(1, 2)),
                  Point(F(7), F(0))]
        with pytest.raises(Infeasible, match=re.escape(
                "point %r is covered by no object" % (points[0],))):
            exact_min_ply(points, [UnitRect(F(0), F(0))], "rects")

    def test_pruned_matches_unpruned(self):
        # uniform instances, then degenerate ones, where the ply of a grown
        # set is decided on shared sides and corners, flat overlaps,
        # tangencies and copies; the witness's ply is taken by the
        # reference scans
        rng = random.Random(51)
        cases = []
        for seed in range(20):
            kind = "rects" if seed % 2 else "disks"
            inst = generate(kind, rng.randint(1, 10), rng.randint(1, 8),
                            "uniform", seed=seed)
            cases.append((kind, inst.points, inst.objects))
        cases += [_degenerate_rects(seed) for seed in range(60)]
        cases += [_degenerate_disks(seed, ulps) for seed in range(30)
                  for ulps in (-1, 0, 1)]
        for kind, points, objects in cases:
            opt, wit = exact_min_ply(points, objects, kind)
            ref_opt, _ = exhaustive_min_ply(points, objects, kind)
            assert opt == ref_opt
            chosen = [objects[i] for i in wit]
            assert covers(points, chosen)
            ply = (depth_reference.ply_rects(chosen) if kind == "rects"
                   else depth_reference.ply_disks(chosen))
            assert ply == opt


def _degenerate_rects(seed):
    """Rects on a half-unit grid, some repeated: touching sides, shared
    corners, and overlaps a neighbour clips to a segment or a point; the
    points sit on their corners and side midpoints."""
    rng = random.Random(seed)
    rects = [UnitRect(F(rng.randint(0, 6), 2), F(rng.randint(0, 4), 2),
                      F(rng.randint(1, 4), 2))
             for _ in range(rng.randint(2, 9))]
    rects += [rng.choice(rects) for _ in range(rng.randint(0, 2))]
    rng.shuffle(rects)
    spots = sorted({Point(x, y) for r in rects
                    for x in (r.left, (r.left + r.right) / 2, r.right)
                    for y in (r.bottom, r.top)}, key=lambda p: (p.x, p.y))
    return "rects", rng.sample(spots, rng.randint(1, min(8, len(spots)))), \
        rects


def _degenerate_disks(seed, ulps):
    """Disks centred on a half-unit grid, so that many are exactly one
    apart, with copies one unit away moved by ulps and coincident copies;
    the points are centres and midpoints of centres that some disk holds."""
    rng = random.Random(seed)
    disks = [UnitDisk(Point(rng.randint(0, 4) / 2, rng.randint(0, 3) / 2))
             for _ in range(rng.randint(2, 7))]
    for _ in range(rng.randint(1, 2)):
        c = rng.choice(disks).center
        dx, dy = rng.choice(((1.0, 0.0), (0.0, 1.0)))
        disks.append(UnitDisk(Point(nudged(c.x + dx, ulps), c.y + dy)))
    disks += [rng.choice(disks) for _ in range(rng.randint(0, 2))]
    rng.shuffle(disks)
    cs = [d.center for d in disks]
    spots = [Point(x, y) for x, y in sorted({((a.x + b.x) / 2,
                                              (a.y + b.y) / 2)
                                             for a in cs for b in cs})]
    spots = [p for p in spots if any(d.contains(p) for d in disks)]
    return "disks", rng.sample(spots, rng.randint(1, min(8, len(spots)))), \
        disks


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

    def test_uncoverable_raises_infeasible(self):
        # the first point in input order that no disk covers is named, in
        # the words of `solve_3color`
        points = [Point(0.0, 0.0), Point(9.0, 9.0), Point(5.0, 0.0)]
        with pytest.raises(Infeasible, match=re.escape(
                "point Point(x=9.0, y=9.0) is covered by no object")):
            exact_3color_cover(points, [UnitDisk(Point(0.0, 0.0))])


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
        assert covers(points, [ivs[i] for i in wit])

    def test_infeasible(self):
        with pytest.raises(Infeasible, match=re.escape(
                "point Fraction(5, 1) is covered by no interval")):
            exact_intervals([F(5), F(1, 2), F(3)],
                            [WeightedInterval(F(0), F(1))])

    def test_mpc_counts_pointless_overlap(self):
        ivs = [WeightedInterval(F(0), F(2), F(2)),
               WeightedInterval(F(1), F(3), F(3))]
        points = [F(1, 4), F(11, 4)]
        mmsc, _ = exact_intervals(points, ivs, "mmsc")
        mpc, _ = exact_intervals(points, ivs, "mpc")
        assert mmsc == 3
        assert mpc == 5  # the overlap region holds no point but both weights

    def test_unknown_mode_is_refused_as_the_solver_refuses_it(self):
        # the oracle and the solver own one list of modes, and one message
        ivs = [WeightedInterval(F(0), F(2))]
        errors = []
        for run in (exact_intervals, evaluate_objective):
            with pytest.raises(ValueError) as err:
                run([F(1)], ivs, "xyz")
            errors.append(str(err.value))
        assert errors == ["mode must be one of ('mmsc', 'mpc')"] * 2


class TestGridSampler:
    def test_empty(self):
        assert grid_depth_disks([]) == 0

    def test_never_exceeds_candidate_ply(self):
        rng = random.Random(52)
        for seed in range(10):
            inst = generate("disks", 0, rng.randint(1, 8), "uniform",
                            seed=seed)
            assert grid_depth_disks(inst.objects) <= ply_disks(inst.objects)
