import itertools
import random
import re
from collections import Counter

import pytest

from conftest import (covers, k4_clique, nudged, ply3_not_3colorable,
                      triangle_3colorable)
from strip_reference import mask_step_3color

from plycover import tricolor
from plycover.disks import dedupe_disks, disk_slab_problem
from plycover.errors import Infeasible
from plycover.geom import Point, UnitDisk, disks_disjoint
from plycover.instances import generate
from plycover.oracle import exact_3color_cover, exact_min_ply
from plycover.slabs import assign_slabs
from plycover.tricolor import solve_3color, solve_slab_3color


class TestSlabSolver:
    def test_single_point_single_disk(self):
        points, disks = [Point(0.5, 0.5)], [UnitDisk(Point(0.5, 0.5))]
        out = solve_slab_3color(points, disks,
                                disk_slab_problem(points, disks))
        assert out == ((0,), (), ())

    def test_k4_clique_has_no_3coloring(self):
        points, disks = k4_clique()
        assert solve_slab_3color(points, disks,
                                 disk_slab_problem(points, disks)) is None
        assert exact_3color_cover(points, disks) is None

    def test_triangle_uses_one_disk_per_class(self):
        points, disks = triangle_3colorable()
        out = solve_slab_3color(points, disks,
                                disk_slab_problem(points, disks))
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


def _dense_column(rng):
    """Disks crowded into a column about one unit wide, with points on
    them: many conflicts and many states per strip."""
    disks = [UnitDisk(Point(rng.uniform(0, 1.2), rng.uniform(0.5, 2.5)))
             for _ in range(rng.randint(6, 14))]
    points = [Point(d.center.x + rng.uniform(-0.3, 0.3),
                    d.center.y + rng.uniform(-0.3, 0.3))
              for d in rng.sample(disks, rng.randint(1, len(disks)))]
    return points, disks


def _near_boundary(rng):
    """Disks whose bottom or top lies on a slab boundary (the even ints,
    with a point at y = 0), one ulp or a little off it, each with a point
    near its centre: disks of adjacent slabs."""
    disks = []
    for _ in range(rng.randint(4, 12)):
        cy = 2 * rng.randint(1, 2) + rng.choice((0.5, -0.5))
        cy = nudged(cy, rng.choice((-1, 0, 1))) + rng.choice((0, 1e-9, -1e-6))
        disks.append(UnitDisk(Point(rng.uniform(0, 4), cy)))
    points = [Point(disks[0].center.x, 0.0)] + [
        Point(d.center.x, d.center.y + rng.uniform(-0.2, 0.2)) for d in disks]
    disks.append(UnitDisk(Point(disks[0].center.x, 0.4)))
    return points, disks


def _placement_cases(problem, i, classes, unions):
    """How each successor of one state at event i places the class the
    event changed, as the replaced step gives it: a join into an empty
    class landing first, middle or last; a grown class passing 1 or 2
    others; class a emptied, with or without an empty class after it; a
    shrunk class moving left."""
    left, bit = problem.steps[i][:2]
    out = []
    for key, us in mask_step_3color(problem, i, {classes: unions}).items():
        if left:
            grown = [k for k in range(3) if key[k] & bit]
            if not grown:
                continue  # keep
            p = grown[0]
            old = key[p] ^ bit
            if not old:
                out.append(("join", ("first", "middle", "last")[p]))
            elif p > classes.index(old):
                out.append(("passes", p - classes.index(old)))
        elif (classes[0] | classes[1] | classes[2]) & bit:
            a = next(k for k in range(3) if classes[k] & bit)
            p = us.index(unions[a])  # unions of distinct classes differ
            if not key[p]:
                out.append(("emptied", a, 0 in classes[a + 1:]))
            elif p < a:
                out.append(("moves left",))
    return out


def test_step_matches_the_replaced_step_after_every_event():
    # the in-place step gives every successor the key and union the
    # replaced copy-and-sort step gives, in the same dict order, so every
    # key keeps its first path; each placement case occurs
    rng = random.Random(0x3C0)
    seen = Counter()
    events = 0
    for seed in range(90):
        if seed % 3 == 0:
            inst = generate("disks", rng.randint(8, 30), rng.randint(8, 24),
                            ("uniform", "slab-stress")[seed % 2], seed=seed)
            points, disks = inst.points, inst.objects
        elif seed % 3 == 1:
            points, disks = _dense_column(rng)
        else:
            points, disks = _near_boundary(rng)
        disks = dedupe_disks(disks)[0]
        for slab in assign_slabs(points, disks, "disks"):
            problem = disk_slab_problem(
                [points[k] for k in slab.point_indices],
                [disks[i] for i in slab.objects])
            if problem.uncovered is not None:
                continue
            states = {tricolor._EMPTY: tricolor._EMPTY}
            for i in range(len(problem.steps)):
                for classes, unions in states.items():
                    seen.update(_placement_cases(problem, i, classes, unions))
                want = mask_step_3color(problem, i, states)
                states = tricolor._step(problem, i, states)
                assert list(states.items()) == list(want.items()), (seed, i)
                events += 1
                if not states:
                    break
    assert events > 1000
    assert set(seen) == {
        ("join", "first"), ("join", "middle"), ("join", "last"),
        ("passes", 1), ("passes", 2),
        ("emptied", 0, False), ("emptied", 0, True),
        ("emptied", 1, False), ("emptied", 1, True), ("emptied", 2, False),
        ("moves left",)}, seen
