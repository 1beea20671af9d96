import random
from fractions import Fraction as F

from conftest import forced_pair_rects

from plycover.geom import (EventClass, Point, UnitRect, ply_rects,
                           verify_cover)
from plycover.instances import generate
from plycover.oracle import exact_min_ply
from plycover.rects import (build_strips_rects, rect_slab_problem,
                            solve_slab_rects)
from plycover.slabs import assign_slabs
from plycover.stripdag import StripState, successors


def sq(left, bottom):
    return UnitRect(F(left), F(bottom))


class TestStrips:
    def test_one_square_three_strips(self):
        assert len(build_strips_rects([sq(0, 0)])) + 1 == 3

    def test_two_disjoint_squares_five_strips(self):
        assert len(build_strips_rects([sq(0, 0), sq(3, 0)])) + 1 == 5

    def test_shared_left_x_breaks_ties_by_y(self):
        ev = build_strips_rects([sq(0, 0), UnitRect(F(0), F(3, 2))])
        assert len(ev) + 1 == 5
        assert [e.cls for e in ev] == [EventClass.LEFT_SIDE, EventClass.LEFT_SIDE,
                                       EventClass.RIGHT_SIDE, EventClass.RIGHT_SIDE]
        assert ev[0].y < ev[1].y and ev[2].y < ev[3].y


class TestSuccessors:
    def test_left_event_offers_keep_and_take(self):
        prob = rect_slab_problem([], [sq(0, 0)], 1)
        out = successors(prob, StripState(0, 0))
        assert sorted(s.members for s in out) == [(), (0,)]

    def test_right_event_forces_drop(self):
        prob = rect_slab_problem([], [sq(0, 0)], 1)
        out = successors(prob, StripState(1, 0b1, 0b1))
        assert [s.members for s in out] == [()]

    def test_uncovered_point_kills_keep_branch(self):
        # point inside the square's strip: the empty set cannot continue
        prob = rect_slab_problem([Point(F(1, 2), F(1, 2))], [sq(0, 0)], 1)
        out = successors(prob, StripState(0, 0))
        assert [s.members for s in out] == [(0,)]

    def test_ply_budget_prunes_overlapping_take(self):
        r2 = UnitRect(F(1, 2), F(0))
        prob = rect_slab_problem([], [sq(0, 0), r2], 1)
        ev = prob.events
        assert ev[1].obj == 1 and ev[1].cls == EventClass.LEFT_SIDE
        out = successors(prob, StripState(1, 0b1, 0b1))
        assert [s.members for s in out] == [(0,)]  # {0,1} exceeds ply 1


class TestSolveSlab:
    def test_single_point_single_square(self):
        assert solve_slab_rects([Point(F(1, 2), F(1, 2))], [sq(0, 0)], 1) == [0]

    def test_forced_pair_needs_budget_two(self):
        points, rects = forced_pair_rects()
        assert exact_min_ply(points, rects, "rects")[0] == 2
        assert solve_slab_rects(points, rects, 1) is None
        assert solve_slab_rects(points, rects, 2) == [0, 1]

    def test_point_left_of_everything_is_infeasible(self):
        assert solve_slab_rects([Point(F(-5), F(0))], [sq(0, 0)], 3) is None


def _slab_restriction(inst):
    slabs = assign_slabs(inst.points, inst.objects, "rects")
    for slab in slabs:
        yield slab.points, [inst.objects[i] for i in slab.objects]


class TestFuzzAgainstOracle:
    def test_success_iff_oracle_budget(self):
        rng = random.Random(20)
        for seed in range(40):
            inst = generate("rects", rng.randint(1, 10), rng.randint(1, 10),
                            "slab-stress", seed=seed)
            for pts, objs in _slab_restriction(inst):
                opt, _ = exact_min_ply(pts, objs, "rects")
                for ell in range(1, opt + 2):
                    res = solve_slab_rects(pts, objs, ell)
                    if ell < opt:
                        assert res is None
                    else:
                        assert res is not None

    def test_path_soundness(self):
        rng = random.Random(21)
        for seed in range(40):
            inst = generate("rects", rng.randint(1, 12), rng.randint(1, 10),
                            "slab-stress", seed=seed + 500)
            for pts, objs in _slab_restriction(inst):
                opt, _ = exact_min_ply(pts, objs, "rects")
                res = solve_slab_rects(pts, objs, opt)
                chosen = [objs[i] for i in res]
                assert verify_cover(pts, chosen)
                assert ply_rects(chosen) <= opt

    def test_strip_capacity_bound_on_optimal_solutions(self):
        # no strip is crossed by more than 3*ell rectangles of a ply-ell cover
        rng = random.Random(22)
        for seed in range(40):
            inst = generate("rects", rng.randint(1, 10), rng.randint(2, 10),
                            "slab-stress", seed=seed + 900)
            for pts, objs in _slab_restriction(inst):
                opt, wit = exact_min_ply(pts, objs, "rects")
                events = build_strips_rects(objs)
                chosen = set(wit)
                for counts in _strip_counts(events, len(objs), chosen):
                    assert counts <= 3 * opt


def _strip_counts(events, m, chosen):
    left = {}
    right = {}
    for pos, e in enumerate(events):
        if e.cls == EventClass.LEFT_SIDE:
            left[e.obj] = pos
        else:
            right[e.obj] = pos
    for i in range(len(events) + 1):
        yield sum(1 for o in chosen if left[o] < i <= right[o])
