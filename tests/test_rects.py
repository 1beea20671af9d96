import json
import random
from fractions import Fraction as F

import pytest
from conftest import covers, forced_pair_rects, slab_points

from plycover.errors import BudgetExceeded, Infeasible
from plycover.geom import (LEFT, RIGHT, Point, UnitRect, ply_rects,
                           rect_pairs, sweep_events)
from plycover.instances import Instance, dumps, generate, loads
from plycover.oracle import exact_min_ply
from plycover.rects import rect_slab_problem, rect_spans, solve_slab_rects
from plycover.slabs import assign_slabs, solve_mpc
from plycover.stripdag import StripState, successors


def sq(left, bottom):
    return UnitRect(F(left), F(bottom))


class TestStrips:
    def test_one_square_three_strips(self):
        assert len(sweep_events(rect_spans([sq(0, 0)]))) + 1 == 3

    def test_two_disjoint_squares_five_strips(self):
        assert len(sweep_events(rect_spans([sq(0, 0), sq(3, 0)]))) + 1 == 5

    def test_shared_left_x_breaks_ties_by_y(self):
        ev = sweep_events(rect_spans([sq(0, 0), UnitRect(F(0), F(3, 2))]))
        assert len(ev) + 1 == 5
        assert [e[1] for e in ev] == [LEFT, LEFT, RIGHT, RIGHT]
        assert ev[0][2] < ev[1][2] and ev[2][2] < ev[3][2]


class TestSuccessors:
    # `successors` gives the next strip's (members, union) pairs, keep
    # (or drop) before take
    def test_left_event_offers_keep_and_take(self):
        prob = rect_slab_problem([], [sq(0, 0)])
        out = successors(prob, StripState(0, 0))
        assert out == [(0, 0), (0b1, 0b1)]

    def test_right_event_forces_drop(self):
        prob = rect_slab_problem([], [sq(0, 0)])
        out = successors(prob, StripState(1, 0b1, 0b1))
        assert out == [(0, 0b1)]

    def test_uncovered_point_kills_keep_branch(self):
        # point inside the square's strip: the empty set cannot continue
        prob = rect_slab_problem([Point(F(1, 2), F(1, 2))], [sq(0, 0)])
        out = successors(prob, StripState(0, 0))
        assert out == [(0b1, 0b1)]

    def test_ply_budget_prunes_overlapping_take(self):
        r2 = UnitRect(F(1, 2), F(0))
        prob = rect_slab_problem([], [sq(0, 0), r2])
        left, _, obj, _, _ = prob.steps[1]
        assert left and obj == 1
        out = successors(prob, StripState(1, 0b1, 0b1))
        assert out == [(0b1, 0b1)]  # {0,1} exceeds ply 1


class TestSolveSlab:
    def test_single_point_single_square(self):
        points, rects = [Point(F(1, 2), F(1, 2))], [sq(0, 0)]
        problem = rect_slab_problem(points, rects)
        assert solve_slab_rects(points, rects, 1, problem) == [0]

    def test_forced_pair_needs_budget_two(self):
        points, rects = forced_pair_rects()
        assert exact_min_ply(points, rects, "rects")[0] == 2
        problem = rect_slab_problem(points, rects)
        assert solve_slab_rects(points, rects, 1, problem) is None
        assert solve_slab_rects(points, rects, 2, problem) == [0, 1]

    def test_point_left_of_everything_is_infeasible(self):
        points, rects = [Point(F(-5), F(0))], [sq(0, 0)]
        problem = rect_slab_problem(points, rects)
        assert solve_slab_rects(points, rects, 3, problem) is None


def _slab_restriction(inst):
    slabs = assign_slabs(inst.points, inst.objects, "rects")
    for slab in slabs:
        yield (slab_points(inst.points, slab),
               [inst.objects[i] for i in slab.objects])


class TestFuzzAgainstOracle:
    def test_success_iff_oracle_budget(self):
        rng = random.Random(20)
        for seed in range(40):
            inst = generate("rects", rng.randint(1, 10), rng.randint(1, 10),
                            "slab-stress", seed=seed)
            for pts, objs in _slab_restriction(inst):
                opt, _ = exact_min_ply(pts, objs, "rects")
                problem = rect_slab_problem(pts, objs)
                for ell in range(1, opt + 2):
                    res = solve_slab_rects(pts, objs, ell, problem)
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
                res = solve_slab_rects(pts, objs, opt,
                                       rect_slab_problem(pts, objs))
                chosen = [objs[i] for i in res]
                assert covers(pts, chosen)
                assert ply_rects(chosen) <= opt

    def test_strip_capacity_bound_on_optimal_solutions(self):
        # no strip is crossed by more than 3*ell rectangles of a ply-ell cover
        rng = random.Random(22)
        for seed in range(40):
            inst = generate("rects", rng.randint(1, 10), rng.randint(2, 10),
                            "slab-stress", seed=seed + 900)
            for pts, objs in _slab_restriction(inst):
                opt, wit = exact_min_ply(pts, objs, "rects")
                events = sweep_events(rect_spans(objs))
                chosen = set(wit)
                for counts in _strip_counts(events, len(objs), chosen):
                    assert counts <= 3 * opt


def _strip_counts(events, m, chosen):
    left = {}
    right = {}
    for pos, e in enumerate(events):
        if e[1] == LEFT:
            left[e[3]] = pos
        else:
            right[e[3]] = pos
    for i in range(len(events) + 1):
        yield sum(1 for o in chosen if left[o] < i <= right[o])


def _fraction_load(text):
    """Reference reader of a rect file: every value through `Fraction`,
    every point through `Point` and every rect through `UnitRect`."""
    points, rects = [], []
    for ln in text.splitlines()[1:]:
        rec = json.loads(ln)
        if "p" in rec:
            points.append(Point(*map(F, rec["p"])))
        else:
            rects.append(UnitRect(*map(F, rec["r"])))
    return points, rects


# denominators 3, 7, 2**70 and primes near 1e6 and 2**61
_DENS = (1, 2, 3, 7, 2 ** 70, 999_983, 1_000_003, 2 ** 61 - 1)
_TINY = F(1, 2 ** 70)


def _gritty_rects(rng):
    """Rects and points on exact rationals with awkward denominators,
    negative values, and values closer than 2**-64, which share an odd
    `pair_ranks` key.  Many bottoms sit whole steps above one base, so
    tops meet bottoms and often slab boundaries, or just miss them;
    points sit inside, on the sides and corners of the rects, and now and
    then in none."""

    def val(lo, hi):
        d = rng.choice(_DENS)
        v = F(rng.randint(lo * d, hi * d), d)
        return v + rng.choice((0, 0, _TINY, -_TINY))

    base = val(-3, 3)
    rects = []
    for _ in range(rng.randint(1, 7)):
        bottom = rng.choice((base + rng.randint(0, 4), val(-3, 5)))
        bottom += rng.choice((0, 0, _TINY, -_TINY))
        rects.append(UnitRect(val(-2, 2), bottom,
                              rng.choice((F(1), abs(val(0, 2)) + _TINY))))
    points = []
    for _ in range(rng.randint(1, 8)):
        r = rng.choice(rects)
        if rng.random() < 0.04:
            points.append(Point(val(-6, 6), val(-6, 8)))
            continue
        xs = (r.left, r.right, r.left + r.width * F(rng.randint(0, 7), 7))
        ys = (r.bottom, r.top, r.bottom + F(rng.randint(0, 3), 3))
        points.append(Point(rng.choice(xs), rng.choice(ys)))
    return points, rects


def _outcome(points, rects, ell_max):
    try:
        sol = solve_mpc(points, rects, "rects", ell_max=ell_max)
    except (Infeasible, BudgetExceeded) as e:
        return type(e).__name__, str(e)
    return sol.chosen, sol.objective


class TestPairsAgainstObjects:
    def test_differential_fuzz(self):
        # the same instance given as int pairs, scrambled int pairs and
        # Points/UnitRects: the same chosen set and objective, or the same
        # error text; and within 2x the exact optimum
        rng = random.Random(0x9A125)
        odd_shared = infeasible = budget = 0

        def scramble(pair):
            k = rng.choice((1, 2, 3, -1, -6))
            return pair[0] * k, pair[1] * k

        for seed in range(250):
            points, rects = _gritty_rects(rng)
            pts, rs = rect_pairs(points, rects)
            assert (pts, rs) == rect_pairs(pts, rs)
            mixed = ([tuple(map(scramble, p)) for p in pts],
                     [tuple(map(scramble, r)) for r in rs])
            ys = [y for _, y in pts] + [b for _, b, _ in rs]
            keys = [(n << 64) // d for n, d in ys]
            odd_shared += len(set(keys)) < len(set(ys))
            for ell_max in (None, 1):
                want = _outcome(points, rects, ell_max)
                assert _outcome(pts, rs, ell_max) == want, seed
                assert _outcome(*mixed, ell_max) == want, seed
                if want[0] == "Infeasible":
                    infeasible += 1
                    continue
                if want[0] == "BudgetExceeded":
                    budget += 1
                    continue
                if ell_max is None:
                    opt, _ = exact_min_ply(points, rects, "rects")
                    assert want[1] <= 2 * opt, seed
                    chosen = [rects[i] for i in want[0]]
                    assert covers(points, chosen), seed
                    assert ply_rects(chosen) == want[1], seed
        assert odd_shared > 30 and infeasible > 30 and budget > 10

    def test_bad_pairs_refused(self):
        one, zero = (1, 1), (0, 1)
        for width in (zero, (0, 5), (-1, 2), (1, -2)):
            with pytest.raises(ValueError,
                               match="rectangle width must be positive"):
                solve_mpc([(one, one)], [(zero, zero, width)], "rects")


class TestPairPath:
    def test_pairs_and_objects_solve_alike(self):
        # the int pairs a file is read into solve exactly as the objects,
        # and the lazily built objects equal a Fraction-by-Fraction read
        rng = random.Random(48)
        for seed in range(30):
            dist = ("uniform", "clustered", "slab-stress")[seed % 3]
            inst = generate("rects", rng.randint(0, 14), rng.randint(1, 10),
                            dist, seed=seed + 700)
            text = dumps(inst)
            back = loads(text)
            from_pairs = solve_mpc(*back.pairs, "rects")
            from_objects = solve_mpc(inst.points, inst.objects, "rects")
            assert from_pairs.chosen == from_objects.chosen
            assert from_pairs.objective == from_objects.objective
            points, rects = _fraction_load(text)
            assert back.points == points == inst.points
            assert all(type(p.x) is F and type(p.y) is F
                       for p in back.points)
            assert back.objects == rects == inst.objects
            assert back.pairs == loads(text).pairs

    def test_pairs_of_objects_are_exact(self):
        points = [Point(F(1, 3), F(-22, 7)), Point(2, 0.5)]
        rects = [UnitRect(F(-5, 3), F(0), F(9, 7)), UnitRect(1, F(-1, 2))]
        pts, rs = Instance("rects", points, rects).pairs
        assert pts == [((1, 3), (-22, 7)), ((2, 1), (1, 2))]
        assert rs == [((-5, 3), (0, 1), (9, 7)), ((1, 1), (-1, 2), (1, 1))]
        assert [Point(F(*x), F(*y)) for x, y in pts] == points
        assert [UnitRect(*(F(*v) for v in r)) for r in rs] == rects

    def test_pairs_follow_the_lists_once_read(self):
        inst = loads(dumps(generate("rects", 6, 5, "uniform", seed=2)))
        file_pairs = inst.pairs
        inst.points.append(Point(F(100, 3), F(1, 2)))
        assert inst.pairs[0] == file_pairs[0] + [((100, 3), (1, 2))]
        assert inst.pairs[1] == file_pairs[1]
        del inst.objects[2:]
        assert inst.pairs[1] == file_pairs[1][:2]

    def test_mixed_kinds_rejected(self):
        # a file holds objects of its header's kind only
        for kind, rec in (("rects", '{"d":[0.5,0.5]}'),
                          ("disks", '{"r":["0","0","1"]}'),
                          ("intervals", '{"r":["0","0","1"]}')):
            with pytest.raises(ValueError) as e:
                loads('{"kind":"%s"}\n%s\n' % (kind, rec))
            assert str(e.value) == "line 2: not a %s record: %s" % (kind, rec)

    def test_refusals_match_the_objects(self):
        # a rect file is kept as int pairs, so the loader itself refuses
        # what UnitRect and Fraction would, with the same text
        def why(make):
            with pytest.raises((ValueError, ArithmeticError)) as e:
                make()
            return str(e.value)

        bad = [('["0","0","0"]', why(lambda: UnitRect(F(0), F(0), F(0)))),
               ('[0,0,"-1/2"]', why(lambda: UnitRect(0, 0, F(-1, 2)))),
               ('["0","1/0","1"]', why(lambda: F("1/0"))),
               ('["0","0",true]', "a boolean is not a number")]
        assert bad[0][1] == bad[1][1] == "rectangle width must be positive"
        for vals, text in bad:
            rec = '{"kind":"rects"}\n{"p":["1/2","1/2"]}\n\n{"r":%s}\n' % vals
            with pytest.raises(ValueError) as e:
                loads(rec)
            assert str(e.value) == "line 4: bad 'r' record: " + text
