"""Collision-heavy fuzz: coordinates drawn from tiny integer grids so that
shared endpoints, duplicate objects, and points exactly on boundaries are
the common case rather than the exception."""
import random
from fractions import Fraction as F

from plycover.geom import (Point, UnitRect, WeightedInterval, ply_rects,
                           verify_cover)
from plycover.intervals import solve_intervals
from plycover.oracle import exact_intervals, exact_min_ply
from plycover.slabs import solve_mpc


# strictly increasing map of grid 0..10, so shared endpoints and points on
# boundaries stay exactly where the integer grid puts them, but the
# coordinates mix thirds, sevenths, ninths and primes near 1e5 and go
# negative
_OFFSET = (F(0), F(1, 3), F(2, 7), F(1, 100_003), F(5, 9), F(3, 7), F(2, 3),
           F(1, 7), F(8, 9), F(4, 100_019), F(7, 9))


def _on_grid(g):
    return g - 5 + _OFFSET[g]


def _gritty_intervals(rng, mixed=False):
    """Integer-grid instance; with `mixed`, moved by `_on_grid`, with
    weights 1/3, 1/6 and 1/100043 among the choices.  Points come as
    Fractions, Points, ints or floats (on the integer grid) and as
    Fractions or Points (mixed)."""
    at = _on_grid if mixed else F
    weights = (0, 0, 1, 2, 5)
    if mixed:
        weights += (F(1, 3), F(1, 6), F(1, 100_043))
    m = rng.randint(1, 9)
    ivs = []
    for _ in range(m):
        lo = rng.randint(0, 6)
        ivs.append(WeightedInterval(at(lo), at(lo + rng.randint(1, 4)),
                                    F(rng.choice(weights))))
    ivs.sort(key=lambda s: (s.hi, s.lo, s.weight))
    n = rng.randint(0, 8)
    grid = sorted(rng.choice(ivs).lo if rng.random() < 0.3
                  else at(rng.randint(0, 10)) for _ in range(n))
    grid = [x for x in grid if any(s.contains(x) for s in ivs)]
    forms = (F, lambda x: Point(x, 0))
    if not mixed:
        forms += (int, float)
    return [rng.choice(forms)(x) for x in grid], ivs


def test_interval_solver_on_integer_grid_matches_oracle():
    for seed in range(150):
        for mixed in (False, True):
            rng = random.Random(seed)
            pts, ivs = _gritty_intervals(rng, mixed)
            for mode in ("mmsc", "mpc"):
                sol = solve_intervals(pts, ivs, mode)
                opt, _ = exact_intervals(pts, ivs, mode)
                assert sol.objective == opt, (seed, mixed, mode)
                assert type(sol.objective) is F
                chosen = [ivs[i] for i in sol.chosen]
                assert verify_cover(pts, chosen)


def _gritty_rects(rng):
    m = rng.randint(1, 8)
    rects = [UnitRect(F(rng.randint(0, 4), 2), F(rng.randint(0, 4), 2))
             for _ in range(m)]
    n = rng.randint(1, 8)
    pts = []
    for _ in range(n):
        r = rects[rng.randrange(m)]
        # corners and edge midpoints land exactly on boundaries
        fx = rng.choice((F(0), F(1, 2), F(1)))
        fy = rng.choice((F(0), F(1, 2), F(1)))
        pts.append(Point(r.left + fx * r.width, r.bottom + fy))
    return pts, rects


def test_rect_pipeline_on_half_integer_grid_matches_oracle():
    for seed in range(80):
        rng = random.Random(seed + 10_000)
        pts, rects = _gritty_rects(rng)
        opt, _ = exact_min_ply(pts, rects, "rects")
        sol = solve_mpc(pts, rects, "rects")
        chosen = [rects[i] for i in sol.chosen]
        assert verify_cover(pts, chosen), seed
        assert sol.objective == ply_rects(chosen)
        assert sol.objective <= 2 * opt, (seed, sol.objective, opt)


def test_duplicate_rects_and_points_are_handled():
    rects = [UnitRect(F(0), F(0)), UnitRect(F(0), F(0)), UnitRect(F(0), F(0))]
    pts = [Point(F(1, 2), F(1, 2))] * 3 + [Point(F(0), F(0))]
    sol = solve_mpc(pts, rects, "rects")
    assert sol.objective == 1
    assert len(sol.chosen) == 1
