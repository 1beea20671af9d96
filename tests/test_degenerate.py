"""Collision-heavy fuzz: coordinates drawn from tiny integer grids so that
shared endpoints, duplicate objects, and points exactly on boundaries are
the common case rather than the exception."""
import json
import math
import random
import re
from fractions import Fraction as F

import pytest

from conftest import covers
from plycover.cli import main
from plycover.errors import Infeasible
from plycover.geom import (Point, UnitDisk, UnitRect, WeightedInterval,
                           disks_disjoint, ply_disks, ply_rects)
from plycover.instances import Instance, save
from plycover.intervals import solve_intervals
from plycover.oracle import exact_3color_cover, exact_intervals, exact_min_ply
from plycover.slabs import assign_slabs, solve_mpc
from plycover.tricolor import solve_3color


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
                assert covers(pts, chosen)


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
        assert covers(pts, chosen), seed
        assert sol.objective == ply_rects(chosen)
        assert sol.objective <= 2 * opt, (seed, sol.objective, opt)


def test_duplicate_rects_and_points_are_handled():
    rects = [UnitRect(F(0), F(0)), UnitRect(F(0), F(0)), UnitRect(F(0), F(0))]
    pts = [Point(F(1, 2), F(1, 2))] * 3 + [Point(F(0), F(0))]
    sol = solve_mpc(pts, rects, "rects")
    assert sol.objective == 1
    assert len(sol.chosen) == 1


def _mixed_rects(rng):
    """Rects whose sides sit on the `_on_grid` map (thirds, sevenths,
    primes near 1e5, negative values), with bottoms b and b + 1 both in
    use so that rects share and abut sides in y as well as in x, some
    exact duplicates, and points on corners and edge midpoints."""
    m = rng.randint(1, 8)
    rects = []
    for _ in range(m):
        if rects and rng.random() < 0.2:
            rects.append(rng.choice(rects))
            continue
        g = rng.randint(0, 8)
        left, right = _on_grid(g), _on_grid(g + rng.randint(1, 2))
        bottom = _on_grid(rng.randint(3, 6)) + rng.randint(0, 1)
        rects.append(UnitRect(left, bottom, right - left))
    pts = []
    for _ in range(rng.randint(1, 8)):
        r = rng.choice(rects)
        fx = rng.choice((F(0), F(1, 2), F(1)))
        fy = rng.choice((F(0), F(1, 2), F(1)))
        pts.append(Point(r.left + fx * r.width, r.bottom + fy))
    return pts, rects


def test_rect_pipeline_on_mixed_denominators_matches_oracle():
    for seed in range(120):
        rng = random.Random(seed + 20_000)
        pts, rects = _mixed_rects(rng)
        opt, _ = exact_min_ply(pts, rects, "rects")
        sol = solve_mpc(pts, rects, "rects")
        chosen = [rects[i] for i in sol.chosen]
        assert covers(pts, chosen), seed
        assert type(sol.objective) is int
        assert sol.objective == ply_rects(chosen)
        assert sol.objective <= 2 * opt, (seed, sol.objective, opt)
        opts = {}
        for s in assign_slabs(pts, rects, "rects"):
            objs = [rects[i] for i in s.objects]
            opts[s.index] = exact_min_ply(s.points, objs, "rects")[0]
        bound = max(v + opts.get(j + 1, 0) for j, v in opts.items())
        assert sol.objective <= bound, (seed, sol.objective, opts)


def test_uncovered_mixed_point_is_named_as_given():
    rects = [UnitRect(_on_grid(1), _on_grid(3)),
             UnitRect(_on_grid(4), _on_grid(3) + 1, F(2, 7))]
    lost = Point(_on_grid(9), _on_grid(3) + F(1, 2))
    points = [Point(_on_grid(1) + F(1, 2), _on_grid(3)), lost]
    with pytest.raises(Infeasible, match=re.escape(repr(lost))):
        solve_mpc(points, rects, "rects")


def _half_grid_disks(rng):
    """Disks centred on the half-integer grid, so extrema coincide and
    disks touch, with points at centres and straight above or below them,
    some on a boundary circle."""
    disks = [UnitDisk(Point(rng.randint(0, 8) / 2, rng.randint(0, 6) / 2))
             for _ in range(rng.randint(1, 9))]
    pts = [rng.choice(disks).center for _ in range(rng.randint(1, 5))]
    for _ in range(rng.randint(0, 4)):
        c = rng.choice(disks).center
        pts.append(Point(c.x, c.y + rng.choice((-0.5, -0.25, 0.25, 0.5))))
    return pts, disks


def _check_disk_pipelines(pts, disks, seed):
    """Both disk solvers against the oracles on one instance."""
    try:
        opt, _ = exact_min_ply(pts, disks, "disks")
    except Infeasible:
        with pytest.raises(Infeasible):
            solve_mpc(pts, disks, "disks")
        with pytest.raises(Infeasible):
            solve_3color(pts, disks)
        return
    sol = solve_mpc(pts, disks, "disks")
    chosen = [disks[i] for i in sol.chosen]
    assert covers(pts, chosen), seed
    assert sol.objective == ply_disks(chosen)
    assert sol.objective <= 2 * opt, (seed, sol.objective, opt)
    witness = exact_3color_cover(pts, disks)
    try:
        sol = solve_3color(pts, disks)
    except Infeasible:
        assert witness is None, seed
        return
    assert covers(pts, [disks[i] for i in sol.chosen]), seed
    for color in set(sol.colors.values()):
        cls = [disks[i] for i, c in sol.colors.items() if c == color]
        assert all(disks_disjoint(a, b)
                   for k, a in enumerate(cls) for b in cls[k + 1:]), seed


def test_disk_pipelines_with_points_at_centres_match_oracles():
    for seed in range(200):
        rng = random.Random(seed + 30_000)
        _check_disk_pipelines(*_half_grid_disks(rng), seed)


def _near_coincident_disks(rng):
    """Half-grid disks and points, each coordinate moved by nothing or by
    a jitter of 5e-10 to 7e-9 either way, so that centres, extrema and
    points tie or nearly tie in x, and some disks nearly duplicate
    another.  Points sit at a centre or a quarter or half unit away from
    it along an axis, the half unit moved only inward, so that every
    point stays covered."""
    def shift():
        return rng.choice((0, 1)) * rng.uniform(5e-10, 7e-9)

    def jitter(v):
        return v + rng.choice((-1, 1)) * shift()
    disks = []
    for _ in range(rng.randint(1, 9)):
        if disks and rng.random() < 0.3:
            c = rng.choice(disks).center
        else:
            c = Point(rng.randint(0, 8) / 2, rng.randint(0, 6) / 2)
        disks.append(UnitDisk(Point(jitter(c.x), jitter(c.y))))
    pts = []
    for _ in range(rng.randint(1, 6)):
        c = rng.choice(disks).center
        dx, dy = rng.choice(((0, 0), (0, 0), (0, 0.25), (0, -0.5),
                             (0, 0.5), (0.25, 0), (-0.5, 0), (0.5, 0)))
        x = c.x + dx - math.copysign(shift(), dx) if dx else jitter(c.x)
        y = c.y + dy - math.copysign(shift(), dy) if dy else jitter(c.y)
        pts.append(Point(x, y))
    return pts, disks


def test_disk_pipelines_on_near_coincident_coordinates_match_oracles():
    # ties and near-ties far inside the disk tolerance: the (x, class, y,
    # obj) event order decides them, and no instance is refused
    for seed in range(200):
        rng = random.Random(seed + 40_000)
        _check_disk_pipelines(*_near_coincident_disks(rng), seed)


@pytest.mark.parametrize("kind", ["disks", "3color"])
def test_near_duplicate_disks_solve_from_the_cli(tmp_path, kind):
    inst = tmp_path / "inst.jsonl"
    sol = tmp_path / "sol.json"
    save(Instance("disks", [Point(0.0, 0.5)],
                  [UnitDisk(Point(0.0, 0.5)),
                   UnitDisk(Point(0.0, 0.500000005))]), inst)
    assert main(["solve", "--kind", kind, "--in", str(inst),
                 "--out", str(sol)]) == 0
    assert json.loads(sol.read_text())["objective"] == 1
    assert main(["check", "--in", str(inst), "--solution", str(sol)]) == 0
