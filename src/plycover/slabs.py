"""Height-2 slab decomposition and the per-slab ply budgets.

Points fall in exactly one slab and every unit-height object intersects at
most two consecutive slabs.  Each slab j is searched upward from ell = 1 to
its own least budget ell_j; a point of the plane meets chosen objects of at
most two consecutive slabs, so the union of the slab covers has ply at most
max_j(ell_j + ell_{j+1}).  The restriction of an optimal cover solves every
slab at the optimum, so ell_j <= OPT and the union is a 2-approximation.
A slab's strip problem is built once and every rung of its ladder searches
a view of it at that budget.  The problem's cover masks show whether a
point is covered by no object, so the points are scanned against the
objects only to name such a point.

Each slab is searched over its live objects only (`live_objects`): those
that contain at least one of its points.  This keeps every guarantee.  An
optimal cover restricted to the live objects still covers the slab's
points at ply <= OPT, so the slab is still solved at some ell_j <= OPT; a
3-colorable cover minus some disks stays 3-colorable (`tricolor`); and a
point covered by no object is covered by no live one, so `Infeasible`
still names it.

Disks are attached to slabs by their exact y-extents cy -/+ 0.5, while
`UnitDisk.contains` is closed under the tolerance EPS_COVER.  Slab
boundaries keep `_BOUNDARY_TOL` from every point y and disk extremum, and
_BOUNDARY_TOL > 2 * EPS_COVER, so no point of a slab lies within the
tolerance of a disk the slab does not hold.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Optional

from . import disks as _disks
from . import rects as _rects
from .errors import BudgetExceeded, Infeasible
# membership_at stays bound here so that perfbench/tracing.py can wrap it
from .geom import (EPS_COVER, WINDOW_SLACK, Box, Point,  # noqa: F401
                   membership_at, ply_disks, ply_rects, ranks, verify_cover)

SLAB_HEIGHT = 2

_BOUNDARY_TOL = 1e-7  # float slack when testing extrema against boundaries


@dataclass(frozen=True)
class SlabInstance:
    index: int
    y_lo: object
    y_hi: object
    points: list
    objects: list  # indices into the global object list


@dataclass
class CoverSolution:
    chosen: list
    objective: object
    colors: Optional[dict] = None


def _critical_ys(points, objects, kind) -> list:
    ys = [p.y for p in points]
    if kind == "rects":
        for r in objects:
            ys.append(r.bottom)
            ys.append(r.top)
    else:
        for d in objects:
            ys.append(d.center.y - 0.5)
            ys.append(d.center.y + 0.5)
    return ys


def slab_offset(points, objects, kind):
    """Grid offset putting no point or object extremum on a slab boundary.

    Candidates sit just below the lowest critical y (shift k/(8(C+1)) for
    k = 1..C+1, all below 1/8), so any instance spanning less than 15/8
    stays in a single slab.  The C+1 candidates are pairwise distinct
    modulo the slab height and at most C residues are bad, so the smallest
    shift that works exists; it is returned.

    Each critical y's residue mod 2 is computed once.  Exactly, it puts
    candidate k on a boundary iff k/(8(C+1)) completes it to 2, so it
    blocks at most one k, found with int arithmetic on its ratio.  In
    floats, the boundary test keeps its tolerance and runs as before, but
    only for the k whose shift comes within that tolerance (and a bound on
    float error) of completing the residue; no other k can fail it.  Both
    take O(C) steps while 8(C+1) times the tolerance stays below 1.
    """
    ys = _critical_ys(points, objects, kind)
    if not ys:
        return Fraction(0) if kind == "rects" else 0.0
    n = len(ys)
    steps = 8 * (n + 1)
    base = min(ys)
    blocked = bytearray(n + 2)
    if kind == "rects":
        # (y - base) * steps + k must be a multiple of 2 * steps
        bn, bd = base.as_integer_ratio()
        for y in ys:
            yn, yd = y.as_integer_ratio()
            t, rem = divmod((yn * bd - bn * yd) * steps, yd * bd)
            k = -t % (2 * steps)
            if rem == 0 and k <= n + 1:
                blocked[k] = 1
        k = blocked.index(0, 1)
        return base - Fraction(k, steps)
    fbase = float(base)
    # tolerance plus a bound on the float error of any residue, far above
    # rounding at these magnitudes
    band = _BOUNDARY_TOL + 2.0 ** -40 * (max(-fbase, max(ys)) + 2.0)
    reach = band * steps
    last = 1.875 - band
    for y in ys:
        r = (y - fbase) % 2.0
        if r > band and r < last:
            continue  # the shifts, in (0, 1/8], complete it to no boundary
        centre = (2.0 - r) * steps if r > band else 0.0
        for k in range(max(1, math.floor(centre - reach)),
                       min(n + 1, math.ceil(centre + reach)) + 1):
            r = (y - (fbase - k / (8.0 * (n + 1)))) % 2.0
            if r < _BOUNDARY_TOL or r > 2.0 - _BOUNDARY_TOL:
                blocked[k] = 1
    k = blocked.index(0, 1)
    return fbase - k / (8.0 * (n + 1))


def assign_slabs(points, objects, kind) -> list[SlabInstance]:
    """Partition points into height-2 slabs; attach the objects each slab
    intersects.  Only slabs containing at least one point are returned.

    An object's y-span has height 1, so it meets at most the slab holding
    its bottom and the next one; only those two are tested, and
    `yhi > lo and ylo < hi` decides.  Slab indices are exact for rects, on
    ints.  For disks they are floats, and `slab_offset` keeps every
    extremum farther from a boundary than their rounding reaches."""
    if kind not in ("rects", "disks"):
        raise ValueError("kind must be 'rects' or 'disks'")
    off = slab_offset(points, objects, kind)
    if kind == "rects":
        on, od = off.as_integer_ratio()

        def index(y):
            # floor((y - off) / 2), without making a Fraction
            yn, yd = y.as_integer_ratio()
            return (yn * od - on * yd) // (2 * yd * od)
        spans = [(r.bottom, r.top) for r in objects]
    else:
        def index(y):
            return math.floor((y - off) / 2)
        spans = [(d.center.y - 0.5, d.center.y + 0.5) for d in objects]
    by_slab: dict[int, list] = {}
    for p in points:
        by_slab.setdefault(index(p.y), []).append(p)
    slabs = {j: SlabInstance(j, off + SLAB_HEIGHT * j,
                             off + SLAB_HEIGHT * (j + 1), by_slab[j], [])
             for j in sorted(by_slab)}
    for i, (ylo, yhi) in enumerate(spans):
        j = index(ylo)
        for slab in (slabs.get(j), slabs.get(j + 1)):
            if slab is not None and yhi > slab.y_lo and ylo < slab.y_hi:
                slab.objects.append(i)
    return list(slabs.values())


def live_objects(points, objects, indices, kind) -> list:
    """The indices in `indices` whose object contains at least one of
    `points`, in their given order.

    The points are sorted by x once.  Each object tests only the points in
    its x-window, found by bisection, and stops at its first hit: the
    window is [left, right] for rectangles and `Box`es, and cx -/+ (0.5 +
    EPS_COVER + WINDOW_SLACK) for disks.  It holds every point `contains`
    can accept, and `contains` decides.
    """
    pts = sorted(points, key=attrgetter("x"))
    xs = [p.x for p in pts]
    reach = 0.5 + EPS_COVER + WINDOW_SLACK
    live = []
    for i in indices:
        o = objects[i]
        if kind == "rects":
            lo, hi = o.left, o.right
        else:
            lo, hi = o.center.x - reach, o.center.x + reach
        window = pts[bisect_left(xs, lo):bisect_right(xs, hi)]
        if any(map(o.contains, window)):
            live.append(i)
    return live


def _rank_rects(points, rects):
    """The rect instance on coordinate ranks: (rank Points, Boxes).

    Point x, left and right sides are ranked together, and so are point y,
    bottom and top sides.  Below the slab split every rect predicate only
    compares coordinates, so the ranks decide exactly as the rationals do.
    """
    n = len(points)
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    for r in rects:
        xs.append(r.left)
        xs.append(r.left + r.width)
        ys.append(r.bottom)
        ys.append(r.bottom + 1)
    xr, yr = ranks(xs), ranks(ys)
    rank_points = [Point(x, y) for x, y in zip(xr[:n], yr[:n])]
    boxes = [Box(xr[k], xr[k + 1], yr[k], yr[k + 1])
             for k in range(n, len(xr), 2)]
    return rank_points, boxes


def solve_mpc(points, objects, kind,
              ell_max: Optional[int] = None) -> CoverSolution:
    """2-approximate minimum ply cover for unit-height rectangles or disks.

    Each slab is searched over its live objects, and takes the least
    budget ell_j at which its strip search succeeds, trying ell = 1, 2, ...
    up to its number of live objects (at which any coverable slab succeeds)
    or ell_max, whichever is smaller.  The slab's strip problem is built
    once, and every budget searches a view of it.  When the problem's cover
    masks leave a point uncovered, its points are checked against its
    objects; a point covered by none raises Infeasible naming it.  A slab that needs more than ell_max raises
    BudgetExceeded, but only after every slab has been checked, so an
    uncovered point anywhere wins.

    Rectangles are split into slabs on their exact coordinates and then
    solved as Boxes of coordinate ranks (`_rank_rects`).
    """
    if kind not in ("rects", "disks"):
        raise ValueError("kind must be 'rects' or 'disks'")
    points = list(points)
    objects = list(objects)
    if not points:
        return CoverSolution([], 0)

    if kind == "rects":
        solve_points, solve_objects = _rank_rects(points, objects)
        orig = list(range(len(objects)))
        to_solve = dict(zip(points, solve_points))
        slabs = [(slab, [to_solve[p] for p in slab.points])
                 for slab in assign_slabs(points, objects, kind)]

        def objective(chosen):
            return ply_rects([solve_objects[i] for i in chosen])

        build, slab_solve = _rects.rect_slab_problem, _rects.solve_slab_rects
    else:
        solve_objects, orig = _disks.dedupe_disks(objects)
        slabs = [(slab, slab.points)
                 for slab in assign_slabs(points, solve_objects, kind)]

        def objective(chosen):
            return ply_disks([objects[i] for i in chosen])

        build, slab_solve = _disks.disk_slab_problem, _disks.solve_slab_disks

    union: set[int] = set()
    over = None
    for slab, pts in slabs:
        live = live_objects(pts, solve_objects, slab.objects, kind)
        objs = [solve_objects[i] for i in live]
        cap = len(objs) if ell_max is None else min(ell_max, len(objs))
        problem = build(pts, objs, 1)
        ell = 1
        res = slab_solve(pts, objs, ell, problem) if cap >= 1 else None
        if res is None and problem.uncovered:
            for p, given in zip(pts, slab.points):
                if not verify_cover([p], objs):
                    raise Infeasible("point %r is covered by no object"
                                     % (given,))
        while res is None and ell < cap:
            ell += 1
            res = slab_solve(pts, objs, ell, problem)
        if res is None:
            over = (slab.index, cap)
        else:
            union.update(live[i] for i in res)
    if over is not None:
        raise BudgetExceeded("slab %d has no cover within ply budget %d"
                             % over)
    chosen = sorted(orig[i] for i in union)
    return CoverSolution(chosen, objective(chosen))
