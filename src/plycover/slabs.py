"""Height-2 slab decomposition and the one per-slab loop of the 2-D
solvers.

Points fall in exactly one slab and every unit-height object meets at
most two consecutive slabs.  `search_slabs` searches each slab on its own,
for `solve_mpc` (rects and disks) and `tricolor.solve_3color` alike: it
ranks rects into `Box`es or dedupes disks, assigns slabs, builds each
slab's strip problem once over the slab's live objects, walks the slab's
ladder of budgets on views of that problem, and maps each result back to
input indices.

`solve_mpc` searches each slab j upward from ell = 1 to its own least
budget ell_j; a point of the plane meets chosen objects of at most two
consecutive slabs, so the union of the slab covers has ply at most
max_j(ell_j + ell_{j+1}).  The restriction of an optimal cover solves every
slab at the optimum, so ell_j <= OPT and the union is a 2-approximation.
The 3-color ladder has one rung.

Every solver fails in one order.  A point covered by no object, in any
slab, raises Infeasible naming it; the strip problem's cover masks name
it (`StripProblem.uncovered`), so no point is scanned against the
objects.  Otherwise the lowest slab whose ladder fails is reported, and
the slabs above it are built, for that check, but not searched.

Each slab is searched over its live objects only (`live_objects`): those
that contain at least one of its points.  This keeps every guarantee.  An
optimal cover restricted to the live objects still covers the slab's
points at ply <= OPT, so the slab is still solved at some ell_j <= OPT; a
3-colorable cover minus some disks stays 3-colorable (`tricolor`); and a
point covered by no object is covered by no live one, so `Infeasible`
still names it.
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
                   membership_at, ply_disks, ply_rects, ranks)

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


def slab_offset(points, objects, kind):
    """The offset `off` of the slabs: slab j is [off + 2j, off + 2j + 2).

    Rects take the least point y or rect bottom.  Their coordinates are
    exact and the slabs half-open, so no boundary needs avoiding: a rect
    is attached to a slab when it reaches into it (`assign_slabs`), and
    then every rect containing a point meets that point's slab, a rect
    meets at most two consecutive slabs, rects attached to slabs j and
    j + 2 share no point (the first lie below off + 2j + 3, the second from
    there up), and the 3*ell strip cap holds: a rect that reaches into
    slab j and crosses a vertical line holds the bottom, middle or top
    point of the line's closed segment [off + 2j, off + 2j + 2].

    Disks are attached by their exact y-extents cy -/+ 0.5, while
    `UnitDisk.contains` is closed under the tolerance EPS_COVER, so their
    boundaries keep `_BOUNDARY_TOL` > 2 * EPS_COVER from every point y and
    disk extremum; then no point of a slab lies within the tolerance of a
    disk the slab does not hold.  Candidates sit just below the lowest
    critical y (shift k/(8(C+1)) for k = 1..C+1, all below 1/8).  The C+1
    candidates are pairwise distinct modulo the slab height and at most C
    residues are bad, so the smallest shift that works exists; it is
    returned.  Each critical y's residue mod 2 is computed once, and the
    boundary test runs only for the k whose shift comes within the
    tolerance (and a bound on float error) of completing the residue; no
    other k can fail it.  That takes O(C) steps while 8(C+1) times the
    tolerance stays below 1.
    """
    if kind == "rects":
        return min([p.y for p in points] + [r.bottom for r in objects],
                   default=Fraction(0))
    ys = [p.y for p in points]
    for d in objects:
        ys.append(d.center.y - 0.5)
        ys.append(d.center.y + 0.5)
    if not ys:
        return 0.0
    n = len(ys)
    steps = 8 * (n + 1)
    blocked = bytearray(n + 2)
    fbase = float(min(ys))
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
    meets.  Only slabs containing at least one point are returned.

    A point lies in slab j when y_lo <= y < y_hi.  An object's y-span
    [ylo, yhi] has height 1, so it meets at most the slab holding ylo and
    the next one; only those two are tested, and `yhi >= y_lo and ylo <
    y_hi` decides.  Slab indices are exact for rects, on ints.  For disks
    they are floats, and `slab_offset` keeps every extremum farther from a
    boundary than their rounding reaches."""
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
            if slab is not None and yhi >= slab.y_lo and ylo < slab.y_hi:
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


def search_slabs(points, objects, kind, build, solve, ell_max):
    """Search every slab of the instance: the one loop of `solve_mpc` and
    `tricolor.solve_3color`.

    Rects are split into slabs on their exact coordinates and searched as
    Boxes of coordinate ranks (`_rank_rects`); disks are deduped
    (`disks.dedupe_disks`).  Each slab's strip problem is built once over
    its live objects by `build(points, objects)`, and its ladder calls
    `solve(points, objects, ell, problem)` for ell = 1, 2, ... up to its
    number of live objects or ell_max, whichever is smaller, until a
    result comes back.

    A point covered by no object, in any slab, raises Infeasible naming it
    as given.  Otherwise returns (found, failed, searched).  `found` holds
    (slab index, result, input index of each live object) per slab
    solved, and `failed` is (slab index, top budget) for the lowest slab
    whose ladder failed, or None; the slabs above it are built, for the
    coverage check, but not searched.  `searched[i]` is input object i as
    searched: its rank Box for a rect, the disk itself for a disk.
    """
    points, objects = list(points), list(objects)
    if kind == "rects":
        slabs = assign_slabs(points, objects, kind)
        rank_points, searched = _rank_rects(points, objects)
        solve_objects, orig = searched, range(len(objects))
        to_rank = dict(zip(points, rank_points))
    else:
        solve_objects, orig = _disks.dedupe_disks(objects)
        slabs = assign_slabs(points, solve_objects, kind)
        searched = objects
    found, failed = [], None
    for slab in slabs:
        pts = slab.points
        if kind == "rects":
            pts = [to_rank[p] for p in pts]
        live = live_objects(pts, solve_objects, slab.objects, kind)
        objs = [solve_objects[i] for i in live]
        problem = build(pts, objs)
        if problem.uncovered is not None:
            given = slab.points[pts.index(problem.uncovered)]
            raise Infeasible("point %r is covered by no object" % (given,))
        if failed is not None:
            continue
        cap = len(objs) if ell_max is None else min(ell_max, len(objs))
        ell, res = 0, None
        while res is None and ell < cap:
            ell += 1
            res = solve(pts, objs, ell, problem)
        if res is None:
            failed = (slab.index, cap)
        else:
            found.append((slab.index, res, [orig[i] for i in live]))
    return found, failed, searched


def solve_mpc(points, objects, kind,
              ell_max: Optional[int] = None) -> CoverSolution:
    """2-approximate minimum ply cover for unit-height rectangles or disks.

    `search_slabs` runs the slabs, each taking the least budget ell_j at
    which its strip search succeeds, up to its number of live objects (at
    which any coverable slab succeeds) or ell_max.  The lowest slab that
    needs more than ell_max raises BudgetExceeded, unless some point is
    covered by no object.  The ply of the union is taken on the objects
    as searched, rank Boxes for rects.
    """
    if kind == "rects":
        build, solve, ply = (_rects.rect_slab_problem,
                             _rects.solve_slab_rects, ply_rects)
    elif kind == "disks":
        build, solve, ply = (_disks.disk_slab_problem,
                             _disks.solve_slab_disks, ply_disks)
    else:
        raise ValueError("kind must be 'rects' or 'disks'")
    found, failed, searched = search_slabs(points, objects, kind, build,
                                           solve, ell_max)
    if failed is not None:
        raise BudgetExceeded("slab %d has no cover within ply budget %d"
                             % failed)
    chosen = sorted({inputs[k] for _, res, inputs in found for k in res})
    return CoverSolution(chosen, ply([searched[i] for i in chosen]))
