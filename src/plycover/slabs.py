"""Height-2 slab decomposition and the one per-slab loop of the 2-D
solvers.

Points fall in exactly one slab and every unit-height object meets at
most two consecutive slabs.  `search_slabs` searches each slab on its own,
for `solve_mpc` (rects and disks) and `tricolor.solve_3color` alike: it
takes rects as exact int pairs and ranks them into `Box`es, or dedupes
disks, assigns slabs, builds each slab's strip problem once over the
slab's live objects, walks the slab's ladder of budgets on views of that
problem, and maps each result back to input indices.

`solve_mpc` searches each slab j upward from ell = 1 to its own least
budget ell_j; a point of the plane meets chosen objects of at most two
consecutive slabs, so the union of the slab covers has ply at most
max_j(ell_j + ell_{j+1}).  The restriction of an optimal cover solves every
slab at the optimum, so ell_j <= OPT and the union is a 2-approximation.
The 3-color ladder has one rung.

Every solver fails in one order.  A point covered by no object, in any
slab, raises Infeasible naming the one given first; the strip problems'
cover masks find them (`StripProblem.uncovered`), so no point is scanned
against the objects, and no slab is searched once one is found.
Otherwise the lowest slab whose ladder fails is reported, and the slabs
above it are built, for that check, but not searched.

Each slab is searched over its live objects only (`live_objects`): those
that contain at least one of its points.  This keeps every guarantee.  An
optimal cover restricted to the live objects still covers the slab's
points at ply <= OPT, so the slab is still solved at some ell_j <= OPT; a
3-colorable cover minus some disks stays 3-colorable (`tricolor`); and a
point covered by no object is covered by no live one, so `Infeasible`
still names it.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import NamedTuple, Optional

from . import disks as _disks
from . import rects as _rects
from .errors import BudgetExceeded, Infeasible
from .geom import (Box, Point, pair_point, pair_ranks, ply_disks, ply_rects,
                   rect_pairs)

# a None placeholder for the name perfbench/tracing.py wraps as the
# coverage precheck: the strip problems' cover masks name an uncovered
# point, so no point is scanned against the objects
membership_at = None


class SlabInstance(NamedTuple):
    """Slab `index`, [offset + 2 index, offset + 2 index + 2): the indices
    of its points and of the objects it holds, in the input.  The offset
    is an exact (num, den) pair."""

    index: int
    offset: tuple
    point_indices: list
    objects: list  # indices into the global object list


class CoverSolution(NamedTuple):
    chosen: list
    objective: object
    colors: Optional[dict] = None


def _slab_ys(points, objects, kind) -> tuple:
    """(point ys, object y-spans (bottom, top), least y or bottom) of an
    instance, each y an exact (num, den) pair; the least is (0, 1) when
    there is none.  Rects may be given as Points and UnitRects or as the
    int pairs of `geom.rect_pairs`; a disk's span is cy -/+ 1/2, from its
    float's `as_integer_ratio`."""
    if kind == "rects":
        pts, rects = rect_pairs(points, objects)
        ys = [y for _, y in pts]
        spans = [(b, (b[0] + b[1], b[1])) for _, b, _ in rects]
    elif kind == "disks":
        ys = [p.y.as_integer_ratio() for p in points]
        spans = []
        for d in objects:
            n, den = d.center.y.as_integer_ratio()
            spans.append(((2 * n - den, 2 * den), (2 * n + den, 2 * den)))
    else:
        raise ValueError("kind must be 'rects' or 'disks'")
    lows = ys + [lo for lo, _ in spans]
    on, od = lows[0] if lows else (0, 1)
    for yn, yd in lows:
        # yn/yd < on/od, whatever the signs of the denominators
        if (yn * od - on * yd) * yd * od < 0:
            on, od = yn, yd
    return ys, spans, (on, od)


def assign_slabs(points, objects, kind) -> list[SlabInstance]:
    """Partition points into height-2 slabs; attach the objects each slab
    meets.  Only slabs containing at least one point are returned.

    Slab j is [off + 2j, off + 2j + 2), off the least point y or object
    bottom, and holds the points with j = floor((y - off) / 2).  An
    object's y-span [ylo, yhi] has height 1, so it reaches into the slab j
    of ylo and, when yhi's slab is above j, into slab j + 1, and into no
    other.  Rects may be given as Points and UnitRects or as exact int
    pairs (`geom.rect_pairs`).  All of it is computed on the exact int
    pairs of `_slab_ys`, and no Fraction is made.

    Coordinates and predicates are exact and the slabs half-open, so no
    offset search is needed to keep objects off the boundaries.  Every
    object containing a point meets that point's slab, an object meets at
    most two consecutive slabs, objects attached to slabs j and j + 2
    share no point (the first lie below off + 2j + 3, the second from
    there up), and the strip caps hold: a rect that reaches into slab j
    and crosses a vertical line holds the bottom, middle or top point of
    the line's closed segment [off + 2j, off + 2j + 2] (3*ell), and a disk
    attached to slab j has its centre in [off + 2j - 1/2, off + 2j + 5/2)
    (8*ell, see `disks`)."""
    ys, spans, off = _slab_ys(points, objects, kind)
    on, od = off
    od2 = 2 * od

    def index(y):
        # floor((y - off) / 2), on ints
        yn, yd = y
        return (yn * od - on * yd) // (yd * od2)
    by_slab: dict[int, list] = {}
    for k, y in enumerate(ys):
        by_slab.setdefault(index(y), []).append(k)
    slabs = {j: SlabInstance(j, off, by_slab[j], []) for j in sorted(by_slab)}
    for i, (ylo, yhi) in enumerate(spans):
        j = index(ylo)
        slab = slabs.get(j)
        if slab is not None:
            slab.objects.append(i)
        slab = slabs.get(j + 1)
        if slab is not None and index(yhi) > j:
            slab.objects.append(i)
    return list(slabs.values())


def live_objects(points, objects, indices, spans) -> list:
    """The indices in `indices` whose object contains at least one of
    `points`, in their given order.

    The points are sorted by x once.  Each object tests only the points in
    its x-window, found by bisection, and stops at its first hit: the
    window is the object's span (`rects.rect_spans`, `disks.disk_spans`),
    which holds every point the object does; `contains` decides.
    """
    pts = sorted(points, key=attrgetter("x"))
    xs = [p.x for p in pts]
    live = []
    for i in indices:
        lo, hi, _ = spans[i]
        window = pts[bisect_left(xs, lo):bisect_right(xs, hi)]
        if any(map(objects[i].contains, window)):
            live.append(i)
    return live


def search_slabs(points, objects, kind, solve, ell_max):
    """Search every slab of the instance: the one loop of `solve_mpc` and
    `tricolor.solve_3color`.

    Rects, given as Points and UnitRects or as exact int pairs, run on
    int pairs (`geom.rect_pairs`): they are split into slabs on those
    pairs, and searched as Boxes of coordinate ranks.  Point x, left and
    right sides are ranked together by `pair_ranks`, and so are point y,
    bottom and top sides; below the slab split every rect predicate only
    compares coordinates, so the ranks decide exactly as the rationals do.
    Disks are deduped (`disks.dedupe_disks`).  Each slab's strip problem is
    built once over its live objects by the kind's builder
    (`rects.rect_slab_problem`, `disks.disk_slab_problem`), and its ladder
    calls `solve(points, objects, ell, problem)` for ell = 1, 2, ... up to
    its number of live objects or ell_max, whichever is smaller, until a
    result comes back.

    A point covered by no object, in any slab, raises Infeasible naming
    the one given first, as a Point (`geom.pair_point` names a pair); no
    slab is searched once one is found.  Otherwise returns (found, failed,
    searched).  `found` holds (slab index, result, input index of each
    live object) per slab solved, and `failed` is (slab index, top budget)
    for the lowest slab whose ladder failed, or None; the slabs above it
    are built, for the coverage check, but not searched.  `searched[i]` is
    input object i as searched: its rank Box for a rect, the disk itself
    for a disk.
    """
    points, objects = list(points), list(objects)
    if kind == "rects":
        pts, rects = rect_pairs(points, objects)
        slabs = assign_slabs(pts, rects, kind)
        n = len(pts)
        xs, ys = [x for x, _ in pts], [y for _, y in pts]
        for (ln, ld), b, (wn, wd) in rects:
            if wn * wd <= 0:
                raise ValueError("rectangle width must be positive")
            xs += (ln, ld), (ln * wd + wn * ld, ld * wd)
            ys += b, (b[0] + b[1], b[1])
        xr, yr = pair_ranks(xs), pair_ranks(ys)
        solve_points = [Point(x, y) for x, y in zip(xr[:n], yr[:n])]
        searched = [Box(xr[k], xr[k + 1], yr[k], yr[k + 1])
                    for k in range(n, len(xr), 2)]
        solve_objects, orig = searched, range(len(objects))
        spans, build = _rects.rect_spans(searched), _rects.rect_slab_problem
    else:
        solve_objects, orig = _disks.dedupe_disks(objects)
        slabs = assign_slabs(points, solve_objects, kind)
        solve_points, searched = points, objects
        spans, build = (_disks.disk_spans(solve_objects),
                        _disks.disk_slab_problem)
    found, failed, uncovered = [], None, None
    for slab in slabs:
        pts = [solve_points[k] for k in slab.point_indices]
        live = live_objects(pts, solve_objects, slab.objects, spans)
        objs = [solve_objects[i] for i in live]
        problem = build(pts, objs)
        if problem.uncovered is not None:
            k = slab.point_indices[problem.uncovered]
            uncovered = k if uncovered is None else min(uncovered, k)
        if failed is not None or uncovered is not None:
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
    if uncovered is not None:
        given = points[uncovered]
        if type(given) is tuple:
            given = pair_point(given)
        raise Infeasible("point %r is covered by no object" % (given,))
    return found, failed, searched


def solve_mpc(points, objects, kind,
              ell_max: Optional[int] = None) -> CoverSolution:
    """2-approximate minimum ply cover for unit-height rectangles or disks.

    `search_slabs` runs the slabs, each taking the least budget ell_j at
    which its strip search succeeds, up to its number of live objects (at
    which any coverable slab succeeds) or ell_max.  The lowest slab that
    needs more than ell_max raises BudgetExceeded, unless some point is
    covered by no object.  The ply of the union is taken on the objects
    as searched, rank Boxes for rects.  Rects may be given as Points and
    UnitRects or as the exact int pairs of `geom.rect_pairs`; both run the
    same code on the pairs.
    """
    if kind == "rects":
        solve, ply = _rects.solve_slab_rects, ply_rects
    elif kind == "disks":
        solve, ply = _disks.solve_slab_disks, ply_disks
    else:
        raise ValueError("kind must be 'rects' or 'disks'")
    found, failed, searched = search_slabs(points, objects, kind, solve,
                                           ell_max)
    if failed is not None:
        raise BudgetExceeded("slab %d has no cover within ply budget %d"
                             % failed)
    chosen = sorted({inputs[k] for _, res, inputs in found for k in res})
    return CoverSolution(chosen, ply([searched[i] for i in chosen]))
