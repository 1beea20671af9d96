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
from math import floor, inf
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


def _index(y, off) -> int:
    """floor((y - off) / 2), the slab of y, on the exact (num, den) pairs
    y and off."""
    (yn, yd), (on, od) = y, off
    return (yn * od - on * yd) // (2 * yd * od)


def _least(pairs) -> tuple:
    """The least of the (num, den) pairs, the first of equal ones, whatever
    the signs of the denominators; (0, 1) when there is none."""
    on, od = pairs[0] if pairs else (0, 1)
    for yn, yd in pairs:
        if (yn * od - on * yd) * yd * od < 0:
            on, od = yn, yd
    return on, od


def _disk_indices(vs, h, off, tol) -> list:
    """The slab of v + h/2, h in (-1, 0, 1), for each disk coordinate v of
    vs: the floor of the float q = (v - fl(off - h/2)) / 2 when q mod 1
    lies in (tol, 1 - tol), else `_index` on v's exact pair.  A tol not
    below 1/2, as `assign_slabs` passes when some coordinate is not a
    float, leaves every v to the ints with no float arithmetic."""
    if not tol < 0.5:
        return [_index(_half_shifted(v, h), off) for v in vs]
    on, od = off
    o, hi = (2 * on - h * od) / (2 * od), 1 - tol
    return [floor(q) if tol < (q := (v - o) * 0.5) % 1.0 < hi
            else _index(_half_shifted(v, h), off) for v in vs]


def _half_shifted(v, h) -> tuple:
    # v + h/2 as an exact (num, den) pair
    n, d = v.as_integer_ratio()
    return 2 * n + h * d, 2 * d


def assign_slabs(points, objects, kind) -> list[SlabInstance]:
    """Partition points into height-2 slabs; attach the objects each slab
    meets.  Only slabs containing at least one point are returned.

    Slab j is [off + 2j, off + 2j + 2), off the least point y or object
    bottom, and holds the points with j = floor((y - off) / 2).  An
    object's y-span [ylo, yhi] has height 1, so it reaches into the slab j
    of ylo and, when yhi's slab is above j, into slab j + 1, and into no
    other.  The offset is an exact (num, den) pair.  Rects may be given as
    Points and UnitRects or as exact int pairs (`geom.rect_pairs`), and
    their slabs are computed on those pairs; no Fraction is made.

    Disks take the offset from the float minima of the point ys and the
    centre ys, one `as_integer_ratio` each, and index in floats: each y -
    off (a point y, or a centre y -/+ 1/2) is q = (v - o) / 2 in floats,
    o the correctly rounded off - h/2 and v the float centre or point y.
    With M the largest |v|, |off - h/2| <= M + 1, so o, the difference
    and q are off by at most (3M + 2) u / 2 in all, u = 2**-53 (halving
    is exact but for subnormals), and q mod 1 by u more.  Where q mod 1
    lies farther than tol = 4 (M + 1) u from 0 and 1, floor(q) is the
    exact slab; elsewhere, and when q is not finite or a coordinate is
    not a float (ints and Fractions from API callers), the exact pairs
    decide (`_index`).

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
    if kind == "rects":
        pts, rects = rect_pairs(points, objects)
        off = _least([y for _, y in pts] + [b for _, b, _ in rects])
        at = [_index(y, off) for _, y in pts]
        bottoms = [_index(b, off) for _, b, _ in rects]
        tops = [_index((b[0] + b[1], b[1]), off) for _, b, _ in rects]
    elif kind == "disks":
        ys = [p.y for p in points]
        cys = [d.center.y for d in objects]
        lows = [min(ys).as_integer_ratio()] if ys else []
        if cys:
            lows.append(_half_shifted(min(cys), -1))
        off = _least(lows)
        vs, tol = ys + cys, inf
        if vs and {float}.issuperset(map(type, vs)):
            tol = (max(max(vs), -min(vs)) + 1) * 2.0 ** -51
        at, bottoms, tops = (_disk_indices(v, h, off, tol) for v, h in
                             ((ys, 0), (cys, -1), (cys, 1)))
    else:
        raise ValueError("kind must be 'rects' or 'disks'")
    by_slab: dict[int, list] = {}
    for k, j in enumerate(at):
        by_slab.setdefault(j, []).append(k)
    slabs = {j: SlabInstance(j, off, by_slab[j], []) for j in sorted(by_slab)}
    for i, j in enumerate(bottoms):
        slab = slabs.get(j)
        if slab is not None:
            slab.objects.append(i)
        slab = slabs.get(j + 1)
        if slab is not None and tops[i] > j:
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
