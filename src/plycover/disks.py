"""Ply-budget cover search for unit disks inside one slab.

Same skeleton as the rectangle solver, with two changes: strips are cut at
the leftmost/rightmost points of disks, and the per-strip cap is 8*ell.
Every disk spanning a strip has its center inside a 1-by-3 box around the
strip's vertical line, and that box is coverable by eight unit disks, so a
ply-ell solution puts at most 8*ell disks across any strip.

The strip search is `stripdag`'s, on member masks, with cover masks from
the eps-closed `UnitDisk.contains`.  A disk may meet another when their
centres lie within the window of `disk_depth_within`.  Its depth oracle is
a `DiskArrangement`, built once per strip problem: the candidate points of
`disk_depth_within` with the masks of the disks producing and containing
each, so that a depth is a popcount maximum over one disk's points.

Because disk extrema cannot be ordered symbolically the way rectangle
sides can, degenerate x-coordinates are removed up front by a global
rotation instead.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from typing import Sequence

from .errors import DegenerateInstance
# ply_disks and disk_depth_within stay bound here so that
# perfbench/tracing.py can wrap them; the search uses DiskArrangement
from .geom import (EPS_COVER, WINDOW_SLACK, EventClass, Point,  # noqa: F401
                   UnitDisk, circle_intersections, disk_depth_within,
                   ply_disks)
from .stripdag import PlyCache, SideEvent, StripProblem, build_problem, search

PER_STRIP_FACTOR = 8

_ROTATION_SEED = 0x1D15C5


def rotate_point(p: Point, angle: float) -> Point:
    if angle == 0.0:
        return p
    c, s = math.cos(angle), math.sin(angle)
    return Point(p.x * c - p.y * s, p.x * s + p.y * c)


def rotate_instance(points, disks, angle: float):
    if angle == 0.0:
        return list(points), list(disks)
    return ([rotate_point(p, angle) for p in points],
            [UnitDisk(rotate_point(d.center, angle)) for d in disks])


def _extrema_xs(points, disks) -> list:
    xs = [x for x, _ in {(p.x, p.y) for p in points}]
    for cx, _ in {(d.center.x, d.center.y) for d in disks}:
        xs.append(cx - 0.5)
        xs.append(cx)
        xs.append(cx + 0.5)
    return xs


def _all_distinct(xs, tol: float) -> bool:
    xs = sorted(xs)
    return all(b - a > tol for a, b in zip(xs, xs[1:]))


def canonical_rotation(points, disks, eps: float = EPS_COVER) -> float:
    """Angle making every point, disk-center, and disk-extremum
    x-coordinate distinct.

    Returns 0 when the input (after collapsing exact duplicates) is already
    in general position; otherwise a deterministic pseudo-random angle in
    (0, pi/4), re-tested up to 32 times.
    """
    tol = 10 * eps
    if _all_distinct(_extrema_xs(points, disks), tol):
        return 0.0
    rng = random.Random(_ROTATION_SEED)
    for _ in range(32):
        angle = rng.uniform(1e-4, math.pi / 4 - 1e-4)
        pts, dks = rotate_instance(points, disks, angle)
        if _all_distinct(_extrema_xs(pts, dks), tol):
            return angle
    raise DegenerateInstance("no rotation separates the x-coordinates")


def disk_side_events(disks: Sequence[UnitDisk]) -> list[SideEvent]:
    """One event per disk extremum, in sweep order."""
    events = []
    for i, d in enumerate(disks):
        events.append(SideEvent(d.center.x - 0.5, EventClass.LEFT_SIDE,
                                d.center.y, i))
        events.append(SideEvent(d.center.x + 0.5, EventClass.RIGHT_SIDE,
                                d.center.y, i))
    events.sort()
    return events


class DiskArrangement:
    """The candidate points of a slab's disks, built on first use.

    The candidates are every centre and, for each pair (lo, hi) in index
    order, `circle_intersections(disks[lo], disks[hi], eps)`: the points
    that `disk_depth_within` evaluates.  Each is kept, as (generators,
    containers), in the list of every disk that contains it: the mask of
    the disks that produce it and the mask of the disks that contain it
    under `contains(p, eps)`.  Given a mask of disks, a point counts when
    all its generators are in the mask, and its depth is the number of
    mask disks containing it.  The window of `disk_depth_within` drops
    only disks that reach no point of the region, and with them only
    candidates outside it, so the maximum over disk q's list equals
    `disk_depth_within` of the mask disks over q.
    """

    def __init__(self, disks, eps: float = EPS_COVER):
        self._disks = disks
        self._eps = eps
        self._within = None

    def _build(self):
        disks, eps = self._disks, self._eps
        order = sorted(range(len(disks)), key=lambda i: disks[i].center.x)
        xs = [disks[i].center.x for i in order]
        cands = [(1 << i, d.center) for i, d in enumerate(disks)]
        pair_reach = 1.0 + eps + WINDOW_SLACK
        for a, i in enumerate(order):
            for j in order[a + 1:bisect_right(xs, xs[a] + pair_reach)]:
                lo, hi = (i, j) if i < j else (j, i)
                gen = 1 << lo | 1 << hi
                for p in circle_intersections(disks[lo], disks[hi], eps):
                    cands.append((gen, p))
        reach = 0.5 + eps + WINDOW_SLACK
        self._within = within = [[] for _ in disks]
        for gen, p in cands:
            holders = [k for k in order[bisect_left(xs, p.x - reach):
                                        bisect_right(xs, p.x + reach)]
                       if disks[k].contains(p, eps)]
            cont = 0
            for k in holders:
                cont |= 1 << k
            for k in holders:
                within[k].append((gen, cont))

    def depth_within(self, mask: int, q: int) -> int:
        """`disk_depth_within` of the disks in `mask` over disk q."""
        if self._within is None:
            self._build()
        best = 0
        for gen, cont in self._within[q]:
            if gen & mask == gen:
                c = (cont & mask).bit_count()
                if c > best:
                    best = c
        return best


def disk_slab_problem(points, disks, ell: int,
                      eps: float = EPS_COVER) -> StripProblem:
    disks = list(disks)
    arrangement = DiskArrangement(disks, eps)
    reach = 1.0 + 2.0 * eps + WINDOW_SLACK
    reach2 = reach * reach

    def meets(o, q):
        # the window of disk_depth_within: no farther disk reaches into q
        dx = disks[o].center.x - disks[q].center.x
        dy = disks[o].center.y - disks[q].center.y
        return dx * dx + dy * dy <= reach2

    return build_problem(points, disk_side_events(disks),
                         lambda o, p: disks[o].contains(p, eps), meets,
                         PlyCache(arrangement.depth_within),
                         PER_STRIP_FACTOR * ell, ell)


def solve_slab_disks(points, disks, ell: int, eps: float = EPS_COVER):
    """Indices of a cover of the slab points with ply <= ell, or None."""
    return search(disk_slab_problem(points, disks, ell, eps))


def dedupe_disks(disks):
    """Collapse exact duplicates; returns (unique disks, original indices).

    A duplicate disk never helps a minimum-ply or 3-colorable cover, and
    exact coincidences cannot be separated by any rotation.
    """
    seen = set()
    uniq, orig = [], []
    for i, d in enumerate(disks):
        key = (d.center.x, d.center.y)
        if key in seen:
            continue
        seen.add(key)
        uniq.append(d)
        orig.append(i)
    return uniq, orig
