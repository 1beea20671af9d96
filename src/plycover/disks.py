"""Ply-budget cover search for unit disks inside one slab.

Same skeleton as the rectangle solver, with two changes: strips are cut at
the leftmost/rightmost points of disks, and the per-strip cap is 8*ell.
Every disk spanning a strip has its center inside a 1-by-3 box around the
strip's vertical line, and that box is coverable by eight unit disks, so a
ply-ell solution puts at most 8*ell disks across any strip.

Every disk predicate is closed under the fixed tolerance `EPS_COVER`, so
the strips are cut at the tolerance-widened extrema cx -/+ (0.5 +
EPS_COVER): two disks that meet only within the tolerance are then both
active in some strip.  The strip search is `stripdag`'s, on member masks,
with cover masks from `UnitDisk.contains`.  A disk may meet another when
their centres lie within the window of `disk_depth_within`.  Its depth
oracle is a `DiskArrangement`, built once per strip problem: the candidate
points of `geom.disk_candidates` with the masks of the disks producing and
containing each, so that a depth is a popcount maximum over one disk's
points.  A slab's problem, arrangement included, is built once and every
budget of its ell ladder searches a view of it (`StripProblem.at`).

Disk extrema and points that share an x-coordinate are ordered as
rectangle sides are, symbolically by `(x, EventClass, y, obj)`: lefts
before points before rights.  The solvers run on the input as given, and
no input is refused as degenerate.
"""
from __future__ import annotations

from typing import Optional, Sequence

# ply_disks and disk_depth_within stay bound here so that
# perfbench/tracing.py can wrap them; the search uses DiskArrangement
from .geom import (EPS_COVER, WINDOW_SLACK, EventClass,  # noqa: F401
                   UnitDisk, disk_candidates, disk_depth_within, ply_disks)
from .stripdag import PlyCache, SideEvent, StripProblem, build_problem, search

PER_STRIP_FACTOR = 8

# canonical_rotation and rotate_instance stay bound here so that
# perfbench/tracing.py can wrap them; nothing calls them
canonical_rotation = rotate_instance = None


def disk_side_events(disks: Sequence[UnitDisk]) -> list[SideEvent]:
    """One event per tolerance-widened disk extremum, in sweep order."""
    r = 0.5 + EPS_COVER
    events = []
    for i, d in enumerate(disks):
        events.append(SideEvent(d.center.x - r, EventClass.LEFT_SIDE,
                                d.center.y, i))
        events.append(SideEvent(d.center.x + r, EventClass.RIGHT_SIDE,
                                d.center.y, i))
    events.sort()
    return events


class DiskArrangement:
    """The candidate points of a slab's disks, listed per disk.

    Each candidate of `disk_candidates` is kept, as (generators,
    containers), in the list of every disk that contains it: the mask of
    the disks that produce it and the mask of the disks that contain it.
    Given a mask of disks, a point counts when all its generators are in
    the mask, and its depth is the number of mask disks containing it.  The
    window of `disk_depth_within` drops only disks that reach no point of
    the region, and with them only candidates outside it, so the maximum
    over disk q's list equals `disk_depth_within` of the mask disks over q.
    """

    def __init__(self, disks):
        self._within = within = [[] for _ in disks]
        for gen, holders in disk_candidates(disks):
            cont = 0
            for k in holders:
                cont |= 1 << k
            for k in holders:
                within[k].append((gen, cont))

    def depth_within(self, mask: int, q: int) -> int:
        """`disk_depth_within` of the disks in `mask` over disk q."""
        best = 0
        for gen, cont in self._within[q]:
            if gen & mask == gen:
                c = (cont & mask).bit_count()
                if c > best:
                    best = c
        return best


def disk_slab_problem(points, disks, ell: int = 1) -> StripProblem:
    disks = list(disks)
    arrangement = DiskArrangement(disks)
    reach = 1.0 + 2.0 * EPS_COVER + WINDOW_SLACK
    reach2 = reach * reach

    def meets(o, q):
        # the window of disk_depth_within: no farther disk reaches into q
        dx = disks[o].center.x - disks[q].center.x
        dy = disks[o].center.y - disks[q].center.y
        return dx * dx + dy * dy <= reach2

    return build_problem(points, disk_side_events(disks),
                         lambda o, p: disks[o].contains(p), meets,
                         PlyCache(arrangement.depth_within),
                         PER_STRIP_FACTOR, ell)


def solve_slab_disks(points, disks, ell: int,
                     problem: Optional[StripProblem] = None):
    """Indices of a cover of the slab points with ply <= ell, or None.

    `problem`, this slab's `disk_slab_problem` at any budget, is searched
    at ell instead of building it again."""
    if problem is None:
        problem = disk_slab_problem(points, disks, ell)
    return search(problem.at(ell))


def dedupe_disks(disks):
    """Collapse exact duplicates; returns (unique disks, original indices).

    A duplicate disk never helps a minimum-ply or 3-colorable cover, and
    dropping it keeps the strip states free of interchangeable copies.
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
