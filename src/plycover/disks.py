"""Ply-budget cover search for unit disks inside one slab.

Same skeleton as the rectangle solver, with two changes: strips are cut at
the leftmost/rightmost points of disks, and the per-strip cap is 8*ell.

The strips are cut at the float extrema fl(cx -/+ 1/2).  Rounding is
monotone and lefts sort before points before rights, so a disk is active
at every point it holds.  A disk spanning a strip has its centre within
1/2 of the strip's vertical line, give or take a rounding, and its slab
puts the centre in a band of height 3 (`slabs.slab_offset`).  Eight cells
of about 0.5 by 0.75, of diagonal 0.90 < 1, cut that 1-by-3 box; the
disks centred in one cell share the cell's centre, so a ply-ell solution
has at most ell disks in a cell and 8*ell across any strip.

The strip search is `stripdag`'s, on member masks, with cover masks from
`UnitDisk.contains`; a disk may meet another when they are not
`disks_disjoint`.  Its depth oracle is a `DiskArrangement`, built once per
strip problem from the candidate points of `geom.disk_candidates`.  A
slab's problem, arrangement included, is built once and every budget of
its ell ladder searches a view of it (`StripProblem.at`).

Disk extrema and points that share an x-coordinate are ordered as
rectangle sides are, symbolically by `(x, EventClass, y, obj)`: lefts
before points before rights.  The solvers run on the input as given, and
no input is refused as degenerate.
"""
from __future__ import annotations

from typing import Optional, Sequence

# ply_disks and disk_depth_within stay bound here so that
# perfbench/tracing.py can wrap them; the search uses DiskArrangement
from .geom import (EventClass, UnitDisk, disk_candidates,  # noqa: F401
                   disk_depth_within, disks_disjoint, ply_disks)
from .stripdag import PlyCache, SideEvent, StripProblem, build_problem, search

PER_STRIP_FACTOR = 8

# canonical_rotation and rotate_instance stay bound here so that
# perfbench/tracing.py can wrap them; nothing calls them
canonical_rotation = rotate_instance = None


def disk_side_events(disks: Sequence[UnitDisk]) -> list[SideEvent]:
    """One event per float disk extremum, in sweep order."""
    events = []
    for i, d in enumerate(disks):
        events.append(SideEvent(d.center.x - 0.5, EventClass.LEFT_SIDE,
                                d.center.y, i))
        events.append(SideEvent(d.center.x + 0.5, EventClass.RIGHT_SIDE,
                                d.center.y, i))
    events.sort()
    return events


class DiskArrangement:
    """The candidate points of a slab's disks, listed per disk.

    Each disk q keeps the distinct masks of the disks holding a candidate
    of `disk_candidates` that q holds.  Given a mask of disks holding q,
    the depth within q is the largest count of mask disks in one of them:
    every such candidate lies in q, and the depth is attained at a
    candidate made by mask disks alone (see `geom.ply_disks`), which q
    holds.
    """

    def __init__(self, disks):
        self._within = within = [set() for _ in disks]
        for holders in disk_candidates(disks):
            cont = 0
            for k in holders:
                cont |= 1 << k
            for k in holders:
                within[k].add(cont)

    def depth_within(self, mask: int, q: int) -> int:
        """`disk_depth_within` of the disks in `mask`, q among them, over
        disk q."""
        best = 0
        for cont in self._within[q]:
            c = (cont & mask).bit_count()
            if c > best:
                best = c
        return best


def disk_slab_problem(points, disks, ell: int = 1) -> StripProblem:
    disks = list(disks)
    return build_problem(points, disk_side_events(disks),
                         lambda o, p: disks[o].contains(p),
                         lambda o, q: not disks_disjoint(disks[o], disks[q]),
                         PlyCache(DiskArrangement(disks).depth_within),
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
