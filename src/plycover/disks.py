"""Ply-budget cover search for unit disks inside one slab.

Same skeleton as the rectangle solver, with two changes: strips are cut at
the leftmost/rightmost points of disks, and the per-strip cap is 8*ell.

The strips are cut at the ends of `disk_spans`, fl(cx -/+ 1/2), which
hold every point the disk does, and lefts sort before points before
rights, so a disk is active at every point it holds.  A disk spanning a
strip has its centre within 1/2 of the strip's vertical line, give or
take a rounding, and its slab puts the centre in a band of height 3
(`slabs.assign_slabs`).  Eight cells of about 0.5 by 0.75, of diagonal
0.90 < 1, cut that 1-by-3 box; the disks centred in one cell share the
cell's centre, so a ply-ell solution has at most ell disks in a cell and
8*ell across any strip.

The strip search is `stripdag`'s, on member masks, with cover masks from
`UnitDisk.contains`; a disk may meet another when they are not
`disks_disjoint`.  Its depth oracle is a `DiskArrangement` of the
candidate points of `geom.disk_candidates`, listed on its first query.  A
slab's problem is built once and every budget of its ell ladder searches
a view of it (`StripProblem.at`).  The 3-color search (`tricolor`) runs on
the same problem and never queries its depth oracle.

Disk extrema and points that share an x-coordinate are ordered as
rectangle sides are, symbolically by `(x, EventClass, y, obj)`: lefts
before points before rights.  The solvers run on the input as given, and
no input is refused as degenerate.
"""
from __future__ import annotations

from typing import Optional

# ply_disks and disk_depth_within stay bound here so that
# perfbench/tracing.py can wrap them; the search uses DiskArrangement
from .geom import (disk_candidates, disk_depth_within,  # noqa: F401
                   disks_disjoint, ply_disks)
from .stripdag import PlyCache, StripProblem, build_problem, search

PER_STRIP_FACTOR = 8

# canonical_rotation and rotate_instance stay bound here so that
# perfbench/tracing.py can wrap them; nothing calls them
canonical_rotation = rotate_instance = None


def disk_spans(disks) -> list:
    """Each disk's x-span (fl(cx - 1/2), fl(cx + 1/2), cy): its events,
    ordered at equal x by the centre y.

    The span holds every point the disk does: a held point's x lies in
    [cx - 1/2, cx + 1/2], and rounding is monotone, so it lies between the
    rounded ends too."""
    return [(d.center.x - 0.5, d.center.x + 0.5, d.center.y) for d in disks]


class DiskArrangement:
    """The candidate points of a slab's disks, listed per disk.

    Each disk q keeps the distinct masks of the disks holding a candidate
    of `disk_candidates` that q holds.  Given a mask of disks holding q,
    the depth within q is the largest count of mask disks in one of them:
    every such candidate lies in q, and the depth is attained at a
    candidate made by mask disks alone (see `geom.ply_disks`), which q
    holds.  The masks are listed on the first query, so a search that
    never asks (3-color) never pays for them.
    """

    def __init__(self, disks):
        self._disks, self._within = disks, None

    def _list(self) -> list:
        self._within = within = [set() for _ in self._disks]
        for holders in disk_candidates(self._disks):
            cont = 0
            for k in holders:
                cont |= 1 << k
            for k in holders:
                within[k].add(cont)
        return within

    def depth_within(self, mask: int, q: int) -> int:
        """`disk_depth_within` of the disks in `mask`, q among them, over
        disk q."""
        within = self._within or self._list()
        best = 0
        for cont in within[q]:
            c = (cont & mask).bit_count()
            if c > best:
                best = c
        return best


def disk_slab_problem(points, disks) -> StripProblem:
    disks = list(disks)
    return build_problem(points, disks, disk_spans(disks),
                         lambda o, q: not disks_disjoint(disks[o], disks[q]),
                         PlyCache(DiskArrangement(disks).depth_within),
                         PER_STRIP_FACTOR)


def solve_slab_disks(points, disks, ell: int,
                     problem: Optional[StripProblem] = None):
    """Indices of a cover of the slab points with ply <= ell, or None.

    `problem`, this slab's `disk_slab_problem`, is searched at ell instead
    of building it again."""
    if problem is None:
        problem = disk_slab_problem(points, disks)
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
