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
`disks_disjoint`.  Closed disks in the plane have Helly number 3: disks
of which every three share a point all share one.  So the search decides
ply by cliques of the meet masks whose triples pass
`geom.disks_share_point` (`stripdag.has_clique`), with no oracle and no
arrangement; like `contains` and `disks_disjoint`, that test is a float
filter with an exact int fallback.  A slab's problem is built once and
every budget of its ell ladder searches a view of it (`StripProblem.at`).
The 3-color search (`tricolor`) runs on the same problem.

Disk extrema and points that share an x-coordinate are ordered as
rectangle sides are, symbolically by `geom.sweep_events`: lefts before
points before rights, then by y and index.  The solvers run on the input
as given, and no input is refused as degenerate.
"""
from __future__ import annotations

from typing import Optional

from .geom import disks_disjoint, disks_share_point
from .stripdag import StripProblem, build_problem, search

PER_STRIP_FACTOR = 8

# None placeholders for the names perfbench/tracing.py wraps here: the
# search calls no depth routine, the final ply is `slabs`'s and
# `tricolor`'s, and no input is rotated
canonical_rotation = rotate_instance = None
disk_depth_within = ply_disks = None


def disk_spans(disks) -> list:
    """Each disk's x-span (fl(cx - 1/2), fl(cx + 1/2), cy): its events,
    ordered at equal x by the centre y.

    The span holds every point the disk does: a held point's x lies in
    [cx - 1/2, cx + 1/2], and rounding is monotone, so it lies between the
    rounded ends too."""
    return [(d.center.x - 0.5, d.center.x + 0.5, d.center.y) for d in disks]


def disk_slab_problem(points, disks) -> StripProblem:
    disks = list(disks)
    return build_problem(points, disks, disk_spans(disks),
                         lambda o, q: not disks_disjoint(disks[o], disks[q]),
                         lambda a, b, c: disks_share_point(disks[a], disks[b],
                                                           disks[c]),
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
