"""Shared fixture instances used across the test modules."""
from __future__ import annotations

import math
from fractions import Fraction as F

from plycover.geom import (Point, UnitDisk, UnitRect, WeightedInterval,
                           disks_cover, rects_cover)
from plycover.intervals import chosen_loads


def covers(points, chosen) -> bool:
    """True iff every point lies in some chosen object, by the cover sweep
    that `plycover check` runs for the objects' kind."""
    if not chosen:
        return not points
    if isinstance(chosen[0], UnitDisk):
        return all(disks_cover(points, chosen))
    if isinstance(chosen[0], WeightedInterval):
        return min(chosen_loads(points, chosen)[0]) > 0
    return all(rects_cover(points, chosen))


def greedy_trap_instance():
    """The 5-point, 4-interval instance on which a greedy left-to-right
    dynamic program picks membership 4 while the optimum is 3."""
    points = [F(1), F(3), F(5), F(7), F(9)]
    intervals = [
        WeightedInterval(F(0), F(7, 2), F(2)),
        WeightedInterval(F(4), F(15, 2), F(2)),
        WeightedInterval(F(2), F(8), F(1)),
        WeightedInterval(F(13, 2), F(10), F(2)),
    ]
    return points, intervals


def _spin(offsets, pivot, shift_y, angle=0.1):
    """Rotate offset vectors about a pivot and lift into the (0, 2) band,
    so that the fixture's x-coordinates are generic: no two of them tie."""
    c, s = math.cos(angle), math.sin(angle)
    out = []
    for dx, dy in offsets:
        out.append(Point(pivot[0] + dx * c - dy * s,
                         pivot[1] + dx * s + dy * c + shift_y))
    return out


def k4_clique():
    """Four pairwise-intersecting disks in one slab, each with a private
    point: every cover needs all four, whose intersection graph is K4."""
    centers = _spin([(-0.3, -0.3), (0.3, -0.3), (-0.3, 0.3), (0.3, 0.3)],
                    (0.3, 0.3), 0.6)
    privates = _spin([(-0.65, -0.65), (0.65, -0.65), (-0.65, 0.65),
                      (0.65, 0.65)], (0.3, 0.3), 0.6)
    return privates, [UnitDisk(c) for c in centers]


def _triangle(side=0.95):
    circum = side / math.sqrt(3)
    offsets = [(-side / 2, -circum / 2), (side / 2, -circum / 2), (0.0, circum)]
    reach = (circum + 0.45) / circum
    outward = [(dx * reach, dy * reach) for dx, dy in offsets]
    return offsets, outward


def ply3_not_3colorable():
    """Ply-3 witness: equilateral triangle of disks (side 0.95, so no
    common triple point) plus its circumcenter disk.  All four are forced
    by private points; the intersection graph is K4, so ply 3 is
    achievable but no 3-colorable cover exists."""
    offsets, outward = _triangle()
    centers = _spin(offsets + [(0.0, 0.0)], (0.5, 0.55), 0.45)
    privates = _spin(outward + [(0.013, 0.021)], (0.5, 0.55), 0.45)
    return privates, [UnitDisk(c) for c in centers]


def triangle_3colorable():
    """Three pairwise-intersecting disks, private points, all in one slab:
    coverable with exactly one disk per color class."""
    offsets, outward = _triangle()
    centers = _spin(offsets, (0.5, 0.55), 0.45)
    privates = _spin(outward, (0.5, 0.55), 0.45)
    return privates, [UnitDisk(c) for c in centers]


def forced_pair_rects():
    """Two overlapping unit squares, each with a private point: any cover
    needs both, so the minimum ply is 2."""
    rects = [UnitRect(F(0), F(0)), UnitRect(F(1, 2), F(0))]
    points = [Point(F(1, 5), F(1, 2)), Point(F(13, 10), F(1, 2))]
    return points, rects


def forced_pair_disks():
    """Two deeply overlapping disks, each with a private point."""
    disks = [UnitDisk(Point(0.0, 0.5)), UnitDisk(Point(0.3, 0.5))]
    points = [Point(-0.45, 0.5), Point(0.75, 0.5)]
    return points, disks


def nudged(v: float, ulps: int) -> float:
    """The float v moved by `ulps` units in the last place."""
    for _ in range(abs(ulps)):
        v = math.nextafter(v, math.copysign(math.inf, ulps))
    return v
