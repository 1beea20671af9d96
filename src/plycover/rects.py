"""Ply-budget cover search for unit-height rectangles inside one slab.

No more than 3*ell rectangles of a ply-ell solution can intersect a single
strip: a vertical line through the strip meets the slab in a segment of
length 2, and every rectangle spanning the strip contains its top, middle,
or bottom point.

The strip search is `stripdag`'s.  A rectangle may meet another when their
closed boxes intersect, which is exactly when it can raise the depth
inside it.
"""
from __future__ import annotations

from typing import Optional, Sequence

# ply_rects stays bound here so that perfbench/tracing.py can wrap it
from .geom import (EventClass, Point, UnitRect, ply_rects,  # noqa: F401
                   rect_depth_within)
from .stripdag import (PlyCache, SideEvent, StripProblem, bits,
                       build_problem, search)

__all__ = ["build_strips_rects", "rect_slab_problem", "solve_slab_rects",
           "PER_STRIP_FACTOR"]

PER_STRIP_FACTOR = 3


def build_strips_rects(rects: Sequence[UnitRect]) -> list[SideEvent]:
    """Strip boundaries: one event per rectangle side, in sweep order."""
    events = []
    for i, r in enumerate(rects):
        events.append(SideEvent(r.left, EventClass.LEFT_SIDE, r.bottom, i))
        events.append(SideEvent(r.right, EventClass.RIGHT_SIDE, r.bottom, i))
    events.sort()
    return events


def rect_slab_problem(points: Sequence[Point], rects: Sequence[UnitRect],
                      ell: int) -> StripProblem:
    rects = list(rects)
    sides = [(r.left, r.right, r.bottom, r.top) for r in rects]

    def meets(o, q):
        left, right, bottom, top = sides[o]
        ql, qr, qb, qt = sides[q]
        return left <= qr and right >= ql and bottom <= qt and top >= qb

    def added(members, q):
        return rect_depth_within([rects[i] for i in bits(members)], rects[q])

    return build_problem(points, build_strips_rects(rects),
                         lambda o, p: rects[o].contains(p), meets,
                         PlyCache(added), PER_STRIP_FACTOR, ell)


def solve_slab_rects(points: Sequence[Point], rects: Sequence[UnitRect],
                     ell: int, problem: Optional[StripProblem] = None):
    """Indices of a cover of the slab points with ply <= ell, or None.

    `problem`, this slab's `rect_slab_problem` at any budget, is searched
    at ell instead of building it again."""
    if problem is None:
        problem = rect_slab_problem(points, rects, ell)
    return search(problem.at(ell))
