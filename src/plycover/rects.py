"""Ply-budget cover search for unit-height rectangles inside one slab.

No more than 3*ell rectangles of a ply-ell solution can intersect a single
strip: a vertical line through the strip meets the closed slab in a
segment of length 2, and every rectangle of the slab spanning the strip
contains its top, middle, or bottom point.

The strip search is `stripdag`'s.  A rectangle may meet another when their
closed boxes intersect, which is exactly when it can raise the depth
inside it.  Closed boxes have Helly number 2 (Danzer, Grunbaum & Klee,
"Helly's theorem and its relatives", 1963): boxes that pairwise meet share
a point, as their x-spans do and their y-spans do.  So the search decides
ply by cliques of the meet masks (`stripdag.has_clique`), with no oracle.
"""
from __future__ import annotations

from typing import Optional, Sequence

# ply_rects and rect_depth_within stay bound for perfbench/tracing.py to wrap
from .geom import (Point, UnitRect, ply_rects,  # noqa: F401
                   rect_depth_within)
from .stripdag import StripProblem, build_problem, search

__all__ = ["rect_spans", "rect_slab_problem", "solve_slab_rects",
           "PER_STRIP_FACTOR"]

PER_STRIP_FACTOR = 3


def rect_spans(rects) -> list:
    """Each rectangle's x-span (left, right, bottom): its sides' events,
    ordered at equal x by the bottom."""
    return [(r.left, r.right, r.bottom) for r in rects]


def rect_slab_problem(points: Sequence[Point],
                      rects: Sequence[UnitRect]) -> StripProblem:
    rects = list(rects)
    sides = [(r.left, r.right, r.bottom, r.top) for r in rects]

    def meets(o, q):
        left, right, bottom, top = sides[o]
        ql, qr, qb, qt = sides[q]
        return left <= qr and right >= ql and bottom <= qt and top >= qb

    return build_problem(points, rects, rect_spans(rects), meets, None,
                         PER_STRIP_FACTOR)


def solve_slab_rects(points: Sequence[Point], rects: Sequence[UnitRect],
                     ell: int, problem: Optional[StripProblem] = None):
    """Indices of a cover of the slab points with ply <= ell, or None.

    `problem`, this slab's `rect_slab_problem`, is searched at ell instead
    of building it again."""
    if problem is None:
        problem = rect_slab_problem(points, rects)
    return search(problem.at(ell))
