"""Independent exact solvers used to cross-check the production ones.

Minimum ply cover, 3-colorable cover and the exact interval optima share
one branch-and-bound search over covering subsets (`_least_cover`); each
oracle only says how adding an object grows its state and objective.
Size caps keep full test sweeps fast; instances above a cap are refused
rather than solved slowly.

The minimum ply cover prices each branch by the ply of its chosen objects
with the new one added, by the one depth routine of the kind (`geom`).
That is the depth inside the added object where it exceeds the ply
before: ply(S + q) = max(ply(S), depth inside q).  Every 3-colorable
cover costs 0, so the first one found cuts every later branch and is the
witness returned.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import Infeasible, InstanceTooLarge
from .geom import disks_disjoint, ply_disks, ply_rects
from .intervals import MODES

MAX_MIN_PLY = 20
MAX_3COLOR = 12
MAX_INTERVALS = 12


def _cover_masks(points, objects):
    masks = []
    for o in objects:
        m = 0
        for pi, p in enumerate(points):
            if o.contains(p):
                m |= 1 << pi
        masks.append(m)
    return masks


def _least_cover(points, objects, cap, noun, zero, start, grow):
    """Least-objective covering subset: (objective, chosen indices, state),
    or None when no cover survives the ways of adding that `grow` offers.

    Refuses more than `cap` objects, called `noun`s, and raises Infeasible
    naming the first point, in input order, that no object covers, in the
    solvers' words: covered by no interval on the line, by no object in the
    plane.  Objects are tried in index order, each way of adding object i
    that `grow(state, i)` lists as (objective, state) before leaving it
    out, from `zero` and `start`.
    Objectives never fall as objects are added, so a branch is cut once
    its objective reaches the incumbent, or once the objects left cannot
    complete the cover.
    """
    if len(objects) > cap:
        raise InstanceTooLarge("at most %d %ss" % (cap, noun))
    points = list(points)
    masks = _cover_masks(points, objects)
    suffix = [0] * (len(masks) + 1)
    for i in range(len(masks) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | masks[i]
    for pi, p in enumerate(points):
        if not suffix[0] >> pi & 1:
            raise Infeasible("point %r is covered by no %s" % (
                p, "interval" if noun == "interval" else "object"))
    full = (1 << len(points)) - 1
    best = None
    chosen: list[int] = []

    def rec(i, covered, objective, state):
        nonlocal best
        if best is not None and objective >= best[0]:
            return
        if covered == full:
            best = (objective, list(chosen), state)
            return
        if covered | suffix[i] != full:
            return
        chosen.append(i)
        for grown, new_state in grow(state, i):
            if best is None or grown < best[0]:
                rec(i + 1, covered | masks[i], grown, new_state)
        chosen.pop()
        rec(i + 1, covered, objective, state)

    rec(0, 0, zero, start)
    return best


def exact_min_ply(points, objects, kind):
    """Exact minimum ply cover by branch and bound: (opt, chosen indices).

    A branch is priced by the ply of its chosen objects, the same
    `ply_rects` / `ply_disks` that the solvers report.
    """
    if kind not in ("rects", "disks"):
        raise ValueError("kind must be 'rects' or 'disks'")
    ply_of = ply_rects if kind == "rects" else ply_disks

    def grow(objs, i):
        objs = objs + [objects[i]]
        return [(ply_of(objs), objs)]

    opt, chosen, _ = _least_cover(points, objects, MAX_MIN_PLY, "object",
                                  0, [], grow)
    return opt, chosen


def exact_3color_cover(points, disks):
    """Covering subset split into three pairwise-disjoint classes, or None
    when no such cover exists.

    Searches over covering subsets together with proper 3-colorings of
    their intersection graphs.  A disk joins each class holding no disk it
    meets, and only the first empty class, since the classes fill in order
    and empty ones are interchangeable; extending a partial coloring can
    never fix a conflict.  A point covered by no disk raises Infeasible,
    naming it as `solve_3color` does.
    """
    def grow(classes, i):
        for a, c in enumerate(classes):
            if all(disks_disjoint(disks[i], disks[j]) for j in c):
                yield 0, classes[:a] + (c + (i,),) + classes[a + 1:]
            if not c:
                break

    best = _least_cover(points, disks, MAX_3COLOR, "disk", 0, ((), (), ()),
                        grow)
    return None if best is None else best[2]


def exact_intervals(points, intervals, mode: str = "mmsc"):
    """Exact optimum over all covering subsets: (objective, chosen indices).

    The points are numbers.  The membership objective is evaluated at
    them; the ply objective at every interval left endpoint, where the
    maximum depth of closed intervals is always attained.
    """
    if mode not in MODES:
        raise ValueError("mode must be one of %r" % (MODES,))
    xs = list(points)
    eval_xs = xs if mode == "mmsc" else [s.lo for s in intervals]

    def grow(memb, i):
        s = intervals[i]
        memb = [v + s.weight if s.contains(x) else v
                for v, x in zip(memb, eval_xs)]
        return [(max(memb), memb)]

    opt, chosen, _ = _least_cover(xs, intervals, MAX_INTERVALS, "interval",
                                  Fraction(0), [Fraction(0)] * len(eval_xs),
                                  grow)
    return opt, chosen
