"""Independent exact solvers used to cross-check the production ones.

Branch-and-bound minimum ply cover, exhaustive 3-colorable cover search,
and subset enumeration for weighted intervals.  Size caps keep full test
sweeps fast; instances above a cap are refused rather than solved slowly.

The minimum ply cover prices each branch by the ply of its chosen objects
with the new one added, by the one depth routine of the kind (`geom`).
That is the depth inside the added object where it exceeds the ply
before: ply(S + q) = max(ply(S), depth inside q).
"""
from __future__ import annotations

from fractions import Fraction

from .errors import Infeasible, InstanceTooLarge
from .geom import disks_disjoint, ply_disks, ply_rects

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


def _suffix_or(masks):
    out = [0] * (len(masks) + 1)
    for i in range(len(masks) - 1, -1, -1):
        out[i] = out[i + 1] | masks[i]
    return out


def exact_min_ply(points, objects, kind):
    """Exact minimum ply cover by branch and bound: (opt, chosen indices).

    Prunes a branch once its partial ply reaches the incumbent (ply never
    decreases when objects are added) or once the remaining objects cannot
    complete the cover.  A branch is priced by the ply of its chosen
    objects, the same `ply_rects` / `ply_disks` that the solvers report.
    """
    if kind not in ("rects", "disks"):
        raise ValueError("kind must be 'rects' or 'disks'")
    if len(objects) > MAX_MIN_PLY:
        raise InstanceTooLarge("at most %d objects" % MAX_MIN_PLY)
    points = list(points)
    objects = list(objects)
    ply_of = ply_rects if kind == "rects" else ply_disks
    n, m = len(points), len(objects)
    full = (1 << n) - 1
    masks = _cover_masks(points, objects)
    union = 0
    for v in masks:
        union |= v
    if union != full:
        raise Infeasible("some point is covered by no object")
    suffix = _suffix_or(masks)

    best = [None, None]
    chosen: list[int] = []
    chosen_objs: list = []

    def rec(i, covered, cur_ply):
        if best[0] is not None and cur_ply >= best[0]:
            return
        if covered == full:
            best[0] = cur_ply
            best[1] = list(chosen)
            return
        if i == m or (covered | suffix[i]) != full:
            return
        obj = objects[i]
        new_ply = ply_of(chosen_objs + [obj])
        if best[0] is None or new_ply < best[0]:
            chosen.append(i)
            chosen_objs.append(obj)
            rec(i + 1, covered | masks[i], new_ply)
            chosen.pop()
            chosen_objs.pop()
        rec(i + 1, covered, cur_ply)

    rec(0, 0, 0)
    return best[0], best[1]


def exact_3color_cover(points, disks):
    """Covering subset split into three pairwise-disjoint classes, or None.

    Searches over covering subsets together with proper 3-colorings of
    their intersection graphs; extending a partial coloring can never fix
    a conflict, so conflicting branches are cut immediately.
    """
    if len(disks) > MAX_3COLOR:
        raise InstanceTooLarge("at most %d disks" % MAX_3COLOR)
    points = list(points)
    disks = list(disks)
    n, m = len(points), len(disks)
    full = (1 << n) - 1
    masks = _cover_masks(points, disks)
    union = 0
    for v in masks:
        union |= v
    if union != full:
        return None
    conflict = [[not disks_disjoint(a, b) for b in disks]
                for a in disks]
    suffix = _suffix_or(masks)
    cols: tuple[list, list, list] = ([], [], [])
    out = [None]

    def rec(i, covered):
        if covered == full:
            out[0] = tuple(tuple(c) for c in cols)
            return True
        if i == m or (covered | suffix[i]) != full:
            return False
        row = conflict[i]
        seen_empty = False
        for a in range(3):
            c = cols[a]
            if not c:
                if seen_empty:
                    break
                seen_empty = True
            if all(not row[j] for j in c):
                c.append(i)
                if rec(i + 1, covered | masks[i]):
                    return True
                c.pop()
        return rec(i + 1, covered)

    rec(0, 0)
    return out[0]


def exact_intervals(points, intervals, mode: str = "mmsc"):
    """Exact optimum over all covering subsets: (objective, chosen indices).

    The points are numbers.  The membership objective is evaluated at
    them; the ply objective at every interval left endpoint, where the
    maximum depth of closed intervals is always attained.
    """
    if mode not in ("mmsc", "mpc"):
        raise ValueError("mode must be 'mmsc' or 'mpc'")
    if len(intervals) > MAX_INTERVALS:
        raise InstanceTooLarge("at most %d intervals" % MAX_INTERVALS)
    xs = list(points)
    intervals = list(intervals)
    n, m = len(xs), len(intervals)
    full = (1 << n) - 1
    masks = _cover_masks(xs, intervals)
    union = 0
    for v in masks:
        union |= v
    if union != full:
        raise Infeasible("some point lies in no interval")
    suffix = _suffix_or(masks)

    eval_xs = xs if mode == "mmsc" else sorted({s.lo for s in intervals})
    incid = [[e for e, x in enumerate(eval_xs) if s.contains(x)]
             for s in intervals]

    memb = [Fraction(0)] * len(eval_xs)
    best = [None, None]
    chosen: list[int] = []

    def rec(i, covered, cur_obj):
        if best[0] is not None and cur_obj >= best[0]:
            return
        if covered == full:
            best[0] = cur_obj
            best[1] = list(chosen)
            return
        if i == m or (covered | suffix[i]) != full:
            return
        w = intervals[i].weight
        new_obj = cur_obj
        for e in incid[i]:
            memb[e] += w
            if memb[e] > new_obj:
                new_obj = memb[e]
        if best[0] is None or new_obj < best[0]:
            chosen.append(i)
            rec(i + 1, covered | masks[i], new_obj)
            chosen.pop()
        for e in incid[i]:
            memb[e] -= w
        rec(i + 1, covered, cur_obj)

    rec(0, 0, Fraction(0))
    if best[0] is None:
        raise Infeasible("some point lies in no interval")
    return best[0], best[1]

