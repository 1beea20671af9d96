"""2-approximate 3-colorable unit-disk covering.

Each slab is searched for a cover splittable into three classes of pairwise
disjoint disks (a class has ply 1, so at most 8 of its disks cross any
strip).  Slabs at even distance from the lowest one take colors 1-3, the
others 4-6; disks of same-colored classes two slabs apart cannot touch, so
every color class stays pairwise disjoint globally.  A solution 3-colorable
globally restricts to a 3-colorable cover of every slab, hence a failed
slab proves global infeasibility and the 6-colorable output is at most a
factor 2 from the optimum.
"""
from __future__ import annotations

from bisect import bisect_left

from .disks import (canonical_rotation, dedupe_disks, disk_side_events,
                    rotate_instance)
from .errors import Infeasible
# membership_at stays bound here so that perfbench/tracing.py can wrap it
from .geom import (EPS_COVER, EventClass, disks_disjoint,  # noqa: F401
                   membership_at, ply_disks, verify_cover)
from .slabs import CoverSolution, assign_slabs
from .stripdag import _merge_union, merge_member

MAX_PER_CLASS = 8

_EMPTY = ((), (), ())


def _canonical(classes, unions):
    # collapse the 3! symmetry: order classes by their member tuples,
    # empties last; unions follow the same permutation
    order = sorted(range(3),
                   key=lambda a: (1,) if not classes[a] else (0, classes[a]))
    return (tuple(classes[a] for a in order),
            tuple(unions[a] for a in order))


def solve_slab_3color(points, disks, eps: float = EPS_COVER):
    """Three pairwise-disjoint-within classes jointly covering the slab
    points, as disk index tuples, or None when no 3-colorable cover exists."""
    disks = list(disks)
    events = disk_side_events(disks)
    strip_points = [[] for _ in range(len(events) + 1)]
    for p in points:
        i = bisect_left(events, (p.x, EventClass.INPUT_POINT, p.y))
        strip_points[i].append(p)
    if strip_points[0]:
        return None
    if not events:
        return _EMPTY
    states = {_EMPTY: _EMPTY}
    for b, ev in enumerate(events):
        q = ev.obj
        is_left = ev.cls == EventClass.LEFT_SIDE
        pts = strip_points[b + 1]
        nxt = {}
        for classes in sorted(states):
            unions = states[classes]
            if is_left:
                cands = [classes]
                tried_empty = False
                for a in range(3):
                    cls = classes[a]
                    if not cls:
                        if tried_empty:
                            continue
                        tried_empty = True
                    if len(cls) >= MAX_PER_CLASS:
                        continue
                    if all(disks_disjoint(disks[q], disks[m], eps) for m in cls):
                        grown = list(classes)
                        grown[a] = merge_member(cls, q)
                        cands.append(tuple(grown))
            else:
                hit = next((a for a in range(3) if q in classes[a]), None)
                if hit is None:
                    cands = [classes]
                else:
                    shrunk = list(classes)
                    shrunk[hit] = tuple(m for m in classes[hit] if m != q)
                    cands = [tuple(shrunk)]
            for cand in cands:
                if pts:
                    active = cand[0] + cand[1] + cand[2]
                    if not all(any(disks[o].contains(p, eps) for o in active)
                               for p in pts):
                        continue
                new_unions = tuple(_merge_union(unions[a], cand[a])
                                   for a in range(3))
                canon_cls, canon_uni = _canonical(cand, new_unions)
                old = nxt.get(canon_cls)
                if old is None or canon_uni < old:
                    nxt[canon_cls] = canon_uni
        if not nxt:
            return None
        states = nxt
    return states.get(_EMPTY)


def solve_3color(points, disks, eps: float = EPS_COVER) -> CoverSolution:
    """6-colorable cover of the points, or Infeasible when no 3-colorable
    cover exists.  colors maps chosen disk index -> color in 1..6; every
    color class is pairwise disjoint.  A slab with an uncovered point fails
    its search, so only a failed slab is checked for one to name."""
    points = list(points)
    disks_in = list(disks)
    if not points:
        return CoverSolution([], 0, colors={})
    uniq, orig = dedupe_disks(disks_in)
    angle = canonical_rotation(points, uniq, eps)
    rpts, rdks = rotate_instance(points, uniq, angle)
    slabs = assign_slabs(rpts, rdks, "disks")
    colors: dict[int, int] = {}
    j0 = slabs[0].index
    for slab in slabs:
        objs = [rdks[i] for i in slab.objects]
        local = solve_slab_3color(slab.points, objs, eps)
        if local is None:
            for p in slab.points:
                if not verify_cover([p], objs, eps):
                    unrotated = dict(zip(rpts, points))
                    raise Infeasible("point %r is covered by no disk"
                                     % (unrotated[p],))
            raise Infeasible("slab %d admits no 3-colorable cover" % slab.index)
        base = 3 * ((slab.index - j0) % 2)
        for a, cls in enumerate(local):
            for li in cls:
                colors.setdefault(orig[slab.objects[li]], base + a + 1)
    chosen = sorted(colors)
    objective = ply_disks([disks_in[i] for i in chosen], eps)
    return CoverSolution(chosen, objective, colors=colors)
