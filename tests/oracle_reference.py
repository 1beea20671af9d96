"""Tests-only reference for the exact minimum-ply oracle.

`oracle.exact_min_ply` prunes by branch and bound; this unpruned full
enumeration over every subset is what its pruning is checked against.
It computes its own cover masks, so it shares no code with the search.
"""
from __future__ import annotations

from plycover.errors import Infeasible, InstanceTooLarge
from plycover.geom import ply_disks, ply_rects


def exhaustive_min_ply(points, objects, kind):
    """Unpruned full enumeration; cross-check for exact_min_ply."""
    if len(objects) > 16:
        raise InstanceTooLarge("at most 16 objects for full enumeration")
    points = list(points)
    objects = list(objects)
    ply_of = ply_rects if kind == "rects" else ply_disks
    n, m = len(points), len(objects)
    full = (1 << n) - 1
    masks = [sum(1 << k for k, p in enumerate(points) if o.contains(p))
             for o in objects]
    best = None
    for mask in range(1 << m):
        covered = 0
        for i in range(m):
            if mask >> i & 1:
                covered |= masks[i]
        if covered != full:
            continue
        subset = [i for i in range(m) if mask >> i & 1]
        cand = (ply_of([objects[i] for i in subset]), subset)
        if best is None or cand < best:
            best = cand
    if best is None:
        raise Infeasible("some point is covered by no object")
    return best
