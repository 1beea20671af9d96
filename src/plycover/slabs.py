"""Height-2 slab decomposition and the per-slab ply budgets.

Points fall in exactly one slab and every unit-height object intersects at
most two consecutive slabs.  Each slab j is searched upward from ell = 1 to
its own least budget ell_j; a point of the plane meets chosen objects of at
most two consecutive slabs, so the union of the slab covers has ply at most
max_j(ell_j + ell_{j+1}).  The restriction of an optimal cover solves every
slab at the optimum, so ell_j <= OPT and the union is a 2-approximation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import disks as _disks
from . import rects as _rects
from .errors import BudgetExceeded, Infeasible
from .geom import EPS_COVER, membership_at, ply_disks, ply_rects

SLAB_HEIGHT = 2

_BOUNDARY_TOL = 1e-7  # float slack when testing extrema against boundaries


@dataclass(frozen=True)
class SlabInstance:
    index: int
    y_lo: object
    y_hi: object
    points: list
    objects: list  # indices into the global object list


@dataclass
class CoverSolution:
    chosen: list
    objective: object
    colors: Optional[dict] = None


def _critical_ys(points, objects, kind) -> list:
    ys = [p.y for p in points]
    if kind == "rects":
        for r in objects:
            ys.append(r.bottom)
            ys.append(r.top)
    else:
        for d in objects:
            ys.append(d.center.y - 0.5)
            ys.append(d.center.y + 0.5)
    return ys


def slab_offset(points, objects, kind):
    """Grid offset putting no point or object extremum on a slab boundary.

    Candidates sit just below the lowest critical y (shift k/(8(C+1)) for
    k = 1..C+1, all below 1/8), so any instance spanning less than 15/8
    stays in a single slab.  The C+1 candidates are pairwise distinct
    modulo the slab height and at most C residues are bad, so the smallest
    shift that works exists; it is returned.
    """
    ys = _critical_ys(points, objects, kind)
    exact = kind == "rects"
    if not ys:
        return Fraction(0) if exact else 0.0
    n = len(ys)
    base = min(ys)
    for k in range(1, n + 2):
        if exact:
            cand = base - Fraction(k, 8 * (n + 1))
            if all((y - cand) % 2 != 0 for y in ys):
                return cand
        else:
            cand = float(base) - k / (8.0 * (n + 1))
            ok = True
            for y in ys:
                r = (y - cand) % 2.0
                if r < _BOUNDARY_TOL or r > 2.0 - _BOUNDARY_TOL:
                    ok = False
                    break
            if ok:
                return cand
    raise AssertionError("no valid slab offset among %d candidates" % (n + 1))


def assign_slabs(points, objects, kind) -> list[SlabInstance]:
    """Partition points into height-2 slabs; attach the objects each slab
    intersects.  Only slabs containing at least one point are returned."""
    if kind not in ("rects", "disks"):
        raise ValueError("kind must be 'rects' or 'disks'")
    off = slab_offset(points, objects, kind)
    by_slab: dict[int, list] = {}
    for p in points:
        j = math.floor((p.y - off) / 2)
        by_slab.setdefault(j, []).append(p)
    spans = []
    for o in objects:
        if kind == "rects":
            spans.append((o.bottom, o.top))
        else:
            spans.append((o.center.y - 0.5, o.center.y + 0.5))
    out = []
    for j in sorted(by_slab):
        lo = off + SLAB_HEIGHT * j
        hi = off + SLAB_HEIGHT * (j + 1)
        idxs = [i for i, (ylo, yhi) in enumerate(spans)
                if yhi > lo and ylo < hi]
        out.append(SlabInstance(j, lo, hi, by_slab[j], idxs))
    return out


def solve_mpc(points, objects, kind, ell_max: Optional[int] = None,
              eps: float = EPS_COVER) -> CoverSolution:
    """2-approximate minimum ply cover for unit-height rectangles or disks.

    Each slab takes the least budget ell_j at which its strip search
    succeeds, trying ell = 1, 2, ... up to its number of objects (at which
    any coverable slab succeeds) or ell_max, whichever is smaller.  When a
    slab's search fails at its first budget, its points are checked against
    its objects; a point covered by none raises Infeasible naming it.  A
    slab that needs more than ell_max raises BudgetExceeded, but only after
    every slab has been checked, so an uncovered point anywhere wins.
    """
    if kind not in ("rects", "disks"):
        raise ValueError("kind must be 'rects' or 'disks'")
    points = list(points)
    objects = list(objects)
    if not points:
        return CoverSolution([], 0)

    if kind == "rects":
        solve_points, solve_objects = points, objects
        orig = list(range(len(objects)))
        ply_fn = ply_rects

        def slab_solve(pts, objs, ell):
            return _rects.solve_slab_rects(pts, objs, ell)
    else:
        uniq, orig = _disks.dedupe_disks(objects)
        angle = _disks.canonical_rotation(points, uniq, eps)
        solve_points, solve_objects = _disks.rotate_instance(points, uniq, angle)

        def ply_fn(objs):
            return ply_disks(objs, eps)

        def slab_solve(pts, objs, ell):
            return _disks.solve_slab_disks(pts, objs, ell, eps)

    union: set[int] = set()
    over = None
    for slab in assign_slabs(solve_points, solve_objects, kind):
        objs = [solve_objects[i] for i in slab.objects]
        cap = len(objs) if ell_max is None else min(ell_max, len(objs))
        ell = 1
        res = slab_solve(slab.points, objs, ell) if cap >= 1 else None
        if res is None:
            for p in slab.points:
                if membership_at(p, objs, eps=eps) == 0:
                    unrotated = dict(zip(solve_points, points))
                    raise Infeasible("point %r is covered by no object"
                                     % (unrotated[p],))
        while res is None and ell < cap:
            ell += 1
            res = slab_solve(slab.points, objs, ell)
        if res is None:
            over = (slab.index, cap)
        else:
            union.update(slab.objects[i] for i in res)
    if over is not None:
        raise BudgetExceeded("slab %d has no cover within ply budget %d"
                             % over)
    chosen = sorted(orig[i] for i in union)
    return CoverSolution(chosen, ply_fn([objects[i] for i in chosen]))
