"""Tests-only depth references, independent of the sweeps in `geom`.

`oracle.py` uses the production ply functions, so these straightforward
versions are what the rewritten ones are checked against: the exact
candidate-point scans for rectangles and disks, and a dense-grid depth
sampler for disks (the only user of numpy).
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from plycover.geom import (EPS_COVER, UnitDisk, UnitRect, _max_stab_closed,
                           circle_intersections)


def ply_rects(rects: Sequence[UnitRect]) -> int:
    """Maximum depth by rescanning the active y-spans at every side x."""
    if not rects:
        return 0
    xs = sorted({r.left for r in rects} | {r.right for r in rects})
    best = 0
    for x in xs:
        spans = [(r.bottom, r.top) for r in rects if r.left <= x <= r.right]
        if len(spans) > best:
            best = max(best, _max_stab_closed(spans))
    return best


def rect_depth_within(rects: Sequence[UnitRect], region: UnitRect) -> int:
    """Maximum depth over the region by counting at every side pair."""
    xs = {region.left, region.right}
    ys = {region.bottom, region.top}
    for r in rects:
        for v in (r.left, r.right):
            if region.left <= v <= region.right:
                xs.add(v)
        for v in (r.bottom, r.top):
            if region.bottom <= v <= region.top:
                ys.add(v)
    best = 0
    for x in xs:
        for y in ys:
            c = 0
            for r in rects:
                if r.left <= x <= r.right and r.bottom <= y <= r.top:
                    c += 1
            if c > best:
                best = c
    return best


def _max_membership_disks(disks, cands) -> int:
    best = 0
    for p in cands:
        c = 0
        for d in disks:
            if d.contains(p):
                c += 1
        if c > best:
            best = c
    return best


def ply_disks(disks: Sequence[UnitDisk]) -> int:
    """Maximum depth at every center and every pairwise intersection."""
    if not disks:
        return 0
    cands = [d.center for d in disks]
    for i in range(len(disks)):
        for j in range(i + 1, len(disks)):
            cands.extend(circle_intersections(disks[i], disks[j]))
    return _max_membership_disks(disks, cands)


def disk_depth_within(disks: Sequence[UnitDisk], region: UnitDisk) -> int:
    """Maximum depth over the region at every candidate point inside it."""
    cands = [d.center for d in disks if region.contains(d.center)]
    for i in range(len(disks)):
        for j in range(i + 1, len(disks)):
            for p in circle_intersections(disks[i], disks[j]):
                if region.contains(p):
                    cands.append(p)
    return _max_membership_disks(disks, cands)


def grid_depth_disks(disks: Sequence[UnitDisk], pitch: float = 0.01) -> int:
    """Dense-grid depth sampler; never exceeds the true ply."""
    if not disks:
        return 0
    cx = [d.center.x for d in disks]
    cy = [d.center.y for d in disks]
    xs = np.arange(min(cx) - 0.5 - pitch, max(cx) + 0.5 + 2 * pitch, pitch)
    ys = np.arange(min(cy) - 0.5 - pitch, max(cy) + 0.5 + 2 * pitch, pitch)
    gx, gy = np.meshgrid(xs, ys)
    counts = np.zeros(gx.shape, dtype=np.int32)
    r2 = (0.5 + EPS_COVER) ** 2
    for d in disks:
        counts += (gx - d.center.x) ** 2 + (gy - d.center.y) ** 2 <= r2
    return int(counts.max())
