"""Tests-only depth references, independent of the sweeps in `geom`.

`oracle.py` uses the production ply functions, so these straightforward
versions are what the rewritten ones are checked against: the exact
candidate-point scans for rectangles and disks, the int test of whether
three disks share a point, and a dense-grid depth sampler for disks (the
only user of numpy).  The disk scans are exact on ints, with no float
filter, and test every disk against every candidate, its own disks
included.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from plycover.geom import UnitDisk, UnitRect, _max_stab_closed


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


def _sign_of_roots(a, m, b, n) -> int:
    """The sign of a sqrt(m) + b sqrt(n) for ints a, b and m > 0, n >= 0."""
    sa, sb = (a > 0) - (a < 0), ((b > 0) - (b < 0)) if n else 0
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    d = a * a * m - b * b * n  # the two terms differ in sign
    return sa if d > 0 else -sa if d < 0 else 0


def _scaled(disks):
    """The centres as int pairs in units of 1/L, and L, the largest float
    denominator (a power of two), so a disk has radius L/2."""
    ratios = [(d.center.x.as_integer_ratio(), d.center.y.as_integer_ratio())
              for d in disks]
    big = max((den for c in ratios for _, den in c), default=1)
    return [tuple(n * (big // den) for n, den in c) for c in ratios], big


def _candidates(cs, big):
    """Every centre as (x, y), and every point where two circles meet as
    (a, dx, dy, s, q): a + (dx, dy)/2 + s sqrt(e) (-dy, dx), s = 1 and -1,
    with q = dx^2 + dy^2 and e = (L^2 - q) / (4q); e = 0 when they touch,
    and both points are listed then too."""
    out = list(cs)
    for i in range(len(cs)):
        for j in range(i + 1, len(cs)):
            dx, dy = cs[j][0] - cs[i][0], cs[j][1] - cs[i][1]
            q = dx * dx + dy * dy
            if 0 < q <= big * big:
                out += [(cs[i], dx, dy, s, q) for s in (1, -1)]
    return out


def _holds(c, cand, big) -> bool:
    cx, cy = c
    if len(cand) == 2:
        return 4 * ((cand[0] - cx) ** 2 + (cand[1] - cy) ** 2) <= big * big
    # the point P lies on the circle of a, so |P - c|^2 - L^2/4 =
    # 2 (P - a).(a - c) + |a - c|^2 = A + B sqrt(e); times sqrt(4q) > 0
    (ax, ay), dx, dy, s, q = cand
    wx, wy = ax - cx, ay - cy
    a = dx * wx + dy * wy + wx * wx + wy * wy
    b = 2 * s * (dx * wy - dy * wx)
    return _sign_of_roots(a, 4 * q, b, big * big - q) <= 0


def candidate_holders(disks: Sequence[UnitDisk]) -> list:
    """For every candidate point, the sorted indices of the disks holding
    it; the list sorted."""
    cs, big = _scaled(disks)
    return sorted([k for k, c in enumerate(cs) if _holds(c, p, big)]
                  for p in _candidates(cs, big))


def ply_disks(disks: Sequence[UnitDisk]) -> int:
    """Maximum depth at every centre and every point where circles meet."""
    cs, big = _scaled(disks)
    return max((sum(_holds(c, p, big) for c in cs)
                for p in _candidates(cs, big)), default=0)


def disk_depth_within(disks: Sequence[UnitDisk], region: UnitDisk) -> int:
    """Maximum depth over the region at every candidate point of the disks
    and the region that the region holds."""
    cs, big = _scaled(list(disks) + [region])
    return max((sum(_holds(c, p, big) for c in cs[:-1])
                for p in _candidates(cs, big) if _holds(cs[-1], p, big)),
               default=0)


def disks_share_point(a: UnitDisk, b: UnitDisk, c: UnitDisk) -> bool:
    """Three closed disks share a point iff the least circle around their
    centres has radius at most 1/2, on ints with no float filter: the
    longest side is at most 1 when the triangle is not acute, and pqr <=
    X^2 (the circumradius test) when it is, p, q, r the squared sides and
    X the cross product."""
    ((ax, ay), (bx, by), (cx, cy)), den = _scaled([a, b, c])
    ux, uy, vx, vy = bx - ax, by - ay, cx - ax, cy - ay
    p, q = ux * ux + uy * uy, vx * vx + vy * vy
    r = (cx - bx) ** 2 + (cy - by) ** 2
    if p + q <= r or q + r <= p or r + p <= q:
        return max(p, q, r) <= den * den
    x = ux * vy - uy * vx
    return p * q * r <= x * x * den * den


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
    r2 = 0.25
    for d in disks:
        counts += (gx - d.center.x) ** 2 + (gy - d.center.y) ** 2 <= r2
    return int(counts.max())
