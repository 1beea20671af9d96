"""Geometric primitives shared by every solver.

Points, unit-height rectangles, unit disks, weighted intervals, closed-set
membership tests, and exact maximum-depth (ply) computations.  Rectangles
and intervals carry exact rational coordinates, so all their predicates are
exact sign tests; disks use float coordinates with a small containment
tolerance because their predicates involve square roots.  Every object is a
closed set: a point on the boundary belongs to the object.

Rectangle and interval predicates only compare coordinates, so the solvers
replace each coordinate by its rank (`ranks`) and run on small ints; a
rectangle then becomes a `Box` of rank sides.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from functools import cmp_to_key
from itertools import groupby
from typing import NamedTuple, Sequence

EPS_COVER = 1e-9
EPS_DISJOINT = 1e-9

# widening of the disk search windows, far above float rounding at the
# coordinates used, so a window never drops a pair or disk the exact
# predicate would keep
WINDOW_SLACK = 1e-7


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


@dataclass(frozen=True)
class Point:
    x: object
    y: object


def as_x(p):
    """The coordinate of a point on the line, given as a Point or a number."""
    return p.x if isinstance(p, Point) else p


@dataclass(frozen=True)
class UnitRect:
    """Closed axis-aligned rectangle of height exactly 1."""

    left: Fraction
    bottom: Fraction
    width: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "left", _frac(self.left))
        object.__setattr__(self, "bottom", _frac(self.bottom))
        object.__setattr__(self, "width", _frac(self.width))
        if self.width <= 0:
            raise ValueError("rectangle width must be positive")

    @property
    def right(self) -> Fraction:
        return self.left + self.width

    @property
    def top(self) -> Fraction:
        return self.bottom + 1

    def contains(self, p: Point) -> bool:
        return self.left <= p.x <= self.right and self.bottom <= p.y <= self.top


class Box(NamedTuple):
    """Closed axis-aligned box given by its four sides.

    The rectangle solver uses boxes of coordinate ranks; every rectangle
    predicate accepts a Box where it accepts a UnitRect."""

    left: object
    right: object
    bottom: object
    top: object

    def contains(self, p: Point) -> bool:
        left, right, bottom, top = self
        return left <= p.x <= right and bottom <= p.y <= top


def ranks(values) -> list:
    """Rank of each value among all of them, from 0; equal values share one.

    Ints, Fractions and floats mix freely.  A value num/den (in lowest
    terms) is sorted on the int 2 * floor(v * 2**64), plus 1 when v * 2**64
    is not an integer.  Different keys order their values, and an even key
    holds one value; only the values that share an odd key are told apart,
    exactly, by cross-multiplying their ratios.  No Fraction is compared.
    """
    ratios = [v.as_integer_ratio() for v in values]
    keys = []
    for num, den in ratios:
        q, r = divmod(num << 64, den)
        keys.append(2 * q + (r != 0))
    out = [0] * len(keys)
    rank = -1
    for k, group in groupby(sorted(range(len(keys)), key=keys.__getitem__),
                            keys.__getitem__):
        if not k & 1:
            rank += 1
            for i in group:
                out[i] = rank
            continue
        group = list(group)
        distinct = sorted({ratios[i] for i in group},
                          key=cmp_to_key(_ratio_cmp))
        at = {nd: rank + 1 + r for r, nd in enumerate(distinct)}
        for i in group:
            out[i] = at[ratios[i]]
        rank += len(distinct)
    return out


def _ratio_cmp(a, b) -> int:
    d = a[0] * b[1] - b[0] * a[1]
    return (d > 0) - (d < 0)


@dataclass(frozen=True)
class UnitDisk:
    """Closed disk of diameter 1."""

    center: Point

    def contains(self, p: Point, eps: float = EPS_COVER) -> bool:
        dx = p.x - self.center.x
        dy = p.y - self.center.y
        r = 0.5 + eps
        return dx * dx + dy * dy <= r * r


@dataclass(frozen=True)
class WeightedInterval:
    """Closed interval [lo, hi] on the line with a nonnegative weight."""

    lo: Fraction
    hi: Fraction
    weight: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "lo", _frac(self.lo))
        object.__setattr__(self, "hi", _frac(self.hi))
        object.__setattr__(self, "weight", _frac(self.weight))
        if not self.lo < self.hi:
            raise ValueError("interval needs lo < hi")
        if self.weight < 0:
            raise ValueError("interval weight must be nonnegative")

    def contains(self, x) -> bool:
        if isinstance(x, Point):
            x = x.x
        return self.lo <= x <= self.hi


class EventClass(IntEnum):
    """Sweep order at one x: left sides first, then input points, then right sides."""

    LEFT_SIDE = 0
    INPUT_POINT = 1
    RIGHT_SIDE = 2


@dataclass(frozen=True, order=True)
class EventKey:
    """Lexicographic sweep key (x, class, y).

    Coinciding x-coordinates are resolved symbolically by the class and the
    y tiebreaker instead of any numeric perturbation.
    """

    x: object
    cls: int
    y: object


def _contains(obj, p, eps):
    if isinstance(obj, UnitDisk):
        return obj.contains(p, eps)
    return obj.contains(p)


def membership_at(p, objects: Sequence, weighted: bool = False,
                  eps: float = EPS_COVER):
    """Number (or weight sum) of objects containing p, closed containment."""
    kinds = {type(o) for o in objects}
    if len(kinds) > 1:
        names = sorted(k.__name__ for k in kinds)
        raise ValueError("mixed object kinds: %s" % ", ".join(names))
    total = Fraction(0) if weighted else 0
    for o in objects:
        if _contains(o, p, eps):
            total += getattr(o, "weight", 1) if weighted else 1
    return total


def verify_cover(points, chosen, eps: float = EPS_COVER) -> bool:
    """True iff every point is contained in at least one chosen object."""
    for p in points:
        if not any(_contains(o, p, eps) for o in chosen):
            return False
    return True


def _max_stab_closed(spans) -> int:
    # closed spans: a start sorts before an end at the same coordinate,
    # so abutting spans count as overlapping
    events = []
    for lo, hi in spans:
        events.append((lo, 0))
        events.append((hi, 1))
    events.sort()
    best = cur = 0
    for _, end in events:
        if end:
            cur -= 1
        else:
            cur += 1
            if cur > best:
                best = cur
    return best


def _max_depth_boxes(boxes) -> int:
    """Exact maximum depth of closed boxes given as (left, right, bottom, top).

    An x-sweep over the side events, lefts before rights at equal x.  The
    active set only grows between two removals, so its y-spans are reduced
    to a 1-D maximum stabbing count once, just before the first removal
    after an addition: that set contains the active set at every left side
    since the previous removal.
    """
    events = []
    for i, (left, right, _, _) in enumerate(boxes):
        events.append((left, 0, i))
        events.append((right, 1, i))
    events.sort()
    active = {}
    grown = False
    best = 0
    for _, side, i in events:
        if side == 0:
            active[i] = boxes[i][2:]
            grown = True
            continue
        if grown and len(active) > best:
            best = max(best, _max_stab_closed(active.values()))
        grown = False
        del active[i]
    return best


def _sides(r) -> tuple:
    if r.__class__ is Box:
        return r
    return (r.left, r.left + r.width, r.bottom, r.bottom + 1)


def ply_rects(rects: Sequence[UnitRect]) -> int:
    """Exact maximum depth of the closed-rectangle arrangement.

    The depth of a closed arrangement is attained at a left side, so a
    sweep over the side events that evaluates the active y-spans there is
    exact.
    """
    return _max_depth_boxes([_sides(r) for r in rects])


def rects_cover(points, rects: Sequence[UnitRect]) -> list:
    """For each point, whether some closed rectangle of height 1 contains it.

    One x-sweep over the points and the rectangles' sides, lefts before
    points before rights at equal x, so every rectangle is closed.  An
    active rectangle contains a point iff its bottom lies in
    [y - 1, y]; a Fenwick tree counts the active bottoms by rank.
    """
    bottoms = sorted({r.bottom for r in rects})
    tree = [0] * (len(bottoms) + 1)

    def below(i):  # active bottoms of rank < i
        total = 0
        while i:
            total += tree[i]
            i &= i - 1
        return total

    events = [(p.x, 1, i) for i, p in enumerate(points)]
    for r in rects:
        b = bisect_left(bottoms, r.bottom) + 1
        events.append((r.left, 0, b))
        events.append((r.left + r.width, 2, b))
    events.sort()
    out = [False] * len(points)
    for _, cls, k in events:
        if cls == 1:
            y = points[k].y
            out[k] = (below(bisect_right(bottoms, y))
                      > below(bisect_left(bottoms, y - 1)))
            continue
        step = 1 if cls == 0 else -1
        while k < len(tree):
            tree[k] += step
            k += k & -k
    return out


def rect_depth_within(rects: Sequence[UnitRect], region: UnitRect) -> int:
    """Maximum depth of `rects` over the points of the closed `region`.

    Only rectangles meeting `region` can contain a point of it, and inside
    `region` each acts as its clipped (closed, possibly flat) box, so this
    is the depth of the clipped boxes.
    """
    rl, rr, rb, rt = _sides(region)
    boxes = []
    for r in rects:
        left, right, bottom, top = _sides(r)
        if left <= rr and right >= rl and bottom <= rt and top >= rb:
            boxes.append((max(left, rl), min(right, rr),
                          max(bottom, rb), min(top, rt)))
    return _max_depth_boxes(boxes)


def circle_intersections(a: UnitDisk, b: UnitDisk,
                         eps: float = EPS_COVER) -> list[Point]:
    """Intersection points of the two bounding circles (0, 1, or 2 points).

    Pairs within the eps-closed touching distance yield their midpoint, so
    candidate generation matches the eps-tolerant containment test.
    """
    dx = b.center.x - a.center.x
    dy = b.center.y - a.center.y
    d2 = dx * dx + dy * dy
    r = 1.0 + eps
    if d2 == 0.0 or d2 > r * r:
        return []
    d = math.sqrt(d2)
    mx = a.center.x + dx / 2.0
    my = a.center.y + dy / 2.0
    h2 = 0.25 - d2 / 4.0
    if h2 <= 0.0:
        return [Point(mx, my)]
    h = math.sqrt(h2)
    ux = -dy / d * h
    uy = dx / d * h
    return [Point(mx + ux, my + uy), Point(mx - ux, my - uy)]


def _max_membership_disks(disks, cands, eps) -> int:
    best = 0
    for p in cands:
        c = 0
        for d in disks:
            if d.contains(p, eps):
                c += 1
        if c > best:
            best = c
    return best


def ply_disks(disks: Sequence[UnitDisk], eps: float = EPS_COVER) -> int:
    """Maximum depth of the closed-disk arrangement.

    Evaluated at candidate points only: every disk center plus every
    pairwise circle-circle intersection.  The deepest cell is bounded
    either by an arc endpoint (a candidate) or by one full circle whose
    disk lies inside every other disk of the cell, in which case that
    disk's center attains the depth.

    With disks sorted by center x, only pairs within an x-window of
    1 + eps can intersect and only disks within 0.5 + eps of a candidate's
    x can contain it; both windows carry float slack, and the exact
    predicates still decide.
    """
    if not disks:
        return 0
    order = sorted(range(len(disks)), key=lambda i: disks[i].center.x)
    xs = [disks[i].center.x for i in order]
    pair_reach = 1.0 + eps + WINDOW_SLACK
    cands = [d.center for d in disks]
    for a, i in enumerate(order):
        hi = bisect_right(xs, xs[a] + pair_reach)
        for j in order[a + 1:hi]:
            lo_i, hi_i = (i, j) if i < j else (j, i)
            cands.extend(circle_intersections(disks[lo_i], disks[hi_i], eps))
    reach = 0.5 + eps + WINDOW_SLACK
    best = 0
    for p in cands:
        c = 0
        for k in order[bisect_left(xs, p.x - reach):
                       bisect_right(xs, p.x + reach)]:
            if disks[k].contains(p, eps):
                c += 1
        if c > best:
            best = c
    return best


def disk_depth_within(disks: Sequence[UnitDisk], region: UnitDisk,
                      eps: float = EPS_COVER) -> int:
    """Maximum depth of `disks` over the points of the closed disk `region`.

    A disk can contain a point of `region` only if its center lies within
    1 + 2*eps of the region's center, so only those disks (with float
    slack) are considered.
    """
    reach = 1.0 + 2.0 * eps + WINDOW_SLACK
    reach2 = reach * reach
    cx, cy = region.center.x, region.center.y
    near = []
    for d in disks:
        dx = d.center.x - cx
        dy = d.center.y - cy
        if dx * dx + dy * dy <= reach2:
            near.append(d)
    cands = [d.center for d in near if region.contains(d.center, eps)]
    for i in range(len(near)):
        for j in range(i + 1, len(near)):
            for p in circle_intersections(near[i], near[j], eps):
                if region.contains(p, eps):
                    cands.append(p)
    return _max_membership_disks(near, cands, eps)


def disks_disjoint(a: UnitDisk, b: UnitDisk, eps: float = EPS_DISJOINT) -> bool:
    """True iff the closed disks share no point (touching disks overlap)."""
    dx = a.center.x - b.center.x
    dy = a.center.y - b.center.y
    r = 1.0 + eps
    return dx * dx + dy * dy > r * r
