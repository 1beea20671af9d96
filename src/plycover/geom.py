"""Geometric primitives shared by every solver.

Points, unit-height rectangles, unit disks, weighted intervals, closed-set
membership tests, and exact maximum-depth (ply) computations.  Rectangles
and intervals carry exact rational coordinates, so all their predicates are
exact sign tests.  Disks use float coordinates, and because their
predicates involve square roots every disk predicate widens the radius by
the one fixed tolerance `EPS_COVER`; it is not configurable.  Every object
is a closed set: a point on the boundary belongs to the object.

Rectangle and interval predicates only compare coordinates, so the solvers
take their inputs as exact (num, den) int pairs (`rect_pairs`,
`line_pairs`), replace each coordinate by its rank (`pair_ranks`) and run
on small ints; a rectangle then becomes a `Box` of rank sides.
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

# the disk tolerance: a disk holds the points within 0.5 + EPS_COVER of its
# centre, and two disks meet when their centres are within 1 + EPS_COVER
EPS_COVER = 1e-9
_R_COVER2 = (0.5 + EPS_COVER) * (0.5 + EPS_COVER)
_R_MEET2 = (1.0 + EPS_COVER) * (1.0 + EPS_COVER)

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


def line_pairs(points, intervals):
    """Points on the line and weighted intervals as exact int pairs.

    Returns ([(num, den) per point], [(lo, hi, weight) per interval, each a
    (num, den) pair]).  An element already in that form is kept as it is;
    Points, numbers and WeightedIntervals are converted exactly with
    `as_integer_ratio`, which gives lowest terms and den > 0.
    """
    xs = [p if type(p) is tuple else as_x(p).as_integer_ratio()
          for p in points]
    ivs = [s if type(s) is tuple else (s.lo.as_integer_ratio(),
                                       s.hi.as_integer_ratio(),
                                       s.weight.as_integer_ratio())
           for s in intervals]
    return xs, ivs


def rect_pairs(points, rects):
    """Points in the plane and unit-height rectangles as exact int pairs.

    Returns ([(x, y) per point], [(left, bottom, width) per rectangle]),
    each coordinate a (num, den) pair.  An element already in that form is
    kept as it is; Points and UnitRects are converted exactly with
    `as_integer_ratio`, which gives lowest terms and den > 0.
    """
    pts = [p if type(p) is tuple else (p.x.as_integer_ratio(),
                                        p.y.as_integer_ratio())
           for p in points]
    rs = [r if type(r) is tuple else (r.left.as_integer_ratio(),
                                      r.bottom.as_integer_ratio(),
                                      r.width.as_integer_ratio())
          for r in rects]
    return pts, rs


def pair_point(p) -> Point:
    """The Point, with Fraction coordinates, of a point given as an (x, y)
    pair of (num, den) int pairs."""
    return Point(Fraction(*p[0]), Fraction(*p[1]))


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


def pair_ranks(pairs) -> list:
    """Rank of each exact (num, den) int pair, den != 0, among all of them,
    from 0; pairs of equal value share one.

    A value num/den is sorted on the int 2 * floor(v * 2**64), plus 1 when
    v * 2**64 is not an integer.  Different keys order their values, and an
    even key holds one value; only the values that share an odd key are
    told apart, exactly: their pairs are brought to lowest terms with
    den > 0 and cross-multiplied.  No Fraction is made or compared.
    """
    keys = []
    for num, den in pairs:
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
        low = {i: _lowest(*pairs[i]) for i in group}
        distinct = sorted(set(low.values()), key=cmp_to_key(_ratio_cmp))
        at = {nd: rank + 1 + r for r, nd in enumerate(distinct)}
        for i, nd in low.items():
            out[i] = at[nd]
        rank += len(distinct)
    return out


def _lowest(num: int, den: int) -> tuple:
    g = math.gcd(num, den)
    return (num // g, den // g) if den > 0 else (-num // g, -den // g)


def _ratio_cmp(a, b) -> int:
    d = a[0] * b[1] - b[0] * a[1]
    return (d > 0) - (d < 0)


@dataclass(frozen=True)
class UnitDisk:
    """Closed disk of diameter 1."""

    center: Point

    def contains(self, p: Point) -> bool:
        dx = p.x - self.center.x
        dy = p.y - self.center.y
        return dx * dx + dy * dy <= _R_COVER2


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


def membership_at(p, objects: Sequence, weighted: bool = False):
    """Number (or weight sum) of objects containing p, closed containment."""
    kinds = {type(o) for o in objects}
    if len(kinds) > 1:
        names = sorted(k.__name__ for k in kinds)
        raise ValueError("mixed object kinds: %s" % ", ".join(names))
    total = Fraction(0) if weighted else 0
    for o in objects:
        if o.contains(p):
            total += getattr(o, "weight", 1) if weighted else 1
    return total


def verify_cover(points, chosen) -> bool:
    """True iff every point is contained in at least one chosen object."""
    for p in points:
        if not any(o.contains(p) for o in chosen):
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


def circle_intersections(a: UnitDisk, b: UnitDisk) -> list[Point]:
    """Intersection points of the two bounding circles (0, 1, or 2 points).

    Pairs within the tolerance-closed touching distance 1 + EPS_COVER yield
    their midpoint, so candidate generation matches `UnitDisk.contains`.
    """
    dx = b.center.x - a.center.x
    dy = b.center.y - a.center.y
    d2 = dx * dx + dy * dy
    if d2 == 0.0 or d2 > _R_MEET2:
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


def disk_candidates(disks: Sequence[UnitDisk]) -> list:
    """The candidate points of the closed-disk arrangement, as
    (generators, holders) pairs.

    The candidates are every centre, generated by its own disk, and, for
    each pair (lo, hi) in index order, `circle_intersections(disks[lo],
    disks[hi])`, generated by the pair; generators is the mask of the
    generating disks and holders the indices of the disks containing the
    point.  With disks sorted by center x, only pairs within an x-window of
    1 + EPS_COVER can intersect and only disks within 0.5 + EPS_COVER of a
    candidate's x can contain it; both windows carry float slack, and the
    exact predicates still decide.
    """
    order = sorted(range(len(disks)), key=lambda i: disks[i].center.x)
    xs = [disks[i].center.x for i in order]
    cands = [(1 << i, d.center) for i, d in enumerate(disks)]
    pair_reach = 1.0 + EPS_COVER + WINDOW_SLACK
    for a, i in enumerate(order):
        for j in order[a + 1:bisect_right(xs, xs[a] + pair_reach)]:
            lo, hi = (i, j) if i < j else (j, i)
            gen = 1 << lo | 1 << hi
            for p in circle_intersections(disks[lo], disks[hi]):
                cands.append((gen, p))
    reach = 0.5 + EPS_COVER + WINDOW_SLACK
    return [(gen, [k for k in order[bisect_left(xs, p.x - reach):
                                    bisect_right(xs, p.x + reach)]
                   if disks[k].contains(p)])
            for gen, p in cands]


def ply_disks(disks: Sequence[UnitDisk]) -> int:
    """Maximum depth of the closed-disk arrangement.

    Evaluated at the candidate points of `disk_candidates` only: every disk
    center plus every pairwise circle-circle intersection.  The deepest
    cell is bounded either by an arc endpoint (a candidate) or by one full
    circle whose disk lies inside every other disk of the cell, in which
    case that disk's center attains the depth.
    """
    return max((len(holders) for _, holders in disk_candidates(disks)),
               default=0)


def disk_depth_within(disks: Sequence[UnitDisk], region: UnitDisk) -> int:
    """Maximum depth of `disks` over the points of the closed disk `region`.

    A disk can contain a point of `region` only if its center lies within
    1 + 2*EPS_COVER of the region's center, so only those disks (with float
    slack) are considered.
    """
    reach = 1.0 + 2.0 * EPS_COVER + WINDOW_SLACK
    reach2 = reach * reach
    cx, cy = region.center.x, region.center.y
    near = []
    for d in disks:
        dx = d.center.x - cx
        dy = d.center.y - cy
        if dx * dx + dy * dy <= reach2:
            near.append(d)
    cands = [d.center for d in near if region.contains(d.center)]
    for i in range(len(near)):
        for j in range(i + 1, len(near)):
            for p in circle_intersections(near[i], near[j]):
                if region.contains(p):
                    cands.append(p)
    best = 0
    for p in cands:
        c = 0
        for d in near:
            if d.contains(p):
                c += 1
        if c > best:
            best = c
    return best


def disks_disjoint(a: UnitDisk, b: UnitDisk) -> bool:
    """True iff the closed disks share no point (touching disks overlap)."""
    dx = a.center.x - b.center.x
    dy = a.center.y - b.center.y
    return dx * dx + dy * dy > _R_MEET2
