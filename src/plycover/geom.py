"""Geometric primitives shared by every solver.

Points, unit-height rectangles, unit disks, weighted intervals, closed-set
containment and cover tests, and one exact depth routine per 2-D kind:
the ply, the maximum depth over the plane (`ply_rects`, `ply_disks`).
Every object is a closed set: a point on the boundary belongs to the
object.

Rectangles and intervals carry exact rational coordinates, and their
predicates only compare coordinates, so the solvers take their inputs as
exact (num, den) int pairs (`rect_pairs`, `line_pairs`), replace each
coordinate by its rank (`pair_ranks`) and run on small ints; a rectangle
then becomes a `Box` of rank sides.

Disks have float coordinates, exact dyadic rationals, and their
predicates are exact too: each is a sign test, decided in floats when the
float value lies farther from its threshold than a bound on its rounding
error, and on ints otherwise (Shewchuk, "Adaptive precision floating-point
arithmetic and fast robust geometric predicates", DCG 1997).  Where two
circles meet is held symbolically (`_pair_points`).
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

_FILTER = 1e-12  # the float filter of the disk predicates (UnitDisk.contains)
_INF = math.inf


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
    """Closed disk of diameter 1, centred at a Point of floats."""

    center: Point

    def contains(self, p: Point) -> bool:
        """|p - centre|^2 <= 1/4, decided exactly.

        The float value v of d^2 - 1/4 is off by at most 5u (d^2 + |v|), u
        = 2**-53: correctly rounded differences, squares, sum and
        subtraction.  A wrong sign needs an error of |v| + |d^2 - 1/4|,
        which that allows only for |v| < 1.4e-16, at any magnitude.  So
        beyond the filter 1e-12 v's sign is exact; otherwise, or when v
        overflows to inf, ints decide (`_excess`).
        """
        c = self.center
        dx = p.x - c.x
        dy = p.y - c.y
        v = dx * dx + dy * dy - 0.25
        if v < -_FILTER:
            return True
        if _FILTER < v < _INF:
            return False
        return _excess(p, c, 1) <= 0


def _on_ints(*vs) -> tuple:
    """The rationals vs as ints over their least common denominator, and
    that denominator: a power of two for floats."""
    rs = [v.as_integer_ratio() for v in vs]
    den = math.lcm(*[d for _, d in rs])
    return [n * (den // d) for n, d in rs], den


def _excess(p: Point, c: Point, k: int) -> int:
    """An int of the sign of |p - c|^2 - k/4, exactly."""
    (px, py, cx, cy), den = _on_ints(p.x, p.y, c.x, c.y)
    return 4 * ((px - cx) ** 2 + (py - cy) ** 2) - k * den * den


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


_LEFT, _POINT, _RIGHT = (EventClass.LEFT_SIDE, EventClass.INPUT_POINT,
                         EventClass.RIGHT_SIDE)


def sweep_events(spans, points=()) -> list:
    """The sorted sweep events `(x, EventClass, y, i)` of the i-th `(left,
    right, y)` span, one per side, and of the i-th `(x, y)` point.

    At equal x, lefts come before points before rights, so every span is
    closed: it is active at each point on its sides.  Then y and the index
    decide.  Every sweep of the package takes its order from here."""
    events = [(x, _POINT, y, i) for i, (x, y) in enumerate(points)]
    for i, (left, right, y) in enumerate(spans):
        events.append((left, _LEFT, y, i))
        events.append((right, _RIGHT, y, i))
    events.sort()
    return events


def _max_stab_closed(spans) -> int:
    """The most closed `(lo, hi, y)` spans that share a coordinate."""
    best = cur = 0
    for _, cls, _, _ in sweep_events(spans):
        if cls == _RIGHT:
            cur -= 1
        else:
            cur += 1
            if cur > best:
                best = cur
    return best


def _sides(r) -> tuple:
    if r.__class__ is Box:
        return r
    return (r.left, r.left + r.width, r.bottom, r.bottom + 1)


def ply_rects(rects: Sequence[UnitRect]) -> int:
    """Exact maximum depth of the closed-rectangle arrangement.

    The depth of a closed arrangement is attained at a left side, so an
    x-sweep over the side events (`sweep_events`) that evaluates the
    active y-spans there is exact.  The active set only grows between two
    removals, so its y-spans are reduced to a 1-D maximum stabbing count
    once, just before the first removal after an addition: that set
    contains the active set at every left side since the previous removal.
    """
    boxes = [_sides(r) for r in rects]
    ys = [(bottom, top, 0) for _, _, bottom, top in boxes]
    active = {}
    grown = False
    best = 0
    for _, cls, _, i in sweep_events([(left, right, 0)
                                      for left, right, _, _ in boxes]):
        if cls == _LEFT:
            active[i] = ys[i]
            grown = True
            continue
        if grown and len(active) > best:
            best = max(best, _max_stab_closed(active.values()))
        grown = False
        del active[i]
    return best


def rects_cover(points, rects: Sequence[UnitRect]) -> list:
    """For each point, whether some closed rectangle of height 1 contains it.

    One x-sweep over the points and the rectangles' sides (`sweep_events`,
    no y tie-break needed), so every rectangle is closed.  An active
    rectangle contains a point iff its bottom lies in [y - 1, y]; a Fenwick
    tree counts the active bottoms by rank, which it looks up by index.
    """
    bottoms = sorted({r.bottom for r in rects})
    tree = [0] * (len(bottoms) + 1)
    rank = [bisect_left(bottoms, r.bottom) + 1 for r in rects]

    def below(i):  # active bottoms of rank < i
        total = 0
        while i:
            total += tree[i]
            i &= i - 1
        return total

    events = sweep_events([(r.left, r.left + r.width, 0) for r in rects],
                          [(p.x, 0) for p in points])
    out = [False] * len(points)
    for _, cls, _, i in events:
        if cls == _POINT:
            y = points[i].y
            out[i] = (below(bisect_right(bottoms, y))
                      > below(bisect_left(bottoms, y - 1)))
            continue
        step = 1 if cls == _LEFT else -1
        k = rank[i]
        while k < len(tree):
            tree[k] += step
            k += k & -k
    return out


def _pair_points(a: Point, b: Point) -> list:
    """The points where the circles of the disks centred at a and b meet,
    as (x, y, tol, s): a float approximation, its filter bound and s.

    Let D = b - a, M = (a + b) / 2, J = (-D_y, D_x) and E = (1 - |D|^2) /
    (4 |D|^2).  The circles meet at M + s sqrt(E) J, s = +1 and -1, when 0
    < |D|^2 <= 1, decided as in `disks_disjoint`; at tangency the two are
    M.  A disk centred at c holds the point iff X + s Y sqrt(E) <= 0, X =
    |M - c|^2 - |D|^2 / 4 and Y = 2 (M - c).J (`_exact_holds`).

    The float point p = M + s h J / |J|, h = sqrt(1/4 - |D|^2 / 4), is
    within delta <= 1e-15 (1 + |m_x| + |m_y|) + 1.45e-16 / max(h, 1.2e-8)
    of it: M and the sums round by u (|m_x| + |m_y| + 2) each, u = 2**-53;
    the float h^2 is off by 1.3u, so h by min(sqrt(1.3u), 1.3u / h) plus a
    rounding; and J h / |J| rounds by 5u h.  Let t = |p - c| and v the
    float value of t^2 - 1/4.  If |v| > tol >= 1e-12 + 2 delta, delta <=
    1, then beyond v's own error (`UnitDisk.contains`) t^2 < 1/4 - 2 delta,
    so (t + delta)^2 < 1/4, or t^2 > 1/4 + 2 delta >= (1/2 + delta)^2, so t
    - delta > 1/2: v's sign is exact.  tol = 1e-12 + 1e-14 (1 + |m_x| +
    |m_y|) + 3e-16 / max(h, 1e-8) is such a bound, made infinite, so that
    every test is exact, where it exceeds 1; it also widens the point's
    holder window.
    """
    dx = b.x - a.x
    dy = b.y - a.y
    if dx == 0.0 and dy == 0.0:
        return []  # one circle
    d2 = dx * dx + dy * dy
    v = d2 - 1.0
    if v >= -_FILTER and (_FILTER < v < _INF or _excess(a, b, 4) > 0):
        return []
    mx = a.x + dx / 2.0
    my = a.y + dy / 2.0
    h = math.sqrt(max(0.25 - d2 / 4.0, 0.0))
    tol = _FILTER + 1e-14 * (1.0 + abs(mx) + abs(my)) + 3e-16 / max(h, 1e-8)
    if tol > 1.0:
        tol = _INF
    d = math.hypot(dx, dy)
    ux = -dy / d * h
    uy = dx / d * h
    return [(mx + ux, my + uy, tol, 1), (mx - ux, my - uy, tol, -1)]


def _exact_holds(a: Point, b: Point, s: int, c: Point) -> bool:
    """Whether the closed disk centred at c holds the meeting point s of
    the circles centred at a and b (`_pair_points`): the sign of X + s Y
    sqrt(E), squaring both terms when their signs differ.  On ints over
    the denominator L, 4X = |2W|^2 - q, 4Y = 4 (2W).J and E = (L^2 - q) /
    (4q), with 2W = a + b - 2c and q = |D|^2."""
    (ax, ay, bx, by, cx, cy), den = _on_ints(a.x, a.y, b.x, b.y, c.x, c.y)
    ddx, ddy = bx - ax, by - ay
    q = ddx * ddx + ddy * ddy
    wx, wy = ax + bx - 2 * cx, ay + by - 2 * cy
    x = wx * wx + wy * wy - q
    z = 4 * s * (wy * ddx - wx * ddy)
    if x <= 0 and z <= 0:
        return True
    if x > 0 and z >= 0:
        return False
    x2, z2 = 4 * q * x * x, z * z * (den * den - q)
    return x2 <= z2 if x > 0 else z2 <= x2


def disk_candidates(disks: Sequence[UnitDisk]) -> list:
    """The candidate points of the closed-disk arrangement, each as the
    list of the indices of the disks holding it.

    The candidates are every centre and, for each pair (lo, hi) in index
    order, the points where their circles meet (`_pair_points`).  A
    point's own disks hold it and are not tested.  With disks sorted by
    centre x, only pairs with |dx| <= 1 meet, and only disks with |cx - x|
    <= 1/2 hold a point at x; the float windows fl(x + 1) and fl(x -/+ 1/2)
    of a centre x need no slack, as rounding is monotone, and a meeting
    point's window is widened by its filter bound.
    """
    cs = [d.center for d in disks]
    order = sorted(range(len(cs)), key=lambda i: cs[i].x)
    xs = [cs[i].x for i in order]
    out = []
    for a, i in enumerate(order):
        c = cs[i]
        out.append([i] + [k for k in order[bisect_left(xs, c.x - 0.5):
                                           bisect_right(xs, c.x + 0.5)]
                          if k != i and disks[k].contains(c)])
        for j in order[a + 1:bisect_right(xs, c.x + 1.0)]:
            lo, hi = (i, j) if i < j else (j, i)
            for px, py, tol, s in _pair_points(cs[lo], cs[hi]):
                holders = [lo, hi]
                reach = 0.5 + tol
                for k in order[bisect_left(xs, px - reach):
                               bisect_right(xs, px + reach)]:
                    if k == lo or k == hi:
                        continue
                    ck = cs[k]
                    dx, dy = px - ck.x, py - ck.y
                    v = dx * dx + dy * dy - 0.25
                    if v < -tol or (not tol < v < _INF and _exact_holds(
                            cs[lo], cs[hi], s, ck)):
                        holders.append(k)
                out.append(holders)
    return out


def ply_disks(disks: Sequence[UnitDisk]) -> int:
    """Maximum depth of the closed-disk arrangement.

    Evaluated at the candidate points of `disk_candidates` only: every disk
    center plus every point where two circles meet.  The disks holding a
    deepest point meet in a compact convex set, whose boundary has a vertex
    where two circles meet, a candidate, or which is one whole disk, whose
    centre is a candidate.
    """
    return max(map(len, disk_candidates(disks)), default=0)


def _unit_cells(disks) -> dict:
    """The indices of the disks by the unit grid cell (floor cx, floor cy)
    of their centres.  A closed disk holding a point, or meeting another
    disk, has its centre within 1 of it in x and in y, so in one of the
    nine cells around the point's or the centre's own; floor is exact."""
    cells = {}
    for i, d in enumerate(disks):
        c = d.center
        cells.setdefault((math.floor(c.x), math.floor(c.y)), []).append(i)
    return cells


def _near(cells, p) -> list:
    """The indices in `_unit_cells` of the nine cells around p."""
    i, j = math.floor(p.x), math.floor(p.y)
    return [k for a in (i - 1, i, i + 1) for b in (j - 1, j, j + 1)
            for k in cells.get((a, b), ())]


def disks_cover(points, disks: Sequence[UnitDisk]) -> list:
    """For each point, whether some closed disk contains it; each point is
    tested against the disks of the cells around it only."""
    cells = _unit_cells(disks)
    return [any(disks[k].contains(p) for k in _near(cells, p))
            for p in points]


def disks_pairwise_disjoint(disks: Sequence[UnitDisk]) -> bool:
    """True iff no two of the closed disks share a point; each disk is
    tested against the later disks of the cells around its centre only."""
    cells = _unit_cells(disks)
    return all(k <= i or disks_disjoint(d, disks[k])
               for i, d in enumerate(disks) for k in _near(cells, d.center))


def disks_disjoint(a: UnitDisk, b: UnitDisk) -> bool:
    """True iff the closed disks share no point (touching disks overlap):
    |a - b|^2 > 1, decided exactly with the filter of `UnitDisk.contains`,
    whose argument holds for the threshold 1 with |v| < 5.6e-16."""
    dx = a.center.x - b.center.x
    dy = a.center.y - b.center.y
    v = dx * dx + dy * dy - 1.0
    if v < -_FILTER:
        return False
    if _FILTER < v < _INF:
        return True
    return _excess(a.center, b.center, 4) > 0


def disks_share_point(a: UnitDisk, b: UnitDisk, c: UnitDisk) -> bool:
    """True iff the three closed disks share a point, iff the least circle
    around their centres has radius at most 1/2.  With p, q, r the squared
    sides and X the cross product, that circle has the longest side as
    diameter when the triangle is not acute, and is the circumcircle, of
    radius sqrt(pqr) / (2 |X|), when it is.  On ints over the least common
    denominator L the tests read max(p, q, r) <= L^2 and pqr <= X^2 L^2.

    Floats decide first.  p, q and r from float differences are each off
    by at most 4u of their value, u = 2**-53, so a float max beyond 1 +
    1e-9 is a side longer than 1.  Below that all three are about 1 at
    most, so t = p + q + r - 2 max (positive iff acute), X^2 and pqr are
    off by under 1e-14, and beyond the filter 1e-12 each sign is exact.
    Right and near-threshold triangles, overflow and underflow fall to
    the ints."""
    a, b, c = a.center, b.center, c.center
    ux, uy, vx, vy = b.x - a.x, b.y - a.y, c.x - a.x, c.y - a.y
    wx, wy = c.x - b.x, c.y - b.y
    p, q, r = ux * ux + uy * uy, vx * vx + vy * vy, wx * wx + wy * wy
    big = max(p, q, r)
    if 1 + 1e-9 < big < _INF:
        return False
    if big < 2:
        t = p + q + r - 2 * big
        if t < -_FILTER and big < 1 - _FILTER:
            return True
        if t > _FILTER:
            x = ux * vy - uy * vx
            v = p * q * r - x * x
            if v < -_FILTER:
                return True
            if v > _FILTER:
                return False
    (ax, ay, bx, by, cx, cy), den = _on_ints(a.x, a.y, b.x, b.y, c.x, c.y)
    ux, uy, vx, vy = bx - ax, by - ay, cx - ax, cy - ay
    p, q = ux * ux + uy * uy, vx * vx + vy * vy
    r = (cx - bx) ** 2 + (cy - by) ** 2
    if p + q <= r or q + r <= p or r + p <= q:
        return max(p, q, r) <= den * den
    x = ux * vy - uy * vx
    return p * q * r <= x * x * den * den
