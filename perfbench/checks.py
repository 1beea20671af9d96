"""Output checks behind `verified_share` and `ply_ratio_mean`.

Every solution is checked untimed: every point is covered, the objective is
recomputed, 3color classes are in 1..6 and pairwise disjoint, and the ratio
against the planted cover stays within the solver's guarantee.  Ply and the
interval objectives are recomputed here with the benchmark's own sweeps,
not with `plycover.geom` or `plycover.intervals`, so that a change to those
functions is not checked by its own code.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

EPS = 1e-9  # `plycover solve --eps` default, used for every disk predicate

# worst objective / planted ratio each solver guarantees; a failed solve is
# charged this much in ply_ratio_mean
RATIO_BOUND = {"rects": 2, "disks": 2, "3color": 6, "intervals": 1}


def _scale(values):
    """Common denominator of the rationals, so sweeps run on ints."""
    den = 1
    for v in values:
        den = math.lcm(den, Fraction(v).denominator)
    return den


def _max_stab(spans):
    # closed spans: starts sort before ends at the same coordinate
    events = sorted([(lo, 0) for lo, _ in spans] + [(hi, 1) for _, hi in spans])
    best = cur = 0
    for _, end in events:
        cur += -1 if end else 1
        best = max(best, cur)
    return best


def rect_ply(rects):
    """Exact depth of closed height-1 rectangles: the deepest point lies at
    some rectangle's left side, so sweep the left sides in x order and stab
    the y-spans of the rectangles active there."""
    den = _scale(v for r in rects for v in (r.left, r.bottom, r.width))
    boxes = sorted((int(r.left * den), int((r.left + r.width) * den),
                    int(r.bottom * den), int((r.bottom + 1) * den))
                   for r in rects)
    best = 0
    for i, (x, _, _, _) in enumerate(boxes):
        spans = [(b, t) for lo, hi, b, t in boxes[:i + 1] if hi >= x]
        spans += [(b, t) for lo, hi, b, t in boxes[i + 1:] if lo == x]
        best = max(best, _max_stab(spans))
    return best


def interval_objective(points, intervals, mode):
    """Largest weight sum over the input points (mmsc) or anywhere (mpc)."""
    events = []
    for s in intervals:
        events.append((s.lo, 0, s.weight))
        events.append((s.hi, 2, -s.weight))
    if mode == "mmsc":
        events += [(x, 1, 0) for x in points]
    events.sort()
    best = cur = Fraction(0)
    for _, cls, w in events:
        cur += w
        if cls == 1 or (mode == "mpc" and cls == 0):
            best = max(best, cur)
    return best


def _contains(center, p, eps=EPS):
    dx = p[0] - center[0]
    dy = p[1] - center[1]
    r = 0.5 + eps
    return dx * dx + dy * dy <= r * r


def _buckets(centers):
    grid = {}
    for c in centers:
        grid.setdefault((math.floor(c[0]), math.floor(c[1])), []).append(c)
    return grid


def _near(grid, p):
    cx, cy = math.floor(p[0]), math.floor(p[1])
    for gx in (cx - 1, cx, cx + 1):
        for gy in (cy - 1, cy, cy + 1):
            yield from grid.get((gx, gy), ())


def disk_ply(disks, eps=EPS):
    """Depth of closed unit-diameter disks: the deepest cell has a centre or
    a crossing of two boundary circles on its closure."""
    centers = [(d.center.x, d.center.y) for d in disks]
    grid = _buckets(centers)
    cands = list(centers)
    reach = (1.0 + eps) ** 2
    for a in centers:
        for b in _near(grid, a):
            if b <= a:
                continue
            dx, dy = b[0] - a[0], b[1] - a[1]
            d2 = dx * dx + dy * dy
            if d2 == 0.0 or d2 > reach:
                continue
            mx, my = a[0] + dx / 2, a[1] + dy / 2
            h2 = 0.25 - d2 / 4
            if h2 <= 0.0:
                cands.append((mx, my))
                continue
            d, h = math.sqrt(d2), math.sqrt(h2)
            cands.append((mx - dy / d * h, my + dx / d * h))
            cands.append((mx + dy / d * h, my - dx / d * h))
    return max((sum(_contains(c, p, eps) for c in _near(grid, p))
                for p in cands), default=0)


def _uncovered(kind, points, objects):
    """Index of the first point no object covers, or None."""
    if kind == "intervals":
        spans = sorted((s.lo, s.hi) for s in objects)
        reach, k = None, 0
        for i, x in sorted(enumerate(points), key=lambda e: e[1]):
            while k < len(spans) and spans[k][0] <= x:
                reach = spans[k][1] if reach is None else max(reach, spans[k][1])
                k += 1
            if reach is None or reach < x:
                return i
        return None
    if kind == "rects":
        for i, p in enumerate(points):
            if not any(r.left <= p.x <= r.left + r.width
                       and r.bottom <= p.y <= r.bottom + 1 for r in objects):
                return i
        return None
    grid = _buckets([(d.center.x, d.center.y) for d in objects])
    for i, p in enumerate(points):
        if not any(_contains(c, (p.x, p.y)) for c in _near(grid, (p.x, p.y))):
            return i
    return None


def objective(kind, mode, points, objects):
    if kind == "intervals":
        return interval_objective(points, objects, mode)
    if kind == "rects":
        return rect_ply(objects)
    return disk_ply(objects)


def planted_objective(case):
    inst = case.instance
    members = [inst.objects[i] for cls in case.planted for i in cls]
    return objective(case.kind, case.mode, inst.points, members)


def _color_error(objects, chosen, colors):
    if sorted(colors) != sorted(chosen):
        return "colors do not label exactly the chosen disks"
    classes = {}
    for i, c in colors.items():
        if not 1 <= c <= 6:
            return "color %d outside 1..6" % c
        classes.setdefault(c, []).append(objects[i].center)
    reach = (1.0 + EPS) ** 2
    for c, centers in sorted(classes.items()):
        for a in range(len(centers)):
            for b in range(a + 1, len(centers)):
                dx = centers[a].x - centers[b].x
                dy = centers[a].y - centers[b].y
                if dx * dx + dy * dy <= reach:
                    return "color class %d is not pairwise disjoint" % c
    return None


def check(case, planted_value, text):
    """(error or None, objective / planted ratio) for one solution file."""
    inst = case.instance
    try:
        sol = json.loads(text)
        chosen = [int(i) for i in sol["chosen"]]
        reported = Fraction(sol["objective"])
    except (ValueError, KeyError, TypeError) as e:
        return "unreadable solution: %s" % e, None
    if any(not 0 <= i < len(inst.objects) for i in chosen):
        return "chosen index out of range", None
    objects = [inst.objects[i] for i in chosen]
    miss = _uncovered(inst.kind, inst.points, objects)
    if miss is not None:
        return "point %d uncovered" % miss, None
    value = objective(case.kind, case.mode, inst.points, objects)
    if reported != value:
        return "objective %s, recomputed %s" % (reported, value), None
    if case.kind == "3color":
        try:
            colors = {int(k): int(v) for k, v in sol["colors"].items()}
        except (KeyError, ValueError, AttributeError) as e:
            return "unreadable colors: %s" % e, None
        err = _color_error(inst.objects, chosen, colors)
        if err:
            return err, None
    ratio = float(Fraction(value) / Fraction(planted_value))
    if ratio > RATIO_BOUND[case.kind]:
        return "ratio %.3f above bound %d" % (ratio, RATIO_BOUND[case.kind]), None
    return None, ratio
