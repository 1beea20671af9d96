"""Seeded solve workloads with planted covers.

Objects come from `plycover.instances.generate`.  The benchmark then picks
a planted subset it knows, made of up to `t` classes of pairwise-disjoint
objects, and puts every point inside a planted object.  The planted subset
is therefore a cover of ply at most `t`, so:

- for rects and disks, OPT <= ply(planted), and "objective <= 2 * planted
  ply" checks the 2x guarantee;
- for 3color, the planted classes are three pairwise-disjoint classes, so a
  3-colorable cover exists and `Infeasible` is always a wrong verdict;
- for intervals, the exact solver can never do worse than the planted set.

Sizes are a fixed grid over each workload's range, so a seed only moves
positions and which objects are planted, not how much work a pass holds.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction

from plycover import instances
from plycover.geom import Point, UnitDisk


@dataclass
class Case:
    name: str
    kind: str              # `plycover solve --kind`
    mode: str              # `--mode`; only intervals use mmsc
    instance: instances.Instance
    planted: list          # classes of pairwise-disjoint object indices


@dataclass(frozen=True)
class Workload:
    why: str
    build: object          # (rng) -> list[Case]


def _sizes(lo, hi, count):
    return [lo + (hi - lo) * i // (count - 1) for i in range(count)]


def _rects_disjoint(a, b):
    return (a.right < b.left or b.right < a.left
            or a.top < b.bottom or b.top < a.bottom)


def _disks_disjoint(a, b):
    dx = a.center.x - b.center.x
    dy = a.center.y - b.center.y
    return dx * dx + dy * dy > 1.0 + 1e-6


def _intervals_disjoint(a, b):
    return a.hi < b.lo or b.hi < a.lo


_DISJOINT = {"rects": _rects_disjoint, "disks": _disks_disjoint}


def _fits_interval(cls, objects, i):
    # cls holds disjoint intervals as (float lo, index), sorted: only the
    # neighbours of i's insertion point can overlap it.  The generator's
    # endpoints are multiples of 1/8, so the float keys order them exactly.
    s = objects[i]
    k = bisect_left(cls, (float(s.lo), i))
    if k > 0 and not _intervals_disjoint(s, objects[cls[k - 1][1]]):
        return False
    return k == len(cls) or _intervals_disjoint(s, objects[cls[k][1]])


def _plant(rng, objects, kind, t):
    """Greedy packing of the objects, in random order, into t classes of
    pairwise-disjoint objects."""
    order = list(range(len(objects)))
    rng.shuffle(order)
    classes = [[] for _ in range(t)]
    for i in order:
        for cls in classes:
            if kind == "intervals":
                if _fits_interval(cls, objects, i):
                    insort(cls, (float(objects[i].lo), i))
                    break
            elif all(_DISJOINT[kind](objects[i], objects[j]) for j in cls):
                cls.append(i)
                break
    if kind == "intervals":
        classes = [[i for _, i in cls] for cls in classes]
    return [sorted(cls) for cls in classes if cls]


def _point_in(rng, kind, o):
    if kind == "rects":
        return Point(o.left + o.width * Fraction(rng.randint(0, 8), 8),
                     o.bottom + Fraction(rng.randint(0, 8), 8))
    if kind == "intervals":
        return o.lo + (o.hi - o.lo) * Fraction(rng.randint(0, 16), 16)
    ang = rng.uniform(0, 2 * math.pi)
    rad = 0.45 * math.sqrt(rng.uniform(0, 1))
    return Point(round(o.center.x + rad * math.cos(ang), 6),
                 round(o.center.y + rad * math.sin(ang), 6))


def _case(rng, name, kind, mode, m, dist, t, grid=False):
    """Generated objects, a planted t-class cover, and n = m points on it.

    With `grid`, disk centres snap to the half-integer grid and every
    planted centre is also an input point: inputs the paper allows.
    """
    obj_kind = "disks" if kind == "3color" else kind
    # the generator's own points are replaced, so it is asked for none
    inst = instances.generate(obj_kind, 0, m, dist, rng.randrange(2**31))
    objects = inst.objects
    if grid:
        objects = [UnitDisk(Point(round(2 * d.center.x) / 2,
                                  round(2 * d.center.y) / 2))
                   for d in objects]
    planted = _plant(rng, objects, obj_kind, t)
    members = [objects[i] for cls in planted for i in cls]
    points = [d.center for d in members] if grid else []
    while len(points) < m:
        points.append(_point_in(rng, obj_kind, rng.choice(members)))
    if obj_kind == "intervals":
        points.sort(key=lambda x: (float(x), x))  # the float key is faster
    inst = instances.Instance(obj_kind, points, objects, inst.seed,
                              dict(inst.meta, n=len(points)))
    return Case(name, kind, mode, inst, planted)


def _rects_spread(rng):
    return [_case(rng, "s%03d" % i, "rects", "mpc", m,
                  ("uniform", "slab-stress")[i % 2], t=1)
            for i, m in enumerate(_sizes(28, 72, 360))]


def _rects_dense(rng):
    return [_case(rng, "d%03d" % i, "rects", "mpc", m, "clustered", t=2)
            for i, m in enumerate(_sizes(10, 20, 600))]


def _disks(rng):
    out = []
    for i, m in enumerate(_sizes(40, 120, 600)):
        kind = ("disks", "3color")[i % 2]
        dist = ("clustered", "uniform", "slab-stress")[i % 3]
        if kind == "3color" and dist == "clustered":
            # the tricolor search has a heavy tail on clusters: one m=32
            # instance in 30 took 4.4 s, none of 60 at m <= 24 took 0.1 s
            m //= 5
        out.append(_case(rng, "k%03d" % i, kind, "mpc", m, dist,
                         t=2 if kind == "disks" else 3))
    return out


def _intervals(rng):
    dists = ("chain", "uniform", "clustered")
    return [_case(rng, "i%03d" % i, "intervals", ("mmsc", "mpc")[i % 2], m,
                  dists[i % 3], t=1)
            for i, m in enumerate(_sizes(96, 640, 300))]


WORKLOADS = {
    "rects-spread": Workload(
        "rects on uniform and slab-stress inputs spread over several slabs "
        "at low ply: the global ply cap and coverage precheck in slabs "
        "dominate", _rects_spread),
    "rects-dense": Workload(
        "rects on clustered inputs with high ply and many states per strip: "
        "the strip search and its ply-cache depth oracle dominate",
        _rects_dense),
    "disks": Workload(
        "disks and 3color alternating on clustered, uniform and slab-stress "
        "inputs: the float path and both strip searches", _disks),
    "intervals": Workload(
        "chain, uniform and clustered intervals, mmsc and mpc alternating: "
        "exact DAG solver and Fraction parsing; slabs and stripdag idle",
        _intervals),
}


def build(workload, seed):
    """The workload's cases for this seed; the same seed gives the same
    cases."""
    return WORKLOADS[workload].build(random.Random("%s/%d" % (workload, seed)))


def probe(workload, seed):
    """Grid-aligned disk instances for the traced disks run: centres on the
    half-integer grid and points at planted disk centres, which the paper
    allows, alternating disks and 3color.  They run apart from the timed
    passes, and their refusals are counted in `disks.refusals`."""
    if workload != "disks":
        return []
    rng = random.Random("%s-probe/%d" % (workload, seed))
    return [_case(rng, "g%03d" % i, ("disks", "3color")[i % 2], "mpc", m,
                  "uniform", t=1 if i % 2 == 0 else 3, grid=True)
            for i, m in enumerate(_sizes(8, 24, 10))]
