"""Tests-only strip search on sorted index tuples, independent of the bitmask
engine in `stripdag`.

This is the engine the bitmask one replaced: states keyed by sorted member
tuples, unions merged as tuples and compared with tuple `<`, coverage
tested point by point with the objects' `contains`, and ply through a
tuple-keyed cache over the `geom` depth functions.  The 3-color search is
its own loop over triples of class tuples.  The differential tests require
the production engine to return exactly what these return.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Callable, NamedTuple

from plycover.disks import disk_side_events
from plycover.geom import (EPS_COVER, EventClass, disk_depth_within,
                           disks_disjoint, ply_disks, ply_rects,
                           rect_depth_within)
from plycover.rects import build_strips_rects


class StripState(NamedTuple):
    strip: int
    members: tuple


def merge_member(members: tuple, q: int) -> tuple:
    out = list(members)
    insort(out, q)
    return tuple(out)


class PlyCache:
    """Memoized exact ply per member tuple; additions reuse the parent."""

    def __init__(self, full: Callable[[tuple], int],
                 added_depth: Callable[[tuple, int], int]):
        self._full = full
        self._added = added_depth
        self._vals = {(): 0}

    def value(self, members: tuple) -> int:
        v = self._vals.get(members)
        if v is None:
            v = self._vals[members] = self._full(members)
        return v

    def with_added(self, members: tuple, q: int) -> int:
        key = merge_member(members, q)
        v = self._vals.get(key)
        if v is None:
            v = max(self.value(members), self._added(key, q))
            self._vals[key] = v
        return v


@dataclass
class StripProblem:
    events: list
    strip_points: list
    covers: Callable
    ply: PlyCache
    cap: int
    ell: int


def locate_strip_points(points, events) -> list:
    strip_points = [[] for _ in range(len(events) + 1)]
    for p in points:
        i = bisect_left(events, (p.x, EventClass.INPUT_POINT, p.y))
        strip_points[i].append(p)
    return strip_points


def build_problem(points, events, covers, ply, cap, ell) -> StripProblem:
    events = sorted(events)
    return StripProblem(events, locate_strip_points(points, events),
                        covers, ply, cap, ell)


def _covers_all(problem, members, pts) -> bool:
    covers = problem.covers
    for p in pts:
        for o in members:
            if covers(o, p):
                break
        else:
            return False
    return True


def successors(problem: StripProblem, state: StripState) -> list[StripState]:
    ev = problem.events[state.strip]
    q = ev.obj
    members = state.members
    if ev.cls == EventClass.LEFT_SIDE:
        cands = [(members, False)]
        if len(members) < problem.cap:
            cands.append((merge_member(members, q), True))
    elif q in members:
        cands = [(tuple(m for m in members if m != q), False)]
    else:
        cands = [(members, False)]
    nxt = state.strip + 1
    pts = problem.strip_points[nxt]
    out = []
    for cand, added in cands:
        if pts and not _covers_all(problem, cand, pts):
            continue
        if added and problem.ply.with_added(members, q) > problem.ell:
            continue
        out.append(StripState(nxt, cand))
    return out


def _merge_union(union: tuple, members: tuple) -> tuple:
    if not members:
        return union
    s = set(union)
    s.update(members)
    if len(s) == len(union):
        return union
    return tuple(sorted(s))


def search(problem: StripProblem):
    if problem.strip_points[0]:
        return None
    if not problem.events:
        return []
    states = {(): ()}
    for i in range(len(problem.events)):
        nxt = {}
        for members in sorted(states):
            union = states[members]
            for succ in successors(problem, StripState(i, members)):
                u = _merge_union(union, succ.members)
                cur = nxt.get(succ.members)
                if cur is None or u < cur:
                    nxt[succ.members] = u
        if not nxt:
            return None
        states = nxt
    union = states.get(())
    return None if union is None else list(union)


def solve_slab_rects(points, rects, ell):
    rects = list(rects)

    def full(members):
        return ply_rects([rects[i] for i in members])

    def added(members, q):
        return rect_depth_within([rects[i] for i in members], rects[q])

    return search(build_problem(points, build_strips_rects(rects),
                                lambda o, p: rects[o].contains(p),
                                PlyCache(full, added), 3 * ell, ell))


def solve_slab_disks(points, disks, ell, eps=EPS_COVER):
    disks = list(disks)

    def full(members):
        return ply_disks([disks[i] for i in members], eps)

    def added(members, q):
        return disk_depth_within([disks[i] for i in members], disks[q], eps)

    return search(build_problem(points, disk_side_events(disks),
                                lambda o, p: disks[o].contains(p, eps),
                                PlyCache(full, added), 8 * ell, ell))


_EMPTY = ((), (), ())


def _canonical(classes, unions):
    order = sorted(range(3),
                   key=lambda a: (1,) if not classes[a] else (0, classes[a]))
    return (tuple(classes[a] for a in order),
            tuple(unions[a] for a in order))


def solve_slab_3color(points, disks, eps=EPS_COVER):
    disks = list(disks)
    events = disk_side_events(disks)
    strip_points = locate_strip_points(points, events)
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
                    if len(cls) >= 8:
                        continue
                    if all(disks_disjoint(disks[q], disks[m], eps)
                           for m in cls):
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
