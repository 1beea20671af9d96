"""Tests-only strip search on sorted index tuples, independent of the bitmask
engine in `stripdag`.

This is the engine the bitmask one replaced: states keyed by sorted member
tuples, unions merged as tuples and compared with tuple `<`, coverage
tested point by point with the objects' `contains`, and ply through a
tuple-keyed cache over the `geom` ply functions.  The 3-color search is
its own loop over triples of class tuples.  The side events are built here
too, as plain tuples in the documented sweep order `(x, cls, y, obj)`,
with this module's own event classes.  The differential tests require
the production engine to return exactly what these return, and to cut
the same strips.

Each state carries its decision path, a tuple of per-boundary ranks, and
keeps the union of the least path that reaches it.  In the ply search the
rank is 1 when the step adds the entering object, else 0; in the 3-color
search it is 0 to keep and a + 1 to join class a, with the classes in
canonical order: by mask value, sum(1 << i), empties last.  States are
visited in sorted order, so the rule stands apart from any insertion
order.

`mask_step_3color` is the 3-color step on class masks that
`tricolor._step` replaced: it copies each state's class and union lists
and sorts every successor (`_mask_canonical`).  The per-event tests
require the production step to return the same dict, in the same order.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Callable, NamedTuple

from plycover.geom import disks_disjoint, ply_disks, ply_rects

# the documented sweep order (x, cls, y, obj): lefts before points before
# rights at equal x
LEFT, POINT, RIGHT = 0, 1, 2


def _events(sides) -> list:
    return sorted(e for i, (left, right, y) in enumerate(sides)
                  for e in ((left, LEFT, y, i), (right, RIGHT, y, i)))


def rect_events(rects) -> list:
    """Both sides of each rectangle, tied at equal x by the bottom."""
    return _events([(r.left, r.left + r.width, r.bottom) for r in rects])


def disk_events(disks) -> list:
    """Both float x-extrema of each disk, tied at equal x by the centre
    y."""
    return _events([(d.center.x - 0.5, d.center.x + 0.5, d.center.y)
                    for d in disks])


class StripState(NamedTuple):
    strip: int
    members: tuple


def merge_member(members: tuple, q: int) -> tuple:
    out = list(members)
    insort(out, q)
    return tuple(out)


class PlyCache:
    """Memoized exact ply per member tuple."""

    def __init__(self, full: Callable[[tuple], int]):
        self._full = full
        self._vals = {(): 0}

    def with_added(self, members: tuple, q: int) -> int:
        """The ply of the members with q added."""
        key = merge_member(members, q)
        v = self._vals.get(key)
        if v is None:
            v = self._vals[key] = self._full(key)
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
        i = bisect_left(events, (p.x, POINT, p.y))
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


def successors(problem: StripProblem, state: StripState) -> list:
    """(successor state, rank) pairs; the rank is 1 iff q is added."""
    _, cls, _, q = problem.events[state.strip]
    members = state.members
    if cls == LEFT:
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
        out.append((StripState(nxt, cand), int(added)))
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
    states = {(): ((), ())}   # members -> (least path, its union)
    for i in range(len(problem.events)):
        nxt = {}
        for members in sorted(states):
            path, union = states[members]
            for succ, rank in successors(problem, StripState(i, members)):
                p = path + (rank,)
                cur = nxt.get(succ.members)
                if cur is None or p < cur[0]:
                    nxt[succ.members] = (p, _merge_union(union, succ.members))
        if not nxt:
            return None
        states = nxt
    best = states.get(())
    return None if best is None else list(best[1])


def solve_slab_rects(points, rects, ell):
    rects = list(rects)

    def full(members):
        return ply_rects([rects[i] for i in members])

    return search(build_problem(points, rect_events(rects),
                                lambda o, p: rects[o].contains(p),
                                PlyCache(full), 3 * ell, ell))


def solve_slab_disks(points, disks, ell):
    disks = list(disks)

    def full(members):
        return ply_disks([disks[i] for i in members])

    return search(build_problem(points, disk_events(disks),
                                lambda o, p: disks[o].contains(p),
                                PlyCache(full), 8 * ell, ell))


_EMPTY = ((), (), ())


def _canonical(classes, unions):
    order = sorted(range(3), key=lambda a: (
        (1,) if not classes[a] else (0, sum(1 << i for i in classes[a]))))
    return (tuple(classes[a] for a in order),
            tuple(unions[a] for a in order))


def solve_slab_3color(points, disks):
    disks = list(disks)
    events = disk_events(disks)
    strip_points = locate_strip_points(points, events)
    if strip_points[0]:
        return None
    if not events:
        return _EMPTY
    # canonical classes -> (least path, unions)
    states = {_EMPTY: ((), _EMPTY)}
    for b, (_, side, _, q) in enumerate(events):
        is_left = side == LEFT
        pts = strip_points[b + 1]
        nxt = {}
        for classes in sorted(states):
            path, unions = states[classes]
            if is_left:
                cands = [(classes, 0)]
                tried_empty = False
                for a in range(3):
                    cls = classes[a]
                    if not cls:
                        if tried_empty:
                            continue
                        tried_empty = True
                    if len(cls) >= 8:
                        continue
                    if all(disks_disjoint(disks[q], disks[m])
                           for m in cls):
                        grown = list(classes)
                        grown[a] = merge_member(cls, q)
                        cands.append((tuple(grown), a + 1))
            else:
                hit = next((a for a in range(3) if q in classes[a]), None)
                if hit is None:
                    cands = [(classes, 0)]
                else:
                    shrunk = list(classes)
                    shrunk[hit] = tuple(m for m in classes[hit] if m != q)
                    cands = [(tuple(shrunk), 0)]
            for cand, rank in cands:
                if pts:
                    active = cand[0] + cand[1] + cand[2]
                    if not all(any(disks[o].contains(p) for o in active)
                               for p in pts):
                        continue
                p = path + (rank,)
                new_unions = tuple(_merge_union(unions[a], cand[a])
                                   for a in range(3))
                canon_cls, canon_uni = _canonical(cand, new_unions)
                old = nxt.get(canon_cls)
                if old is None or p < old[0]:
                    nxt[canon_cls] = (p, canon_uni)
        if not nxt:
            return None
        states = nxt
    best = states.get(_EMPTY)
    return None if best is None else best[1]


def _mask_canonical(c, u):
    # collapse the 3! symmetry: a stable sort of the class list c by mask
    # value, empties last; the union list u follows the same permutation
    for a, b in ((0, 1), (1, 2), (0, 1)):
        x, y = c[a], c[b]
        if y and (not x or y < x):
            c[a], c[b] = y, x
            u[a], u[b] = u[b], u[a]
    return tuple(c), tuple(u)


def mask_step_3color(problem, i, states):
    """Strip i + 1's canonical 3-color states from strip i's: an entering
    disk joins no class or one class it meets no member of, and a leaving
    disk leaves its class.

    Event i's step splits strip i + 1's cover masks by its bit.  At a
    left event the masks that miss the entering bit (`rest`) must be met
    by every successor, and those that hold it (`held`) only by keep: a
    join meets them all.  At a right event every mask is in `rest`, and a
    state's members meet it exactly when they do without the leaving
    disk, so coverage is tested before the removal."""
    left, bit, obj, rest, held = problem.steps[i]
    nxt = {}
    if not left:
        for classes, unions in states.items():
            active = classes[0] | classes[1] | classes[2]
            for c in rest:
                if not active & c:
                    break
            else:
                if active & bit:
                    classes, unions = _mask_canonical(
                        [c & ~bit for c in classes], list(unions))
                if classes not in nxt:
                    nxt[classes] = unions
        return nxt
    conflict = problem.meets[obj]
    for classes, unions in states.items():
        active = classes[0] | classes[1] | classes[2]
        for c in rest:
            if not active & c:
                break
        else:
            for c in held:
                if not active & c:
                    break
            else:
                if classes not in nxt:
                    nxt[classes] = unions
            for a in range(3):
                cls = classes[a]
                if cls & conflict:
                    continue
                grown, grown_u = list(classes), list(unions)
                grown[a] = cls | bit
                grown_u[a] |= bit
                key, u = _mask_canonical(grown, grown_u)
                if key not in nxt:
                    nxt[key] = u
                if not cls:
                    break  # empty classes come last and are interchangeable
    return nxt
