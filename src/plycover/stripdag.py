"""Reachable-state search over the strip-transition graph inside one slab.

The plane restricted to a height-2 slab is cut into vertical strips by the
object side events.  A search state is (strip index, members), where the
members are the chosen objects crossing that strip, held as an int bitmask
(bit i for object i).  Crossing a boundary (exactly one side event) either
keeps the members, drops the object whose right side sits on the boundary,
or adds the object whose left side does.

`build_problem` makes one sweep over the events.  It gives every strip
point its cover mask, the objects crossing its strip that contain it, and
every object q its meet mask, the objects crossing q's left side that may
meet q.  A state then covers its strip iff it meets each cover mask of the
strip.  Adding q keeps ply within ell without asking the depth oracle when
fewer than ell members may meet q, because the depth inside q is then at
most 1 plus that count.  A successor also respects the per-strip cap.

None of that depends on the budget, so a slab's problem is built once and
`StripProblem.at` applies each budget of its ell ladder to a view sharing
the events, masks and depth oracle.  A set bit of a cover mask is a
`contains` test that held, so a point with the empty mask is the only kind
that can be uncovered; `uncovered` names the first such point in sweep
order, or is None, and when there is one no search is run.

`run` is the one search loop.  States are memoized per strip, and for each
state it keeps the smallest union of chosen objects over the paths that
reach it, in the sorted-tuple order of index sets (`union_lt`).  Rectangles
and disks step with `successors`; the 3-color search (`tricolor`) steps
over triples of class masks on the same problem.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

from .geom import EventClass


class SideEvent(NamedTuple):
    x: object
    cls: int
    y: object
    obj: int


def bits(mask: int) -> list:
    """Indices of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def union_lt(a: int, b: int) -> bool:
    """True iff index set a sorts before b as sorted tuples.

    Below d, the lowest bit of a ^ b, the sets agree.  If a holds d, it is
    smaller iff b goes on past d; otherwise it is smaller iff it stops at d.
    """
    if a == b:
        return False
    low = (a ^ b) & -(a ^ b)
    return b >= low << 1 if a & low else a < low << 1


class StripState(NamedTuple):
    strip: int
    mask: int          # members; the 3-color search keeps its class masks
    union: int = 0     # chosen objects on the best path to this state

    @property
    def members(self) -> tuple:
        return tuple(bits(self.mask))


# StripState(a, b, c) without the generated Python __new__, for hot loops
_new = tuple.__new__


class PlyCache:
    """The ply test for adding one object to a member set.

    Adding q can create new depth only inside q, and every state the
    search reaches has ply at most ell: it grew only by additions that
    passed this test, and a removal cannot raise ply.  So members | q keeps
    ply within ell iff its depth inside q does, and `with_added` returns
    that depth.  No member set is ever asked about twice, so nothing is
    memoized; the name and method are what perfbench/tracing.py wraps.
    """

    def __init__(self, added_depth: Callable[[int, int], int]):
        self._added = added_depth

    def with_added(self, members: int, q: int) -> int:
        return self._added(members | 1 << q, q)


@dataclass
class StripProblem:
    events: list                 # sorted SideEvents; k of them
    strip_cover: list            # k + 1 per-strip lists of point cover masks
    meets: list                  # per object, the mask of objects it may meet
    ply: Optional[PlyCache]      # None for 3-color
    factor: int                  # members per strip per unit of budget
    uncovered: object            # first point with the empty mask, or None
    ell: int
    cap: int                     # max members per strip, factor * ell

    def at(self, ell: int) -> StripProblem:
        """The same problem under budget ell; nothing is rebuilt."""
        return replace(self, ell=ell, cap=self.factor * ell)


def locate_strip_points(points, events) -> list:
    """Group points into strips; strip i lies between events i-1 and i."""
    strip_points = [[] for _ in range(len(events) + 1)]
    for p in points:
        i = bisect_left(events, (p.x, EventClass.INPUT_POINT, p.y))
        strip_points[i].append(p)
    return strip_points


def build_problem(points, events, covers, meets, ply, factor,
                  ell: int = 1) -> StripProblem:
    """One sweep over `events`, in sweep order: `covers(o, p)` gives each
    strip point its cover mask over the objects crossing its strip, and
    `meets(o, q)` gives each object q the mask of the objects crossing its
    left side that it may meet.  Every object has one left and one right
    event.  The per-strip cap is `factor * ell`."""
    strip_points = locate_strip_points(points, events)
    meet = [0] * (len(events) // 2)
    strip_cover = []
    uncovered = None
    active = []
    for i, pts in enumerate(strip_points):
        masks = set()
        for p in pts:
            m = 0
            for o in active:
                if covers(o, p):
                    m |= 1 << o
            if not m and uncovered is None:
                uncovered = p
            masks.add(m)
        strip_cover.append(list(masks))
        if i == len(events):
            break
        ev = events[i]
        q = ev.obj
        if ev.cls == EventClass.LEFT_SIDE:
            m = 0
            for o in active:
                if meets(o, q):
                    m |= 1 << o
            meet[q] = m
            active.append(q)
        else:
            active.remove(q)
    return StripProblem(events, strip_cover, meet, ply, factor, uncovered,
                        ell, factor * ell)


def covered(mask: int, cover: list) -> bool:
    """True iff the objects in `mask` cover a strip with these cover masks."""
    for c in cover:
        if not mask & c:
            return False
    return True


def successors(problem: StripProblem, state: StripState) -> list[StripState]:
    """Valid states one strip to the right of `state`."""
    strip, members, union = state
    ev = problem.events[strip]
    bit = 1 << ev.obj
    nxt = strip + 1
    cover = problem.strip_cover[nxt]
    if ev.cls != EventClass.LEFT_SIDE:
        members &= ~bit
    out = []
    if covered(members, cover):
        out.append(_new(StripState, (nxt, members, union)))
    if (ev.cls != EventClass.LEFT_SIDE or members.bit_count() >= problem.cap
            or not covered(members | bit, cover)):
        return out
    ell = problem.ell
    if ((members & problem.meets[ev.obj]).bit_count() >= ell
            and problem.ply.with_added(members, ev.obj) > ell):
        return out
    out.append(_new(StripState, (nxt, members | bit, union | bit)))
    return out


def run(problem: StripProblem, step, less, start):
    """Forward search source -> sink: the least union reaching the `start`
    state again after the last strip, or None.

    `step(problem, state)` yields (strip, key, union) successors; for each
    key of the next strip only the union least under `less` is kept, which
    makes the output deterministic and biased toward small indices.
    """
    if problem.uncovered is not None:
        return None
    states = {start: start}
    for i in range(len(problem.events)):
        nxt = {}
        for key, union in states.items():
            for _, k, u in step(problem, _new(StripState, (i, key, union))):
                cur = nxt.get(k)
                if cur is None or (u != cur and less(u, cur)):
                    nxt[k] = u
        if not nxt:
            return None
        states = nxt
    return states.get(start)


def search(problem: StripProblem):
    """The chosen index union of a cover of the slab points, or None."""
    union = run(problem, successors, union_lt, 0)
    return None if union is None else bits(union)
