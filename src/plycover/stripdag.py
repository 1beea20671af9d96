"""Reachable-state search over the strip-transition graph inside one slab.

The plane restricted to a height-2 slab is cut into vertical strips by the
object side events.  A search state is (strip index, members), where the
members are the chosen objects crossing that strip, held as an int bitmask
(bit i for object i).  Crossing a boundary (exactly one side event) either
keeps the members, drops the object whose right side sits on the boundary,
or adds the object whose left side does.

`build_problem` makes one sweep (`geom.sweep_events`) over the points and
the x-spans that each object kind states once (`rects.rect_spans`,
`disks.disk_spans`).  It gives every strip point its cover mask, the
objects crossing its strip that contain it, and every object its meet
mask, the objects active with it that may meet it.  A state then covers
its strip iff it meets each cover mask of the strip.  Event i's step
`(left, bit, obj, rest, held)` splits strip i + 1's masks by the event's
bit: a state missing a `rest` mask has no successor, as taking obj cannot
meet it either, and keep must meet `held` too.  An object that leaves
holds no mask of the next strip, so a right event's `held` is empty.

A reached state has ply at most ell, as it grew by tested additions and a
removal cannot raise ply, and adding q makes new depth only inside q: 1
plus the most members that share a point with q.  Closed convex sets
share a point iff every h of them do, h the Helly number (Danzer,
Grunbaum & Klee, "Helly's theorem and its relatives", 1963).  Boxes have
h = 2, so those members are a clique of the meet graph; disks in the
plane have h = 3, so they are a clique whose triples, with q or without,
share a point too (`geom.disks_share_point`).  `has_clique` decides both
kinds from the meet masks and the problem's `shares` test, and no
candidate point is listed.  A successor also respects the per-strip cap.

None of that depends on the budget, so a slab's problem is built once and
`StripProblem.at` applies each budget of its ell ladder to a view sharing
the steps and masks.  A set bit of a cover mask is a `contains` test
that held, so a point with the empty mask is the only kind that can be
uncovered; `uncovered` is the least index of such a point, or None, and
when there is one no search is run.

`run` is the one search loop.  It holds one strip's states at a time, a
dict from key to the union of the first path that reaches it, and
crosses each event with one call of a per-event step that returns the
next strip's dict.  Keeping first paths makes every slab's result
inclusion-minimal (see `run`).  The 3-color step (`tricolor`) works on
triples of class masks over the disk problem and reads each event's step
once.  Rectangles and disks step with `_mpc_step`, which calls
`successors` once per state, where perfbench/tracing.py counts the
states; `successors` reads the event's step, returns `(key, union)`
pairs, and asks `has_clique` only when ell > 1 and at least ell members
meet the entering object.
"""
from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .geom import LEFT, POINT, sweep_events


def bits(mask: int) -> list:
    """Indices of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class StripState(NamedTuple):
    """Only the view of a state that perfbench/tracing.py reads where it
    wraps `successors`; the search itself holds `key -> union` dicts."""
    strip: int
    mask: int          # members
    union: int = 0     # chosen objects on the first path to this state

    @property
    def members(self) -> tuple:
        return tuple(bits(self.mask))


# StripState(a, b, c) without the generated Python __new__, for hot loops
_new = tuple.__new__


# PlyCache.with_added stays bound so that perfbench/tracing.py can wrap
# it; nothing calls it, as no search has a depth oracle
class PlyCache:
    with_added = None


class StripProblem(NamedTuple):
    steps: list                  # per side event, (left, bit, obj, rest, held)
    meets: list                  # per object, the mask of objects it may meet
    shares: Optional[Callable]   # (a, b, c) share a point; None: rects
    factor: int                  # members per strip per unit of budget
    uncovered: Optional[int]     # least index of an empty-mask point, or None
    ell: int
    cap: int                     # max members per strip, factor * ell

    def at(self, ell: int) -> StripProblem:
        """The same problem under budget ell; nothing is rebuilt."""
        return self._replace(ell=ell, cap=self.factor * ell)


def build_problem(points, objects, spans, meets, shares,
                  factor) -> StripProblem:
    """One sweep (`geom.sweep_events`) over the points and the sides of
    the objects' `(left, right, y)` spans: `objects[o].contains(p)` gives
    each strip point its cover mask over the objects crossing its strip,
    which the step of the event before the strip splits by its bit, and
    `meets(o, q)` gives each object the mask of the objects active with it
    that it may meet.  The problem is at ell = 1; `StripProblem.at` sets a
    budget, and the per-strip cap is `factor * ell`."""
    meet = [0] * len(objects)
    steps, active = [], []
    uncovered = None
    bit, rest, held, seen = 0, [], [], set()  # strip 0 follows no event
    for _, cls, _, i in sweep_events(spans, [(p.x, p.y) for p in points]):
        if cls == POINT:
            p, m = points[i], 0
            for o in active:
                if objects[o].contains(p):
                    m |= 1 << o
            if not m and (uncovered is None or i < uncovered):
                uncovered = i
            if m not in seen:
                seen.add(m)
                (held if m & bit else rest).append(m)
            continue
        bit, rest, held, seen = 1 << i, [], [], set()
        left = cls == LEFT
        steps.append((left, bit, i, rest, held))  # filled by the next strip
        if left:
            m = 0
            for o in active:
                if meets(o, i):
                    m |= 1 << o
                    meet[o] |= bit
            meet[i] = m
            active.append(i)
        else:
            active.remove(i)
    return StripProblem(steps, meet, shares, factor, uncovered, 1,
                        factor)


def has_clique(meets: list, mask: int, k: int, shares=None,
               chosen: tuple = ()) -> bool:
    """True iff `mask` holds k objects that pairwise meet by `meets` and,
    given `shares`, of which every three, or two and one of `chosen`,
    share a point; `mask` objects meet those of `chosen` and share a point
    with any two.  Picking the lowest a keeps the candidates that meet a
    and share a point with a and each of `chosen`.  At most the C(|mask|,
    k) k-subsets are tried, and |mask| is at most the per-strip cap: the
    cost is exponential only in ell, as the state space is."""
    while mask.bit_count() >= k > 1:
        low = mask & -mask
        mask ^= low
        a = low.bit_length() - 1
        rest = mask & meets[a]
        if shares is not None and rest.bit_count() >= k - 1:
            for b in bits(rest):
                for c in chosen:
                    if not shares(a, b, c):
                        rest ^= 1 << b
                        break
        if has_clique(meets, rest, k - 1, shares, chosen + (a,)):
            return True
    return mask.bit_count() >= k


def successors(problem: StripProblem, state: StripState) -> list:
    """The `(key, union)` pairs of the valid states one strip to the right
    of `state`: keep (or drop, at a right side) first, then take."""
    strip, members, union = state
    left, bit, q, rest, held = problem.steps[strip]
    for c in rest:  # taking q cannot meet these either
        if not members & c:
            return []
    if not left:
        return [(members & ~bit, union)]
    out = []
    for c in held:
        if not members & c:
            break
    else:
        out.append((members, union))
    if members.bit_count() >= problem.cap:
        return out
    near = members & problem.meets[q]
    ell = problem.ell
    if near.bit_count() >= ell and (ell == 1 or has_clique(
            problem.meets, near, ell, problem.shares, (q,))):
        return out
    out.append((members | bit, union | bit))
    return out


def _mpc_step(problem: StripProblem, i: int, states: dict) -> dict:
    """The states of strip i + 1 reached from strip i's, for rectangles
    and disks: the `successors` pairs of each state, in dict order."""
    # one `successors` call per state, because perfbench/tracing.py counts
    # states by wrapping it; an event-major rect and disk step waits for a
    # state count the search reports itself (ROADMAP item 3, after item 2)
    nxt = {}
    for key, union in states.items():
        for k, u in successors(problem, _new(StripState, (i, key, union))):
            if k not in nxt:
                nxt[k] = u
    return nxt


def run(problem: StripProblem, step, start):
    """Forward search source -> sink: the union of the first path that
    reaches the `start` state again after the last strip, or None.

    A strip's states are a dict from key to the union of the first path
    that reached it.  `step(problem, i, states)` crosses event i for the
    whole strip at once and returns strip i + 1's dict: it visits the
    states in dict order, offers each one's successors skipping the
    entering object (rank 0) before taking it, and enters a key on its
    first arrival only.  So a strip's states are visited in the order
    they were first reached, and by induction each key keeps its least
    decision path: the least rank sequence, in sweep order.  Dict
    insertion order decides.

    So a result is inclusion-minimal: if it still covered the slab without
    some chosen q, skipping q at its left side and deciding as before
    elsewhere would be a valid, smaller path, since removing an object
    never raises depth, strip counts or conflicts.
    """
    if problem.uncovered is not None:
        return None
    states = {start: start}
    for i in range(len(problem.steps)):
        states = step(problem, i, states)
        if not states:
            return None
    return states.get(start)


def search(problem: StripProblem):
    """The chosen index union of a cover of the slab points, or None."""
    union = run(problem, _mpc_step, 0)
    return None if union is None else bits(union)
