"""2-approximate 3-colorable unit-disk covering.

Each slab is searched for a cover splittable into three classes of pairwise
disjoint disks (a class has ply 1, so at most 8 of its disks cross any
strip).  Slabs at even distance from the lowest one take colors 1-3, the
others 4-6; disks of same-colored classes two slabs apart cannot touch, so
every color class stays pairwise disjoint globally.  A solution 3-colorable
globally restricts to a 3-colorable cover of every slab, hence a failed
slab proves global infeasibility and the 6-colorable output is at most a
factor 2 from the optimum.

`slabs.search_slabs` runs the slabs, as it does for the ply solvers: it
dedupes the disks, searches each slab over its live disks only, and
applies the one failure order; its docstring gives why the live disks
suffice.  A slab's ladder here has one rung.

The slab search is `stripdag.run` on a strip problem whose meet masks are
conflict masks: an entering disk's mask holds the disks crossing its left
side that it is not disjoint from, so it may join a class iff the class
mask misses its conflict mask.  A state is a triple of class masks in
canonical order (by index tuple, empties last), with a triple of unions;
coverage is tested on the OR of the classes against the strip's cover
masks.
"""
from __future__ import annotations

# canonical_rotation, rotate_instance, assign_slabs and membership_at stay
# bound here so that perfbench/tracing.py can wrap them; nothing calls them
from .disks import (canonical_rotation, disk_side_events,  # noqa: F401
                    rotate_instance)
from .errors import Infeasible
from .geom import (EventClass, disks_disjoint, membership_at,  # noqa: F401
                   ply_disks)
from .slabs import (CoverSolution, assign_slabs,  # noqa: F401
                    search_slabs)
from .stripdag import bits, build_problem, covered, run, union_lt

MAX_PER_CLASS = 8

_EMPTY = (0, 0, 0)


def _classes_lt(a, b) -> bool:
    for x, y in zip(a, b):
        if x != y:
            return union_lt(x, y)
    return False


def _canonical(c, u):
    # collapse the 3! symmetry: a stable sort of the class list c by index
    # tuples, empties last; the union list u follows the same permutation
    for a, b in ((0, 1), (1, 2), (0, 1)):
        x, y = c[a], c[b]
        if y and (not x or union_lt(y, x)):
            c[a], c[b] = y, x
            u[a], u[b] = u[b], u[a]
    return tuple(c), tuple(u)


def _step(problem, state):
    """Successors (strip, classes, unions) of a canonical 3-color state: an
    entering disk joins no class or one class it meets no member of, and a
    leaving disk leaves its class."""
    strip, classes, unions = state
    ev = problem.events[strip]
    bit = 1 << ev.obj
    nxt = strip + 1
    cover = problem.strip_cover[nxt]
    active = classes[0] | classes[1] | classes[2]
    if ev.cls != EventClass.LEFT_SIDE:
        if not active & bit:
            return [(nxt, classes, unions)] if covered(active, cover) else []
        if not covered(active ^ bit, cover):
            return []
        return [(nxt, *_canonical([c & ~bit for c in classes], list(unions)))]
    out = [(nxt, classes, unions)] if covered(active, cover) else []
    if not covered(active | bit, cover):
        return out
    conflict = problem.meets[ev.obj]
    for a in range(3):
        cls = classes[a]
        if cls and (cls.bit_count() >= MAX_PER_CLASS or cls & conflict):
            continue
        grown, grown_u = list(classes), list(unions)
        grown[a] = cls | bit
        grown_u[a] |= bit
        out.append((nxt, *_canonical(grown, grown_u)))
        if not cls:
            break  # the empty classes come last and are interchangeable
    return out


def _slab_problem(points, disks):
    disks = list(disks)

    def meets(o, q):
        return not disks_disjoint(disks[q], disks[o])

    return build_problem(points, disk_side_events(disks),
                         lambda o, p: disks[o].contains(p),
                         meets, None, MAX_PER_CLASS)


def solve_slab_3color(points, disks, problem=None):
    """Three pairwise-disjoint-within classes jointly covering the slab
    points, as disk index tuples, or None when no 3-colorable cover exists.
    `problem` is this slab's strip problem, if already built."""
    if problem is None:
        problem = _slab_problem(points, disks)
    unions = run(problem, _step, _classes_lt, _EMPTY)
    return None if unions is None else tuple(tuple(bits(u)) for u in unions)


def _rung(points, disks, ell, problem):
    # the one rung of a slab's ladder; the budget plays no part
    return solve_slab_3color(points, disks, problem)


def solve_3color(points, disks) -> CoverSolution:
    """6-colorable cover of the points, or Infeasible when no 3-colorable
    cover exists.  colors maps chosen disk index -> color in 1..6; every
    color class is pairwise disjoint.  The lowest slab with no 3-colorable
    cover raises, unless some point is covered by no disk
    (`slabs.search_slabs`)."""
    found, failed, searched = search_slabs(points, disks, "disks",
                                           _slab_problem, _rung, 1)
    if failed is not None:
        raise Infeasible("slab %d admits no 3-colorable cover" % failed[0])
    colors: dict[int, int] = {}
    for j, classes, inputs in found:
        base = 3 * ((j - found[0][0]) % 2)
        for a, cls in enumerate(classes):
            for k in cls:
                colors.setdefault(inputs[k], base + a + 1)
    chosen = sorted(colors)
    return CoverSolution(chosen, ply_disks([searched[i] for i in chosen]),
                         colors=colors)
