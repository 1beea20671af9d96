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

The slab search is `stripdag.run` on the disk strip problem
(`disks.disk_slab_problem`), whose meet masks serve as conflict masks: an
entering disk's mask holds the disks crossing its left side that it is not
disjoint from, so it may join a class iff the class mask misses its
conflict mask.  A state is a triple of class masks in canonical order
(nonempty classes by mask value, empties last), with a triple of unions;
coverage is tested on the OR of the classes against the strip's cover
masks.  A step emits keep, then joins to classes 0, 1, 2: the ranks 0 to
3 of `run`'s least decision path.  The problem's depth oracle is never
queried, so its disk arrangement is never listed.
"""
from __future__ import annotations

# canonical_rotation, rotate_instance, assign_slabs and membership_at stay
# bound here so that perfbench/tracing.py can wrap them; nothing calls them
from .disks import (PER_STRIP_FACTOR, canonical_rotation,  # noqa: F401
                    disk_slab_problem, rotate_instance)
from .errors import Infeasible
from .geom import EventClass, membership_at, ply_disks  # noqa: F401
from .slabs import (CoverSolution, assign_slabs,  # noqa: F401
                    search_slabs)
from .stripdag import bits, covered, run

_EMPTY = (0, 0, 0)


def _canonical(c, u):
    # collapse the 3! symmetry: a stable sort of the class list c by mask
    # value, empties last; the union list u follows the same permutation
    for a, b in ((0, 1), (1, 2), (0, 1)):
        x, y = c[a], c[b]
        if y and (not x or y < x):
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
        if cls and (cls.bit_count() >= PER_STRIP_FACTOR or cls & conflict):
            continue
        grown, grown_u = list(classes), list(unions)
        grown[a] = cls | bit
        grown_u[a] |= bit
        out.append((nxt, *_canonical(grown, grown_u)))
        if not cls:
            break  # the empty classes come last and are interchangeable
    return out


def solve_slab_3color(points, disks, problem=None):
    """Three pairwise-disjoint-within classes jointly covering the slab
    points, as disk index tuples, or None when no 3-colorable cover exists.
    `problem` is this slab's `disks.disk_slab_problem`, if already built."""
    if problem is None:
        problem = disk_slab_problem(points, disks)
    unions = run(problem, _step, _EMPTY)
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
    found, failed, searched = search_slabs(points, disks, "disks", _rung, 1)
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
