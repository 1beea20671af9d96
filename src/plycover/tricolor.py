"""2-approximate 3-colorable unit-disk covering.

Each slab is searched for a cover splittable into three classes of pairwise
disjoint disks (at most 8 of a class cross a strip, as in `disks`; the
conflict test bounds them).  Slabs at even distance from the lowest take
colors 1-3, the others 4-6; disks of same-colored classes two slabs apart
cannot touch, so every color class stays pairwise disjoint globally.  A
solution 3-colorable globally restricts to a 3-colorable cover of every
slab, hence a failed slab proves global infeasibility and the 6-colorable
output is at most a factor 2 from the optimum.

`slabs.search_slabs` runs the slabs, as it does for the ply solvers: it
dedupes the disks, searches each slab over its live disks only, and
applies the one failure order; its docstring gives why the live disks
suffice.  A slab's ladder here has one rung.

The slab search is `stripdag.run` on the disk strip problem
(`disks.disk_slab_problem`), whose meet masks serve as conflict masks: an
entering disk's mask holds the active disks that it is not disjoint from,
so it may join a class iff the class mask misses its conflict mask.  A
state is a triple of class masks in canonical order (nonempty classes by
mask value, empties last), with a triple of unions; coverage is tested on
the OR of the classes against the strip's cover masks.  The meet masks
alone keep each class pairwise disjoint, so the problem's `shares` test
is never read.  `_step` crosses one event for all of a strip's states,
reading the event's step (`StripProblem.steps`) and conflict mask once;
it visits the states in dict order and emits keep, then joins to classes
0, 1, 2: the ranks 0 to 3 of `run`'s least decision path.
"""
from __future__ import annotations

# canonical_rotation, rotate_instance, assign_slabs and membership_at stay
# bound here so that perfbench/tracing.py can wrap them; nothing calls them
from .disks import (canonical_rotation, disk_slab_problem,  # noqa: F401
                    rotate_instance)
from .errors import Infeasible
from .geom import membership_at, ply_disks  # noqa: F401
from .slabs import (CoverSolution, assign_slabs,  # noqa: F401
                    search_slabs)
from .stripdag import bits, run

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


def _step(problem, i, states):
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
                    classes, unions = _canonical([c & ~bit for c in classes],
                                                 list(unions))
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
                key, u = _canonical(grown, grown_u)
                if key not in nxt:
                    nxt[key] = u
                if not cls:
                    break  # empty classes come last and are interchangeable
    return nxt


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
