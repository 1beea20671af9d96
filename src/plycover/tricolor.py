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
state is a triple of class masks in canonical order, the order a stable
sort by mask value with empties last gives, with a triple of unions (an
emptied class keeps its union); coverage is tested on the OR of the
classes against the strip's cover masks.  The meet masks alone keep each
class pairwise disjoint, so the problem's `shares` test is never read.
`_step` crosses one event for all of a strip's states, reading the
event's step (`StripProblem.steps`) and conflict mask once; it visits
the states in dict order and emits keep, then joins to classes 0, 1, 2:
the ranks 0 to 3 of `run`'s least decision path.  An event changes one
class of a state, so `_placed` builds each successor's key directly,
with no sort.
"""
from __future__ import annotations

from .errors import Infeasible
from .geom import ply_disks
from .slabs import CoverSolution, search_slabs
from .stripdag import bits, run

_EMPTY = (0, 0, 0)

# None placeholders for the names perfbench/tracing.py wraps here: the
# slabs are assigned in `slabs.search_slabs`, no point is scanned against
# the disks (`slabs`), and no input is rotated
membership_at = canonical_rotation = rotate_instance = assign_slabs = None


def _placed(v, u, x, ux, y, uy):
    # the canonical key of class v (union u) and the classes x and y, in
    # canonical order: v goes before the first of x, y that is empty or,
    # when v is nonempty, of larger mask.  An emptied v came from a
    # nonempty class, so it precedes every empty one in index order
    if not x or 0 < v < x:
        return (v, x, y), (u, ux, uy)
    if not y or 0 < v < y:
        return (x, v, y), (ux, u, uy)
    return (x, y, v), (ux, uy, u)


def _step(problem, i, states):
    """Strip i + 1's canonical 3-color states from strip i's: an entering
    disk joins no class or one class it meets no member of, and a leaving
    disk leaves its class.

    Event i's step splits strip i + 1's cover masks by its bit.  At a
    left event the masks that miss the entering bit (`rest`) must be met
    by every successor, and those that hold it (`held`) only by keep: a
    join meets them all.  At a right event every mask is in `rest`, and a
    state's members meet it exactly when they do without the leaving
    disk, so coverage is tested before the removal.

    Only one class changes, so each successor's key is built in place
    (`_placed`): the two other classes keep their canonical order, and
    the changed one is placed among them as the stable sort by mask
    value, empties last, places it.  A join tries class 0, then class 1
    when class 0 is nonempty, then class 2 when class 1 is: empty classes
    are interchangeable, so only the first is tried."""
    left, bit, obj, rest, held = problem.steps[i]
    nxt = {}
    if not left:
        for classes, unions in states.items():
            c0, c1, c2 = classes
            active = c0 | c1 | c2
            for c in rest:
                if not active & c:
                    break
            else:
                if active & bit:
                    u0, u1, u2 = unions
                    if c0 & bit:
                        classes, unions = _placed(c0 ^ bit, u0, c1, u1, c2, u2)
                    elif c1 & bit:
                        classes, unions = _placed(c1 ^ bit, u1, c0, u0, c2, u2)
                    else:
                        classes, unions = _placed(c2 ^ bit, u2, c0, u0, c1, u1)
                nxt.setdefault(classes, unions)
        return nxt
    conflict = problem.meets[obj]
    for classes, unions in states.items():
        c0, c1, c2 = classes
        active = c0 | c1 | c2
        for c in rest:
            if not active & c:
                break
        else:
            for c in held:
                if not active & c:
                    break
            else:
                nxt.setdefault(classes, unions)
            u0, u1, u2 = unions
            if not c0 & conflict:
                nxt.setdefault(*_placed(c0 | bit, u0 | bit, c1, u1, c2, u2))
            if c0 and not c1 & conflict:
                nxt.setdefault(*_placed(c1 | bit, u1 | bit, c0, u0, c2, u2))
            if c1 and not c2 & conflict:
                nxt.setdefault(*_placed(c2 | bit, u2 | bit, c0, u0, c1, u1))
    return nxt


def solve_slab_3color(points, disks, problem):
    """Three pairwise-disjoint-within classes jointly covering the slab
    points, as disk index tuples, or None when no 3-colorable cover exists.
    `problem` is this slab's `disks.disk_slab_problem`."""
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
