"""Exact weighted-interval covering on a line in near-linear time.

Two objectives over the chosen intervals: minimum membership (largest
weight sum covering any input point) and minimum ply (largest weight sum
covering any point of the line).  Draw a vertical line through every
interval endpoint to cut the line into strips.  Some optimal solution has
no interval nested inside another and never stacks three intervals over
one strip, so a path can record how many chosen intervals span the current
strip: none (v0), one (v1), or an overlapping pair (v2).  The bottleneck
(minimax vertex weight) path from the leftmost to the rightmost strip is
an optimum; for the ply objective the v1/v2 weights simply apply whether
or not the strip holds a point.

The graph is implicit.  It would have at most 2m+1 v0, (2m-1)+4M v1 and
M v2 vertices, with at most two out-edges each, where M counts
overlapping pairs; `bottleneck_path` walks it in one sweep over the strips
without building it.  The sweep holds the current strip's v0, one v1 per
active interval and the v2 pairs not yet closed, each with its bottleneck
value and a link into the chosen intervals of its best path.  It takes
O(n + m + M) time, and its memory holds only the live vertices and the
links of their paths.

Every predicate runs on Python ints.  The solver starts from exact
(num, den) int pairs (`geom.line_pairs`): `instances.loads` reads an
interval file straight into them, and points given as ints, Fractions or
floats (taken exactly) and WeightedIntervals are converted with
`as_integer_ratio`.  `prepare_instance` maps each point x and interval
endpoint to its rank among all of them: coordinates are only compared,
never added, so ranks order and tie exactly as the rationals they stand
for, and stay small whatever the denominators.  Weights are added, so they
are scaled instead: each is multiplied by W, the lcm of the weight
denominators, which keeps sums exact.  A solve of a file that
`instances.dumps` wrote therefore makes no `Fraction` between the file and
the objective, Fraction(best, W), that `solve_intervals` returns.

Every sweep here takes its events and their order from
`geom.sweep_events`.  On a tie `bottleneck_path` keeps the first
predecessor in the order the graph's vertices would be made (see its
docstring); the tests hold it to an explicit graph and DP.

Memory: each of the m scaled weights has about as many bits as W, and W
grows with the number of distinct coprime weight denominators, so the
weights take O(m * bits(W)) memory.  With 4000 uniform intervals weighted
over 4000 distinct primes near 1e5 (a W of 67,617 bits), one `plycover
solve` process on CPython 3.11 peaked at 56 MB in either mode, against
20 MB for the same intervals with integer weights.  Such files are valid
and are never refused.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import Infeasible
from .geom import (LEFT, POINT, RIGHT, WeightedInterval, line_pairs,
                   pair_ranks, sweep_events)
from .slabs import CoverSolution

MODES = ("mmsc", "mpc")


def _scaled(pairs):
    """(ints, s): s > 0 is the lcm of the denominators of the (num, den)
    pairs and ints[i] = num_i * s / den_i."""
    s = math.lcm(*{den for _, den in pairs})
    return [num * (s // den) for num, den in pairs], s


class PreparedIntervals(NamedTuple):
    """A line instance, given in any order, cut into strips: strip i lies
    between events[i - 1] and events[i], the last after the last event."""
    orig_idx: list        # input position of each kept interval, ascending
    events: list          # (x rank, cls, 0, kept index) for both sides, sorted
    right_pos: list       # position of each kept interval's right event
    weights: list         # kept interval weights times weight_scale
    weight_scale: int     # W: the lcm of the weight denominators
    has_point: list       # per strip: does some point lie in it
    uncovered: Optional[int]  # least index of a point in no interval, or None


def prepare_instance(points, intervals) -> PreparedIntervals:
    """Strip layout, the strips that hold a point and the least index of a
    point that no interval covers, if any, on coordinate ranks.

    Points and intervals may come in any order; exact duplicate intervals
    collapse to their minimum-weight copy.  Points are numbers and
    intervals WeightedIntervals, or either is given as the exact int pairs
    of `geom.line_pairs`; pairs are checked as `WeightedInterval` checks
    its values.
    """
    coords, ivs = line_pairs(points, intervals)
    n, m = len(coords), len(ivs)
    coords += [s[0] for s in ivs]
    coords += [s[1] for s in ivs]
    rk = pair_ranks(coords)
    xs, los, his = rk[:n], rk[n:n + m], rk[n + m:]
    ws, w_scale = _scaled([s[2] for s in ivs])
    if any(map(operator.ge, los, his)):
        raise ValueError("interval needs lo < hi")
    if min(ws, default=0) < 0:
        raise ValueError("interval weight must be nonnegative")

    best: dict[tuple, int] = {}
    for i, key in enumerate(zip(los, his)):
        cur = best.get(key)
        if cur is None or ws[i] < ws[cur]:
            best[key] = i
    keep = sorted(best.values())

    events, has_point = [], [False]
    right_pos = [0] * len(keep)
    active, uncovered = 0, None
    for ev in sweep_events([(los[i], his[i], 0) for i in keep],
                           [(x, 0) for x in xs]):
        _, cls, _, q = ev
        if cls == POINT:
            has_point[-1] = True
            if not active and (uncovered is None or q < uncovered):
                uncovered = q
            continue
        if cls == RIGHT:
            right_pos[q] = len(events)
        active += 1 if cls == LEFT else -1
        events.append(ev)
        has_point.append(False)
    return PreparedIntervals(keep, events, right_pos, [ws[i] for i in keep],
                             w_scale, has_point, uncovered)


# a None placeholder for the name perfbench/tracing.py wraps as the graph
# build: `bottleneck_path` sweeps the strips and builds no graph
build_dag = None


def bottleneck_path(prep: PreparedIntervals, mode: str = "mmsc"):
    """(kept indices on a minimax source-to-sink path, value), or None
    when the sink is unreachable: one sweep over `prep.events` that holds
    only the live vertices of the strip graph.  The value is in weight
    units, so the real optimum is Fraction(value, prep.weight_scale).

    A live vertex is (value, link), or None when unreachable; a link is a
    shared `(interval, parent link)` tuple, so the chosen set is read off
    at the sink.  A strip weighs its v1 and v2 vertices when it holds a
    point, or always for mpc, and `seen` counts the strips swept so far
    that weigh.  The sweep holds the strip's v0; each active q's v1 as
    (value, link, seen when set), to which q's weight still applies if a
    strip has weighed since; and per q its pending v2 pairs (r, value
    before the pair's weight, q's link, strip made, seen then).  Ties keep
    the first predecessor in the graph's creation order: a new v0 keeps
    the previous v0 over the leaving v1, and a v1 at a right event takes
    the pending pair only if that pair was made before the previous strip.
    """
    if mode not in MODES:
        raise ValueError("mode must be one of %r" % (MODES,))
    mpc = mode == "mpc"
    wt = prep.weights
    right_pos = prep.right_pos
    has_point = prep.has_point
    v0 = None if has_point[0] else (0, None)
    seen = 1 if mpc or has_point[0] else 0
    v1: dict[int, Optional[tuple]] = {}
    pending: dict[int, list] = {}
    for strip, (_, cls, _, q0) in enumerate(prep.events, 1):
        weighs = mpc or has_point[strip]
        if cls == LEFT:
            end0 = right_pos[q0]
            for q, cur in v1.items():
                # a pair only when q ends before q0 does (no nesting)
                if cur is None or right_pos[q] >= end0:
                    continue
                val, link, since = cur
                if seen > since and wt[q] > val:
                    val = wt[q]
                pair = (q0, val, link, strip, seen)
                pairs = pending.get(q)
                if pairs is None:
                    pending[q] = [pair]
                else:
                    pairs.append(pair)
            v1[q0] = None if v0 is None else (v0[0], (q0, v0[1]), seen)
            if has_point[strip]:
                v0 = None
        else:
            cur = v1.pop(q0)
            if has_point[strip]:
                v0 = None
            elif cur is not None:
                val, link, since = cur
                if seen > since and wt[q0] > val:
                    val = wt[q0]
                if v0 is None or val < v0[0]:
                    v0 = (val, link)
            for r, val, link, made, made_seen in pending.pop(q0, ()):
                # mmsc: the pair counts only if a point lies in some strip
                # that both intervals span, made..strip - 1
                if seen > made_seen and wt[q0] + wt[r] > val:
                    val = wt[q0] + wt[r]
                if weighs and wt[r] > val:
                    val = wt[r]
                cur = v1[r]
                if cur is not None:
                    cval, _, since = cur
                    if (weighs or seen > since) and wt[r] > cval:
                        cval = wt[r]
                    if cval < val or (cval == val and made >= strip - 1):
                        continue
                v1[r] = (val, (r, link), seen)
        if weighs:
            seen += 1

    # the sink is the last strip's v0
    if v0 is None:
        return None
    value, link = v0
    kept = []
    while link is not None:
        q, link = link
        kept.append(q)
    return kept[::-1], value


def solve_intervals(points, intervals, mode: str = "mmsc") -> CoverSolution:
    """Exact optimum cover by weighted intervals for either objective.

    Takes numbers and WeightedIntervals or exact int pairs, as
    `prepare_instance` does.  A point in no interval raises Infeasible
    naming the one given first, before any path is searched."""
    prep = prepare_instance(points, intervals)
    if prep.uncovered is not None:
        x = points[prep.uncovered]
        raise Infeasible("point %r is covered by no interval"
                         % (Fraction(*x) if type(x) is tuple else x,))
    res = bottleneck_path(prep, mode)
    if res is None:
        raise Infeasible("some point lies in no interval")
    kept, value = res
    return CoverSolution(sorted(prep.orig_idx[q] for q in kept),
                         Fraction(value, prep.weight_scale))


def chosen_loads(points, chosen: Sequence[WeightedInterval]):
    """(counts, loads, W): per point, a number, the number of chosen
    intervals containing it and their weight sum times W, the lcm of the
    weight denominators.

    One sweep over the points and the chosen endpoints (`sweep_events`),
    so every interval is closed.
    """
    ws, w_scale = _scaled([s.weight.as_integer_ratio() for s in chosen])
    counts = [0] * len(points)
    loads = [0] * len(points)
    count = load = 0
    for _, cls, _, k in sweep_events([(s.lo, s.hi, 0) for s in chosen],
                                     [(x, 0) for x in points]):
        if cls == LEFT:
            count += 1
            load += ws[k]
        elif cls == RIGHT:
            count -= 1
            load -= ws[k]
        else:
            counts[k] = count
            loads[k] = load
    return counts, loads, w_scale


def evaluate_objective(points, chosen: Sequence[WeightedInterval],
                       mode: str = "mmsc") -> Fraction:
    """Recompute an objective directly from a chosen set (no graph).

    mmsc: largest weight sum over the input points.  mpc: largest weight
    sum anywhere on the line, which is always attained at some chosen
    interval's left endpoint.
    """
    if mode not in MODES:
        raise ValueError("mode must be one of %r" % (MODES,))
    xs = points if mode == "mmsc" else [s.lo for s in chosen]
    _, loads, w_scale = chosen_loads(xs, chosen)
    return Fraction(max(loads, default=0), w_scale)

