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

The graph has at most 2m+1 v0, (2m-1)+4M v1, and M v2 vertices, with at
most two out-edges each, where M counts overlapping pairs.

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
`geom.sweep_events`.  A DAG vertex is a plain `(kind, strip, q, r, weight)`
tuple; `bottleneck_path` reads the weights from one flat list and needs no
tie-break (see its docstring).

Memory: each of the m scaled weights has about as many bits as W, and W
grows with the number of distinct coprime weight denominators, so the
weights take O(m * bits(W)) memory.  With 4000 uniform intervals weighted
over 4000 distinct primes near 1e5 (a W of 67,617 bits), one `plycover
solve` process on CPython 3.11 peaked at 96 MB (mmsc) and 112 MB (mpc),
against 28 MB for the same intervals with integer weights.  Such files
are valid and are never refused.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple, Optional, Sequence

from .errors import Infeasible
from .geom import (LEFT, POINT, RIGHT, WeightedInterval, line_pairs,
                   pair_ranks, sweep_events)
from .slabs import CoverSolution

MODES = ("mmsc", "mpc")

V0, V1, V2 = 0, 1, 2


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


_weight = operator.itemgetter(4)   # a vertex's weight


class IntervalDag(NamedTuple):
    vertices: list
    adj: list
    source: Optional[int]
    sink: Optional[int]
    n_intervals: int      # intervals after dedup
    n_overlaps: int       # overlapping pairs among them


def build_dag(prep: PreparedIntervals, mode: str = "mmsc") -> IntervalDag:
    """Vertex-weighted strip graph whose bottleneck path is an optimum.

    A vertex is a `(kind, strip, q, r, weight)` tuple: its kind V0, V1 or
    V2, its entry strip, its intervals (-1 where it has none) and its
    weight, an int: the real weight times `prep.weight_scale`."""
    if mode not in MODES:
        raise ValueError("mode must be one of %r" % (MODES,))
    mpc = mode == "mpc"
    wt = prep.weights
    right_pos = prep.right_pos
    has_point = prep.has_point
    pref = [0, *accumulate(has_point)]  # strips before i holding a point

    # vertex i is vertices[i] with out-edges adj[i]; both grow together
    vertices: list[tuple] = []
    adj: list[list[int]] = []
    add_vertex = vertices.append
    add_adj = adj.append

    n_overlaps = 0
    source = None
    if not has_point[0]:
        source = 0
        add_vertex((V0, 0, -1, -1, 0))
        add_adj([])
    prev_v0 = source
    prev_v1: dict[int, int] = {}
    pending_v2: dict[int, list] = {}
    active: dict[int, None] = {}

    for b, (_, cls, _, q0) in enumerate(prep.events):
        i2 = b + 1
        is_left = cls == LEFT
        if is_left:
            n_overlaps += len(active)
            active[q0] = None
        else:
            del active[q0]

        cur_v0 = None
        if not has_point[i2]:
            cur_v0 = len(vertices)
            add_vertex((V0, i2, -1, -1, 0))
            add_adj([])
        weighted = mpc or has_point[i2]
        cur_v1 = {}
        for q in active:
            cur_v1[q] = len(vertices)
            add_vertex((V1, i2, q, -1, wt[q] if weighted else 0))
            add_adj([])
        created_v2 = {}
        if is_left:
            end0 = right_pos[q0]
            for q in active:
                # pair vertex only when q ends before q0 does (no nesting)
                end = right_pos[q]
                if q != q0 and end < end0:
                    # mmsc: the pair counts only if a point lies in some
                    # strip i2..end that both intervals span
                    if mpc or pref[end + 1] > pref[i2]:
                        w = wt[q] + wt[q0]
                    else:
                        w = 0
                    vid = len(vertices)
                    add_vertex((V2, i2, q, q0, w))
                    add_adj([])
                    created_v2[q] = vid
                    pending_v2.setdefault(q, []).append((vid, q0))

        if is_left:
            if prev_v0 is not None:
                if cur_v0 is not None:
                    adj[prev_v0].append(cur_v0)
                adj[prev_v0].append(cur_v1[q0])
            for q, vid in prev_v1.items():
                adj[vid].append(cur_v1[q])
                pair = created_v2.get(q)
                if pair is not None:
                    adj[vid].append(pair)
        else:
            if prev_v0 is not None and cur_v0 is not None:
                adj[prev_v0].append(cur_v0)
            for q, vid in prev_v1.items():
                if q == q0:
                    if cur_v0 is not None:
                        adj[vid].append(cur_v0)
                else:
                    adj[vid].append(cur_v1[q])
            for vid, r in pending_v2.pop(q0, ()):
                adj[vid].append(cur_v1[r])
        prev_v0, prev_v1 = cur_v0, cur_v1

    # the sink is the last strip's V0: with no events, the source
    return IntervalDag(vertices, adj, source, prev_v0, len(wt), n_overlaps)


def bottleneck_path(dag: IntervalDag):
    """Minimax-weight source-to-sink path: (vertex index list, value), or
    None when the sink is unreachable.  The value is in the DAG's vertex
    weight units, so the real optimum is Fraction(value,
    prep.weight_scale).

    A vertex keeps the first predecessor, in creation order, to reach its
    best value, which is also its least (strip, kind, q, r): a vertex has
    at most two predecessors, made in that order.  A V0 has the V0 one
    strip back and, at a right event, the leaving V1 made after it; a V1
    has its V1 one strip back and, at a right event, the pending V2 pair,
    made after it or at an earlier strip; a V2 has only its q's V1.
    """
    if dag.source is None or dag.sink is None:
        return None
    vertices = dag.vertices
    n = len(vertices)
    weight = list(map(_weight, vertices))
    best = [None] * n
    pred = [-1] * n
    best[dag.source] = weight[dag.source]
    for u, nbrs in enumerate(dag.adj):  # creation order is topological
        bu = best[u]
        if bu is None:
            continue
        for v in nbrs:
            w = weight[v]
            cand = bu if bu >= w else w
            bv = best[v]
            if bv is None or cand < bv:
                best[v] = cand
                pred[v] = u
    if best[dag.sink] is None:
        return None
    path = [dag.sink]
    while path[-1] != dag.source:
        path.append(pred[path[-1]])
    path.reverse()
    return path, best[dag.sink]


def solve_intervals(points, intervals, mode: str = "mmsc") -> CoverSolution:
    """Exact optimum cover by weighted intervals for either objective.

    Takes numbers and WeightedIntervals or exact int pairs, as
    `prepare_instance` does.  A point in no interval raises Infeasible
    naming the one given first, and no DAG is built."""
    prep = prepare_instance(points, intervals)
    if prep.uncovered is not None:
        x = points[prep.uncovered]
        raise Infeasible("point %r is covered by no interval"
                         % (Fraction(*x) if type(x) is tuple else x,))
    dag = build_dag(prep, mode)
    res = bottleneck_path(dag)
    if res is None:
        raise Infeasible("some point lies in no interval")
    path, value = res
    # a vertex's intervals are its q and r, -1 where it has none
    chosen = {i for vi in path for i in dag.vertices[vi][2:4]} - {-1}
    return CoverSolution(sorted(prep.orig_idx[q] for q in chosen),
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

