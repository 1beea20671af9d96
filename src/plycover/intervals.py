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

Every predicate runs on Python ints.  `prepare_instance` maps each point
x and interval endpoint to its rank among all of them: coordinates are
only compared, never added, so ranks order and tie exactly as the
rationals they stand for, and stay small whatever the denominators.
Weights are added, so they are scaled instead: each is multiplied by W,
the lcm of the weight denominators, which keeps sums exact; each scaled
weight has about as many bits as W, which grows with the number of
distinct coprime weight denominators.  Ints, Fractions, floats (taken
exactly) and Points are all accepted.  `Fraction` lives only at the
boundary: the input objects, and the objective `solve_intervals`
returns, Fraction(best, W).
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import Infeasible, UnsortedInput
from .geom import EventClass, WeightedInterval, as_x, ranks
from .slabs import CoverSolution

MODES = ("mmsc", "mpc")

V0, V1, V2 = 0, 1, 2

_LEFT, _POINT, _RIGHT = (EventClass.LEFT_SIDE, EventClass.INPUT_POINT,
                         EventClass.RIGHT_SIDE)


def _scaled(values):
    """(ints, s): s is the lcm of the denominators and ints[i] = values[i] * s.

    Ints and Fractions are used as they are; anything else (a float) goes
    through Fraction, which converts it exactly."""
    exact = [v if isinstance(v, (int, Fraction)) else Fraction(v)
             for v in values]
    s = math.lcm(*{v.denominator for v in exact})
    return [v.numerator * (s // v.denominator) for v in exact], s


@dataclass
class PreparedIntervals:
    intervals: list       # deduplicated, still sorted by right endpoint
    orig_idx: list        # input position of each kept interval
    events: list          # (x rank, cls, 0, kept index) for both sides, sorted
    right_pos: list       # position of each kept interval's right event
    weights: list         # kept interval weights times weight_scale
    weight_scale: int     # W: the lcm of the weight denominators
    reps: list            # one point (x rank) per occupied strip
    rep_strip: list

    @property
    def n_strips(self) -> int:
        return len(self.events) + 1


def prepare_instance(points, intervals) -> PreparedIntervals:
    """Strip layout plus per-strip point dedup, on coordinate ranks.

    Requires points sorted by x and intervals sorted by right endpoint;
    exact duplicate intervals collapse to their minimum-weight copy.
    """
    coords = [as_x(p) for p in points]
    n, m = len(coords), len(intervals)
    coords += [s.lo for s in intervals]
    coords += [s.hi for s in intervals]
    rk = ranks(coords)
    xs, los, his = rk[:n], rk[n:n + m], rk[n + m:]
    if xs != sorted(xs):
        raise UnsortedInput("points must be sorted by x")
    if his != sorted(his):
        raise UnsortedInput("intervals must be sorted by right endpoint")
    ws, w_scale = _scaled([s.weight for s in intervals])

    best: dict[tuple, int] = {}
    for i, key in enumerate(zip(los, his)):
        cur = best.get(key)
        if cur is None or ws[i] < ws[cur]:
            best[key] = i
    keep = sorted(best.values())

    events = []
    for q, i in enumerate(keep):
        events.append((los[i], _LEFT, 0, q))
        events.append((his[i], _RIGHT, 0, q))
    events.sort()
    right_pos = [0] * len(keep)
    for pos, (_, cls, _, q) in enumerate(events):
        if cls == _RIGHT:
            right_pos[q] = pos

    reps, rep_strip = [], []
    last = -1
    for x in xs:
        i = bisect_left(events, (x, _POINT, 0))
        if i != last:
            reps.append(x)
            rep_strip.append(i)
            last = i
    return PreparedIntervals([intervals[i] for i in keep], keep, events,
                             right_pos, [ws[i] for i in keep], w_scale,
                             reps, rep_strip)


class DagVertex(NamedTuple):
    kind: int             # V0 / V1 / V2
    strip: int            # entry strip
    q: int = -1
    r: int = -1
    weight: int = 0       # times PreparedIntervals.weight_scale

    @property
    def sort_id(self) -> tuple:
        return (self.strip, self.kind, self.q, self.r)


@dataclass
class IntervalDag:
    vertices: list
    adj: list
    source: Optional[int]
    sink: Optional[int]
    n_intervals: int      # intervals after dedup
    n_overlaps: int       # overlapping pairs among them


def build_dag(prep: PreparedIntervals, mode: str = "mmsc") -> IntervalDag:
    """Vertex-weighted strip graph whose bottleneck path is an optimum.

    Vertex weights are ints: the real weight times `prep.weight_scale`."""
    if mode not in MODES:
        raise ValueError("mode must be one of %r" % (MODES,))
    mpc = mode == "mpc"
    wt = prep.weights
    right_pos = prep.right_pos
    events = prep.events
    k = len(events)

    has_point = [False] * (k + 1)
    for i in prep.rep_strip:
        has_point[i] = True
    pref = [0] * (k + 2)
    for i in range(k + 1):
        pref[i + 1] = pref[i] + has_point[i]

    # vertex i is vertices[i] with out-edges adj[i]; both grow together
    vertices: list[DagVertex] = []
    adj: list[list[int]] = []
    add_vertex = vertices.append
    add_adj = adj.append

    n_overlaps = 0
    source = None
    if not has_point[0]:
        source = 0
        add_vertex(DagVertex(V0, 0))
        add_adj([])
    prev_v0 = source
    prev_v1: dict[int, int] = {}
    pending_v2: dict[int, list] = {}
    active: dict[int, None] = {}

    for b, (_, cls, _, q0) in enumerate(events):
        i2 = b + 1
        is_left = cls == _LEFT
        if is_left:
            n_overlaps += len(active)
            active[q0] = None
        else:
            del active[q0]

        cur_v0 = None
        if not has_point[i2]:
            cur_v0 = len(vertices)
            add_vertex(DagVertex(V0, i2))
            add_adj([])
        weighted = mpc or has_point[i2]
        cur_v1 = {}
        for q in active:
            cur_v1[q] = len(vertices)
            add_vertex(DagVertex(V1, i2, q, -1, wt[q] if weighted else 0))
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
                    add_vertex(DagVertex(V2, i2, q, q0, w))
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

    sink = prev_v0 if k > 0 else source
    return IntervalDag(vertices, adj, source, sink, len(wt), n_overlaps)


def bottleneck_path(dag: IntervalDag):
    """Minimax-weight source-to-sink path: (vertex index list, value), or
    None when the sink is unreachable.  Ties prefer the predecessor with
    the lexicographically smaller vertex id.  The value is in the DAG's
    vertex weight units, so the real optimum is Fraction(value,
    prep.weight_scale)."""
    if dag.source is None or dag.sink is None:
        return None
    vertices = dag.vertices
    n = len(vertices)
    best = [None] * n
    pred = [-1] * n
    best[dag.source] = vertices[dag.source].weight
    for u, nbrs in enumerate(dag.adj):  # creation order is topological
        bu = best[u]
        if bu is None:
            continue
        uid = vertices[u].sort_id
        for v in nbrs:
            w = vertices[v].weight
            cand = bu if bu >= w else w
            bv = best[v]
            if bv is None or cand < bv or (
                    cand == bv and uid < vertices[pred[v]].sort_id):
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
    """Exact optimum cover by weighted intervals for either objective."""
    prep = prepare_instance(points, intervals)
    dag = build_dag(prep, mode)
    res = bottleneck_path(dag)
    if res is None:
        raise Infeasible("some point lies in no interval")
    path, value = res
    chosen = set()
    for vi in path:
        v = dag.vertices[vi]
        if v.kind == V1:
            chosen.add(v.q)
        elif v.kind == V2:
            chosen.add(v.q)
            chosen.add(v.r)
    return CoverSolution(sorted(prep.orig_idx[q] for q in chosen),
                         Fraction(value, prep.weight_scale))


def chosen_loads(points, chosen: Sequence[WeightedInterval]):
    """(counts, loads, W): per point (a Point or a number), the number of
    chosen intervals containing it and their weight sum times W, the lcm of
    the weight denominators.

    One sort of the points with the chosen endpoints: at equal
    coordinates left endpoints come first and right endpoints last, so
    every interval is closed.
    """
    ws, w_scale = _scaled([s.weight for s in chosen])
    events = [(as_x(p), _POINT, i) for i, p in enumerate(points)]
    for j, s in enumerate(chosen):
        events.append((s.lo, _LEFT, j))
        events.append((s.hi, _RIGHT, j))
    events.sort()
    counts = [0] * len(points)
    loads = [0] * len(points)
    count = load = 0
    for _, cls, k in events:
        if cls == _LEFT:
            count += 1
            load += ws[k]
        elif cls == _RIGHT:
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


def count_overlapping_pairs(intervals) -> int:
    """Number of closed-overlap pairs (edges of the interval graph)."""
    events = []
    for i, s in enumerate(intervals):
        events.append((s.lo, EventClass.LEFT_SIDE, 0, i))
        events.append((s.hi, EventClass.RIGHT_SIDE, 0, i))
    events.sort()
    active = 0
    total = 0
    for _, cls, _, _ in events:
        if cls == EventClass.LEFT_SIDE:
            total += active
            active += 1
        else:
            active -= 1
    return total
