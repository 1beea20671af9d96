"""Tests-only strip graph of the interval solver and a bottleneck DP over it.

`build_dag` makes the vertex-weighted graph whose bottleneck path the
solver's one-sweep `intervals.bottleneck_path` walks implicitly: a vertex
is a plain `(kind, strip, q, r, weight)` tuple of kind V0, V1 or V2.  Its
`bottleneck_path` reads each weight from the vertex tuple, and a tie goes
to the predecessor with the smaller sort id (strip, kind, q, r), compared
explicitly.  The differential tests require the solver's chosen set and
value to equal this path's, and the size tests hold the graph to the
`4m + 5M + 2` vertex bound.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple, Optional

from plycover.geom import LEFT
from plycover.intervals import MODES, PreparedIntervals

V0, V1, V2 = 0, 1, 2


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



def bottleneck_path(dag):
    """(vertex index list, value) of the minimax source-to-sink path, ties
    to the predecessor with the smaller sort id, or None."""
    if dag.source is None or dag.sink is None:
        return None
    vertices = dag.vertices
    n = len(vertices)

    def sort_id(i):
        kind, strip, q, r, _ = vertices[i]
        return (strip, kind, q, r)

    best = [None] * n
    pred = [-1] * n
    best[dag.source] = vertices[dag.source][4]
    for u, nbrs in enumerate(dag.adj):
        bu = best[u]
        if bu is None:
            continue
        uid = sort_id(u)
        for v in nbrs:
            w = vertices[v][4]
            cand = bu if bu >= w else w
            bv = best[v]
            if bv is None or cand < bv or (
                    cand == bv and uid < sort_id(pred[v])):
                best[v] = cand
                pred[v] = u
    if best[dag.sink] is None:
        return None
    path = [dag.sink]
    while path[-1] != dag.source:
        path.append(pred[path[-1]])
    path.reverse()
    return path, best[dag.sink]


def solve(prep, mode="mmsc"):
    """(sorted input indices, objective) of the reference path over
    `build_dag(prep, mode)`, or None when its sink is unreachable."""
    dag = build_dag(prep, mode)
    res = bottleneck_path(dag)
    if res is None:
        return None
    path, value = res
    # a vertex's intervals are its q and r, -1 where it has none
    chosen = {i for vi in path for i in dag.vertices[vi][2:4]} - {-1}
    return (sorted(prep.orig_idx[q] for q in chosen),
            Fraction(value, prep.weight_scale))
