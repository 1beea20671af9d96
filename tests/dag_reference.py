"""Tests-only bottleneck DP over an `intervals.IntervalDag`.

This is the loop that `intervals.bottleneck_path` replaced: it reads each
weight from its `(kind, strip, q, r, weight)` vertex tuple, and a tie goes
to the predecessor with the smaller sort id (strip, kind, q, r), compared
explicitly.  The
differential tests require the production DP, which keeps the first
predecessor in creation order, to return the same path and value.
"""
from __future__ import annotations


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
