"""Tests-only bottleneck DP over an `intervals.IntervalDag`.

This is the loop that `intervals.bottleneck_path` replaced: it reads each
weight through its `DagVertex` and computes every reached vertex's
`sort_id` for the tie-break.  The differential tests require the
production DP to return the same path and value as this one.
"""
from __future__ import annotations


def bottleneck_path(dag):
    """(vertex index list, value) of the minimax source-to-sink path, ties
    to the predecessor with the smaller `sort_id`, or None."""
    if dag.source is None or dag.sink is None:
        return None
    vertices = dag.vertices
    n = len(vertices)
    best = [None] * n
    pred = [-1] * n
    best[dag.source] = vertices[dag.source].weight
    for u, nbrs in enumerate(dag.adj):
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
