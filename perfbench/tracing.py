"""Outside-in tracing: spans and counts around plycover's public functions.

Each function is wrapped at the name its caller looks up (`slabs` and
`cli` bind names with `from ... import`, so `slabs.ply_rects` is wrapped,
not `geom.ply_rects`).  Open spans form a stack, each linked to the span
that called it, so a layer's self time is its duration minus the time of
the spans it caused.  Nothing inside the package changes, and the wrappers
come off again after the traced pass.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

from plycover import (cli, disks, instances, intervals, rects, slabs,
                      stripdag, tricolor)

# (module, attribute, span name): every caller-side binding of a layer
SPANS = [
    (cli, "main", "cli.overhead"),
    (instances, "load", "instances.load"),
    (cli, "solve_mpc", "solve.self"),
    (cli, "solve_3color", "solve.self"),
    (cli, "solve_intervals", "solve.self"),
    (slabs, "membership_at", "slabs.precheck"),
    (tricolor, "membership_at", "slabs.precheck"),
    (slabs, "ply_rects", "slabs.ply_cap"),
    (slabs, "ply_disks", "slabs.ply_cap"),
    (tricolor, "ply_disks", "slabs.ply_cap"),
    (slabs, "assign_slabs", "slabs.assign"),
    (tricolor, "assign_slabs", "slabs.assign"),
    (disks, "canonical_rotation", "disks.rotation"),
    (disks, "rotate_instance", "disks.rotation"),
    (tricolor, "canonical_rotation", "disks.rotation"),
    (tricolor, "rotate_instance", "disks.rotation"),
    (rects, "solve_slab_rects", "stripdag.build"),
    (disks, "solve_slab_disks", "stripdag.build"),
    (rects, "search", "stripdag.search"),
    (disks, "search", "stripdag.search"),
    (rects, "rect_depth_within", "geom.depth_within"),
    (disks, "disk_depth_within", "geom.depth_within"),
    (rects, "ply_rects", "geom.ply_full"),
    (disks, "ply_disks", "geom.ply_full"),
    (tricolor, "solve_slab_3color", "tricolor.search"),
    (intervals, "prepare_instance", "intervals.prepare"),
    (intervals, "build_dag", "intervals.build_dag"),
    (intervals, "bottleneck_path", "intervals.bottleneck"),
]


class Tracer:
    """Self time per span name and the layer counters; install() wraps,
    uninstall() restores."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.maxima = defaultdict(float)
        self._stack = []               # open spans: [child seconds]
        self._saved = []
        self._strip_problem = None
        self._strip_states = Counter()

    def _span(self, name, fn, on_call=None, on_result=None):
        stack = self._stack

        def wrapped(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0]
            stack.append(frame)
            if on_call is not None:
                on_call(*args, **kwargs)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.self_s[name] += dt - frame[0]
                if parent is not None:
                    parent[0] += dt
            if on_result is not None:
                on_result(result)
            return result
        return wrapped

    def _slab_solve(self, points, objects, ell, *rest):
        self.counts["slabs.slab_solves"] += 1
        self.maxima["slabs.ell_max"] = max(self.maxima["slabs.ell_max"], ell)

    def _tricolor_solve(self, *args, **kwargs):
        self.counts["tricolor.slab_solves"] += 1

    def _depth_within(self, *args, **kwargs):
        self.counts["stripdag.plycache_misses"] += 1

    def _dag(self, dag):
        v = len(dag.vertices)
        self.counts["intervals.dag_vertices"] += v
        self.counts["intervals.dag_edges"] += sum(len(a) for a in dag.adj)
        self.counts["intervals.overlaps_M"] += dag.n_overlaps
        bound = 4 * dag.n_intervals + 5 * dag.n_overlaps + 2
        self.maxima["intervals.dag_over_bound"] = max(
            self.maxima["intervals.dag_over_bound"], v / bound)

    def _wrap_successors(self, fn):
        def wrapped(problem, state):
            if problem is not self._strip_problem:
                self._strip_problem = problem
                self._strip_states.clear()
            self._strip_states[state.strip] += 1
            self.counts["stripdag.states"] += 1
            self.maxima["stripdag.states_per_strip_max"] = max(
                self.maxima["stripdag.states_per_strip_max"],
                self._strip_states[state.strip])
            self.maxima["stripdag.width_over_cap_max"] = max(
                self.maxima["stripdag.width_over_cap_max"],
                len(state.members) / problem.cap)
            return fn(problem, state)
        return wrapped

    def _wrap_with_added(self, fn):
        def wrapped(cache, members, q):
            self.counts["stripdag.plycache_calls"] += 1
            return fn(cache, members, q)
        return wrapped

    def install(self):
        hooks = {"solve_slab_rects": (self._slab_solve, None),
                 "solve_slab_disks": (self._slab_solve, None),
                 "solve_slab_3color": (self._tricolor_solve, None),
                 "rect_depth_within": (self._depth_within, None),
                 "disk_depth_within": (self._depth_within, None),
                 "build_dag": (None, self._dag)}
        wraps = [(mod, attr, self._span(name, getattr(mod, attr),
                                        *hooks.get(attr, (None, None))))
                 for mod, attr, name in SPANS]
        wraps.append((stripdag, "successors",
                      self._wrap_successors(stripdag.successors)))
        wraps.append((stripdag.PlyCache, "with_added",
                      self._wrap_with_added(stripdag.PlyCache.with_added)))
        for obj, attr, wrapper in wraps:
            self._saved.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, wrapper)

    def uninstall(self):
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    def metrics(self):
        """Per-layer values: self seconds under `<span>_s`, plus counts."""
        out = {name + "_s": s for name, s in self.self_s.items()}
        out.update(self.counts)
        out.update(self.maxima)
        calls = self.counts["stripdag.plycache_calls"]
        out["stripdag.plycache_miss_ratio"] = (
            self.counts["stripdag.plycache_misses"] / calls if calls else 0.0)
        return out
