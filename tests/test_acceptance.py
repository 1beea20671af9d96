"""End-to-end acceptance suite.

Each test prints one PASS line on success; a failed assertion marks the
criterion failed.  Heavier fuzz corpora shared between criteria are built
once and cached at module level.
"""
import gc
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from conftest import (covers, greedy_trap_instance, k4_clique,
                      ply3_not_3colorable, slab_points)
from dag_reference import build_dag
from depth_reference import grid_depth_disks

import plycover
from plycover.cli import main
from plycover.disks import (dedupe_disks, disk_slab_problem, disk_spans,
                            solve_slab_disks)
from plycover.errors import Infeasible
from plycover.geom import (LEFT, Point, UnitDisk, disks_disjoint,
                           ply_disks, ply_rects, sweep_events)
from plycover.instances import Instance, generate, save
from plycover.intervals import prepare_instance, solve_intervals
from plycover.oracle import (exact_3color_cover, exact_intervals,
                             exact_min_ply)
from plycover.rects import rect_slab_problem, rect_spans, solve_slab_rects
from plycover.slabs import assign_slabs, solve_mpc
from plycover.tricolor import solve_3color

def _report(num, desc):
    print("\nACCEPTANCE %d: PASS - %s" % (num, desc))


# ---------------------------------------------------------------- corpora

_cache = {}


def _rect_corpus():
    if "rects" not in _cache:
        rng = random.Random(0xACCE)
        out = []
        for seed in range(200):
            n = rng.randint(1, 20)
            m = rng.randint(1, 12)
            dist = "uniform" if seed % 2 else "clustered"
            out.append(generate("rects", n, m, dist, seed=seed))
        _cache["rects"] = out
    return _cache["rects"]


def _disk_corpus():
    if "disks" not in _cache:
        rng = random.Random(0xD15C)
        out = []
        for seed in range(200):
            n = rng.randint(1, 20)
            m = rng.randint(1, 10)
            dist = "uniform" if seed % 2 else "clustered"
            out.append(generate("disks", n, m, dist, seed=seed + 3000))
        _cache["disks"] = out
    return _cache["disks"]


def _rect_results():
    if "rect_results" not in _cache:
        out = []
        for inst in _rect_corpus():
            opt, wit = exact_min_ply(inst.points, inst.objects, "rects")
            out.append((inst, opt, wit))
        _cache["rect_results"] = out
    return _cache["rect_results"]


def _disk_results():
    if "disk_results" not in _cache:
        out = []
        for inst in _disk_corpus():
            opt, wit = exact_min_ply(inst.points, inst.objects, "disks")
            out.append((inst, opt, wit))
        _cache["disk_results"] = out
    return _cache["disk_results"]


def _strip_capacity_ok(events, witness, cap):
    left, right = {}, {}
    for pos, e in enumerate(events):
        (left if e[1] == LEFT else right)[e[3]] = pos
    for i in range(len(events) + 1):
        if sum(1 for o in witness if left[o] < i <= right[o]) > cap:
            return False
    return True


# --------------------------------------------------------------- criteria

def test_criterion_1_fixture_regression(tmp_path):
    points, intervals = greedy_trap_instance()
    inst = tmp_path / "trap.jsonl"
    sol = tmp_path / "sol.json"
    save(Instance("intervals", points, intervals), inst)
    assert main(["solve", "--kind", "intervals", "--mode", "mmsc",
                 "--in", str(inst), "--out", str(sol)]) == 0
    data = json.loads(sol.read_text())
    assert data["objective"] == "3"
    assert data["chosen"] == [0, 2, 3]
    best = min(_timed_solve(points, intervals) for _ in range(3))
    assert best < 0.010, "solve took %.4fs" % best
    _report(1, "regression instance: objective 3, chosen {0,2,3}, "
               "%.2f ms" % (best * 1000))


def _timed_solve(points, intervals):
    t0 = time.perf_counter()
    solve_intervals(points, intervals, "mmsc")
    return time.perf_counter() - t0


@dataclass(frozen=True)
class _RefPoint:
    x: Fraction
    y: Fraction


def _reference_seconds():
    """Fastest of three runs of a fixed loop like the solvers' inner loops
    (the benchmark's calibration loop): rational points built, sorted and
    swept.  It measures how fast the CPU runs right now."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        pts = [_RefPoint(Fraction(i * 37 % 101, 8), Fraction(i * 53 % 97, 8))
               for i in range(110)]
        pts.sort(key=lambda p: (p.x, p.y))
        acc = Fraction(0)
        for a, b in zip(pts, pts[1:]):
            if a.x <= b.x and a.y <= b.y + 1:
                acc += b.x - a.x
        best = min(best, time.perf_counter() - t0)
    return best


def _scaled_solve(points, intervals):
    """Solve time over the reference loop's time around it: a shared CPU
    that runs slower for seconds at a time slows both alike."""
    before = _reference_seconds()
    t = _timed_solve(points, intervals)
    return 2 * t / (before + _reference_seconds())


def test_criterion_2_interval_exactness():
    rng = random.Random(0x1D1)
    t0 = time.perf_counter()
    checked = 0
    for seed in range(500):
        n = rng.randint(0, 25)
        m = rng.randint(1, 12)
        dist = ("uniform", "clustered", "chain")[seed % 3]
        inst = generate("intervals", n, m, dist, seed=seed + 7000)
        for mode in ("mmsc", "mpc"):
            sol = solve_intervals(inst.points, inst.objects, mode)
            opt, _ = exact_intervals(inst.points, inst.objects, mode)
            assert sol.objective == opt, (seed, mode)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _report(2, "500 instances x 2 modes match the oracle exactly "
               "(%d checks, %.1f s)" % (checked, elapsed))


def test_criterion_3_rect_approximation():
    for inst, opt, _ in _rect_results():
        sol = solve_mpc(inst.points, inst.objects, "rects")
        chosen = [inst.objects[i] for i in sol.chosen]
        assert covers(inst.points, chosen)
        assert sol.objective == ply_rects(chosen)
        assert sol.objective <= 2 * opt
        for slab in assign_slabs(inst.points, inst.objects, "rects"):
            pts = slab_points(inst.points, slab)
            objs = [inst.objects[i] for i in slab.objects]
            slab_opt, _ = exact_min_ply(pts, objs, "rects")
            assert solve_slab_rects(pts, objs, slab_opt, rect_slab_problem(
                pts, objs)) is not None
    _report(3, "200 rectangle instances: verified cover, ply <= 2*OPT, "
               "per-slab completeness at the slab optimum")


def test_criterion_4_disk_approximation():
    for inst, opt, _ in _disk_results():
        sol = solve_mpc(inst.points, inst.objects, "disks")
        chosen = [inst.objects[i] for i in sol.chosen]
        assert covers(inst.points, chosen)
        assert sol.objective == ply_disks(chosen)
        assert grid_depth_disks(chosen, pitch=0.01) <= sol.objective
        assert sol.objective <= 2 * opt
        uniq, _ = dedupe_disks(inst.objects)
        for slab in assign_slabs(inst.points, uniq, "disks"):
            pts = slab_points(inst.points, slab)
            objs = [uniq[i] for i in slab.objects]
            slab_opt, _ = exact_min_ply(pts, objs, "disks")
            assert solve_slab_disks(pts, objs, slab_opt, disk_slab_problem(
                pts, objs)) is not None
    _report(4, "200 disk instances: verified cover, ply <= 2*OPT, grid "
               "sampler never exceeds the candidate-point ply")


def test_criterion_5_strip_capacity_bounds():
    violations = 0
    for inst, opt, wit in _rect_results():
        for slab in assign_slabs(inst.points, inst.objects, "rects"):
            local = {g: l for l, g in enumerate(slab.objects)}
            events = sweep_events(rect_spans([inst.objects[i]
                                              for i in slab.objects]))
            witness = {local[g] for g in wit if g in local}
            if not _strip_capacity_ok(events, witness, 3 * opt):
                violations += 1
    for inst, opt, wit in _disk_results():
        uniq, orig = dedupe_disks(inst.objects)
        back = {orig[u]: u for u in range(len(uniq))}
        for slab in assign_slabs(inst.points, uniq, "disks"):
            local = {g: l for l, g in enumerate(slab.objects)}
            events = sweep_events(disk_spans([uniq[i] for i in slab.objects]))
            witness = {local[back[g]] for g in wit
                       if back.get(g) in local}
            if not _strip_capacity_ok(events, witness, 8 * opt):
                violations += 1
    assert violations == 0
    _report(5, "0 strip-capacity violations: <= 3*ell rectangles and "
               "<= 8*ell disks cross any strip of an optimal solution")


def _band_3color_instance(seed):
    """Single-band fuzz instance; every third seed embeds a jittered
    4-clique gadget with private points, which usually defeats any
    3-coloring."""
    if seed % 3:
        rng = random.Random(seed)
        inst = generate("disks", rng.randint(1, 12), rng.randint(1, 8),
                        "slab-stress", seed=seed)
        return inst.points, inst.objects
    import math
    rng = random.Random(seed)
    for _ in range(50):
        gx = rng.uniform(0.0, 1.0)
        s = rng.uniform(0.52, 0.6)
        theta = rng.uniform(0.0, math.pi / 2)
        reach = rng.uniform(0.40, 0.46)
        centers, privates = [], []
        for qx, qy in ((-1, -1), (1, -1), (-1, 1), (1, 1)):
            ang = theta + math.atan2(qy, qx)
            half = s * math.sqrt(2) / 2
            jx = rng.uniform(-0.03, 0.03)
            jy = rng.uniform(-0.03, 0.03)
            cx = gx + half * math.cos(ang) + jx
            cy = 1.0 + half * math.sin(ang) + jy
            centers.append(Point(round(cx, 4), round(cy, 4)))
            norm = math.hypot(cx - gx, cy - 1.0)
            privates.append(Point(
                round(cx + (cx - gx) / norm * reach, 6),
                round(cy + (cy - 1.0) / norm * reach, 6)))
        disks = [UnitDisk(c) for c in centers]
        pattern = [[j for j, d in enumerate(disks) if d.contains(p)]
                   for p in privates]
        if pattern == [[0], [1], [2], [3]]:
            disks.append(UnitDisk(Point(round(gx + 3.0, 4), 1.0)))
            privates.append(Point(round(gx + 3.0, 6), 1.0))
            return privates, disks
    raise AssertionError("gadget generation failed for seed %d" % seed)


def test_criterion_6_three_color():
    points, disks = k4_clique()
    assert exact_3color_cover(points, disks) is None
    with pytest.raises(Infeasible):
        solve_3color(points, disks)
    points, disks = ply3_not_3colorable()
    assert exact_min_ply(points, disks, "disks")[0] == 3
    assert exact_3color_cover(points, disks) is None
    with pytest.raises(Infeasible):
        solve_3color(points, disks)

    feasible = infeasible = 0
    for seed in range(100):
        pts, dks = _band_3color_instance(seed + 4000)
        witness = exact_3color_cover(pts, dks)
        try:
            sol = solve_3color(pts, dks)
        except Infeasible:
            sol = None
        assert (sol is None) == (witness is None), seed
        if sol is None:
            infeasible += 1
            continue
        feasible += 1
        assert sorted(sol.colors) == sol.chosen
        classes = {}
        for i, c in sol.colors.items():
            assert 1 <= c <= 6
            classes.setdefault(c, []).append(i)
        assert len(classes) <= 6
        for members in classes.values():
            for a, b in itertools.combinations(members, 2):
                assert disks_disjoint(dks[a], dks[b])
        assert covers(pts, [dks[i] for i in sol.chosen])
    assert feasible and infeasible, "need both sides of the iff exercised"
    _report(6, "3-color feasibility matches the oracle on 100 single-band "
               "instances (%d feasible / %d infeasible) plus both fixed "
               "witnesses; all classes pairwise disjoint" % (feasible,
                                                             infeasible))


def test_criterion_7_dag_size_bound():
    rng = random.Random(0xDA6)
    worst = 0.0
    for seed in range(200):
        inst = generate("intervals", rng.randint(0, 25), rng.randint(1, 12),
                        ("uniform", "clustered", "chain")[seed % 3],
                        seed=seed + 5000)
        prep = prepare_instance(inst.points, inst.objects)
        for mode in ("mmsc", "mpc"):
            dag = build_dag(prep, mode)
            bound = 4 * dag.n_intervals + 5 * dag.n_overlaps + 2
            assert len(dag.vertices) <= bound, seed
            worst = max(worst, len(dag.vertices) / bound)
    _report(7, "vertex count <= 4m + 5M + 2 on 200 instances x 2 modes "
               "(tightest ratio %.2f)" % worst)


def test_criterion_8_scalability():
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        warm = generate("intervals", 512, 512, "chain", seed=77)
        solve_intervals(warm.points, warm.objects, "mmsc")
        # each size's time is the minimum of 5 repeats, taken round-robin
        # across the sizes, so neither one preempted run nor a slow spell
        # of a few seconds can fake a superlinear doubling step, and each
        # repeat is rescaled by the reference loop timed beside it, so a
        # slower CPU state during the larger sizes cannot either
        insts = [generate("intervals", 2 ** e, 2 ** e, "chain", seed=77)
                 for e in range(10, 17)]
        times = [float("inf")] * len(insts)
        for _ in range(5):
            for k, inst in enumerate(insts):
                times[k] = min(times[k],
                               _scaled_solve(inst.points, inst.objects))
        sizes = []  # DAG vertices + edges: the same doubling, without a clock
        for inst in insts:
            dag = build_dag(prepare_instance(inst.points, inst.objects))
            sizes.append(len(dag.vertices) + sum(map(len, dag.adj)))
        ratios = [b / a for a, b in zip(times, times[1:])]
        # each size's minimum scaled time, so a failure shows which step
        # doubled too slowly and whether one size alone missed its fast runs
        assert all(r < 3.0 for r in ratios), (
            "doubling ratios %s; minimum scaled time per m %s"
            % (["%.2f" % r for r in ratios],
               ["%d: %.2f" % (len(inst.objects), t)
                for inst, t in zip(insts, times)]))
        growth = [b / a for a, b in zip(sizes, sizes[1:])]
        assert all(g <= 2.1 for g in growth), growth
    finally:
        if gc_was_enabled:
            gc.enable()

    stress = generate("rects", 100, 200, "slab-stress", seed=7)
    t0 = time.perf_counter()
    sol = solve_mpc(stress.points, stress.objects, "rects")
    rect_time = time.perf_counter() - t0
    assert rect_time < 5.0
    assert sol.objective <= 2  # OPT = 1 by construction
    assert covers(stress.points, [stress.objects[i] for i in sol.chosen])
    _report(8, "chain doubling ratios %s all < 3, DAG size ratios %s all "
               "<= 2.1; m=200 single-band rectangles solved in %.2f s" %
               (["%.2f" % r for r in ratios], ["%.3f" % g for g in growth],
                rect_time))


def test_criterion_9_determinism(tmp_path):
    configs = [
        ("rects", "rects", "uniform", 11),
        ("disks", "disks", "uniform", 12),
        ("3color", "disks", "uniform", 0),
        ("intervals", "intervals", "uniform", 13),
    ]
    for solve_kind, gen_kind, dist, seed in configs:
        files = {}
        for run in ("a", "b"):
            inst = tmp_path / ("%s_%s.jsonl" % (solve_kind, run))
            sol = tmp_path / ("%s_%s.sol" % (solve_kind, run))
            svg = tmp_path / ("%s_%s.svg" % (solve_kind, run))
            assert main(["gen", "--kind", gen_kind, "-n", "6", "-m", "6",
                         "--dist", dist, "--seed", str(seed),
                         "--out", str(inst)]) == 0
            args = ["solve", "--kind", solve_kind, "--in", str(inst),
                    "--out", str(sol)]
            if solve_kind == "intervals":
                args += ["--mode", "mmsc"]
            assert main(args) == 0
            assert main(["render", "--in", str(inst), "--solution", str(sol),
                         "--out", str(svg)]) == 0
            files[run] = (inst.read_bytes(), sol.read_bytes(),
                          svg.read_bytes())
        assert files["a"] == files["b"], solve_kind
    _report(9, "byte-identical instance, solution, and SVG files across "
               "repeated runs for every kind")


def test_criterion_9_determinism_across_processes(tmp_path):
    # the strip search keeps the first path to each state, so outputs rest
    # on dict insertion order; no set or str-hash order may leak into them
    src = os.path.dirname(os.path.dirname(plycover.__file__))
    configs = [
        ("rects", "rects", "clustered", 21),
        ("disks", "disks", "clustered", 22),
        ("3color", "disks", "uniform", 23),
        ("intervals", "intervals", "clustered", 24),
    ]
    for solve_kind, gen_kind, dist, seed in configs:
        inst = tmp_path / ("%s.jsonl" % solve_kind)
        assert main(["gen", "--kind", gen_kind, "-n", "40", "-m", "24",
                     "--dist", dist, "--seed", str(seed),
                     "--out", str(inst)]) == 0
        outs = []
        for hash_seed in ("1", "2"):
            sol = tmp_path / ("%s_%s.sol" % (solve_kind, hash_seed))
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
            assert subprocess.run(
                [sys.executable, "-m", "plycover.cli", "solve", "--kind",
                 solve_kind, "--in", str(inst), "--out", str(sol)],
                env=env, timeout=120).returncode == 0, solve_kind
            outs.append(sol.read_bytes())
        assert outs[0] == outs[1], solve_kind
    _report(9, "byte-identical solutions from two processes with different "
               "PYTHONHASHSEED for every kind")
