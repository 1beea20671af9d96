"""The bitmask strip engine against the tuple engine it replaced
(`strip_reference`): the same covers, classes and failures on seeded fuzz,
and the disk arrangement against `disk_depth_within`.  Each slab's result
is inclusion-minimal.  A slab's problem built once and searched at every
budget of its ladder gives what a fresh build at each budget gives."""
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

import strip_reference as ref
from conftest import forced_pair_disks, nudged

from plycover import disks as disks_mod
from plycover import stripdag
from plycover.disks import (DiskArrangement, dedupe_disks, disk_slab_problem,
                            disk_spans, solve_slab_disks)
from plycover.errors import Infeasible
from plycover.geom import (Point, UnitDisk, UnitRect,
                           disk_depth_within, disks_disjoint, ply_disks)
from plycover.instances import generate
from plycover.rects import rect_slab_problem, rect_spans, solve_slab_rects
from plycover.slabs import assign_slabs, live_objects, solve_mpc
from plycover.stripdag import bits
from plycover.tricolor import solve_3color, solve_slab_3color


def _slabs(points, objects, kind):
    for slab in assign_slabs(points, objects, kind):
        yield slab.points, [objects[i] for i in slab.objects]


def _rect_instances(seed):
    rng = random.Random(seed)
    if seed % 3:
        inst = generate("rects", rng.randint(1, 12), rng.randint(1, 12),
                        ("uniform", "clustered", "slab-stress")[seed % 3],
                        seed=seed)
        return inst.points, inst.objects
    # coarse grid: shared and abutting sides, points on corners and edges
    rects = [UnitRect(F(rng.randint(0, 8), 2), F(rng.randint(0, 4), 2),
                      F(rng.randint(1, 4), 2))
             for _ in range(rng.randint(1, 10))]
    points = []
    for _ in range(rng.randint(1, 12)):
        r = rng.choice(rects)
        points.append(Point(r.left + r.width * F(rng.randint(0, 2), 2),
                            r.bottom + F(rng.randint(0, 2), 2)))
    return points, rects


def _disk_instances(seed):
    rng = random.Random(seed)
    if seed % 2:
        inst = generate("disks", rng.randint(1, 12), rng.randint(1, 12),
                        ("uniform", "clustered", "slab-stress")[seed % 3],
                        seed=seed)
        return inst.points, inst.objects
    # half-integer grid: equal extrema, touching disks, points at centres
    disks = list({UnitDisk(Point(rng.randint(0, 8) / 2, rng.randint(0, 3) / 2))
                  for _ in range(rng.randint(1, 10))})
    disks.sort(key=lambda d: (d.center.x, d.center.y))
    rng.shuffle(disks)
    points = [rng.choice(disks).center for _ in range(rng.randint(1, 6))]
    for _ in range(rng.randint(0, 6)):
        c = rng.choice(disks).center
        a = rng.uniform(0, 2 * math.pi)
        points.append(Point(c.x + 0.4 * math.cos(a), c.y + 0.4 * math.sin(a)))
    return points, disks


def _near_touching_instances(seed):
    """Pairs of disks one unit apart along an axis, one centre then moved
    by -1, 0 or 1 ulp, with a point beyond each far side and sometimes one
    between them: the disks of a pair overlap, touch or miss by an ulp."""
    rng = random.Random(seed)
    disks, points = [], []
    for _ in range(rng.randint(1, 3)):
        ulps = rng.choice((-1, 0, 1))
        ux, uy = rng.choice(((1.0, 0.0), (0.0, 1.0)))
        ox, oy = rng.randint(0, 20) / 4, rng.randint(0, 4) / 4
        far = UnitDisk(Point(nudged(ox + ux, ulps), oy + uy))
        disks += [UnitDisk(Point(ox, oy)), far]
        for s in (-0.45, 1.45) + ((0.5,) if rng.random() < 0.5 else ()):
            points.append(Point(ox + s * ux, oy + s * uy))
    return points, disks


def _private_point_instances(seed):
    """Disks in a small box, each with a point no other disk contains if
    one is found: every such disk must be chosen, and 3-color fails iff
    their conflict graph is not 3-colorable."""
    rng = random.Random(seed)
    disks = [UnitDisk(Point(rng.uniform(0, 1.6), rng.uniform(0, 1.2)))
             for _ in range(rng.randint(4, 9))]
    points = []
    for d in disks:
        for _ in range(30):
            a = rng.uniform(0, 2 * math.pi)
            r = 0.5 * math.sqrt(rng.uniform(0.6, 1))
            p = Point(d.center.x + r * math.cos(a),
                      d.center.y + r * math.sin(a))
            if sum(e.contains(p) for e in disks) == 1:
                points.append(p)
                break
    return points or [disks[0].center], disks


class TestAgainstTupleEngine:
    def test_rects(self):
        solved = failed = 0
        for seed in range(150):
            for pts, objs in _slabs(*_rect_instances(seed), "rects"):
                assert (rect_slab_problem(pts, objs).events
                        == ref.rect_events(objs)), seed
                for ell in (1, 2, 3):
                    got = solve_slab_rects(pts, objs, ell)
                    assert got == ref.solve_slab_rects(pts, objs, ell), seed
                    solved += got is not None
                    failed += got is None
        assert solved > 100 and failed > 30

    def test_disks(self):
        solved = failed = 0
        for seed in range(150):
            make = (_private_point_instances if seed % 3 == 0
                    else _disk_instances)
            for pts, objs in _slabs(*make(seed), "disks"):
                assert (disk_slab_problem(pts, objs).events
                        == ref.disk_events(objs)), seed
                for ell in (1, 2, 3):
                    got = solve_slab_disks(pts, objs, ell)
                    assert got == ref.solve_slab_disks(pts, objs, ell), seed
                    solved += got is not None
                    failed += got is None
        assert solved > 100 and failed > 50

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_centre_in_lens_of_a_pair(self, ulps):
        # disks 0 and 1 are one unit apart, moved by ulps, with equal
        # x-extrema, and disk 2's centre lies where they touch: the three
        # disks share that centre, so a budget of 2 fails, unless disks 0
        # and 1 miss each other by an ulp and disk 2's centre with them
        disks = [UnitDisk(Point(0.0, 0.0)),
                 UnitDisk(Point(0.0, nudged(1.0, ulps))),
                 UnitDisk(Point(0.0, 0.5))]
        points = [Point(0.0, -0.45), Point(0.0, 1.45), Point(0.45, 0.5)]
        assert ply_disks(disks) == (2 if ulps > 0 else 3)
        for ell in (1, 2, 3):
            got = solve_slab_disks(points, disks, ell)
            assert got == ref.solve_slab_disks(points, disks, ell)
            assert got == (None if ell < ply_disks(disks) else [0, 1, 2])

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_touching_pair_shares_a_strip(self, ulps):
        # the right extremum of disk 0 and the left one of disk 1 are one
        # float apart or equal, and lefts sort first: disks that touch or
        # overlap are both members of one strip, so ply 1 fails and 3-color
        # puts them in two classes; disks an ulp apart take one class
        disks = [UnitDisk(Point(0.0, 0.0)),
                 UnitDisk(Point(nudged(1.0, ulps), 0.0))]
        points = [Point(-0.45, 0.0), Point(1.45, 0.0)]
        if ulps > 0:
            assert disks_disjoint(*disks) and ply_disks(disks) == 1
            assert solve_slab_disks(points, disks, 1) == [0, 1]
            assert solve_slab_3color(points, disks) == ((0, 1), (), ())
            return
        assert not disks_disjoint(*disks) and ply_disks(disks) == 2
        assert solve_slab_disks(points, disks, 1) is None
        assert solve_slab_disks(points, disks, 2) == [0, 1]
        assert solve_slab_3color(points, disks) == ((1,), (0,), ())

    def test_3color(self):
        solved = failed = 0
        for seed in range(200):
            make = _private_point_instances if seed % 2 else _disk_instances
            for pts, objs in _slabs(*make(seed), "disks"):
                got = solve_slab_3color(pts, objs)
                assert got == ref.solve_slab_3color(pts, objs), seed
                solved += got is not None
                failed += got is None
        assert solved > 50 and failed > 30


def _live_slabs(kind, seed):
    """The slabs of a seeded instance as `search_slabs` searches them: each
    slab's points with its live objects only."""
    rng = random.Random(seed)
    m_hi = 24 if kind == "3color" else 40
    inst = generate("rects" if kind == "rects" else "disks",
                    rng.randint(4, 30), rng.randint(4, m_hi),
                    ("uniform", "clustered", "slab-stress")[seed % 3],
                    seed=seed)
    objects = inst.objects
    spans = (rect_spans if kind == "rects" else disk_spans)(objects)
    for slab in assign_slabs(inst.points, objects, inst.kind):
        live = live_objects(slab.points, objects, slab.objects, spans)
        yield slab.points, [objects[i] for i in live]


def _least_rung(solve, pts, objs):
    for ell in range(1, len(objs) + 1):
        got = solve(pts, objs, ell)
        if got is not None:
            return got
    return None


class TestInclusionMinimal:
    """Each slab's result loses coverage of some slab point when any one
    chosen object is dropped: `run` keeps the least decision path."""

    @pytest.mark.parametrize("kind", ["rects", "disks", "3color"])
    def test_no_chosen_object_can_go(self, kind):
        chosen_total = 0
        for seed in range(120):
            for pts, objs in _live_slabs(kind, seed):
                if kind == "3color":
                    got = solve_slab_3color(pts, objs)
                    got = got and [i for cls in got for i in cls]
                else:
                    solve = (solve_slab_rects if kind == "rects"
                             else solve_slab_disks)
                    got = _least_rung(solve, pts, objs)
                for q in got or ():
                    rest = [objs[i] for i in got if i != q]
                    assert not all(any(o.contains(p) for o in rest)
                                   for p in pts), (seed, q)
                chosen_total += len(got or ())
        assert chosen_total > 300


def test_bits():
    assert bits(0) == [] and bits(0b1011) == [0, 1, 3]
    assert bits(1 << 200 | 4) == [2, 200]


def _assert_depths_agree(disks):
    arrangement = DiskArrangement(disks)
    m = len(disks)
    for mask in range(1, 1 << m):
        members = bits(mask)
        for q in members:
            assert (arrangement.depth_within(mask, q)
                    == disk_depth_within([disks[i] for i in members],
                                         disks[q])), (mask, q)


class TestDiskArrangement:
    # centres one unit apart along an axis or a diagonal, moved by -1, 0 or
    # 1 ulp: overlapping, tangent (on the axes) or apart
    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    @pytest.mark.parametrize("direction", [(1.0, 0.0), (0.0, 1.0),
                                           (math.cos(math.pi / 4),
                                            math.sin(math.pi / 4))])
    def test_near_tangent_pairs(self, ulps, direction):
        ux, uy = direction
        ox, oy = 0.25, -1.5
        disks = [UnitDisk(Point(ox, oy)),
                 UnitDisk(Point(nudged(ox + ux, ulps), oy + uy)),
                 UnitDisk(Point(ox + ux / 2, oy + uy / 2)),
                 UnitDisk(Point(ox + ux / 2 - uy, oy + uy / 2 + ux))]
        _assert_depths_agree(disks)
        _assert_depths_agree(disks[::-1])

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_seeded_fuzz(self, ulps):
        # every fifth set repeats its first disk, every third set also
        # holds a copy of it one unit away, moved by ulps
        for seed in range(60):
            rng = random.Random(seed)
            if seed % 2:
                def coord():
                    return rng.randint(0, 8) / 4
            else:
                def coord():
                    return rng.uniform(0.0, 2.5)
            disks = [UnitDisk(Point(coord(), coord()))
                     for _ in range(rng.randint(1, 7))]
            if seed % 5 == 0:
                disks.append(disks[0])
            if seed % 3 == 0 and len(disks) < 8:
                c = disks[0].center
                disks.append(UnitDisk(Point(nudged(c.x + 1.0, ulps), c.y)))
            _assert_depths_agree(disks)


def _ladder(pts, objs, build, solve):
    """Results at ell = 1..3 on one problem built once, checked against a
    fresh build at each ell and against a second pass."""
    problem = build(pts, objs)
    got = [solve(pts, objs, ell, problem) for ell in (1, 2, 3)]
    assert got == [solve(pts, objs, ell) for ell in (1, 2, 3)]
    assert [solve(pts, objs, ell, problem) for ell in (3, 1, 2)] == [
        got[2], got[0], got[1]]
    return got


class TestLadderReuse:
    def test_rects(self):
        climbed = 0
        for seed in range(150):
            for pts, objs in _slabs(*_rect_instances(seed), "rects"):
                got = _ladder(pts, objs, rect_slab_problem, solve_slab_rects)
                climbed += got[0] is None and got[2] is not None
        assert climbed > 10

    def test_disks(self):
        climbed = 0
        for seed in range(150):
            make = (_near_touching_instances, _disk_instances,
                    _private_point_instances)[seed % 3]
            for pts, objs in _slabs(*make(seed), "disks"):
                got = _ladder(pts, objs, disk_slab_problem, solve_slab_disks)
                climbed += got[0] is None and got[2] is not None
        assert climbed > 20

    def test_one_arrangement_and_one_event_sort_per_slab(self, monkeypatch):
        # two slabs, each needing ell = 2; `stripdag.side_events` makes the
        # one sort of a problem's events
        calls = Counter()

        def counted(mod, name):
            fn = getattr(mod, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(mod, name, wrapped)
        for mod, name in ((disks_mod, "DiskArrangement"),
                          (stripdag, "side_events"),
                          (disks_mod, "solve_slab_disks")):
            counted(mod, name)
        pts, dks = forced_pair_disks()
        points = pts + [Point(p.x + 5, p.y + 10) for p in pts]
        disks = dks + [UnitDisk(Point(d.center.x + 5, d.center.y + 10))
                       for d in dks]
        assert len(assign_slabs(points, disks, "disks")) == 2
        assert solve_mpc(points, disks, "disks").chosen == [0, 1, 2, 3]
        assert calls == {"DiskArrangement": 2, "side_events": 2,
                         "solve_slab_disks": 4}

    def test_arrangement_is_listed_only_when_queried(self, monkeypatch):
        # 3-color searches the disk problem but never asks its depth
        # oracle, so it lists no arrangement; a ply search lists at most
        # one per slab
        calls = []
        real = disks_mod.disk_candidates

        def counted(disks):
            calls.append(len(disks))
            return real(disks)
        monkeypatch.setattr(disks_mod, "disk_candidates", counted)
        rng = random.Random(0x1A2)
        listed = 0
        for seed in range(30):
            inst = generate("disks", rng.randint(4, 30), rng.randint(4, 24),
                            ("uniform", "clustered", "slab-stress")[seed % 3],
                            seed=seed)
            try:
                solve_3color(inst.points, inst.objects)
            except Infeasible:
                pass
            assert calls == [], seed
            uniq, _ = dedupe_disks(inst.objects)
            slabs = assign_slabs(inst.points, uniq, "disks")
            solve_mpc(inst.points, inst.objects, "disks")
            assert len(calls) <= len(slabs), seed
            listed += len(calls)
            calls.clear()
        assert listed > 10

    def test_uncovered_flag(self):
        disks = [UnitDisk(Point(0.0, 0.5)), UnitDisk(Point(2.0, 0.5))]
        inside, left, gap, outside = (Point(0.1, 0.5), Point(-1.0, 0.5),
                                      Point(1.0, 0.5), Point(0.0, 1.2))
        assert disk_slab_problem([inside], disks).uncovered is None
        for p in (left, gap, outside):
            problem = disk_slab_problem([inside, p], disks)
            assert problem.uncovered == p
            assert solve_slab_disks([inside, p], disks, 3, problem) is None
            assert problem.at(3).uncovered and problem.at(3).cap == 24
