"""The bitmask strip engine against the tuple engine it replaced
(`strip_reference`): the same covers, classes and failures on seeded fuzz,
the bit order rule against tuple order, and the disk arrangement against
`disk_depth_within`.  A slab's problem built once and searched at every
budget of its ladder gives what a fresh build at each budget gives."""
import itertools
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

import strip_reference as ref
from conftest import forced_pair_disks

from plycover import disks as disks_mod
from plycover.disks import DiskArrangement, disk_slab_problem, solve_slab_disks
from plycover.geom import (EPS_COVER, Point, UnitDisk, UnitRect,
                           disk_depth_within, disks_disjoint, ply_disks)
from plycover.instances import generate
from plycover.rects import rect_slab_problem, solve_slab_rects
from plycover.slabs import assign_slabs, solve_mpc
from plycover.stripdag import bits, union_lt
from plycover.tricolor import solve_slab_3color


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
    """Pairs of disks at centre distance 1 + k*EPS_COVER in random
    directions, with a point beyond each far side and sometimes one between
    them: the disks of a pair meet only within the tolerance, or not."""
    rng = random.Random(seed)
    disks, points = [], []
    for _ in range(rng.randint(1, 3)):
        d = 1.0 + rng.choice((0, 0.5, 1, 1.5, 2, 3)) * EPS_COVER
        a = rng.uniform(0, math.pi)
        ux, uy = math.cos(a), math.sin(a)
        ox, oy = rng.uniform(0, 5), rng.uniform(0, 1)
        disks += [UnitDisk(Point(ox, oy)), UnitDisk(Point(ox + d * ux,
                                                          oy + d * uy))]
        for s in (-0.45, d + 0.45) + ((d / 2,) if rng.random() < 0.5 else ()):
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
                for ell in (1, 2, 3):
                    got = solve_slab_disks(pts, objs, ell)
                    assert got == ref.solve_slab_disks(pts, objs, ell), seed
                    solved += got is not None
                    failed += got is None
        assert solved > 100 and failed > 50

    @pytest.mark.parametrize("k", [0.5, 1, 1.5, 2])
    def test_centre_in_lens_of_a_far_pair(self, k):
        # disks 0 and 1 are 1 + k*EPS_COVER apart, and disk 2's centre lies
        # within 0.5 + EPS_COVER of both: three disks share that centre, so
        # a budget of 2 fails, whether or not disks 0 and 1 meet each other
        d = 1.0 + k * EPS_COVER
        ux, uy = math.cos(0.3), math.sin(0.3)  # x-extents overlap

        def at(s, t):
            return Point(s * ux - t * uy, s * uy + t * ux)
        disks = [UnitDisk(at(0.0, 0.0)), UnitDisk(at(d, 0.0)),
                 UnitDisk(at(d / 2, 0.0))]
        points = [at(-0.45, 0.0), at(d + 0.45, 0.0), at(d / 2, 0.45)]
        for ell in (1, 2, 3):
            got = solve_slab_disks(points, disks, ell)
            assert got == ref.solve_slab_disks(points, disks, ell)
            assert got == (None if ell < 3 else [0, 1, 2])

    def test_near_touching_pair_shares_a_strip(self):
        # the disks meet only within the tolerance, beyond their exact
        # x-extents: strips cut at the widened extrema make both members of
        # one strip, so ply 1 fails and 3-color puts them in two classes
        disks = [UnitDisk(Point(0.0, 0.0)), UnitDisk(Point(1.0 + 1e-9, 0.0))]
        points = [Point(-0.45, 0.0), Point(1.45, 0.0)]
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


def _bit_set(rng, n):
    return rng.getrandbits(n) & rng.getrandbits(n)


class TestUnionOrder:
    def test_matches_tuple_order(self):
        rng = random.Random(0xB17)
        pairs = []
        for _ in range(20000):
            n = rng.choice((1, 3, 8, 40, 130))
            a = _bit_set(rng, n)
            kind = rng.randrange(4)
            if kind == 0:  # b a prefix of a, or a of b
                cut = rng.randrange(n + 1)
                b = a & ((1 << cut) - 1)
            elif kind == 1:  # shared prefix, then anything
                cut = rng.randrange(n + 1)
                b = (a & ((1 << cut) - 1)) | (_bit_set(rng, n) >> cut << cut)
            else:
                b = _bit_set(rng, n)
            pairs.append((a, b))
        pairs += [(0, 0), (0, 1), (1, 0), (0, 1 << 70), (5, 5)]
        for a, b in pairs:
            ta, tb = tuple(bits(a)), tuple(bits(b))
            assert union_lt(a, b) == (ta < tb), (ta, tb)
            assert union_lt(b, a) == (tb < ta), (ta, tb)

    def test_small_universe_exhaustive(self):
        for a, b in itertools.product(range(64), repeat=2):
            assert union_lt(a, b) == (tuple(bits(a)) < tuple(bits(b)))

    def test_bits(self):
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
    # gap steps inside and far outside the fixed disk tolerance
    @pytest.mark.parametrize("gap", (EPS_COVER, 1e-6))
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_center_distance_one_plus_k_eps(self, gap, k):
        d = 1.0 + k * gap
        for angle in (0.0, math.pi / 2, math.pi / 4, 0.3):
            ox, oy = 0.25, -1.5
            ux, uy = math.cos(angle), math.sin(angle)
            disks = [UnitDisk(Point(ox, oy)),
                     UnitDisk(Point(ox + d * ux, oy + d * uy)),
                     UnitDisk(Point(ox + d / 2 * ux, oy + d / 2 * uy)),
                     UnitDisk(Point(ox + d / 2 * ux - d * uy,
                                    oy + d / 2 * uy + d * ux))]
            _assert_depths_agree(disks)
            _assert_depths_agree(disks[::-1])

    @pytest.mark.parametrize("gap", (EPS_COVER, 1e-6))
    def test_seeded_fuzz(self, gap):
        # every fifth set repeats its first disk, every third set also
        # holds a copy of it moved by gap
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
                disks.append(UnitDisk(Point(c.x + gap * math.cos(0.1 * seed),
                                            c.y + gap * math.sin(0.1 * seed))))
            _assert_depths_agree(disks)


def _ladder(pts, objs, build, solve):
    """Results at ell = 1..3 on one problem built at ell = 1, checked
    against a fresh build at each ell and against a second pass."""
    problem = build(pts, objs, 1)
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
        # two slabs, each needing ell = 2; `disk_side_events` makes the one
        # sort of a problem's events
        calls = Counter()

        def counted(name):
            fn = getattr(disks_mod, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(disks_mod, name, wrapped)
        for name in ("DiskArrangement", "disk_side_events",
                     "solve_slab_disks"):
            counted(name)
        pts, dks = forced_pair_disks()
        points = pts + [Point(p.x + 5, p.y + 10) for p in pts]
        disks = dks + [UnitDisk(Point(d.center.x + 5, d.center.y + 10))
                       for d in dks]
        assert len(assign_slabs(points, disks, "disks")) == 2
        assert solve_mpc(points, disks, "disks").chosen == [0, 1, 2, 3]
        assert calls == {"DiskArrangement": 2, "disk_side_events": 2,
                         "solve_slab_disks": 4}

    def test_uncovered_flag(self):
        disks = [UnitDisk(Point(0.0, 0.5)), UnitDisk(Point(2.0, 0.5))]
        inside, left, gap, outside = (Point(0.1, 0.5), Point(-1.0, 0.5),
                                      Point(1.0, 0.5), Point(0.0, 1.2))
        assert disk_slab_problem([inside], disks, 1).uncovered is None
        for p in (left, gap, outside):
            problem = disk_slab_problem([inside, p], disks, 1)
            assert problem.uncovered == p
            assert solve_slab_disks([inside, p], disks, 3, problem) is None
            assert problem.at(3).uncovered and problem.at(3).cap == 24
