"""The bitmask strip engine against the tuple engine it replaced
(`strip_reference`): the same covers, classes and failures on seeded fuzz,
the bit order rule against tuple order, and the disk arrangement against
`disk_depth_within`."""
import itertools
import math
import random
from fractions import Fraction as F

import pytest

import strip_reference as ref

from plycover.disks import DiskArrangement, solve_slab_disks
from plycover.geom import (EPS_COVER, Point, UnitDisk, UnitRect,
                           disk_depth_within)
from plycover.instances import generate
from plycover.rects import solve_slab_rects
from plycover.slabs import assign_slabs
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
        # disks 0 and 1 are 1 + k*eps apart, and disk 2's centre lies
        # within 0.5 + eps of both: three disks share that centre, so a
        # budget of 2 fails, whether or not disks 0 and 1 meet each other
        eps = 1e-6
        d = 1.0 + k * eps
        ux, uy = math.cos(0.3), math.sin(0.3)  # x-extents overlap

        def at(s, t):
            return Point(s * ux - t * uy, s * uy + t * ux)
        disks = [UnitDisk(at(0.0, 0.0)), UnitDisk(at(d, 0.0)),
                 UnitDisk(at(d / 2, 0.0))]
        points = [at(-0.45, 0.0), at(d + 0.45, 0.0), at(d / 2, 0.45)]
        for ell in (1, 2, 3):
            got = solve_slab_disks(points, disks, ell, eps)
            assert got == ref.solve_slab_disks(points, disks, ell, eps)
            assert got == (None if ell < 3 else [0, 1, 2])

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


def _assert_depths_agree(disks, eps):
    arrangement = DiskArrangement(disks, eps)
    m = len(disks)
    for mask in range(1, 1 << m):
        members = bits(mask)
        for q in members:
            assert (arrangement.depth_within(mask, q)
                    == disk_depth_within([disks[i] for i in members],
                                         disks[q], eps)), (mask, q)


class TestDiskArrangement:
    @pytest.mark.parametrize("eps", (EPS_COVER, 1e-6))
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_center_distance_one_plus_k_eps(self, eps, k):
        d = 1.0 + k * eps
        for angle in (0.0, math.pi / 2, math.pi / 4, 0.3):
            ox, oy = 0.25, -1.5
            ux, uy = math.cos(angle), math.sin(angle)
            disks = [UnitDisk(Point(ox, oy)),
                     UnitDisk(Point(ox + d * ux, oy + d * uy)),
                     UnitDisk(Point(ox + d / 2 * ux, oy + d / 2 * uy)),
                     UnitDisk(Point(ox + d / 2 * ux - d * uy,
                                    oy + d / 2 * uy + d * ux))]
            _assert_depths_agree(disks, eps)
            _assert_depths_agree(disks[::-1], eps)

    @pytest.mark.parametrize("eps", (EPS_COVER, 1e-6))
    def test_seeded_fuzz(self, eps):
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
            _assert_depths_agree(disks, eps)
