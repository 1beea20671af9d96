"""The sweep and window ply functions in `geom` against the plain scans
they replaced (kept in `depth_reference`): exact equality on seeded fuzz
and on degenerate arrangements, disks also at exact tangency and one ulp
either side of it."""
import itertools
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction as F

import pytest

import depth_reference as ref
from conftest import nudged

from plycover.geom import (Point, UnitDisk, UnitRect, disk_candidates,
                           disk_depth_within, ply_disks, ply_rects,
                           rect_depth_within)


def _rect(rng, step):
    # coarse coordinates make shared and abutting sides common
    return UnitRect(F(rng.randint(0, 12), step), F(rng.randint(0, 12), step),
                    F(rng.randint(1, 2 * step), step))


def _rect_sets(seed):
    rng = random.Random(seed)
    step = rng.choice((1, 2, 4))
    rects = [_rect(rng, step) for _ in range(rng.randint(0, 14))]
    if rects and rng.random() < 0.3:
        rects += rng.sample(rects, rng.randint(1, len(rects)))
    regions = rects[:3] + [_rect(rng, step)]
    return rects, regions


def _assert_rects_agree(rects, regions):
    assert ply_rects(rects) == ref.ply_rects(rects)
    for region in regions:
        assert (rect_depth_within(rects, region)
                == ref.rect_depth_within(rects, region))


# the offsets of the near-tangent columns, in ulps of the moved coordinate:
# overlapping, exactly tangent or apart by one ulp
ULPS = (-1, 0, 1)

# unit directions: exact along the axes, rounded on the diagonals
DIRECTIONS = ((1.0, 0.0), (0.0, 1.0), (math.cos(math.pi / 4),
                                       math.sin(math.pi / 4)),
              (math.cos(0.3), math.sin(0.3)))


def _tangent_copy(disk, ulps, direction):
    """A copy of disk one unit away along direction, its x then moved by
    ulps: tangent to disk at 0 along an axis."""
    ux, uy = direction
    return UnitDisk(Point(nudged(disk.center.x + ux, ulps),
                          disk.center.y + uy))


@pytest.fixture
def decimal60():
    """60-digit Decimal arithmetic for one test."""
    with localcontext() as ctx:
        ctx.prec = 60
        yield


def _meeting_points(a, b):
    """The points where the circles of diameter 1 centred at the float
    pairs a and b meet, as 60-digit Decimals."""
    ax, ay, bx, by = map(Decimal, a + b)
    dx, dy = bx - ax, by - ay
    q = dx * dx + dy * dy
    e = ((1 - q) / (4 * q)).sqrt()
    mx, my = (ax + bx) / 2, (ay + by) / 2
    return [(mx - s * e * dy, my + s * e * dx) for s in (1, -1)]


def _disk_sets(seed):
    rng = random.Random(seed)
    if seed % 2:
        def coord():
            return rng.randint(0, 12) / 4
    else:
        def coord():
            return rng.uniform(0.0, 3.5)
    disks = [UnitDisk(Point(coord(), coord()))
             for _ in range(rng.randint(0, 14))]
    if disks and rng.random() < 0.3:
        disks += rng.sample(disks, rng.randint(1, len(disks)))
    regions = disks[:3] + [UnitDisk(Point(coord(), coord()))]
    return disks, regions


def _assert_disks_agree(disks, regions):
    assert (sorted(sorted(h) for h in disk_candidates(disks))
            == ref.candidate_holders(disks))
    assert ply_disks(disks) == ref.ply_disks(disks)
    for region in regions:
        assert (disk_depth_within(disks, region)
                == ref.disk_depth_within(disks, region))


class TestRects:
    def test_seeded_fuzz(self):
        for seed in range(300):
            _assert_rects_agree(*_rect_sets(seed))

    def test_shared_and_abutting_sides(self):
        rects = [UnitRect(F(0), F(0)), UnitRect(F(1), F(0)),
                 UnitRect(F(0), F(1)), UnitRect(F(1), F(1)),
                 UnitRect(F(1, 2), F(1, 2), F(1, 2)),
                 UnitRect(F(0), F(0), F(2))]
        for k in range(1, len(rects) + 1):
            for sub in itertools.combinations(rects, k):
                _assert_rects_agree(list(sub), rects)

    def test_duplicates(self):
        r = UnitRect(F(1, 3), F(2, 7), F(5, 4))
        for k in range(1, 5):
            _assert_rects_agree([r] * k, [r, UnitRect(F(2), F(2))])
        assert ply_rects([r] * 4) == 4

    def test_empty(self):
        _assert_rects_agree([], [UnitRect(F(0), F(0))])


class TestDisks:
    @pytest.mark.parametrize("ulps", ULPS)
    def test_seeded_fuzz(self, ulps):
        # every third set also holds a copy of its first disk one unit
        # away, moved by ulps
        for seed in range(200):
            disks, regions = _disk_sets(seed)
            if disks and seed % 3 == 0:
                disks.append(_tangent_copy(disks[0], ulps,
                                           DIRECTIONS[seed % 4]))
            _assert_disks_agree(disks, regions)

    def test_quarter_grid(self):
        # centres on a small quarter grid: many circles meet at one point,
        # and third circles pass exactly through meeting points
        grid = [(x / 4, y / 4) for x in range(7) for y in range(7)]
        for seed in range(150):
            rng = random.Random(seed)
            disks = [UnitDisk(Point(*c))
                     for c in rng.sample(grid, rng.randint(3, 9))]
            _assert_disks_agree(disks, disks[:3] + [rng.choice(disks)])

    def test_holders_half_a_unit_away_in_x(self, decimal60):
        # at 2**40 a float ulp is 2**-12, so the float meeting points are
        # ulps off; disks centred at the floats nearest to 1/2 left and
        # right of each exact meeting point may hold it, and a holder
        # window of exactly 1/2 around the float point would miss some
        big = 2.0 ** 40
        for seed in range(40):
            rng = random.Random(seed)
            a = (big + rng.uniform(0, 4), big + rng.uniform(0, 4))
            t = rng.uniform(0, 2 * math.pi)
            r = rng.uniform(0.2, 0.99)
            b = (a[0] + r * math.cos(t), a[1] + r * math.sin(t))
            disks = [UnitDisk(Point(*a)), UnitDisk(Point(*b))]
            for px, py in _meeting_points(a, b):
                for side in (-1, 1):
                    x = float(px + side * Decimal(0.5))
                    if (Decimal(x) - px) * side > Decimal(0.5):
                        x = math.nextafter(x, -side * math.inf)
                    disks.append(UnitDisk(Point(x, float(py))))
            _assert_disks_agree(disks, disks)

    def test_holders_of_near_tangent_meeting_points(self, decimal60):
        # circles a hair from tangent, in rounded directions: the float
        # meeting points are about sqrt(ulp) = 1e-8 off, and disks centred
        # at the floats nearest to 1/2 from an exact meeting point hold it
        # or miss it by about an ulp
        for seed in range(40):
            rng = random.Random(seed)
            t = rng.uniform(0, 2 * math.pi)
            r = 1 - rng.randint(1, 64) * 2.0 ** -53
            a, b = (0.0, 0.0), (r * math.cos(t), r * math.sin(t))
            disks = [UnitDisk(Point(*a)), UnitDisk(Point(*b))]
            for px, py in _meeting_points(a, b):
                for phi in (t + 1.0, t + 2.0, t - 1.0, t - 2.0):
                    disks.append(UnitDisk(Point(
                        float(px + Decimal(0.5 * math.cos(phi))),
                        float(py + Decimal(0.5 * math.sin(phi))))))
            _assert_disks_agree(disks, disks[:3])

    @pytest.mark.parametrize("ulps", ULPS)
    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_near_tangent_pair_and_midpoint(self, ulps, direction):
        # a, b one unit (and ulps) apart, and a disk centred where they
        # touch when exactly tangent
        a = UnitDisk(Point(0.25, -1.5))
        b = _tangent_copy(a, ulps, direction)
        mid = UnitDisk(Point(0.25 + direction[0] / 2,
                             -1.5 + direction[1] / 2))
        disks = [a, b, mid]
        for sub in itertools.combinations(disks, 2):
            _assert_disks_agree(list(sub), disks)
        _assert_disks_agree(disks, disks)
        if direction[1] == 0.0:
            assert ply_disks([a, b]) == (1 if ulps > 0 else 2)
            assert ply_disks(disks) == (2 if ulps > 0 else 3)

    @pytest.mark.parametrize("ulps", ULPS)
    def test_duplicates(self, ulps):
        # exact copies, and copies moved by ulps, all count in the ply
        a, b = UnitDisk(Point(0.0, 0.0)), UnitDisk(Point(0.7, 0.1))
        near = UnitDisk(Point(nudged(0.0, ulps), 0.0))
        for k in range(1, 4):
            _assert_disks_agree([a] * k + [b], [a, b])
            _assert_disks_agree([a] * k + [near, b], [a, near, b])
        assert ply_disks([a] * 3 + [b]) == 4
        assert ply_disks([a] * 3 + [near, b]) == 5

    def test_empty(self):
        _assert_disks_agree([], [UnitDisk(Point(0.0, 0.0))])
