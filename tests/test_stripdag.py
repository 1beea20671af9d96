"""The bitmask strip engine against the tuple engine it replaced
(`strip_reference`): the same covers, classes and failures on seeded fuzz,
and the rect and disk clique tests against the reference depth scans of
their kind (`depth_reference`), on symmetric meet masks.  Each slab's
result is inclusion-minimal.  A slab's problem built once and searched at
every budget of its ladder gives what a fresh build at each budget gives.
The search takes one step call per strip event, and only the final ply
lists disk candidates."""
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

import depth_reference
import strip_reference as ref
from conftest import forced_pair_disks, nudged

from plycover import disks as disks_mod
from plycover import geom, slabs, stripdag, tricolor
from plycover.disks import disk_slab_problem, disk_spans, solve_slab_disks
from plycover.errors import Infeasible
from plycover.geom import Point, UnitDisk, UnitRect, disks_disjoint, ply_disks
from plycover.instances import generate
from plycover.rects import rect_slab_problem, rect_spans, solve_slab_rects
from plycover.slabs import assign_slabs, live_objects, solve_mpc
from plycover.stripdag import bits, has_clique
from plycover.tricolor import solve_3color, solve_slab_3color


def _slabs(points, objects, kind):
    for slab in assign_slabs(points, objects, kind):
        yield ([points[k] for k in slab.point_indices],
               [objects[i] for i in slab.objects])


def _sides(problem):
    """(left, object) of each side event of a strip problem, in sweep
    order: the order of its events."""
    return [(left, obj) for left, _, obj, _, _ in problem.steps]


def _ref_sides(events):
    return [(cls == ref.LEFT, q) for _, cls, _, q in events]


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


# seven centres in [0, 1] x [0, 2.9], pairwise more than 1 apart: a
# column of disks centred there, shifted into a slab's centre band, are
# pairwise disjoint and all cross the vertical line through the column
_COLUMN = [(1, 0), (0, 0.16), (1, 1.01), (0, 1.17), (0.64, 1.96), (0, 2.75),
           (1, 2.9)]


def _column_instances(seed):
    """20 to 32 disks clustered in columns of five to seven from
    `_COLUMN`, on a dyadic x grid so that a column's x-extrema meet, with
    a few stray disks.  The disk at (0, 1/2) puts slab 1's centre band at
    [3/2, 9/2), where the columns sit.  About four in five of the other
    disks get a point that they alone contain if one is found, else some
    point inside them.  Each third seed adds four disks that pairwise
    meet, with a private point each in slab 1, so that slab has no
    3-colorable cover."""
    rng = random.Random(seed)
    disks = [UnitDisk(Point(0.0, 0.5))]
    x = 0.0
    while len(disks) < 20:
        x += rng.choice((1.25, 1.5, 1.75, 2.0))
        disks += [UnitDisk(Point(x - 0.5 + cx, 1.5 + cy))
                  for cx, cy in rng.sample(_COLUMN, rng.randint(5, 7))]
        for _ in range(rng.randint(0, 2)):
            disks.append(UnitDisk(Point(round(x + rng.uniform(-1, 1), 3),
                                        round(rng.uniform(1.5, 4.4), 3))))
    points = [Point(0.0, 0.5)]
    for d in disks[1:]:
        if rng.random() < 0.2:
            continue
        for _ in range(30):
            a = rng.uniform(0, 2 * math.pi)
            r = 0.49 * math.sqrt(rng.random())
            p = Point(d.center.x + r * math.cos(a),
                      d.center.y + r * math.sin(a))
            if sum(e.contains(p) for e in disks) == 1:
                break
        points.append(p)
    if seed % 3 == 0:
        ox, oy = x + 2.5, rng.uniform(2.4, 2.9)
        for dx, dy in ((0, 0), (0.6, 0), (0, 0.6), (0.6, 0.6)):
            disks.append(UnitDisk(Point(ox + dx, oy + dy)))
            points.append(Point(ox + dx + (dx - 0.3), oy + dy + (dy - 0.3)))
    rng.shuffle(disks)
    return points, disks


class TestAgainstTupleEngine:
    def test_rects(self):
        solved = failed = 0
        for seed in range(150):
            for pts, objs in _slabs(*_rect_instances(seed), "rects"):
                problem = rect_slab_problem(pts, objs)
                assert (_sides(problem)
                        == _ref_sides(ref.rect_events(objs))), seed
                for ell in (1, 2, 3):
                    got = solve_slab_rects(pts, objs, ell, problem)
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
                problem = disk_slab_problem(pts, objs)
                assert (_sides(problem)
                        == _ref_sides(ref.disk_events(objs))), seed
                for ell in (1, 2, 3):
                    got = solve_slab_disks(pts, objs, ell, problem)
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
        problem = disk_slab_problem(points, disks)
        for ell in (1, 2, 3):
            got = solve_slab_disks(points, disks, ell, problem)
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
        problem = disk_slab_problem(points, disks)
        if ulps > 0:
            assert disks_disjoint(*disks) and ply_disks(disks) == 1
            assert solve_slab_disks(points, disks, 1, problem) == [0, 1]
            assert solve_slab_3color(points, disks, problem) == (
                (0, 1), (), ())
            return
        assert not disks_disjoint(*disks) and ply_disks(disks) == 2
        assert solve_slab_disks(points, disks, 1, problem) is None
        assert solve_slab_disks(points, disks, 2, problem) == [0, 1]
        assert solve_slab_3color(points, disks, problem) == ((1,), (0,), ())

    def test_3color(self):
        solved = failed = 0
        for seed in range(200):
            make = _private_point_instances if seed % 2 else _disk_instances
            for pts, objs in _slabs(*make(seed), "disks"):
                got = solve_slab_3color(pts, objs,
                                        disk_slab_problem(pts, objs))
                assert got == ref.solve_slab_3color(pts, objs), seed
                solved += got is not None
                failed += got is None
        assert solved > 50 and failed > 30

    def test_3color_dense(self, monkeypatch):
        # classes that reach seven disks in one strip, and right events
        # that take disks out of classes
        widest = removed = 0
        step = tricolor._step

        def spy(problem, i, states):
            nonlocal widest, removed
            left, _, q, _, _ = problem.steps[i]
            for classes in states:
                widest = max(widest, *(c.bit_count() for c in classes))
                removed += (not left and any(
                    c >> q & 1 for c in classes))
            return step(problem, i, states)
        monkeypatch.setattr(tricolor, "_step", spy)
        solved = failed = 0
        for seed in range(12):
            for pts, objs in _slabs(*_column_instances(seed), "disks"):
                got = solve_slab_3color(pts, objs,
                                        disk_slab_problem(pts, objs))
                assert got == ref.solve_slab_3color(pts, objs), seed
                solved += got is not None
                failed += got is None
        assert solved > 20 and failed >= 4
        assert widest == 7 and removed > 10_000


class TestStepShape:
    """`run` crosses each event with one step call over the whole strip;
    the mpc step still asks `successors` once per state."""

    def test_3color_steps_once_per_event(self, monkeypatch):
        crossed = []
        step = tricolor._step

        def spy(problem, i, states):
            crossed.append((problem, i))
            return step(problem, i, states)
        monkeypatch.setattr(tricolor, "_step", spy)
        steps = 0
        for seed in (0, 3, 5):
            for pts, objs in _slabs(*_column_instances(seed), "disks"):
                problem = disk_slab_problem(pts, objs)
                crossed.clear()
                solve_slab_3color(pts, objs, problem)
                assert all(p is problem for p, _ in crossed)
                assert [i for _, i in crossed] == list(range(len(crossed)))
                assert len(crossed) <= len(problem.steps)
                steps += len(crossed)
        assert steps > 100

    @pytest.mark.parametrize("kind", ["rects", "disks"])
    def test_mpc_asks_successors_once_per_state(self, monkeypatch, kind):
        asked, sizes = [], []
        successors, step = stripdag.successors, stripdag._mpc_step

        def spy_successors(problem, state):
            asked.append(state.strip)
            return successors(problem, state)

        def spy_step(problem, i, states):
            sizes.append((i, len(states)))
            return step(problem, i, states)
        monkeypatch.setattr(stripdag, "successors", spy_successors)
        monkeypatch.setattr(stripdag, "_mpc_step", spy_step)
        solve, build = ((solve_slab_rects, rect_slab_problem)
                        if kind == "rects"
                        else (solve_slab_disks, disk_slab_problem))
        for seed in range(6):
            for pts, objs in _live_slabs(kind, seed):
                problem = build(pts, objs)
                for ell in (1, 2, 3):
                    solve(pts, objs, ell, problem)
        assert sum(n for _, n in sizes) > 1000
        assert asked == [i for i, n in sizes for _ in range(n)]


class TestStepTable:
    """`steps[i]` splits the cover masks of strip i + 1 by event i's bit:
    `rest` misses it and `held` holds it, and a leaving object holds no
    mask of the strip after it."""

    @pytest.mark.parametrize("kind", ["rects", "disks"])
    def test_split_of_the_next_strip(self, kind):
        build, spans, make = (
            (rect_slab_problem, rect_spans, _rect_instances) if kind == "rects"
            else (disk_slab_problem, disk_spans, _disk_instances))
        split = Counter()
        for seed in range(80):
            for pts, objs in _slabs(*make(seed), kind):
                problem = build(pts, objs)
                events = geom.sweep_events(spans(objs))
                assert len(problem.steps) == len(events)
                for i, (left, bit, obj, rest, held) in enumerate(
                        problem.steps):
                    _, cls, _, q = events[i]
                    assert (left, bit, obj) == (cls == geom.LEFT, 1 << q, q)
                    # the objects whose left side and not right side is
                    # among events 0..i, and the points past exactly those
                    sides = Counter(e[3] for e in events[:i + 1])
                    active = [o for o, n in sides.items() if n == 1]
                    masks = {sum(1 << o for o in active
                                 if objs[o].contains(p))
                             for p in pts
                             if sum(e < (p.x, geom.POINT, p.y)
                                    for e in events) == i + 1}
                    assert sorted(rest) == sorted(m for m in masks
                                                  if not m & bit)
                    assert sorted(held) == sorted(m for m in masks if m & bit)
                    assert left or not held
                    split[left, bool(rest), bool(held)] += 1
        assert all(split[True, r, h] > 10 for r in (True, False)
                   for h in (True, False))
        assert split[False, True, False] > 10


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
        pts = [inst.points[k] for k in slab.point_indices]
        live = live_objects(pts, objects, slab.objects, spans)
        yield pts, [objects[i] for i in live]


def _least_rung(solve, pts, objs, problem):
    for ell in range(1, len(objs) + 1):
        got = solve(pts, objs, ell, problem)
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
                if kind == "rects":
                    got = _least_rung(solve_slab_rects, pts, objs,
                                      rect_slab_problem(pts, objs))
                elif kind == "disks":
                    got = _least_rung(solve_slab_disks, pts, objs,
                                      disk_slab_problem(pts, objs))
                else:
                    got = solve_slab_3color(pts, objs,
                                            disk_slab_problem(pts, objs))
                    got = got and [i for cls in got for i in cls]
                for q in got or ():
                    rest = [objs[i] for i in got if i != q]
                    assert not all(any(o.contains(p) for o in rest)
                                   for p in pts), (seed, q)
                chosen_total += len(got or ())
        assert chosen_total > 300


def _left_events(problem):
    """(q, mask of the objects active at q's left side) per left event."""
    active = 0
    for left, _, q, _, _ in problem.steps:
        if left:
            yield q, active
            active |= 1 << q
        else:
            active &= ~(1 << q)


def _grid_rects(rng):
    """Rects on a half-unit grid, some repeated: touching sides, shared
    corners, and boxes that a neighbour clips to a segment or a point."""
    rects = [UnitRect(F(rng.randint(0, 6), 2), F(rng.randint(0, 4), 2),
                      F(rng.randint(1, 4), 2))
             for _ in range(rng.randint(2, 10))]
    for _ in range(rng.randint(0, 2)):
        rects.append(rng.choice(rects))
    rng.shuffle(rects)
    return rects


class TestCliqueTest:
    """Closed boxes that pairwise meet share a point, so the depth inside
    an added rect q is 1 plus the clique number of the meet graph on the
    members that meet q: `has_clique` on the meet masks decides ply."""

    def test_matches_rect_depth_within(self):
        seen = Counter()
        for seed in range(300):
            rng = random.Random(seed)
            rects = _grid_rects(rng)
            problem = rect_slab_problem([], rects)
            meets = problem.meets
            for q, active in _left_events(problem):
                members = active & rng.getrandbits(len(rects))
                near = members & meets[q]
                boxes = [rects[i] for i in bits(members)] + [rects[q]]
                depth = depth_reference.rect_depth_within(boxes, rects[q])
                for ell in (1, 2, 3, 4):
                    got = has_clique(meets, near, ell)
                    assert got == (depth > ell), (seed, q, ell)
                    seen[ell, got] += near.bit_count() >= ell
        # at ell = 1 any member meeting q is too deep; above it, both
        # answers occur where the count alone cannot decide
        assert seen[1, False] == 0 and seen[1, True] > 1000
        assert all(seen[ell, got] > 10 for ell in (2, 3, 4)
                   for got in (True, False))

    @pytest.mark.parametrize("kind", ["rects", "disks"])
    def test_meets_are_symmetric(self, kind):
        together = 0
        for seed in range(100):
            rng = random.Random(seed)
            if kind == "rects":
                objs = _grid_rects(rng)
                problem = rect_slab_problem([], objs)

                def meet(a, b):
                    return not (a.right < b.left or b.right < a.left
                                or a.top < b.bottom or b.top < a.bottom)
            else:
                objs = _disk_instances(seed)[1]
                problem = disk_slab_problem([], objs)

                def meet(a, b):
                    return not disks_disjoint(a, b)
            pairs = {(o, q) for q, active in _left_events(problem)
                     for o in bits(active)}
            for o in range(len(objs)):
                for q in range(len(objs)):
                    paired = (o, q) in pairs or (q, o) in pairs
                    want = paired and meet(objs[o], objs[q])
                    assert problem.meets[o] >> q & 1 == want, (seed, o, q)
                    together += paired
        assert together > 200


def test_bits():
    assert bits(0) == [] and bits(0b1011) == [0, 1, 3]
    assert bits(1 << 200 | 4) == [2, 200]


def _submasks(mask):
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def _assert_clique_test_agrees(disks, seen=None):
    """For every disk q entering the strip search and every set of members
    active there, `has_clique` with the problem's `shares` test and
    chosen (q,) says depth > k, k = 1-5, for the depth inside q of the
    members and q that the reference scan gives."""
    problem = disk_slab_problem([], disks)
    meets, shares = problem.meets, problem.shares
    for q, active in _left_events(problem):
        for members in _submasks(active):
            held = [disks[i] for i in bits(members)] + [disks[q]]
            depth = depth_reference.disk_depth_within(held, disks[q])
            near = members & meets[q]
            for k in range(1, 6):
                got = has_clique(meets, near, k, shares, (q,))
                assert got == (depth > k), (members, q, k)
                if seen is not None:
                    seen[k, got] += near.bit_count() >= k


class TestDiskCliqueTest:
    """Closed disks in the plane have Helly number 3: disks of which every
    three share a point all share one.  So the depth inside an added disk
    q is decided by cliques of the meet masks whose triples, with q or
    without, pass `geom.disks_share_point`."""

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
        _assert_clique_test_agrees(disks)
        _assert_clique_test_agrees(disks[::-1])

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_seeded_fuzz(self, ulps):
        # centres on a quarter grid, an eighth grid or uniform; every fifth
        # set repeats its first disk, every third set also holds a copy of
        # it one unit away, moved by ulps
        seen = Counter()
        for seed in range(150):
            rng = random.Random(seed)
            if seed % 3 == 2:
                def coord():
                    return rng.uniform(0.0, 1.5)
            else:
                def coord(scale=4 * (1 + seed % 3)):
                    return rng.randint(0, 3 * scale // 2) / scale
            disks = [UnitDisk(Point(coord(), coord()))
                     for _ in range(rng.randint(2, 7))]
            if seed % 5 == 0:
                disks.append(disks[0])
            if seed % 3 == 0 and len(disks) < 8:
                c = disks[0].center
                disks.append(UnitDisk(Point(nudged(c.x + 1.0, ulps), c.y)))
            _assert_clique_test_agrees(disks, seen)
        # at k = 1 any member meeting q is too deep; above it, both
        # answers occur where the count of members meeting q cannot decide
        assert seen[1, False] == 0 and seen[1, True] > 1000
        assert all(seen[k, got] > 10 for k in (2, 3, 4)
                   for got in (True, False))

    @pytest.mark.parametrize("s", [2, 3])
    def test_three_clusters_need_the_triple_test(self, s):
        # s disks at each corner of a triangle of side 0.98: every two
        # clusters meet, but its circumradius 0.566 > 1/2 keeps the three
        # apart, so a disk q at the centroid sees depth 2s + 1, while the
        # meet masks alone hold a clique of all 3s members
        corners = [(0.0, 0.0), (0.98, 0.0), (0.49, 0.98 * math.sqrt(3) / 2)]
        disks = [UnitDisk(Point(x + 0.001 * i, y))
                 for x, y in corners for i in range(s)]
        disks.append(UnitDisk(Point(0.49, 0.98 * math.sqrt(3) / 6)))
        q = len(disks) - 1
        held = list(disks)
        assert depth_reference.disk_depth_within(held, disks[q]) == 2 * s + 1
        problem = disk_slab_problem([], disks)
        near = problem.meets[q]
        assert near == (1 << q) - 1
        k = 2 * s + 1
        assert has_clique(problem.meets, near, k)
        assert not has_clique(problem.meets, near, k, problem.shares, (q,))
        assert has_clique(problem.meets, near, k - 1, problem.shares, (q,))


def test_floats_decide_the_share_test(monkeypatch):
    # on the slab problems of seeded disk instances, the int fallback of
    # `geom.disks_share_point` runs for under 1% of its calls
    calls, on_ints, inside = [0], [0], []
    share, ints = disks_mod.disks_share_point, geom._on_ints

    def spy_share(*args):
        calls[0] += 1
        inside.append(True)
        try:
            return share(*args)
        finally:
            inside.pop()

    def spy_ints(*vs):
        on_ints[0] += bool(inside)
        return ints(*vs)
    monkeypatch.setattr(disks_mod, "disks_share_point", spy_share)
    monkeypatch.setattr(geom, "_on_ints", spy_ints)
    for seed in range(40):
        for pts, objs in _live_slabs("disks", seed):
            problem = disk_slab_problem(pts, objs)
            for ell in (1, 2, 3):
                solve_slab_disks(pts, objs, ell, problem)
    assert calls[0] > 1000
    assert on_ints[0] < 0.01 * calls[0]


def _ladder(pts, objs, build, solve):
    """Results at ell = 1..3 on one problem built once, checked against a
    fresh build at each ell and against a second pass."""
    problem = build(pts, objs)
    got = [solve(pts, objs, ell, problem) for ell in (1, 2, 3)]
    assert got == [solve(pts, objs, ell, build(pts, objs))
                   for ell in (1, 2, 3)]
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

    def test_one_event_sort_per_slab(self, monkeypatch):
        # two slabs, each needing ell = 2; `geom.sweep_events` makes the
        # one sort of a problem's events
        calls = Counter()

        def counted(mod, name):
            fn = getattr(mod, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(mod, name, wrapped)
        for mod, name in ((stripdag, "sweep_events"),
                          (disks_mod, "solve_slab_disks")):
            counted(mod, name)
        pts, dks = forced_pair_disks()
        points = pts + [Point(p.x + 5, p.y + 10) for p in pts]
        disks = dks + [UnitDisk(Point(d.center.x + 5, d.center.y + 10))
                       for d in dks]
        assert len(assign_slabs(points, disks, "disks")) == 2
        assert solve_mpc(points, disks, "disks").chosen == [0, 1, 2, 3]
        assert calls == {"sweep_events": 2, "solve_slab_disks": 4}

    def test_only_the_final_ply_lists_candidates(self, monkeypatch):
        # neither the ply search nor 3-color lists the candidate points of
        # the disk arrangement: `geom.disk_candidates` is called only by
        # the `ply_disks` of the chosen disks, once per solve
        calls, inside, ells = [], [], []
        real, slab_solve = geom.disk_candidates, disks_mod.solve_slab_disks

        def counted(disks):
            calls.append(bool(inside))
            return real(disks)
        monkeypatch.setattr(geom, "disk_candidates", counted)
        monkeypatch.setattr(disks_mod, "solve_slab_disks",
                            lambda *args: ells.append(args[2])
                            or slab_solve(*args))
        for mod in (slabs, tricolor):
            def final_ply(disks, ply=mod.ply_disks):
                inside.append(True)
                try:
                    return ply(disks)
                finally:
                    inside.pop()
            monkeypatch.setattr(mod, "ply_disks", final_ply)
        rng = random.Random(0x1A2)
        for seed in range(30):
            inst = generate("disks", rng.randint(4, 30), rng.randint(4, 24),
                            ("uniform", "clustered", "slab-stress")[seed % 3],
                            seed=seed)
            solves = 1
            try:
                solve_3color(inst.points, inst.objects)
                solves += 1
            except Infeasible:
                pass
            solve_mpc(inst.points, inst.objects, "disks")
            assert calls == [True] * solves, seed
            calls.clear()
        assert ells.count(2) > 10

    def test_uncovered_flag(self):
        disks = [UnitDisk(Point(0.0, 0.5)), UnitDisk(Point(2.0, 0.5))]
        inside, left, gap, outside = (Point(0.1, 0.5), Point(-1.0, 0.5),
                                      Point(1.0, 0.5), Point(0.0, 1.2))
        assert disk_slab_problem([inside], disks).uncovered is None
        # the least index of an uncovered point, not the first in sweep order
        assert disk_slab_problem([gap, left], disks).uncovered == 0
        for p in (left, gap, outside):
            problem = disk_slab_problem([inside, p], disks)
            assert problem.uncovered == 1
            assert solve_slab_disks([inside, p], disks, 3, problem) is None
            assert problem.at(3).uncovered == 1 and problem.at(3).cap == 24
