import json
import random
import tracemalloc
from fractions import Fraction as F

import pytest

import dag_reference
from conftest import greedy_trap_instance
from dag_reference import V0, V1, V2, IntervalDag, build_dag
from test_degenerate import _gritty_intervals

from plycover import intervals as intervals_mod
from plycover.errors import Infeasible
from plycover.geom import WeightedInterval, line_pairs, pair_ranks
from plycover.instances import Instance, dumps, generate, loads
from plycover.intervals import (bottleneck_path, chosen_loads,
                                evaluate_objective, prepare_instance,
                                solve_intervals)
from plycover.oracle import exact_intervals


def iv(lo, hi, w=1):
    return WeightedInterval(F(lo), F(hi), F(w))


def _primes(count, start):
    out, c = [], start | 1
    while len(out) < count:
        if all(c % d for d in range(3, int(c ** 0.5) + 1, 2)):
            out.append(c)
        c += 2
    return out


# distinct primes near 1e5, so the lcm of k of them has about 17k bits
_BIG_PRIMES = _primes(300, 100_000)


class TestPrepare:
    def test_points_in_one_strip_collapse(self):
        prep = prepare_instance([F(1, 4), F(1, 2), F(3, 4)], [iv(0, 1)])
        assert sum(prep.has_point) == 1

    def test_single_interval_three_strips(self):
        prep = prepare_instance([], [iv(0, 1)])
        assert len(prep.events) + 1 == 3

    def test_fixture_has_nine_strips(self):
        points, intervals = greedy_trap_instance()
        assert len(prepare_instance(points, intervals).events) + 1 == 9

    def test_duplicates_collapse_to_min_weight(self):
        ivs = [iv(0, 1, 7), iv(0, 1, 3), iv(0, 1, 5)]
        prep = prepare_instance([], ivs)
        assert prep.orig_idx == [1]
        assert ivs[prep.orig_idx[0]].weight == 3
        assert prep.weights == [3 * prep.weight_scale]


    def test_ranks_keep_order_and_ties_exactly(self):
        # ties across Fraction, int and float; values closer than 2**-64;
        # values far beyond float range
        tiny = F(1, 2 ** 70)
        vals = [F(1, 3), 0.5, 2, F(1, 100_003), F(1, 2), 2.0, F(-7, 9),
                F(1, 3) + tiny, F(1, 3) - tiny, F(10 ** 400), -F(10 ** 400),
                F(10 ** 400) + tiny, 0, -0.0, F(1, 3)]
        rk = pair_ranks([v.as_integer_ratio() for v in vals])
        assert sorted(set(rk)) == list(range(len(set(vals))))
        for a, ra in zip(vals, rk):
            for b, rb in zip(vals, rk):
                assert (ra < rb) == (a < b) and (ra == rb) == (a == b)

    def test_ranks_compare_no_fractions(self):
        # repeated inexact values share an odd floor key; values 2**-70
        # apart share it too and still get their own ranks, all on ints
        tiny = F(1, 2 ** 70)
        vals = [F(1, 3), F(1, 3) + tiny, F(1, 7), F(1, 3), F(1, 3) - tiny,
                F(1, 3) + tiny, F(5, 8), F(5, 8), F(-1, 3), F(10 ** 400, 3)]
        want = pair_ranks([v.as_integer_ratio() for v in vals])
        assert want == [3, 4, 1, 3, 2, 4, 5, 5, 0, 6]

        class NoCompare(F):
            def _refuse(self, other):
                raise AssertionError("Fraction compared")
            __lt__ = __le__ = __gt__ = __ge__ = __eq__ = _refuse
            __hash__ = F.__hash__

        assert pair_ranks([NoCompare(v).as_integer_ratio()
                           for v in vals]) == want

    def test_coordinates_become_ranks_whatever_the_denominators(self):
        # every endpoint over its own prime near 1e5: the lcm of the
        # denominators would have about 5000 bits, the ranks stay below
        # the number of coordinates
        m = 150
        ivs = [iv(F(2 * i) + F(1, _BIG_PRIMES[2 * i]),
                  F(2 * i + 3) + F(1, _BIG_PRIMES[2 * i + 1])) for i in range(m)]
        points = [ivs[0].lo, F(5, 2), 7, 7.5, ivs[-1].hi]
        prep = prepare_instance(points, ivs)
        bound = len(points) + 2 * m
        assert all(0 <= x < bound for x, _, _, _ in prep.events)
        assert len(prep.has_point) == len(prep.events) + 1
        assert sum(prep.has_point) == len(points)


class TestBuildDag:
    # the tests-only reference graph of `dag_reference`
    def test_single_interval_single_point(self):
        prep = prepare_instance([F(1, 2)], [iv(0, 1, 5)])
        dag = build_dag(prep, "mmsc")
        path, value = dag_reference.bottleneck_path(dag)
        assert value == 5
        kinds = [dag.vertices[i][0] for i in path]
        assert kinds == [0, 1, 0]
        assert bottleneck_path(prep, "mmsc") == ([0], 5 * prep.weight_scale)

    def test_disjoint_intervals_have_no_pair_vertices(self):
        prep = prepare_instance([], [iv(0, 1), iv(2, 3)])
        dag = build_dag(prep, "mmsc")
        assert all(v[0] != V2 for v in dag.vertices)
        assert dag.n_overlaps == 0

    def test_fixture_pair_vertex_weight_three(self):
        points, intervals = greedy_trap_instance()
        dag = build_dag(prepare_instance(points, intervals), "mmsc")
        pairs = [v for v in dag.vertices if v[0] == V2 and v[2:4] == (0, 2)]
        assert len(pairs) == 1
        assert pairs[0][4] == 3

    def test_mpc_weights_apply_without_points(self):
        prep = prepare_instance([], [iv(0, 2, 4), iv(1, 3, 6)])
        mmsc = build_dag(prep, "mmsc")
        mpc = build_dag(prep, "mpc")
        assert all(v[4] == 0 for v in mmsc.vertices)
        assert max(v[4] for v in mpc.vertices) == 10

    def test_vertex_weights_are_scaled_by_weight_scale(self):
        ivs = [iv(0, 2, F(1, 3)), iv(1, 3, F(2, 7)), iv(2, 5, F(2, 5)),
               iv(4, 6, 1)]
        prep = prepare_instance([F(1, 2), F(3, 2), F(9, 2)], ivs)
        assert prep.weight_scale == 105
        for mode in ("mmsc", "mpc"):
            dag = build_dag(prep, mode)
            seen = set()
            for kind, _, q, r, weight in dag.vertices:
                real = F(weight, prep.weight_scale)
                if kind == V2 and weight:
                    assert real == ivs[q].weight + ivs[r].weight
                    seen.add(kind)
                elif weight:
                    assert real == ivs[q].weight
                    seen.add(kind)
            assert seen == {1, 2}
            _, value = dag_reference.bottleneck_path(dag)
            assert F(value, prep.weight_scale) == \
                solve_intervals([F(1, 2), F(3, 2), F(9, 2)], ivs, mode).objective

    def test_size_bound(self):
        rng = random.Random(41)
        for seed in range(40):
            inst = generate("intervals", rng.randint(0, 20),
                            rng.randint(1, 12),
                            rng.choice(["uniform", "clustered", "chain"]),
                            seed=seed)
            prep = prepare_instance(inst.points, inst.objects)
            dag = build_dag(prep, "mmsc")
            m, ov = dag.n_intervals, dag.n_overlaps
            assert len(dag.vertices) <= 4 * m + 5 * ov + 2

    def test_bad_mode_rejected(self):
        prep = prepare_instance([], [iv(0, 1)])
        with pytest.raises(ValueError):
            build_dag(prep, "minsum")
        with pytest.raises(ValueError, match="mode must be one of"):
            bottleneck_path(prep, "minsum")
        with pytest.raises(ValueError, match="mode must be one of"):
            solve_intervals([], [iv(0, 1)], "minsum")


def _chain_dag(weights):
    vertices = [(V0, i, -1, -1, F(w)) for i, w in enumerate(weights)]
    adj = [[i + 1] for i in range(len(weights) - 1)] + [[]]
    return IntervalDag(vertices, adj, 0, len(weights) - 1, 0, 0)


def _enumerate_paths(dag):
    out = []

    def walk(u, acc):
        acc = max(acc, dag.vertices[u][4])
        if u == dag.sink:
            out.append(acc)
            return
        for v in dag.adj[u]:
            walk(v, acc)

    walk(dag.source, dag.vertices[dag.source][4])
    return out


class TestBottleneck:
    # the reference DP over hand-built graphs
    def test_chain(self):
        assert dag_reference.bottleneck_path(_chain_dag([0, 5, 0]))[1] == 5

    def test_parallel_chains(self):
        vertices = [(V0, i, -1, -1, F(w))
                    for i, w in enumerate([0, 3, 4, 0])]
        adj = [[1, 2], [3], [3], []]
        dag = IntervalDag(vertices, adj, 0, 3, 0, 0)
        path, value = dag_reference.bottleneck_path(dag)
        assert value == 3
        assert path == [0, 1, 3]

    def test_unreachable_sink(self):
        vertices = [(V0, 0, -1, -1, 0), (V0, 1, -1, -1, 0)]
        dag = IntervalDag(vertices, [[], []], 0, 1, 0, 0)
        assert dag_reference.bottleneck_path(dag) is None

    def test_random_dags_match_path_enumeration(self):
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(2, 12)
            vertices = [(V0, i, -1, -1, F(rng.randint(0, 9)))
                        for i in range(n)]
            adj = [[] for _ in range(n)]
            for i in range(n - 1):
                adj[i].append(i + 1)  # keep the sink reachable
                for j in range(i + 2, n):
                    if rng.random() < 0.3:
                        adj[i].append(j)
            dag = IntervalDag(vertices, adj, 0, n - 1, 0, 0)
            _, value = dag_reference.bottleneck_path(dag)
            assert value == min(_enumerate_paths(dag))


def _seeded_instances(count, salt):
    """(points, intervals) of `count` seeded instances, points and
    intervals shuffled, some with every weight 0 or in {0, 1} so that most
    paths tie, some with uncovered points."""
    rng = random.Random(salt)
    for seed in range(count):
        inst = generate("intervals", rng.randint(0, 24), rng.randint(1, 16),
                        rng.choice(["uniform", "clustered", "chain"]),
                        seed=seed + salt,
                        allow_uncovered=rng.random() < 0.2)
        ivs = inst.objects
        levels = rng.choice([None, 1, 2])  # as generated, all 0, 0 or 1
        if levels:
            ivs = [WeightedInterval(s.lo, s.hi, F(rng.randrange(levels)))
                   for s in ivs]
        yield (rng.sample(inst.points, len(inst.points)),
               rng.sample(ivs, len(ivs)))


class TestAgainstReferenceDp:
    def test_same_path_and_value(self):
        # the sweep's chosen set and value equal the reference path's over
        # the reference graph, whose DP breaks ties by sort id explicitly,
        # on 4,000 solves; tie-heavy weights make either tie rule show
        solved = infeasible = 0
        for points, ivs in _seeded_instances(2000, 14):
            prep = prepare_instance(points, ivs)
            for mode in ("mmsc", "mpc"):
                want = dag_reference.solve(prep, mode)
                if want is None:
                    with pytest.raises(Infeasible):
                        solve_intervals(points, ivs, mode)
                    infeasible += 1
                    continue
                sol = solve_intervals(points, ivs, mode)
                assert (sol.chosen, sol.objective) == want, mode
                solved += 1
        assert solved > 3000 and infeasible > 300

    def test_vertices_are_plain_tuples(self):
        # a reference vertex is a plain (kind, strip, q, r, weight) tuple,
        # with -1 for the intervals it does not have and weight 0 on a V0
        for points, ivs in _seeded_instances(120, 15):
            for mode in ("mmsc", "mpc"):
                dag = build_dag(prepare_instance(points, ivs), mode)
                for v in dag.vertices:
                    assert type(v) is tuple and len(v) == 5
                    kind, strip, q, r, weight = v
                    assert kind in (V0, V1, V2) and 0 <= strip
                    if kind == V0:
                        assert (q, r, weight) == (-1, -1, 0)
                    elif kind == V1:
                        assert q >= 0 and r == -1
                    else:
                        assert q >= 0 and r >= 0 and q != r


class TestAnyInputOrder:
    def test_shuffled_input_solves_as_sorted(self):
        # points and intervals in any order: the same optimum as the
        # generated (sorted) order and as the oracle, the reference path's
        # chosen set and value, and the reference graph's size bound
        rng = random.Random(48)
        solved = moved = 0
        for seed in range(150):
            inst = generate("intervals", rng.randint(0, 16),
                            rng.randint(1, 10),
                            rng.choice(["uniform", "clustered", "chain"]),
                            seed=seed + 700,
                            allow_uncovered=rng.random() < 0.2)
            ivs = inst.objects
            levels = rng.choice([None, 1, 2])  # as generated, all 0, 0 or 1
            if levels:
                ivs = [WeightedInterval(s.lo, s.hi, F(rng.randrange(levels)))
                       for s in ivs]
            points = rng.sample(inst.points, len(inst.points))
            shuffled = rng.sample(ivs, len(ivs))
            moved += points != inst.points or shuffled != ivs
            prep = prepare_instance(points, shuffled)
            for mode in ("mmsc", "mpc"):
                dag = build_dag(prep, mode)
                bound = 4 * dag.n_intervals + 5 * dag.n_overlaps + 2
                assert len(dag.vertices) <= bound, (seed, mode)
                want = dag_reference.solve(prep, mode)
                if want is None:
                    assert bottleneck_path(prep, mode) is None
                    with pytest.raises(Infeasible):
                        exact_intervals(points, shuffled, mode)
                    continue
                sol = solve_intervals(points, shuffled, mode)
                assert (sol.chosen, sol.objective) == want, (seed, mode)
                opt, _ = exact_intervals(points, shuffled, mode)
                assert sol.objective == opt, (seed, mode)
                assert sol.objective == solve_intervals(
                    inst.points, ivs, mode).objective, (seed, mode)
                assert evaluate_objective(
                    points, [shuffled[i] for i in sol.chosen], mode) == opt
                solved += 1
        assert moved > 120 and solved > 200


@pytest.mark.parametrize("dist", ["chain", "uniform", "clustered"])
def test_generated_intervals_come_sorted(dist):
    # the generator sorts on float keys first; the order is still that of
    # the exact (hi, lo, weight) keys and of the exact points
    rng = random.Random(37)
    tied = 0
    for seed in range(40):
        inst = generate("intervals", rng.randint(0, 60), rng.randint(1, 200),
                        dist, seed=seed, allow_uncovered=seed % 2 == 1)
        ivs = inst.objects
        assert ivs == sorted(ivs, key=lambda s: (s.hi, s.lo, s.weight))
        assert inst.points == sorted(inst.points)
        tied += len(ivs) - len({s.hi for s in ivs})
    assert dist == "chain" or tied > 100


class TestSweepMemory:
    def test_sweep_peak_is_a_third_of_prepare_at_most(self):
        # clock-free: tracemalloc counts only what each call allocates, so
        # the whole process's resident memory cannot hide the sweep's.  The
        # sweep holds the live vertices of one strip and the pending pairs,
        # never the graph, so on 32,768 intervals its peak stays well below
        # that of the strip layout it reads.  One mode per distribution
        # keeps the traced sweeps few
        for dist, mode in (("chain", "mpc"), ("uniform", "mmsc"),
                           ("clustered", "mmsc")):
            inst = generate("intervals", 32768, 32768, dist, seed=77)
            tracemalloc.start()
            try:
                prep = prepare_instance(inst.points, inst.objects)
                _, prep_peak = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                held, _ = tracemalloc.get_traced_memory()
                assert bottleneck_path(prep, mode) is not None
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert 3 * (peak - held) < prep_peak, (dist, mode)


class TestSolve:
    def test_fixture_optimum(self):
        points, intervals = greedy_trap_instance()
        sol = solve_intervals(points, intervals, "mmsc")
        assert sol.objective == 3
        assert sol.chosen == [0, 2, 3]

    def test_fixture_beats_greedy_extension(self):
        # prefix-greedy candidates {s1,s2,s4} and {s1,s2,s3,s4} evaluate
        # to membership 4 and 5; the optimum is 3
        points, intervals = greedy_trap_instance()
        greedy = [intervals[i] for i in (0, 1, 3)]
        assert evaluate_objective(points, greedy, "mmsc") == 4
        assert evaluate_objective(points, intervals, "mmsc") == 5
        assert solve_intervals(points, intervals, "mmsc").objective == 3

    def test_single_interval_weight_seven(self):
        sol = solve_intervals([F(1)], [iv(0, 2, 7)], "mmsc")
        assert sol.objective == 7 and sol.chosen == [0]

    def test_empty_points(self):
        sol = solve_intervals([], [iv(0, 1, 4)], "mmsc")
        assert sol.objective == 0 and sol.chosen == []

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            solve_intervals([F(10)], [iv(0, 1)], "mmsc")
        with pytest.raises(Infeasible):
            solve_intervals([F(1)], [], "mmsc")

    def test_infeasible_names_its_point_and_builds_no_dag(self,
                                                           monkeypatch):
        # the uncovered point is named before any path is searched
        built = []

        def spy(prep, mode="mmsc"):
            built.append(mode)
            return bottleneck_path(prep, mode)
        monkeypatch.setattr(intervals_mod, "bottleneck_path", spy)
        with pytest.raises(Infeasible,
                           match=r"^point 10 is covered by no interval$"):
            solve_intervals([F(1), 10, F(12)], [iv(0, 1)], "mpc")
        with pytest.raises(Infeasible, match=r"^point Fraction\(3, 2\) "):
            solve_intervals(*line_pairs([F(3, 2)], [iv(0, 1)]), "mmsc")
        assert built == []
        solve_intervals([F(1)], [iv(0, 1)], "mmsc")
        assert built == ["mmsc"]

    def test_uncovered_is_the_first_in_input_order(self):
        # against a brute force: the least index of an uncovered point, for
        # points as given and as pairs; the message names it as given
        rng = random.Random(27)
        named = later = 0
        for seed in range(200):
            inst = generate("intervals", rng.randint(0, 12),
                            rng.randint(1, 8),
                            rng.choice(["uniform", "clustered", "chain"]),
                            seed=seed, allow_uncovered=True)
            points = rng.sample(inst.points, len(inst.points))
            # repeated values, which come later in input order
            points += [F(x) for x in rng.sample(points, min(2, len(points)))]
            ivs = rng.sample(inst.objects, len(inst.objects))
            out = [k for k, x in enumerate(points)
                   if not any(s.lo <= x <= s.hi for s in ivs)]
            first = min(out, default=None)
            got = prepare_instance(points, ivs).uncovered
            pair = prepare_instance(*line_pairs(points, ivs)).uncovered
            assert got == pair == first, seed
            if first is None:
                continue
            with pytest.raises(Infeasible) as err:
                solve_intervals(points, ivs, rng.choice(["mmsc", "mpc"]))
            assert str(err.value) == (
                "point %r is covered by no interval" % (points[first],))
            named += 1
            # a smaller uncovered value comes later in input order
            later += points[first] != min(points[k] for k in out)
        assert named > 50 and later > 30

    def test_duplicate_intervals_resolve_to_cheapest_copy(self):
        sol = solve_intervals([F(1)], [iv(0, 2, 9), iv(0, 2, 2)], "mmsc")
        assert sol.chosen == [1]
        assert sol.objective == 2

    def test_nested_interval_not_needed(self):
        sol = solve_intervals([F(3, 2)], [iv(1, 2, 5), iv(0, 5, 9)], "mmsc")
        assert sol.objective == 5
        assert sol.chosen == [0]

    def test_matches_oracle_both_modes(self):
        rng = random.Random(42)
        for seed in range(60):
            inst = generate("intervals", rng.randint(0, 20),
                            rng.randint(1, 12),
                            rng.choice(["uniform", "clustered", "chain"]),
                            seed=seed + 1000)
            for mode in ("mmsc", "mpc"):
                sol = solve_intervals(inst.points, inst.objects, mode)
                opt, _ = exact_intervals(inst.points, inst.objects, mode)
                assert sol.objective == opt
                assert evaluate_objective(inst.points,
                                          [inst.objects[i] for i in sol.chosen],
                                          mode) == opt

    def test_sweep_matches_brute_force_count(self):
        # endpoints and points on a grid of eighths, so points on shared
        # and abutting endpoints and duplicate intervals are common
        rng = random.Random(45)
        for seed in range(200):
            ivs = []
            for _ in range(rng.randint(0, 9)):
                lo = F(rng.randint(-8, 8), 4)
                ivs.append(WeightedInterval(lo, lo + F(rng.randint(1, 8), 4),
                                            rng.choice((0, 1, F(1, 3),
                                                        F(2, 7), 5))))
            pts = [rng.choice((F, float))(
                F(rng.randint(-20, 30), 8)) for _ in range(rng.randint(0, 12))]
            counts, loads, w_scale = chosen_loads(pts, ivs)
            for p, c, load in zip(pts, counts, loads):
                inside = [s for s in ivs if s.contains(p)]
                assert c == len(inside), seed
                assert F(load, w_scale) == sum(s.weight for s in inside), seed
            for mode, xs in (("mmsc", pts), ("mpc", [s.lo for s in ivs])):
                want = max((sum(s.weight for s in ivs if s.contains(x))
                            for x in xs), default=0)
                got = evaluate_objective(pts, ivs, mode)
                assert got == want and type(got) is F, (seed, mode)

    def test_many_coprime_weight_denominators(self):
        # 300 distinct prime weight denominators: W has about 5000 bits
        m = 300
        ivs = [WeightedInterval(F(2 * i), F(2 * i + 3),
                                1 + i % 4 + F(1, _BIG_PRIMES[i]))
               for i in range(m)]
        pts = [F(2 * i + 1) for i in range(m)]
        for mode in ("mmsc", "mpc"):
            sol = solve_intervals(pts, ivs, mode)
            chosen = [ivs[i] for i in sol.chosen]
            assert type(sol.objective) is F
            assert sol.objective == evaluate_objective(pts, chosen, mode)
            # every point is covered and no point lies in two chosen
            # intervals whose weight sum beats the single heaviest needed
            assert all(any(s.contains(x) for s in chosen) for x in pts)
        assert solve_intervals(pts, ivs, "mmsc").objective < 5

    def test_unit_weights_reduce_to_unweighted(self):
        rng = random.Random(43)
        for seed in range(20):
            inst = generate("intervals", rng.randint(1, 15),
                            rng.randint(1, 10), "uniform", seed=seed)
            unit = [WeightedInterval(s.lo, s.hi, F(1)) for s in inst.objects]
            sol = solve_intervals(inst.points, unit, "mmsc")
            opt, _ = exact_intervals(inst.points, unit, "mmsc")
            assert sol.objective == opt
            assert sol.objective == int(sol.objective)

    def test_chosen_sets_stack_at_most_two_with_no_nesting(self):
        # at most two chosen intervals over any coordinate, no nesting
        rng = random.Random(44)
        for seed in range(40):
            inst = generate("intervals", rng.randint(1, 20),
                            rng.randint(1, 12), "uniform", seed=seed + 300)
            for mode in ("mmsc", "mpc"):
                sol = solve_intervals(inst.points, inst.objects, mode)
                chosen = [inst.objects[i] for i in sol.chosen]
                for x in {s.lo for s in chosen} | {s.hi for s in chosen}:
                    assert sum(1 for s in chosen if s.contains(x)) <= 2
                for a in chosen:
                    for b in chosen:
                        if a is b:
                            continue
                        assert not (a.lo <= b.lo and b.hi <= a.hi)

    def test_overlap_count_matches_quadratic_check(self):
        # the M of the 4m + 5M + 2 bound: closed-overlap pairs among the
        # intervals left after the dedupe, one per (lo, hi)
        rng = random.Random(45)
        for seed in range(40):
            if seed % 2:
                ivs = generate("intervals", 0, rng.randint(1, 12), "uniform",
                               seed=seed).objects
            else:  # abutting endpoints and repeated spans of other weights
                los = [F(rng.randint(-8, 8), 4)
                       for _ in range(rng.randint(1, 12))]
                ivs = [iv(lo, lo + F(rng.randint(1, 8), 4), rng.randint(0, 3))
                       for lo in los]
            spans = sorted({(s.lo, s.hi) for s in ivs})
            naive = sum(1 for i, a in enumerate(spans) for b in spans[i + 1:]
                        if max(a[0], b[0]) <= min(a[1], b[1]))
            dag = build_dag(prepare_instance([], ivs))
            assert dag.n_intervals == len(spans), seed
            assert dag.n_overlaps == naive, seed


def _fraction_load(text):
    """Reference reader of an interval file: every value through `Fraction`
    and every interval through `WeightedInterval`."""
    points, ivs = [], []
    for ln in text.splitlines()[1:]:
        rec = json.loads(ln)
        if "p" in rec:
            points.append(F(rec["p"][0]))
        else:
            lo, hi, w = rec["i"]
            ivs.append(WeightedInterval(F(lo), F(hi), F(w)))
    return points, ivs


def _file_instances():
    rng = random.Random(46)
    for dist in ("chain", "uniform", "clustered"):
        for seed in range(8):
            yield generate("intervals", rng.randint(0, 40),
                           rng.randint(1, 30), dist, seed=seed + 500)
    for seed in range(60):
        points, ivs = _gritty_intervals(random.Random(seed), mixed=True)
        yield Instance("intervals", points, ivs)


class TestPairPath:
    def test_pairs_and_objects_solve_alike(self):
        # the int pairs a file is read into solve exactly as the objects,
        # and the lazily built objects equal a Fraction-by-Fraction read
        for inst in _file_instances():
            text = dumps(inst)
            back = loads(text)
            for mode in ("mmsc", "mpc"):
                from_pairs = solve_intervals(*back.pairs, mode)
                from_objects = solve_intervals(inst.points, inst.objects, mode)
                assert from_pairs.chosen == from_objects.chosen
                assert from_pairs.objective == from_objects.objective
                assert type(from_pairs.objective) is F
            points, ivs = _fraction_load(text)
            assert back.points == points == inst.points
            assert all(type(x) is F for x in back.points)
            assert back.objects == ivs == inst.objects
            assert back.pairs == loads(text).pairs

    def test_pairs_of_objects_are_exact(self):
        points, ivs = greedy_trap_instance()
        inst = Instance("intervals", points, ivs)
        xs, pairs = inst.pairs
        assert [F(*x) for x in xs] == points
        assert [WeightedInterval(F(*lo), F(*hi), F(*w))
                for lo, hi, w in pairs] == ivs
        assert solve_intervals(xs, pairs).chosen == [0, 2, 3]

    def test_pairs_follow_the_lists_once_read(self):
        inst = loads(dumps(generate("intervals", 6, 5, "chain", seed=2)))
        file_pairs = inst.pairs
        inst.points.append(F(100, 3))
        assert inst.pairs[0] == file_pairs[0] + [(100, 3)]
        assert inst.pairs[1] == file_pairs[1]
        del inst.objects[2:]
        assert inst.pairs[1] == file_pairs[1][:2]

    def test_any_int_pairs_solve_as_their_values(self):
        # pairs a caller builds need not be in lowest terms or have den > 0
        rng = random.Random(47)

        def scramble(pair):
            k = rng.choice((1, 2, 3, -1, -6))
            return pair[0] * k, pair[1] * k

        for seed in range(60):
            points, ivs = _gritty_intervals(random.Random(seed), mixed=True)
            xs, pairs = line_pairs(points, ivs)
            xs = [scramble(x) for x in xs]
            pairs = [tuple(scramble(v) for v in s) for s in pairs]
            for mode in ("mmsc", "mpc"):
                got = solve_intervals(xs, pairs, mode)
                want = solve_intervals(points, ivs, mode)
                assert got.chosen == want.chosen, seed
                assert got.objective == want.objective, seed

    def test_bad_pairs_refused(self):
        one = (1, 1)
        for bad, why in ((((0, 1), (0, 5), one), "lo < hi"),
                         (((1, 3), (2, 6), one), "lo < hi"),
                         (((1, 1), (0, 1), one), "lo < hi"),
                         (((0, 1), one, (1, -2)), "nonnegative"),
                         (((0, 1), one, (-1, 9)), "nonnegative")):
            with pytest.raises(ValueError, match=why):
                solve_intervals([], [bad])
