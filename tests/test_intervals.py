import random
from fractions import Fraction as F

import pytest

from conftest import greedy_trap_instance

from plycover.errors import Infeasible, UnsortedInput
from plycover.geom import Point, WeightedInterval, ranks
from plycover.instances import generate
from plycover.intervals import (DagVertex, IntervalDag, V2,
                                bottleneck_path, build_dag, chosen_loads,
                                count_overlapping_pairs, evaluate_objective,
                                prepare_instance, solve_intervals)
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
        assert len(prep.reps) == 1

    def test_single_interval_three_strips(self):
        prep = prepare_instance([], [iv(0, 1)])
        assert prep.n_strips == 3

    def test_fixture_has_nine_strips(self):
        points, intervals = greedy_trap_instance()
        assert prepare_instance(points, intervals).n_strips == 9

    def test_unsorted_points_rejected(self):
        with pytest.raises(UnsortedInput):
            prepare_instance([F(2), F(1)], [iv(0, 3)])

    def test_unsorted_intervals_rejected(self):
        with pytest.raises(UnsortedInput):
            prepare_instance([], [iv(0, 5), iv(1, 2)])

    def test_duplicates_collapse_to_min_weight(self):
        prep = prepare_instance([], [iv(0, 1, 7), iv(0, 1, 3), iv(0, 1, 5)])
        assert len(prep.intervals) == 1
        assert prep.intervals[0].weight == 3
        assert prep.orig_idx == [1]


    def test_ranks_keep_order_and_ties_exactly(self):
        # ties across Fraction, int and float; values closer than 2**-64;
        # values far beyond float range
        tiny = F(1, 2 ** 70)
        vals = [F(1, 3), 0.5, 2, F(1, 100_003), F(1, 2), 2.0, F(-7, 9),
                F(1, 3) + tiny, F(1, 3) - tiny, F(10 ** 400), -F(10 ** 400),
                F(10 ** 400) + tiny, 0, -0.0, F(1, 3)]
        rk = ranks(vals)
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
        want = ranks(vals)
        assert want == [3, 4, 1, 3, 2, 4, 5, 5, 0, 6]

        class NoCompare(F):
            def _refuse(self, other):
                raise AssertionError("Fraction compared")
            __lt__ = __le__ = __gt__ = __ge__ = __eq__ = _refuse
            __hash__ = F.__hash__

        assert ranks([NoCompare(v) for v in vals]) == want

    def test_coordinates_become_ranks_whatever_the_denominators(self):
        # every endpoint over its own prime near 1e5: the lcm of the
        # denominators would have about 5000 bits, the ranks stay below
        # the number of coordinates
        m = 150
        ivs = [iv(F(2 * i) + F(1, _BIG_PRIMES[2 * i]),
                  F(2 * i + 3) + F(1, _BIG_PRIMES[2 * i + 1])) for i in range(m)]
        points = [ivs[0].lo, Point(F(5, 2), 0), 7, 7.5, ivs[-1].hi]
        prep = prepare_instance(points, ivs)
        bound = len(points) + 2 * m
        assert all(0 <= x < bound for x, _, _, _ in prep.events)
        assert all(0 <= x < bound for x in prep.reps)
        assert len(prep.reps) == len(points)


class TestBuildDag:
    def test_single_interval_single_point(self):
        prep = prepare_instance([F(1, 2)], [iv(0, 1, 5)])
        dag = build_dag(prep, "mmsc")
        path, value = bottleneck_path(dag)
        assert value == 5
        kinds = [dag.vertices[i].kind for i in path]
        assert kinds == [0, 1, 0]

    def test_disjoint_intervals_have_no_pair_vertices(self):
        prep = prepare_instance([], [iv(0, 1), iv(2, 3)])
        dag = build_dag(prep, "mmsc")
        assert all(v.kind != V2 for v in dag.vertices)
        assert dag.n_overlaps == 0

    def test_fixture_pair_vertex_weight_three(self):
        points, intervals = greedy_trap_instance()
        dag = build_dag(prepare_instance(points, intervals), "mmsc")
        pairs = [v for v in dag.vertices if v.kind == V2 and v.q == 0 and v.r == 2]
        assert len(pairs) == 1
        assert pairs[0].weight == 3

    def test_mpc_weights_apply_without_points(self):
        prep = prepare_instance([], [iv(0, 2, 4), iv(1, 3, 6)])
        mmsc = build_dag(prep, "mmsc")
        mpc = build_dag(prep, "mpc")
        assert all(v.weight == 0 for v in mmsc.vertices)
        assert max(v.weight for v in mpc.vertices) == 10

    def test_vertex_weights_are_scaled_by_weight_scale(self):
        ivs = [iv(0, 2, F(1, 3)), iv(1, 3, F(2, 7)), iv(2, 5, F(2, 5)),
               iv(4, 6, 1)]
        prep = prepare_instance([F(1, 2), F(3, 2), F(9, 2)], ivs)
        assert prep.weight_scale == 105
        for mode in ("mmsc", "mpc"):
            dag = build_dag(prep, mode)
            seen = set()
            for v in dag.vertices:
                real = F(v.weight, prep.weight_scale)
                if v.kind == V2 and v.weight:
                    assert real == ivs[v.q].weight + ivs[v.r].weight
                    seen.add(v.kind)
                elif v.weight:
                    assert real == ivs[v.q].weight
                    seen.add(v.kind)
            assert seen == {1, 2}
            _, value = bottleneck_path(dag)
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
        with pytest.raises(ValueError):
            build_dag(prepare_instance([], [iv(0, 1)]), "minsum")


def _chain_dag(weights):
    vertices = [DagVertex(0, i, weight=F(w)) for i, w in enumerate(weights)]
    adj = [[i + 1] for i in range(len(weights) - 1)] + [[]]
    return IntervalDag(vertices, adj, 0, len(weights) - 1, 0, 0)


def _enumerate_paths(dag):
    out = []

    def walk(u, acc):
        acc = max(acc, dag.vertices[u].weight)
        if u == dag.sink:
            out.append(acc)
            return
        for v in dag.adj[u]:
            walk(v, acc)

    walk(dag.source, dag.vertices[dag.source].weight)
    return out


class TestBottleneck:
    def test_chain(self):
        assert bottleneck_path(_chain_dag([0, 5, 0]))[1] == 5

    def test_parallel_chains(self):
        vertices = [DagVertex(0, i, weight=F(w))
                    for i, w in enumerate([0, 3, 4, 0])]
        adj = [[1, 2], [3], [3], []]
        dag = IntervalDag(vertices, adj, 0, 3, 0, 0)
        path, value = bottleneck_path(dag)
        assert value == 3
        assert path == [0, 1, 3]

    def test_unreachable_sink(self):
        vertices = [DagVertex(0, 0), DagVertex(0, 1)]
        dag = IntervalDag(vertices, [[], []], 0, 1, 0, 0)
        assert bottleneck_path(dag) is None

    def test_random_dags_match_path_enumeration(self):
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(2, 12)
            vertices = [DagVertex(0, i, weight=F(rng.randint(0, 9)))
                        for i in range(n)]
            adj = [[] for _ in range(n)]
            for i in range(n - 1):
                adj[i].append(i + 1)  # keep the sink reachable
                for j in range(i + 2, n):
                    if rng.random() < 0.3:
                        adj[i].append(j)
            dag = IntervalDag(vertices, adj, 0, n - 1, 0, 0)
            _, value = bottleneck_path(dag)
            assert value == min(_enumerate_paths(dag))


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
            pts = [rng.choice((F, lambda x: Point(x, 0), float))(
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
        rng = random.Random(45)
        for seed in range(20):
            inst = generate("intervals", 0, rng.randint(1, 12), "uniform",
                            seed=seed)
            ivs = inst.objects
            naive = sum(1 for i in range(len(ivs)) for j in range(i + 1, len(ivs))
                        if max(ivs[i].lo, ivs[j].lo) <= min(ivs[i].hi, ivs[j].hi))
            assert count_overlapping_pairs(ivs) == naive
