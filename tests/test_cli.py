import gc
import json
import random
import signal
import sys
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from conftest import greedy_trap_instance, nudged

from plycover import cli
from plycover.cli import main
from plycover.geom import (Point, UnitDisk, UnitRect, WeightedInterval,
                           disks_cover, disks_disjoint, ply_disks)
from plycover.instances import Instance, generate, load, save


@contextmanager
def _alarm(seconds):
    """Fail the test with an error if its body runs past `seconds`."""
    def expired(signum, frame):
        raise TimeoutError("still running after %d s" % seconds)

    old = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _fig_instance():
    points, intervals = greedy_trap_instance()
    return Instance("intervals", points, intervals)


def _run_gen_solve_check(tmp_path, kind, seed, n=6, m=6, dist="uniform"):
    inst = tmp_path / "inst.jsonl"
    sol = tmp_path / "sol.json"
    assert main(["gen", "--kind", kind if kind != "3color" else "disks",
                 "-n", str(n), "-m", str(m), "--dist", dist,
                 "--seed", str(seed), "--out", str(inst)]) == 0
    assert main(["solve", "--kind", kind, "--in", str(inst),
                 "--out", str(sol)]) == 0
    assert main(["check", "--in", str(inst), "--solution", str(sol)]) == 0
    return inst, sol


class TestSolveCheck:
    def test_rects_end_to_end(self, tmp_path):
        _run_gen_solve_check(tmp_path, "rects", seed=11)

    def test_disks_end_to_end(self, tmp_path):
        _run_gen_solve_check(tmp_path, "disks", seed=12)

    def test_3color_end_to_end(self, tmp_path):
        inst, sol = _run_gen_solve_check(tmp_path, "3color", seed=0)
        data = json.loads(sol.read_text())
        assert data["colors"]
        assert all(1 <= v <= 6 for v in data["colors"].values())

    def test_intervals_fixture_objective(self, tmp_path):
        inst = tmp_path / "trap.jsonl"
        sol = tmp_path / "sol.json"
        save(_fig_instance(), inst)
        assert main(["solve", "--kind", "intervals", "--mode", "mmsc",
                     "--in", str(inst), "--out", str(sol)]) == 0
        data = json.loads(sol.read_text())
        assert data["objective"] == "3"
        assert data["chosen"] == [0, 2, 3]
        assert main(["check", "--in", str(inst), "--solution", str(sol)]) == 0

    def test_intervals_in_any_order(self, tmp_path, capsys):
        # points and intervals need not be sorted
        inst = tmp_path / "inst.jsonl"
        sol = tmp_path / "sol.json"
        inst.write_text('{"kind":"intervals"}\n{"p":["3"]}\n{"p":["1"]}\n'
                        '{"i":["0","2","1"]}\n{"i":["2","4","1"]}\n')
        for command in ("solve", "oracle"):
            assert main([command, "--kind", "intervals", "--in", str(inst),
                         "--out", str(sol)]) == 0
            capsys.readouterr()
            assert main(["check", "--in", str(inst),
                         "--solution", str(sol)]) == 0
            assert capsys.readouterr().out == "ok: 2 objects, objective 2\n"

    def test_tampered_solution_reports_uncovered_point(self, tmp_path, capsys):
        inst = tmp_path / "trap.jsonl"
        sol = tmp_path / "sol.json"
        save(_fig_instance(), inst)
        main(["solve", "--kind", "intervals", "--mode", "mmsc",
              "--in", str(inst), "--out", str(sol)])
        data = json.loads(sol.read_text())
        data["chosen"].remove(3)
        sol.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["check", "--in", str(inst), "--solution", str(sol)]) == 1
        assert "uncovered point" in capsys.readouterr().err

    def test_objective_mismatch_detected(self, tmp_path, capsys):
        inst = tmp_path / "trap.jsonl"
        sol = tmp_path / "sol.json"
        save(_fig_instance(), inst)
        main(["solve", "--kind", "intervals", "--mode", "mmsc",
              "--in", str(inst), "--out", str(sol)])
        data = json.loads(sol.read_text())
        data["objective"] = "4"
        sol.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["check", "--in", str(inst), "--solution", str(sol)]) == 1
        assert "mismatch" in capsys.readouterr().err


    @pytest.mark.parametrize("value", ["1e100000000", "-1e-100000000",
                                       "1.5E+99999999"])
    def test_huge_decimal_exponents_are_refused_at_once(self, tmp_path,
                                                        capsys, value):
        # Fraction would compute 10 ** exponent for minutes; the loader and
        # `check` refuse an exponent past int()'s digit limit instead
        inst, sol = tmp_path / "inst.jsonl", tmp_path / "sol.json"
        records = {"rects": '{"p":["1/2","1/2"]}\n{"r":["0","%s","1"]}',
                   "intervals": '{"p":["1/2"]}\n{"i":["%s","1","1"]}'}
        with _alarm(10):
            for kind, body in records.items():
                inst.write_text('{"kind":"%s"}\n%s\n' % (kind, body % value))
                capsys.readouterr()
                assert main(["solve", "--kind", kind, "--in", str(inst),
                             "--out", str(sol)]) == 1
                tag = "r" if kind == "rects" else "i"
                assert capsys.readouterr().err == (
                    "error: line 3: bad %r record: decimal exponent beyond "
                    "%d in magnitude\n" % (tag, sys.get_int_max_str_digits()))
            save(_fig_instance(), inst)
            sol.write_text('{"kind":"intervals","chosen":[0,2,3],'
                           '"objective":"%s"}' % value)
            assert main(["check", "--in", str(inst),
                         "--solution", str(sol)]) == 1
            assert capsys.readouterr().err.startswith("usage error:")

    def test_exponents_within_the_limit_load_exactly(self, tmp_path, capsys):
        inst, sol = tmp_path / "inst.jsonl", tmp_path / "sol.json"
        inst.write_text('{"kind":"rects"}\n{"p":["1e300","2e-3"]}\n'
                        '{"r":["1e300","0","1"]}\n')
        assert load(inst).points == [Point(F(10) ** 300, F(1, 500))]
        assert main(["solve", "--kind", "rects", "--in", str(inst),
                     "--out", str(sol)]) == 0
        save(_fig_instance(), inst)
        sol.write_text('{"kind":"intervals","chosen":[0,2,3],'
                       '"objective":"0.03e2"}')
        capsys.readouterr()
        assert main(["check", "--in", str(inst), "--solution", str(sol)]) == 0
        assert capsys.readouterr().out == "ok: 3 objects, objective 0.03e2\n"

    @pytest.mark.parametrize("body", [
        '[1]', '"x"', '{"kind":"intervals","chosen":[0,2,3]}',
        '{"kind":"squares","chosen":[],"objective":0}',
        '{"kind":"intervals","chosen":{"0":1},"objective":"3"}',
        '{"kind":"intervals","chosen":[0,"2",3],"objective":"3"}',
        '{"kind":"intervals","chosen":[0,2.0,3],"objective":"3"}',
        '{"kind":"intervals","chosen":[0,true],"objective":"3"}',
        '{"kind":"intervals","chosen":[0,2,3],"objective":[3]}',
        '{"kind":"intervals","chosen":[0,2,3],"objective":"1/0"}',
        '{"kind":"intervals","chosen":[0,2,3],"objective":"three"}',
        '{"kind":"3color","chosen":[0],"objective":1,"colors":[1]}',
        '{"kind":"3color","chosen":[0],"objective":1,"colors":{"0":null}}',
        '{"kind":"3color","chosen":[0],"objective":1}',
        '{"kind":"3color","chosen":[0],"objective":1,"colors":{"99":1}}',
        '{"kind":"intervals","chosen":[0,2,3],"objective":"3"',
        '{"kind":"intervals","chosen":[0,99],"objective":"3"}',
        '{"kind":"intervals","chosen":[-1],"objective":"3"}',
        # interval 2 twice: the objective is what counting it twice gives
        '{"kind":"intervals","chosen":[0,2,2,3],"objective":"4"}',
        '{"kind":"intervals","chosen":[0,2,3],"objective":"3","mode":"xyz"}'])
    @pytest.mark.parametrize("command", ["check", "render"])
    def test_malformed_solution_is_refused(self, tmp_path, capsys, body,
                                           command):
        inst = tmp_path / "trap.jsonl"
        sol = tmp_path / "sol.json"
        save(_fig_instance(), inst)
        sol.write_text(body)
        capsys.readouterr()
        out = ["--out", str(tmp_path / "pic.svg")] if command == "render" else []
        assert main([command, "--in", str(inst), "--solution", str(sol),
                     *out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(("usage error:", "error:"))
        assert "Traceback" not in err
        if '"mode"' in body:
            assert err == "usage error: solution file has unknown mode 'xyz'\n"

    @pytest.mark.parametrize("command", ["check", "render"])
    def test_colors_not_partitioning_chosen_are_refused(self, tmp_path,
                                                        capsys, command):
        inst = tmp_path / "disks.jsonl"
        sol = tmp_path / "sol.json"
        assert main(["gen", "--kind", "disks", "-n", "6", "-m", "6",
                     "--seed", "0", "--out", str(inst)]) == 0
        assert main(["solve", "--kind", "3color", "--in", str(inst),
                     "--out", str(sol)]) == 0
        data = json.loads(sol.read_text())
        first = str(data["chosen"][0])
        data["colors"]["99"] = data["colors"].pop(first)
        sol.write_text(json.dumps(data))
        capsys.readouterr()
        out = ["--out", str(tmp_path / "pic.svg")] if command == "render" else []
        assert main([command, "--in", str(inst), "--solution", str(sol),
                     *out]) == 1
        err = capsys.readouterr().err
        assert "colors do not partition the chosen set" in err
        assert "Traceback" not in err
        assert not (tmp_path / "pic.svg").exists()

    @pytest.mark.parametrize("body", [
        '{"kind":"disks","chosen":[0],"objective":1,"colors":5}',
        '{"kind":"disks","chosen":[0],"objective":1,"colors":{"0":[1]}}',
        '{"kind":"disks","chosen":[0],"objective":1,"colors":{"0":1.7}}',
        '{"kind":"3color","chosen":[0],"objective":1,"colors":{"²":1}}',
        '{"kind":"3color","chosen":[0],"objective":1,"colors":{"%s":1}}'
        % ("0" * 4401),
        '{"kind":"disks","chosen":[0],"objective":1,'
        '"colors":{"0":1,"00":2}}'],
        ids=["not-a-map", "list-color", "float-color", "superscript-key",
             "oversized-key", "repeated-index"])
    @pytest.mark.parametrize("command", ["check", "render"])
    def test_malformed_colors_are_refused(self, tmp_path, capsys, body,
                                          command):
        # a colors field is checked for every kind; "²" is a digit to
        # str.isdigit but no decimal that int() reads, and int() refuses
        # a key of more than 4,300 digits
        inst = tmp_path / "disk.jsonl"
        sol = tmp_path / "sol.json"
        out = tmp_path / "pic.svg"
        inst.write_text('{"kind":"disks"}\n{"p":[0.0,0.0]}\n'
                        '{"d":[0.0,0.0]}\n')
        sol.write_text(body)
        capsys.readouterr()
        extra = ["--out", str(out)] if command == "render" else []
        assert main([command, "--in", str(inst), "--solution", str(sol),
                     *extra]) == 1
        assert capsys.readouterr().err == (
            "usage error: solution file needs \"colors\", a map from chosen "
            "index to int color\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind,records", [
        ("rects", '{"p":["1/2","1/2"]}\n{"r":["0","0","1"]}\n'
                  '{"r":["3","0","1"]}\n'),
        ("disks", '{"p":[0.0,0.0]}\n{"d":[0.0,0.0]}\n{"d":[3.0,0.0]}\n'),
        ("intervals", '{"p":["1"]}\n{"i":["0","2","1"]}\n'
                      '{"i":["3","4","1"]}\n')],
        ids=["rects", "disks", "intervals"])
    @pytest.mark.parametrize("command", ["check", "render"])
    def test_colors_of_unchosen_objects_are_refused(self, tmp_path, capsys,
                                                    kind, records, command):
        # a colors map may color chosen objects only, for every kind
        inst = tmp_path / "inst.jsonl"
        sol = tmp_path / "sol.json"
        out = tmp_path / "pic.svg"
        inst.write_text('{"kind":"%s"}\n%s' % (kind, records))
        sol.write_text('{"kind":"%s","chosen":[0],"objective":1,'
                       '"colors":{"0":1,"1":2}}' % kind)
        capsys.readouterr()
        extra = ["--out", str(out)] if command == "render" else []
        assert main([command, "--in", str(inst), "--solution", str(sol),
                     *extra]) == 1
        assert capsys.readouterr().err == (
            "usage error: colors name an object that is not chosen\n")
        assert not out.exists()

    def test_intervals_third_weights_round_trip(self, tmp_path):
        inst = tmp_path / "inst.jsonl"
        sol = tmp_path / "sol.json"
        assert main(["gen", "--kind", "intervals", "-n", "12", "-m", "10",
                     "--dist", "uniform", "--seed", "21",
                     "--out", str(inst)]) == 0
        gen = load(inst)
        save(Instance("intervals", gen.points,
                      [WeightedInterval(s.lo, s.hi, F(1, 3))
                       for s in gen.objects], gen.seed, gen.meta), inst)
        for mode in ("mmsc", "mpc"):
            assert main(["solve", "--kind", "intervals", "--mode", mode,
                         "--in", str(inst), "--out", str(sol)]) == 0
            # an optimum never stacks three intervals, so it is 1/3 or 2/3
            assert json.loads(sol.read_text())["objective"] in ("1/3", "2/3")
            assert main(["check", "--in", str(inst),
                         "--solution", str(sol)]) == 0


class TestExitCodes:
    def test_infeasible_exits_two(self, tmp_path):
        inst = tmp_path / "bad.jsonl"
        sol = tmp_path / "sol.json"
        bad = generate("rects", 3, 3, "uniform", seed=1, allow_uncovered=True)
        save(bad, inst)
        code = main(["solve", "--kind", "rects", "--in", str(inst),
                     "--out", str(sol)])
        assert code == 2

    @pytest.mark.parametrize("kind, seed, noun", [
        ("rects", 3, "object"), ("intervals", 2, "interval")],
        ids=["rects", "intervals"])
    def test_gen_allow_uncovered_end_to_end(self, tmp_path, capsys, kind,
                                            seed, noun):
        # gen --allow-uncovered writes a file with points in no object;
        # solve and oracle both refuse it, naming the uncovered point
        # given first.  For rects seed 3 that point is not the first
        # uncovered one in sweep order
        from conftest import covers
        inst = tmp_path / "gap.jsonl"
        assert main(["gen", "--kind", kind, "-n", "6", "-m", "4",
                     "--seed", str(seed), "--allow-uncovered",
                     "--out", str(inst)]) == 0
        loaded = load(inst)
        uncovered = [p for p in loaded.points
                     if not covers([p], loaded.objects)]
        assert uncovered
        want = "infeasible: point %r is covered by no %s\n" % (uncovered[0],
                                                               noun)
        for command in ("solve", "oracle"):
            capsys.readouterr()
            assert main([command, "--kind", kind, "--in", str(inst),
                         "--out", str(tmp_path / "s.json")]) == 2
            assert capsys.readouterr().err == want
        assert not (tmp_path / "s.json").exists()

    def test_uncovered_interval_point_is_named(self, tmp_path, capsys):
        # the first point in input order that no interval covers, shown as
        # its Fraction; 5/2 comes first in sweep order and 1/2 is covered
        inst = tmp_path / "gap.jsonl"
        inst.write_text('{"kind":"intervals"}\n{"p":["7"]}\n{"p":["5/2"]}\n'
                        '{"p":["1/2"]}\n{"i":["0","2","1"]}\n')
        for mode in ("mmsc", "mpc"):
            capsys.readouterr()
            assert main(["solve", "--kind", "intervals", "--mode", mode,
                         "--in", str(inst),
                         "--out", str(tmp_path / "s.json")]) == 2
            assert capsys.readouterr().err == (
                "infeasible: point Fraction(7, 1) is covered by no interval\n")

    def test_budget_exceeded_exits_three(self, tmp_path):
        from conftest import forced_pair_rects
        points, rects = forced_pair_rects()
        inst = tmp_path / "pair.jsonl"
        sol = tmp_path / "sol.json"
        save(Instance("rects", points, rects), inst)
        assert main(["solve", "--kind", "rects", "--ell-max", "1",
                     "--in", str(inst), "--out", str(sol)]) == 3

    def test_mmsc_outside_intervals_is_usage_error(self, tmp_path):
        inst = tmp_path / "inst.jsonl"
        save(generate("rects", 2, 2, "uniform", seed=0), inst)
        assert main(["solve", "--kind", "rects", "--mode", "mmsc",
                     "--in", str(inst), "--out", str(tmp_path / "s.json")]) == 1

    @pytest.mark.parametrize("kind,gen_kind", [("3color", "disks"),
                                               ("intervals", "intervals")])
    def test_ell_max_outside_rects_and_disks_is_usage_error(
            self, tmp_path, capsys, kind, gen_kind):
        inst = tmp_path / "inst.jsonl"
        out = tmp_path / "s.json"
        save(generate(gen_kind, 4, 4, "uniform", seed=0), inst)
        capsys.readouterr()
        assert main(["solve", "--kind", kind, "--ell-max", "2",
                     "--in", str(inst), "--out", str(out)]) == 1
        assert "--ell-max" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ell_max", ["0", "-1"])
    @pytest.mark.parametrize("kind", ["rects", "disks"])
    def test_non_positive_ell_max_is_usage_error(self, tmp_path, capsys,
                                                 kind, ell_max):
        inst = tmp_path / "inst.jsonl"
        out = tmp_path / "s.json"
        save(generate(kind, 4, 4, "uniform", seed=0), inst)
        capsys.readouterr()
        assert main(["solve", "--kind", kind, "--ell-max", ell_max,
                     "--in", str(inst), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--ell-max" in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["rects", "disks", "intervals"])
    def test_negative_point_count_is_refused(self, tmp_path, capsys, kind):
        out = tmp_path / "inst.jsonl"
        with pytest.raises(ValueError, match="nonnegative number of points"):
            generate(kind, -3, 2, "uniform", seed=0)
        capsys.readouterr()
        assert main(["gen", "--kind", kind, "-n", "-3", "-m", "2",
                     "--out", str(out)]) == 1
        assert "nonnegative number of points" in capsys.readouterr().err
        assert not out.exists()
        assert main(["gen", "--kind", kind, "-n", "0", "-m", "2",
                     "--out", str(out)]) == 0
        assert load(out).points == []

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["solve", "--kind", "rects", "--in",
                     str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "s.json")]) == 1

    def test_malformed_record_is_usage_error(self, tmp_path, capsys):
        inst = tmp_path / "bad.jsonl"
        for body in ('{"p":["0"]}', '{"d":[NaN,0]}'):
            kind = "disks" if "d" in body else "rects"
            inst.write_text('{"kind":"%s"}\n{"p":[0,0]}\n%s\n' % (kind, body))
            capsys.readouterr()
            assert main(["solve", "--kind", kind, "--in", str(inst),
                         "--out", str(tmp_path / "s.json")]) == 1
            err = capsys.readouterr().err
            assert "line 3" in err and "Traceback" not in err

    @pytest.mark.parametrize("where", ["record", "header", "solution"])
    def test_deeply_nested_json_is_refused(self, tmp_path, capsys, where):
        # the C scanner raises RecursionError past the recursion limit
        deep = "[" * 200_000 + "]" * 200_000
        head, rec = '{"kind":"intervals"}', '{"i":[0,2,1]}'
        sol = '{"kind":"intervals","chosen":[0],"objective":1}'
        if where == "record":
            rec = deep
        elif where == "header":
            head = deep
        else:
            sol = deep
        inst = tmp_path / "in.jsonl"
        inst.write_text('%s\n{"p":["1"]}\n%s\n' % (head, rec))
        (tmp_path / "sol.json").write_text(sol)
        assert main(["check", "--in", str(inst),
                     "--solution", str(tmp_path / "sol.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith({"record": "error: line 3: ",
                               "header": "error: line 1: ",
                               "solution": "usage error: "}[where]), err
        assert "Traceback" not in err


    @pytest.mark.parametrize("kind, body", [
        ("rects", '{"p":[true,0]}'),
        ("rects", '{"r":[0,0,true]}'),
        ("disks", '{"d":[0,false]}'),
        ("intervals", '{"i":[false,true,true]}'),
    ])
    def test_boolean_value_is_refused(self, tmp_path, capsys, kind, body):
        # json reads true and false as bools, which Fraction and float
        # would take as 1 and 0
        inst = tmp_path / "bad.jsonl"
        first = '{"p":["0"]}' if kind == "intervals" else '{"p":[0,0]}'
        inst.write_text('{"kind":"%s"}\n%s\n%s\n' % (kind, first, body))
        assert main(["solve", "--kind", kind, "--in", str(inst),
                     "--out", str(tmp_path / "s.json")]) == 1
        err = capsys.readouterr().err
        assert "line 3: bad %r record" % body[2] in err
        assert "Traceback" not in err

    def test_eps_option_is_gone(self, tmp_path, capsys):
        # disks are exact closed sets: solve and oracle agree on this
        # instance, whose first point lies 4e-4 outside its disk, and no
        # command takes a tolerance
        inst = tmp_path / "inst.jsonl"
        sol = tmp_path / "s.json"
        save(Instance("disks", [Point(0.31, 1.0004), Point(5.0, -0.88212)],
                      [UnitDisk(Point(0.3, 0.5)),
                       UnitDisk(Point(5.02, -0.48212))]), inst)
        for kind in ("disks", "3color"):
            for cmd in ("solve", "oracle"):
                argv = [cmd, "--kind", kind, "--in", str(inst),
                        "--out", str(sol)]
                assert main(argv) == 2
                capsys.readouterr()
                assert main(argv + ["--eps", "1e-3"]) == 1
                assert "usage error" in capsys.readouterr().err
        assert main(["check", "--in", str(inst), "--solution", str(sol),
                     "--eps", "1e-3"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_kind_mismatch_is_usage_error(self, tmp_path):
        inst = tmp_path / "inst.jsonl"
        save(generate("disks", 2, 2, "uniform", seed=0), inst)
        assert main(["solve", "--kind", "rects", "--in", str(inst),
                     "--out", str(tmp_path / "s.json")]) == 1


class TestExactDisks:
    """Disks are exact closed sets of diameter 1 at any magnitude."""

    @pytest.mark.parametrize("y", [1e16, -1e16, 1e300])
    def test_huge_coordinates_solve_and_render(self, tmp_path, y):
        inst = tmp_path / "inst.jsonl"
        sol = tmp_path / "s.json"
        save(Instance("disks", [Point(3.0, y)], [UnitDisk(Point(3.0, y))]),
             inst)
        for kind in ("disks", "3color"):
            assert main(["solve", "--kind", kind, "--in", str(inst),
                         "--out", str(sol)]) == 0
            data = json.loads(sol.read_text())
            assert data["chosen"] == [0] and data["objective"] == 1
            assert main(["check", "--in", str(inst),
                         "--solution", str(sol)]) == 0
            assert main(["render", "--in", str(inst), "--solution", str(sol),
                         "--out", str(tmp_path / "pic.svg")]) == 0

    def test_point_just_outside_is_infeasible(self, tmp_path):
        inst = tmp_path / "inst.jsonl"
        save(Instance("disks", [Point(0.5 + 5e-10, 0.0)],
                      [UnitDisk(Point(0.0, 0.0))]), inst)
        for cmd in ("solve", "oracle"):
            for kind in ("disks", "3color"):
                assert main([cmd, "--kind", kind, "--in", str(inst),
                             "--out", str(tmp_path / "s.json")]) == 2

    def test_disks_just_apart_share_no_point(self, tmp_path):
        a, b = UnitDisk(Point(0.0, 0.0)), UnitDisk(Point(1.0 + 5e-10, 0.0))
        assert disks_disjoint(a, b) and ply_disks([a, b]) == 1
        inst = tmp_path / "inst.jsonl"
        sol = tmp_path / "s.json"
        save(Instance("disks", [a.center, b.center], [a, b]), inst)
        assert main(["solve", "--kind", "disks", "--in", str(inst),
                     "--out", str(sol)]) == 0
        assert json.loads(sol.read_text())["objective"] == 1
        sol.write_text(json.dumps({"kind": "3color", "chosen": [0, 1],
                                   "colors": {"0": 1, "1": 1},
                                   "objective": 1}))
        assert main(["check", "--in", str(inst), "--solution", str(sol)]) == 0

    def test_tangent_disks_meet(self):
        a, b = UnitDisk(Point(0.0, 0.0)), UnitDisk(Point(1.0, 0.0))
        assert not disks_disjoint(a, b) and ply_disks([a, b]) == 2
        assert a.contains(Point(0.5, 0.0)) and b.contains(Point(0.5, 0.0))


def _brute_cover(points, disks):
    return [any(d.contains(p) for d in disks) for p in points]


def _brute_disjoint(disks):
    return all(disks_disjoint(disks[a], disks[b])
               for a in range(len(disks)) for b in range(a + 1, len(disks)))


def _tangent_disks_and_edge_points(rng):
    """Disks on the half-integer grid, some moved by an ulp, so that many
    pairs touch or miss by an ulp, and points on their boundary circles,
    an ulp inside or outside, and anywhere; coordinates of both signs."""
    disks = []
    for _ in range(rng.randint(1, 12)):
        x, y = rng.randint(-6, 6) / 2, rng.randint(-6, 6) / 2
        disks.append(UnitDisk(Point(nudged(x, rng.choice((-1, 0, 1))),
                                    nudged(y, rng.choice((-1, 0, 1))))))
    points = [Point(rng.uniform(-4, 4), rng.uniform(-4, 4))
              for _ in range(rng.randint(0, 3))]
    for _ in range(rng.randint(1, 10)):
        c = rng.choice(disks).center
        dx, dy = rng.choice(((0.5, 0.0), (0.0, 0.5), (0.3, 0.4), (0.0, 0.0)))
        sx, sy = rng.choice((-1, 1)), rng.choice((-1, 1))
        points.append(Point(nudged(c.x + sx * dx, rng.choice((-1, 0, 1))),
                            nudged(c.y + sy * dy, rng.choice((-1, 0, 1)))))
    return points, disks


class TestCheckDisks:
    """`check` tests each point only against nearby disks, and each color
    class by its ply, and decides as the all-pairs loops do."""

    def test_matches_brute_force_loops(self, tmp_path, capsys):
        rng = random.Random(0xC4EC)
        inst, sol = tmp_path / "inst.jsonl", tmp_path / "s.json"

        def check(points, disks, colors):
            save(Instance("disks", points, disks), inst)
            sol.write_text(json.dumps({
                "kind": "3color", "chosen": sorted(colors),
                "colors": {str(i): c for i, c in colors.items()},
                "objective": ply_disks([disks[i] for i in sorted(colors)])}))
            capsys.readouterr()
            rc = main(["check", "--in", str(inst), "--solution", str(sol)])
            return rc, capsys.readouterr().err

        # one class of two disks: coincident and exactly 1 apart share a
        # point, 1 + 5e-10 apart do not
        clash = (1, "color class 1 is not pairwise disjoint\n")
        for dx, want in ((0.0, clash), (1.0, clash), (1.0 + 5e-10, (0, ""))):
            a, b = UnitDisk(Point(0.0, 0.0)), UnitDisk(Point(dx, 0.0))
            assert (ply_disks([a, b]) <= 1) == _brute_disjoint([a, b])
            assert check([a.center], [a, b], {0: 1, 1: 1}) == want, dx
        verdicts = set()
        for seed in range(400):
            points, disks = _tangent_disks_and_edge_points(rng)
            assert disks_cover(points, disks) == _brute_cover(points, disks)
            assert (ply_disks(disks) <= 1) == _brute_disjoint(disks), seed
            chosen = sorted(rng.sample(range(len(disks)),
                                       rng.randint(1, len(disks))))
            colors = {i: rng.randint(1, 6) for i in chosen}
            objs = [disks[i] for i in chosen]
            if seed % 2:
                # keep the points the chosen disks cover, so that the
                # colors are checked too
                points = [p for p, h in zip(points, _brute_cover(points, objs))
                          if h]
            rc, err = check(points, disks, colors)
            hit = _brute_cover(points, objs)
            clashing = [c for c in sorted(set(colors.values()))
                        if not _brute_disjoint([disks[i] for i in chosen
                                                if colors[i] == c])]
            if not all(hit):
                want = "uncovered point at index %d\n" % hit.index(False)
            elif clashing:
                want = ("color class %d is not pairwise disjoint\n"
                        % clashing[0])
            else:
                want = ""
            assert (rc, err) == (1 if want else 0, want), seed
            verdicts.add(want.split(" ")[0])
        assert verdicts == {"", "uncovered", "color"}

    def test_check_tests_nearby_disks_only(self, tmp_path, monkeypatch):
        inst, sol = _run_gen_solve_check(tmp_path, "3color", seed=3,
                                         n=2000, m=2000)
        calls = [0]
        real = UnitDisk.contains

        def counted(self, p):
            calls[0] += 1
            return real(self, p)
        monkeypatch.setattr(UnitDisk, "contains", counted)
        assert main(["check", "--in", str(inst), "--solution", str(sol)]) == 0
        # the all-pairs loops made about 2000 * 1000 tests here
        assert calls[0] < 20_000


class TestOracleCommand:
    @pytest.mark.parametrize("kind, mode", [
        ("rects", []), ("disks", []), ("3color", []),
        ("intervals", ["--mode", "mmsc"]), ("intervals", ["--mode", "mpc"])],
        ids=["rects", "disks", "3color", "mmsc", "mpc"])
    def test_oracle_solution_passes_check(self, tmp_path, kind, mode):
        inst = tmp_path / "inst.jsonl"
        sol = tmp_path / "oracle.json"
        gen_kind = "disks" if kind == "3color" else kind
        save(generate(gen_kind, 5, 6, "uniform", seed=8), inst)
        assert main(["oracle", "--kind", kind, *mode, "--in", str(inst),
                     "--out", str(sol)]) == 0
        assert main(["check", "--in", str(inst), "--solution", str(sol)]) == 0

    @pytest.mark.parametrize("kind, body, later", [
        ("rects", '{"p":["1/2","1/2"]}\n{"p":["9","5/2"]}\n'
         '{"r":["0","0","1"]}\n', '{"p":["5","5/2"]}\n'),
        ("disks", '{"p":[0.25,0.0]}\n{"p":[3.0,0.5]}\n{"d":[0.0,0.0]}\n',
         '{"p":[2.0,0.0]}\n'),
        ("3color", '{"p":[0.25,0.0]}\n{"p":[3.0,0.5]}\n{"d":[0.0,0.0]}\n',
         '{"p":[2.0,0.0]}\n'),
        ("intervals", '{"p":["1/2"]}\n{"p":["7"]}\n{"i":["0","2","1"]}\n',
         '{"p":["5/2"]}\n')],
        ids=["rects", "disks", "3color", "intervals"])
    def test_oracle_names_the_uncovered_point_as_solve_does(
            self, tmp_path, capsys, kind, body, later):
        # one point in no object: both commands name it, in the same words;
        # with a second one, first in sweep order but given later, both
        # name the one given first
        inst = tmp_path / "gap.jsonl"
        file_kind = "disks" if kind == "3color" else kind
        for text in (body, body + later):
            inst.write_text('{"kind":"%s"}\n%s' % (file_kind, text))
            errs = []
            for command in ("solve", "oracle"):
                capsys.readouterr()
                assert main([command, "--kind", kind, "--in", str(inst),
                             "--out", str(tmp_path / "s.json")]) == 2
                errs.append(capsys.readouterr().err)
            assert errs[0] == errs[1]
            assert errs[1].startswith("infeasible: point ")

    def test_oracle_intervals_fixture(self, tmp_path):
        inst = tmp_path / "trap.jsonl"
        sol = tmp_path / "oracle.json"
        save(_fig_instance(), inst)
        assert main(["oracle", "--kind", "intervals", "--mode", "mmsc",
                     "--in", str(inst), "--out", str(sol)]) == 0
        data = json.loads(sol.read_text())
        assert data["objective"] == "3"
        assert main(["check", "--in", str(inst), "--solution", str(sol)]) == 0


class TestRenderBench:
    def test_render_writes_svg(self, tmp_path, capsys):
        # solution files once carried "wallclock_ms"; such a file still
        # checks and renders as the same solution without the field
        inst = tmp_path / "inst.jsonl"
        sol, old = tmp_path / "sol.json", tmp_path / "old.json"
        save(generate("disks", 4, 4, "uniform", seed=3), inst)
        assert main(["solve", "--kind", "disks", "--in", str(inst),
                     "--out", str(sol)]) == 0
        body = json.loads(sol.read_text())
        assert "wallclock_ms" not in body
        old.write_text(json.dumps({**body, "wallclock_ms": 12.5}))
        svgs, oks = [], []
        for path in (sol, old):
            capsys.readouterr()
            assert main(["check", "--in", str(inst),
                         "--solution", str(path)]) == 0
            oks.append(capsys.readouterr().out)
            out = tmp_path / (path.stem + ".svg")
            assert main(["render", "--in", str(inst), "--solution",
                         str(path), "--out", str(out)]) == 0
            svgs.append(out.read_bytes())
        assert oks[0].startswith("ok: ") and oks[1] == oks[0]
        assert svgs[0].startswith(b"<svg") and svgs[1] == svgs[0]

    @pytest.mark.parametrize("kind", ["disks", "rects"])
    def test_render_draws_only_the_searched_slabs(self, tmp_path, kind):
        # two objects 1e12 apart: the bottom and top of their two slabs
        # are drawn, not a guide per slab between them
        far = 10 ** 12
        if kind == "disks":
            objects = [UnitDisk(Point(0.0, 0.0)),
                       UnitDisk(Point(0.0, float(far)))]
            points = [o.center for o in objects]
        else:
            objects = [UnitRect(F(0), F(0)), UnitRect(F(0), F(far))]
            points = [Point(F(1, 2), F(1, 2)), Point(F(1, 2), far + F(1, 2))]
        inst, out = tmp_path / "inst.jsonl", tmp_path / "pic.svg"
        save(Instance(kind, points, objects), inst)
        assert main(["render", "--in", str(inst), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert sum('stroke="#fdae6b"' in ln for ln in lines) == 4
        assert len(lines) < 30

    _HUGE = "1" + "0" * 400

    @pytest.mark.parametrize("kind, body", [
        ("rects", '{"p":["%s","1/2"]}\n{"r":["%s","0","1"]}\n'
         % (_HUGE, _HUGE)),
        ("intervals", '{"p":["%s"]}\n{"i":["0","%s","1"]}\n'
         % (_HUGE, _HUGE)),
        ("disks", '{"p":[1e308,0.0]}\n{"p":[-1e308,0.0]}\n'
         '{"d":[1e308,0.0]}\n{"d":[-1e308,0.0]}\n')],
        ids=["rects", "intervals", "disks"])
    def test_render_refuses_coordinates_beyond_floats(self, tmp_path, capsys,
                                                      kind, body):
        # such files solve and check; only the drawing needs floats
        inst = tmp_path / "inst.jsonl"
        sol = tmp_path / "sol.json"
        out = tmp_path / "pic.svg"
        inst.write_text('{"kind":"%s"}\n%s' % (kind, body))
        assert main(["solve", "--kind", kind, "--in", str(inst),
                     "--out", str(sol)]) == 0
        assert main(["check", "--in", str(inst), "--solution", str(sol)]) == 0
        for argv in ([], ["--solution", str(sol)]):
            capsys.readouterr()
            assert main(["render", "--in", str(inst), "--out", str(out),
                         *argv]) == 1
            err = capsys.readouterr().err
            assert err == ("error: cannot draw: coordinates exceed the "
                           "float range\n")
            assert not out.exists()

    def test_bench_is_not_a_command(self, tmp_path, capsys):
        # the doubling experiment is acceptance criterion 8, not a command
        out = tmp_path / "b.csv"
        capsys.readouterr()
        assert main(["bench", "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:")
        assert "'solve', 'oracle', 'gen', 'check', 'render')" in err[0]

    def test_timing_is_not_an_option(self, tmp_path, capsys):
        # a solution file holds the answer and no clock reading
        inst = tmp_path / "inst.jsonl"
        sol = tmp_path / "sol.json"
        save(generate("rects", 3, 3, "uniform", seed=2), inst)
        capsys.readouterr()
        assert main(["solve", "--kind", "rects", "--timing", "--in",
                     str(inst), "--out", str(sol)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:")
        assert "--timing" in err[0]
        assert not sol.exists()


class TestCollectorPause:
    """A command runs with the cyclic garbage collector paused, and leaves
    it as it found it."""

    def _exits(self, tmp_path):
        """(argv, exit code) of one command per way `main` can return."""
        from conftest import forced_pair_rects
        ok, uncovered, pair = (tmp_path / n for n in ("ok.jsonl",
                                                      "uncovered.jsonl",
                                                      "pair.jsonl"))
        save(generate("intervals", 6, 6, "uniform", seed=1), ok)
        save(generate("rects", 3, 3, "uniform", seed=1,
                      allow_uncovered=True), uncovered)
        save(Instance("rects", *forced_pair_rects()), pair)
        out = str(tmp_path / "s.json")
        return [(["solve", "--kind", "intervals", "--in", str(ok),
                  "--out", out], 0),
                (["solve", "--kind", "rects", "--mode", "mmsc",
                  "--in", str(ok), "--out", out], 1),
                (["solve", "--kind", "rects", "--in",
                  str(tmp_path / "nope.jsonl"), "--out", out], 1),
                (["solve", "--kind", "rects", "--in", str(uncovered),
                  "--out", out], 2),
                (["solve", "--kind", "rects", "--ell-max", "1",
                  "--in", str(pair), "--out", out], 3)]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored_on_every_exit(self, tmp_path, capsys,
                                             monkeypatch, enabled):
        seen = []
        solve_intervals = cli.solve_intervals

        def watched(*args):
            seen.append(gc.isenabled())
            return solve_intervals(*args)

        def crash(*args):
            raise RuntimeError("crash")

        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            monkeypatch.setattr(cli, "solve_intervals", watched)
            for argv, code in self._exits(tmp_path):
                assert main(argv) == code, argv
                assert gc.isenabled() is enabled, argv
            assert seen == [False]
            monkeypatch.setattr(cli, "solve_intervals", crash)
            with pytest.raises(RuntimeError, match="crash"):
                main(self._exits(tmp_path)[0][0])
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("kind", ["rects", "disks", "3color",
                                      "intervals"])
    def test_a_solve_leaves_no_cyclic_garbage(self, tmp_path, kind):
        # so pausing the collector for a command cannot grow memory
        inst, out = tmp_path / "inst.jsonl", tmp_path / "sol.json"
        save(generate("disks" if kind == "3color" else kind, 40, 30,
                      "clustered", seed=3), inst)
        argv = ["solve", "--kind", kind, "--in", str(inst),
                "--out", str(out)]
        assert main(argv) == 0  # warm-up: lazy imports and caches
        gc.collect()
        assert main(argv) == 0
        assert gc.collect() == 0
