import ast
import fractions
import importlib
import json
import os
import random
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import Counter
from fractions import Fraction as F

import pytest

from conftest import covers

import plycover
from plycover import cli, geom, instances, intervals, stripdag
from plycover import disks as disks_mod
from plycover import rects as rects_mod
from plycover.geom import Point, UnitDisk, UnitRect, WeightedInterval
from plycover.instances import (_ARITY, Instance, dumps, generate, load,
                                loads, rational_pair, save)
from plycover.intervals import solve_intervals
from plycover.slabs import assign_slabs, solve_mpc
from plycover.svg import render_svg

SVG_NS = "{http://www.w3.org/2000/svg}"


class TestRoundTrip:
    def test_all_kinds(self):
        rng = random.Random(61)
        for seed in range(12):
            for kind in ("rects", "disks", "intervals"):
                inst = generate(kind, rng.randint(0, 8), rng.randint(1, 8),
                                "uniform", seed=seed)
                back = loads(dumps(inst))
                assert back.kind == inst.kind
                assert back.points == inst.points
                assert back.objects == inst.objects
                assert back.seed == inst.seed

    def test_rationals_survive_exactly(self):
        inst = Instance("rects", [Point(F(1, 3), F(22, 7))],
                        [UnitRect(F(-5, 3), F(0), F(9, 7))])
        back = loads(dumps(inst))
        assert back.points[0].x == F(1, 3)
        assert back.objects[0].width == F(9, 7)

    def test_file_round_trip(self, tmp_path):
        inst = generate("intervals", 4, 4, "chain", seed=3)
        p = tmp_path / "inst.jsonl"
        save(inst, p)
        assert load(p).objects == inst.objects

    def test_bad_files_rejected(self):
        with pytest.raises(ValueError):
            loads("")
        with pytest.raises(ValueError):
            loads('{"kind":"hexagons"}')
        bad = [
            ("rects", '{"p":["0"]}'),                # too few values
            ("intervals", '{"p":["0","1"]}'),        # too many values
            ("intervals", '{"i":"123"}'),            # not a list
            ("rects", '{"p":{"0":1}}'),
            ("disks", '{"d":[NaN,0]}'),              # not finite
            ("disks", '{"p":[0,Infinity]}'),
            ("disks", '{"p":["nan",0]}'),
            ("rects", '{"r":[0,1e400,1]}'),
            ("intervals", '{"i":["0","1/0","1"]}'),  # zero denominator
            ("intervals", '{"i":["0","1",null]}'),
            ("intervals", '{"i":["2","1","1"]}'),    # empty interval
            ("rects", '{"r":[0,"abc",1]}'),
            ("intervals", '{"r":[0,0,1]}'),          # another kind's record
            ("intervals", '{"p":["1"],"i":["0","2","1"]}'),
            ("intervals", '[1]'),
            ("disks", '{"p":[0,0]'),                 # not JSON
        ]
        for kind, rec in bad:
            text = '{"kind":"%s"}\n\n{"p":[%s]}\n%s\n' % (
                kind, ",".join(["0"] * (1 if kind == "intervals" else 2)), rec)
            with pytest.raises(ValueError, match="^line 4: "):
                loads(text)

    def test_interval_refusals_need_no_objects(self):
        # an interval file is kept as int pairs, so the loader itself must
        # refuse what WeightedInterval would, before any object is built
        bad = [('{"i":["2","1","1"]}', "interval needs lo < hi"),
               ('{"i":["1/2","2/4","1"]}', "interval needs lo < hi"),
               ('{"i":["-1/3","-1/2","1"]}', "interval needs lo < hi"),
               ('{"i":["0","1","-1"]}', "interval weight must be nonnegative"),
               ('{"i":["0","1","-1/7"]}', "interval weight must be "
                                          "nonnegative")]
        for rec, why in bad:
            text = '{"kind":"intervals"}\n{"p":["1/2"]}\n\n%s\n' % rec
            with pytest.raises(ValueError,
                               match="^line 4: bad 'i' record: " + why):
                loads(text)
        ok = loads('{"kind":"intervals"}\n{"i":["-1/2","-1/3","0"]}\n')
        assert ok.objects == [WeightedInterval(F(-1, 2), F(-1, 3), F(0))]


def _pair_or_none(parse, v):
    try:
        return parse(v)
    except (TypeError, ValueError, ArithmeticError):
        return None


def _fraction_pair(v):
    """Fraction's pair of v, or None where Fraction refuses v or where its
    decimal exponent, as Fraction's own pattern reads it, is larger in
    magnitude than the int digit limit, which rational_pair refuses."""
    m = type(v) is str and fractions._RATIONAL_FORMAT.match(v)
    if m and m.group("exp") and _LIMIT and abs(int(m.group("exp"))) > _LIMIT:
        return None
    return _pair_or_none(lambda x: F(x).as_integer_ratio(), v)


_LIMIT = sys.get_int_max_str_digits()


class TestRationalPair:
    def test_same_pairs_and_refusals_as_fraction(self):
        # int() takes a signed or padded denominator and does not reduce,
        # so a plain split differs from Fraction on several of these
        strings = [" 3/4 ", "+3/4", "3/-4", "3 /4", "3/ 4", "-0/5", "00/08",
                   "3_0", "\u0663/\u0664", "1e3", "0.5", "1/0", "abc", "6/4",
                   "-6/4", "-", "--3", "-/4", "3/", "/4", "3/4/5", "", " ",
                   "7", "-7", "0", "-0", "0/0", "12345678901234567890/6",
                   "1/-0", "\u00b2/3", "3/4\n", "inf", "nan", "1_/2"]
        values = strings + json.loads(
            "[true, false, 1e400, -1e400, 0, 7, -12, 123456789012345678901,"
            " 0.5, -2.75, 0.1, 1e300, 5e-324, -0.0, null, [1], {}]")
        for v in values:
            want = _fraction_pair(v)
            got = _pair_or_none(rational_pair, v)
            assert got == want, v
            assert got is None or (type(got[0]) is int
                                   and type(got[1]) is int)

    def test_exponents_up_to_the_digit_limit(self):
        # 10 ** 4300 has 4301 digits, but it is never written as digits
        for v in ("1e%d" % _LIMIT, "-2.5E-%d" % _LIMIT, "1e+0%d" % _LIMIT):
            assert rational_pair(v) == F(v).as_integer_ratio()
        for v in ("1e%d" % (_LIMIT + 1), "-2.5E-%d" % (_LIMIT + 1),
                  "1e1_%d" % _LIMIT):
            with pytest.raises(ValueError, match="^decimal exponent beyond"):
                rational_pair(v)

    def test_random_strings_match_fraction(self):
        rng = random.Random(8)
        alphabet = "0123456789-+/ _.e"
        for _ in range(4000):
            v = "".join(rng.choice(alphabet)
                        for _ in range(rng.randint(1, 6)))
            assert _pair_or_none(rational_pair, v) == _fraction_pair(v), v


def _load_outcome(load, text):
    """What a loader makes of a file: the instance's contents, or the text
    of the ValueError it raises.  The lists are compared by repr, which
    tells a disk's -0.0 from 0.0."""
    try:
        inst = load(text)
    except ValueError as e:
        return "refused", str(e)
    pairs = None if inst.kind == "disks" else inst.pairs
    return (inst.kind, pairs, repr(inst.points), repr(inst.objects),
            inst.seed, inst.meta)


_VALUES = {"rects": ['"1/3"', '"-5/3"', '"2"', "0", "7", "0.5", "-2.75"],
           "disks": ["0.25", "1", "-3.5", "2e0", "0"],
           "intervals": ['"1/2"', '"-1/3"', '"0"', '"3"', "2", "0.5",
                         '"9/4"']}
# what str.splitlines cuts at besides \n and \r
_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
           "\u2029", "\r\n"]
_ODD = ["NaN", "-NaN", "Infinity", "-Infinity", "true", "false", "null",
        '"nan"', "1e400", "[1]", '"1/0"']


def _fuzz_record(rng, kind):
    tag, arity = rng.choice(sorted(_ARITY[kind].items()))
    vals = [rng.choice(_VALUES[kind]) for _ in range(arity)]
    if rng.random() < 0.15:
        vals[rng.randrange(arity)] = rng.choice(_ODD)
    return '{"%s":[%s]}' % (tag, ",".join(vals))


def _fuzz_line(rng, kind, rec):
    """`rec` with zero or more of the edits a loader must treat exactly as
    a per-line `json.loads` does."""
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        edit = rng.randrange(9)
        cut = rng.randint(0, len(rec))
        if edit == 0:      # JSON whitespace around the record
            rec = (rng.choice(["", " ", "\t", " \t ", "\t\t"]) + rec
                   + rng.choice(["", " ", "\t", "\t ", "   "]))
        elif edit == 1:    # whitespace JSON does not skip
            rec = rec[:cut] + rng.choice(["\u00a0", "\ufeff"]) + rec[cut:]
        elif edit == 2:
            rec = rng.choice(["\u00a0", "\ufeff", " \ufeff"]) + rec
        elif edit == 3:    # a line break only splitlines honours
            rec = rec[:cut] + rng.choice(_BREAKS) + rec[cut:]
        elif edit == 4:    # one record split over two lines
            rec = rec[:cut] + "\n" + rec[cut:]
        elif edit == 5:    # two records on one line
            rec += rng.choice(["", " ", "\t"]) + _fuzz_record(rng, kind)
        elif edit == 6:    # trailing garbage
            rec += rng.choice(["x", "]", "}", ",", " 1", "//", "\\", '"'])
        elif edit == 7:    # a blank or whitespace-only line after it
            rec += "\n" + rng.choice(["", " ", "\t", "\u00a0", "\ufeff",
                                      "\u3000", " \x0b "])
        else:              # a truncated record
            rec = rec[:cut]
    return rec


# what may follow a record's values in one edit of a canonical file: each
# value as the per-line loop reads it, most of them off the whole-file path
_CANONICAL_EDITS = {
    "rational": ['"2/4"', '"-6/4"', '"007/08"', '"-0"', '"0/5"', '"1/0"',
                 '"0/0"', '"%s"' % ("1" * 4301), '"3/%s"' % ("7" * 4301),
                 '"3/"', '"+3"', '"-3/-4"', "2", '"\\u0033"',
                 '"\u0663/\u0664"'],
    "disks": ["-0", "0", "7", "1e999", "-1e999", "1E-3", "2.5e+1", "-0.0",
              "1.", ".5", "01.5", "1e400", "5e-324", "NaN", '"1.5"']}


def _edit_canonical(rng, kind, text):
    """`text`, a file `dumps` wrote, with at most one edit, which a file's
    whole parse must either take as the per-line loop does or leave to it."""
    lines = text.split("\n")   # dumps ends the file with "\n"
    records = range(1, len(lines) - 1)
    edit = rng.randrange(6)
    if edit == 0 or not records:
        return text
    i = rng.choice(records)
    if edit == 1:      # a line break, a blank line or JSON whitespace
        lines[i] += rng.choice(["\r", "\x85", "\u2028", "\n", " "])
        return "\n".join(lines)
    (tag, vals), = json.loads(lines[i]).items()
    tokens = [json.dumps(v) for v in vals]
    if edit == 2:      # one value
        tokens[rng.randrange(len(tokens))] = rng.choice(
            _CANONICAL_EDITS["disks" if kind == "disks" else "rational"])
    elif edit == 3 and len(tokens) == 3:   # a width or weight
        tokens[2] = rng.choice(['"0"', '"-1"', '"-1/3"', '"0/7"'])
    elif edit == 4 and tag == "i":         # lo >= hi
        tokens[:2] = rng.choice([tokens[1::-1], tokens[:1] * 2])
    else:
        return text
    lines[i] = '{"%s":[%s]}' % (tag, ",".join(tokens))
    return "\n".join(lines)


class TestLoaderAgainstPerLineJson:
    def test_fuzzed_files_load_alike(self):
        # every file must give the instance, or the refusal text, of a
        # json.loads per line
        from loader_reference import loads as loads_per_line
        rng = random.Random(14)
        loaded = refused = 0
        for _ in range(3000):
            kind = rng.choice(("rects", "disks", "intervals"))
            head = '{"kind":"%s","seed":%d}' % (kind, rng.randint(0, 9))
            if rng.random() < 0.1:
                head = _fuzz_line(rng, kind, head)
            lines = [head] + [
                _fuzz_line(rng, kind, _fuzz_record(rng, kind))
                for _ in range(rng.randint(0, 6))]
            text = rng.choice(["\n", "\r\n", "\n\n"]).join(lines)
            if rng.random() < 0.5:
                text += "\n"
            want = _load_outcome(loads_per_line, text)
            assert _load_outcome(loads, text) == want, text
            if want[0] == "refused":
                refused += 1
            else:
                loaded += 1
        assert loaded > 500 and refused > 500

    def test_near_canonical_files_load_alike(self, monkeypatch):
        # a file `dumps` wrote, with at most one edit, on either side of
        # the boundary of the whole-file parse
        from loader_reference import loads as loads_per_line
        per_line = []
        loop = instances._per_line

        def watched(*args):
            per_line.append(args)
            return loop(*args)

        monkeypatch.setattr(instances, "_per_line", watched)
        rng = random.Random(20)
        files = whole = refused = 0
        for _ in range(1500):
            kind = rng.choice(("rects", "disks", "intervals"))
            dist = rng.choice(("uniform", "clustered", "chain"
                               if kind == "intervals" else "slab-stress"))
            canonical = dumps(generate(kind, rng.randint(0, 6),
                                       rng.randint(1, 6), dist,
                                       seed=rng.randrange(100)))
            text = _edit_canonical(rng, kind, canonical)
            before = len(per_line)
            want = _load_outcome(loads_per_line, text)
            assert _load_outcome(loads, text) == want, text
            files += 1
            whole += len(per_line) == before
            # every file dumps writes is parsed whole
            assert text != canonical or len(per_line) == before
            refused += want[0] == "refused"
        assert whole >= files / 3
        assert files - whole > 300 and refused > 200


class TestGenerate:
    def test_deterministic(self):
        for kind, dist in (("rects", "uniform"), ("disks", "clustered"),
                           ("intervals", "chain")):
            a = generate(kind, 6, 6, dist, seed=42)
            b = generate(kind, 6, 6, dist, seed=42)
            assert dumps(a) == dumps(b)

    def test_chain_overlap_count(self):
        inst = generate("intervals", 5, 10, "chain", seed=1)
        prep = intervals.prepare_instance(inst.points, inst.objects)
        assert intervals.build_dag(prep).n_overlaps == 9

    def test_slab_stress_is_single_slab(self):
        for kind in ("rects", "disks"):
            inst = generate(kind, 10, 12, "slab-stress", seed=2)
            assert len(assign_slabs(inst.points, inst.objects, kind)) == 1

    def test_points_covered_by_construction(self):
        for kind in ("rects", "disks", "intervals"):
            inst = generate(kind, 20, 6, "uniform", seed=5)
            assert covers(inst.points, inst.objects)

    def test_invalid_distribution(self):
        with pytest.raises(ValueError):
            generate("rects", 1, 1, "spiral", seed=0)
        with pytest.raises(ValueError):
            generate("rects", 1, 1, "chain", seed=0)
        with pytest.raises(ValueError):
            generate("intervals", 1, 1, "slab-stress", seed=0)


class TestSvg:
    def test_empty_instance_is_valid_svg(self):
        doc = render_svg(Instance("rects", [], [UnitRect(F(0), F(0))]))
        root = ET.fromstring(doc)
        assert root.tag == SVG_NS + "svg"

    def test_square_and_point_counts(self):
        inst = Instance("rects", [Point(F(1, 2), F(1, 2))],
                        [UnitRect(F(0), F(0))])
        root = ET.fromstring(render_svg(inst))
        objects = root.find("%sg[@id='objects']" % SVG_NS)
        points = root.find("%sg[@id='points']" % SVG_NS)
        guides = root.find("%sg[@id='guides']" % SVG_NS)
        assert len(list(objects)) == 1
        assert len(list(points)) == 1
        assert len(list(guides)) >= 2

    def test_six_color_classes_get_six_fills(self):
        disks = [UnitDisk(Point(2.0 * i, 0.5)) for i in range(6)]
        inst = Instance("disks", [Point(2.0 * i, 0.5) for i in range(6)], disks)
        sol = {"kind": "3color", "chosen": list(range(6)), "objective": 1,
               "colors": {str(i): i + 1 for i in range(6)}}
        root = ET.fromstring(render_svg(inst, sol))
        objects = root.find("%sg[@id='objects']" % SVG_NS)
        fills = {el.get("fill") for el in objects}
        assert len(fills) == 6

    def test_deterministic_bytes(self):
        inst = generate("disks", 5, 5, "uniform", seed=9)
        assert render_svg(inst) == render_svg(inst)

    def test_interval_rendering(self):
        inst = generate("intervals", 3, 4, "chain", seed=4)
        root = ET.fromstring(render_svg(inst))
        objects = root.find("%sg[@id='objects']" % SVG_NS)
        assert len(list(objects)) == 4


def test_cli_import_leaves_numpy_unloaded(tmp_path):
    # a fresh interpreter that imports plycover.cli and solves one file of
    # each kind loads no numpy (test oracles only), no dataclasses or the
    # inspect module it pulls in, and neither the oracle nor the SVG code
    src = os.path.dirname(os.path.dirname(plycover.__file__))
    argvs = []
    for kind in ("rects", "disks", "3color", "intervals"):
        path = tmp_path / (kind + ".jsonl")
        save(generate("disks" if kind == "3color" else kind, 12, 8,
                      "uniform", seed=5), path)
        argvs.append(["solve", "--kind", kind, "--in", str(path),
                      "--out", str(tmp_path / (kind + ".json"))])
    code = ("import sys, plycover.cli\n"
            "for argv in %r:\n"
            "    assert plycover.cli.main(argv) == 0, argv\n"
            "print(sorted(m for m in %r if m in sys.modules))"
            % (argvs, ("numpy", "dataclasses", "inspect", "plycover.oracle",
                       "plycover.svg")))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60,
                         check=True)
    assert out.stdout == "[]\n"


def test_solution_digest_is_repeatable(tmp_path):
    # tools/solution_digest.py, run from the repository root, prints the
    # same digest twice, with each solution's check and SVG, and leaves no
    # files behind in its temporary directory
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, TMPDIR=str(tmp_path))
    outs = [subprocess.run(
        [sys.executable, os.path.join("tools", "solution_digest.py"),
         "--seeds", "1", "--workload", "rects-dense", "--limit", "3"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
        check=True).stdout for _ in range(2)]
    assert outs[0] == outs[1]
    lines = outs[0].splitlines()
    assert lines[0] == "# seed 1" and len(lines) == 4
    for line, case in zip(lines[1:], ("d000", "d001", "d002")):
        name, rc, sol, err, check_rc, out, svg = line.split()
        assert (name, rc, check_rc) == ("rects-dense/" + case, "0", "0")
        assert len(sol) == len(err) == len(out) == len(svg) == 64
    assert list(tmp_path.iterdir()) == []


def test_ab_pairs_summary_on_canned_results():
    # tools/ab_pairs.py prints each side's median [q1, q3] per end-to-end
    # metric, the change of the medians, and the pairs the change won in
    # the metric's better direction, ties counting for neither side
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "tools"))
    try:
        import ab_pairs
    finally:
        sys.path.pop(0)
    spec = {"end_to_end": [
        {"name": "batch_s", "unit": "s", "better": "lower"},
        {"name": "verified_share", "unit": "share", "better": "higher"}]}
    base = [(1.0, 0.99), (1.2, 1.0), (1.1, 1.0), (1.3, 1.0), (1.4, 1.0)]
    change = [(0.9, 1.0), (1.0, 1.0), (1.2, 0.98), (1.0, 1.0), (1.4, 1.0)]
    pairs = [({"batch_s": b, "verified_share": bv},
              {"batch_s": c, "verified_share": cv})
             for (b, bv), (c, cv) in zip(base, change)]
    head, batch, share = ab_pairs.summary(spec, pairs)
    assert head.split()[:2] == ["metric", "base"]
    number = r"[-+]?\d+(?:\.\d+)?"
    assert batch.startswith("batch_s [s] ")
    assert [float(v) for v in re.findall(number, batch)] == [
        1.2, 1.1, 1.3, 1.0, 1.0, 1.2, -16.7, 3, 5]
    assert share.startswith("verified_share [share] ")
    assert [float(v) for v in re.findall(number, share)] == [
        1, 1, 1, 1, 1, 1, 0.0, 1, 5]


def test_interval_solve_builds_no_interval_objects(tmp_path, monkeypatch):
    # `plycover solve --kind intervals` runs from the loaded int pairs
    inst = generate("intervals", 40, 30, "clustered", seed=6)
    want = solve_intervals(inst.points, inst.objects, "mpc")
    path, out = tmp_path / "inst.jsonl", tmp_path / "sol.json"
    save(inst, path)

    def refuse(self, *args, **kwargs):
        raise AssertionError("WeightedInterval built")

    monkeypatch.setattr(WeightedInterval, "__init__", refuse)
    assert cli.main(["solve", "--kind", "intervals", "--mode", "mpc",
                     "--in", str(path), "--out", str(out)]) == 0
    sol = json.loads(out.read_text())
    assert sol["chosen"] == want.chosen
    assert F(sol["objective"]) == want.objective


def _refuse(*args, **kwargs):
    raise AssertionError("a per-value or per-object constructor was called")


def test_interval_solve_takes_the_fast_paths(tmp_path, monkeypatch):
    # a file `dumps` wrote is parsed whole: json.loads decodes the header
    # only and no value goes through rational_pair; build_dag makes its
    # vertices as plain tuples, with no per-vertex class
    for dist, seed, mode in (("uniform", 6, "mmsc"), ("clustered", 7, "mpc"),
                             ("chain", 8, "mmsc")):
        inst = generate("intervals", 40, 30, dist, seed=seed)
        want = solve_intervals(inst.points, inst.objects, mode)
        path, out = tmp_path / "inst.jsonl", tmp_path / "sol.json"
        save(inst, path)
        calls, dags = [], []
        json_loads, build_dag = json.loads, intervals.build_dag

        def counted(*args, **kwargs):
            calls.append(args)
            return json_loads(*args, **kwargs)

        def kept(*args, **kwargs):
            dags.append(build_dag(*args, **kwargs))
            return dags[-1]

        with monkeypatch.context() as patched:
            patched.setattr(json, "loads", counted)
            patched.setattr(instances, "rational_pair", _refuse)
            patched.setattr(intervals, "build_dag", kept)
            assert cli.main(["solve", "--kind", "intervals", "--mode", mode,
                             "--in", str(path), "--out", str(out)]) == 0
        assert len(calls) == 1
        assert len(dags) == 1 and dags[0].vertices
        assert {type(v) for v in dags[0].vertices} == {tuple}
        sol = json.loads(out.read_text())
        assert sol["chosen"] == want.chosen
        assert F(sol["objective"]) == want.objective


def test_rect_solve_builds_no_rect_objects(tmp_path, monkeypatch):
    # `plycover solve --kind rects` runs from the loaded int pairs: no
    # UnitRect, and no Fraction, is made between the file and the
    # objective, and a file `dumps` wrote is parsed whole, with no
    # rational_pair call and no json.loads past the header
    for dist, seed in (("uniform", 6), ("clustered", 7), ("slab-stress", 8)):
        inst = generate("rects", 40, 30, dist, seed=seed)
        want = solve_mpc(inst.points, inst.objects, "rects")
        path, out = tmp_path / "inst.jsonl", tmp_path / "sol.json"
        save(inst, path)
        calls = []
        json_loads = json.loads

        def counted(*args, **kwargs):
            calls.append(args)
            return json_loads(*args, **kwargs)

        with monkeypatch.context() as patched:
            patched.setattr(json, "loads", counted)
            patched.setattr(instances, "rational_pair", _refuse)
            patched.setattr(UnitRect, "__init__", _refuse)
            patched.setattr(F, "__new__", _refuse)
            assert cli.main(["solve", "--kind", "rects", "--in", str(path),
                             "--out", str(out)]) == 0
        assert len(calls) == 1
        sol = json.loads(out.read_text())
        assert sol["chosen"] == want.chosen
        assert sol["objective"] == want.objective


def test_one_sweep_event_builder_call_per_sweep(tmp_path, monkeypatch):
    # every sweep takes its events and their order from `geom.sweep_events`:
    # spied at every name it is bound under, each of the five sweeps calls
    # it exactly once per invocation, over a solve of each kind and `check`
    # on rects and intervals
    real = geom.sweep_events
    sweeps = [stripdag.build_problem, intervals.prepare_instance,
              intervals.chosen_loads, geom.ply_rects, geom.rects_cover]
    names = {fn.__code__: fn.__name__ for fn in sweeps}
    invoked, frames = Counter(), []

    def spy(*args, **kwargs):
        frames.append(sys._getframe(1))
        return real(*args, **kwargs)

    bound = []
    for name, mod in sorted(sys.modules.items()):
        if name.split(".")[0] == "plycover":
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, spy)
                    bound.append("%s.%s" % (name, attr))
    assert bound == ["plycover.geom.sweep_events",
                     "plycover.intervals.sweep_events",
                     "plycover.stripdag.sweep_events"]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            invoked[names[frame.f_code]] += 1

    inst, sol = tmp_path / "inst.jsonl", tmp_path / "sol.json"
    runs = [("rects", "mpc", True), ("disks", "mpc", False),
            ("3color", "mpc", False), ("intervals", "mmsc", True),
            ("intervals", "mpc", True)]
    sys.setprofile(profile)
    try:
        for kind, mode, check in runs:
            gen = "disks" if kind == "3color" else kind
            save(generate(gen, 30, 20, "clustered", seed=3), inst)
            assert cli.main(["solve", "--kind", kind, "--mode", mode,
                             "--in", str(inst), "--out", str(sol)]) == 0
            if check:
                assert cli.main(["check", "--in", str(inst),
                                 "--solution", str(sol)]) == 0
    finally:
        sys.setprofile(None)
    calls = Counter(map(id, frames))
    assert set(calls.values()) == {1}
    assert Counter(f.f_code.co_name for f in frames) == invoked
    assert set(invoked) == set(names.values())


def test_solve_asks_no_depth_oracle(tmp_path, monkeypatch):
    # rects and disks decide the ply of an added object by cliques of the
    # meet masks, disks with their triples sharing a point too: a solve
    # whose slabs climb to ell >= 2 asks `has_clique` at k >= 2 and calls
    # no PlyCache
    for kind, mod in (("rects", rects_mod), ("disks", disks_mod)):
        inst = generate(kind, 40, 30, "clustered", seed=7)
        path, out = tmp_path / "inst.jsonl", tmp_path / "sol.json"
        save(inst, path)
        calls = {"ell": [], "has_clique": [], "with_added": []}

        def spied(name, fn):
            def wrapped(*args):
                calls[name].append(args)
                return fn(*args)
            return wrapped
        slab_solve = "solve_slab_" + kind
        with monkeypatch.context() as patched:
            patched.setattr(mod, slab_solve,
                            spied("ell", getattr(mod, slab_solve)))
            patched.setattr(stripdag, "has_clique",
                            spied("has_clique", stripdag.has_clique))
            patched.setattr(stripdag.PlyCache, "with_added",
                            spied("with_added", stripdag.PlyCache.with_added))
            assert cli.main(["solve", "--kind", kind, "--in", str(path),
                             "--out", str(out)]) == 0
        assert max(args[2] for args in calls["ell"]) >= 2
        assert max(args[2] for args in calls["has_clique"]) >= 2
        assert calls["with_added"] == []


def test_benchmark_tracer_wraps_the_solvers(tmp_path, monkeypatch):
    # perfbench/tracing.py wraps solver functions by name from outside;
    # a renamed or re-signed one makes `--trace 1` crash in install(), and
    # one no longer called leaves its span at zero.  It counts strip
    # states by wrapping `successors`, so that count is exactly the states
    # the mpc step is handed
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "perfbench"))
    try:
        import tracing
    finally:
        sys.path.pop(0)
    from plycover.slabs import solve_mpc
    from plycover.tricolor import solve_3color
    states, step = [0], stripdag._mpc_step

    def spy_step(problem, i, strip_states):
        states[0] += len(strip_states)
        return step(problem, i, strip_states)
    monkeypatch.setattr(stripdag, "_mpc_step", spy_step)
    ivs = tmp_path / "ivs.jsonl"
    save(generate("intervals", 20, 16, "uniform", seed=5), ivs)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rects = generate("rects", 8, 6, "clustered", seed=5)
        disks = generate("disks", 8, 6, "clustered", seed=5)
        solve_mpc(rects.points, rects.objects, "rects")
        solve_mpc(disks.points, disks.objects, "disks")
        solve_3color(disks.points, disks.objects)
        assert cli.main(["solve", "--kind", "intervals", "--mode", "mmsc",
                         "--in", str(ivs),
                         "--out", str(tmp_path / "sol.json")]) == 0
    finally:
        tracer.uninstall()
    counts = tracer.metrics()
    for span in ("instances.load_s", "solve.self_s", "intervals.prepare_s",
                 "intervals.build_dag_s", "intervals.bottleneck_s"):
        assert counts[span] > 0, span
    assert counts["intervals.dag_vertices"] > 0
    assert counts["stripdag.states"] == states[0] > 0
    assert counts["slabs.slab_solves"] > 0
    assert counts["tricolor.slab_solves"] > 0
    assert 0 < counts["stripdag.width_over_cap_max"] <= 1


def _package_trees():
    """(module name, parsed source) for every module of the package."""
    pkg = os.path.dirname(plycover.__file__)
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            module = "plycover" if fname == "__init__.py" else \
                "plycover." + fname[:-3]
            with open(os.path.join(pkg, fname)) as fh:
                yield module, ast.parse(fh.read())


def _exported(tree) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["__all__"]):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_stale_module_imports():
    # every module-level import in the package is used in its module or
    # listed in its __all__; no name is imported only to be wrapped from
    # outside
    stale = []
    for module, tree in _package_trees():
        bound = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound += [a.asname or a.name.split(".")[0] for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                bound += [a.asname or a.name for a in node.names]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        stale += ["%s.%s" % (module, name) for name in bound
                  if name not in used | _exported(tree)]
    assert stale == []


def _referenced_name(node):
    # an import binds a name but does not use it
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_no_dead_definitions():
    # every top-level def and class in the package is referenced outside
    # its own body somewhere in the package, or listed in an __all__;
    # `stripdag.PlyCache` is the one stub kept for perfbench/tracing.py
    defined, exported = [], set()
    owners = {}   # name -> the top-level definitions it appears in
    for module, tree in _package_trees():
        exported |= _exported(tree)
        for node in tree.body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owner = (module, node.name)
                defined.append(owner)
            for n in ast.walk(node):
                owners.setdefault(_referenced_name(n), set()).add(owner)
    stub = ("plycover.stripdag", "PlyCache")
    dead = ["%s.%s" % d for d in defined
            if not owners.get(d[1], set()) - {d}
            and d[1] not in exported and d != stub]
    assert dead == []


def test_every_cli_option_is_exercised():
    # every option of every command is written out, as a string literal,
    # in some test or tool: an option nothing runs is an option to delete
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    literals = set()
    for folder in ("tests", "tools"):
        for dirpath, _, fnames in os.walk(os.path.join(root, folder)):
            for fname in fnames:
                if fname.endswith(".py"):
                    with open(os.path.join(dirpath, fname)) as fh:
                        tree = ast.parse(fh.read())
                    literals |= {n.value for n in ast.walk(tree)
                                 if isinstance(n, ast.Constant)
                                 and isinstance(n.value, str)}
    commands, = [a.choices for a in cli._build_parser()._actions
                 if a.choices and a.dest == "command"]
    assert sorted(commands) == ["check", "gen", "oracle", "render", "solve"]
    unused = ["%s %s" % (name, opt) for name, sp in sorted(commands.items())
              for action in sp._actions for opt in action.option_strings
              if opt not in ("-h", "--help") and opt not in literals]
    assert unused == []


def _record_fields(cls) -> tuple:
    """The fields of a record (a NamedTuple) or of a value type (on the
    `geom._Value` base, fields in `__slots__`); () for any other class."""
    if issubclass(cls, tuple):
        return getattr(cls, "_fields", ())
    if issubclass(cls, geom._Value):
        return cls.__slots__
    return ()


def test_every_record_field_is_read(tmp_path, monkeypatch):
    # every field of a record or value type in the package is read by
    # package code, as an attribute or by unpacking a record, while each
    # command runs on small instances of its kind.  Reads are recorded at
    # run time: by name alone, `SlabInstance.points` would pass as
    # `Instance.points`.  A value type's `_key`, through which it is
    # compared, hashed and printed, is not a reader.
    # `IntervalDag.n_intervals` and `n_overlaps` are read only by
    # perfbench/tracing.py, for its DAG size bound, and are exempt
    pkg = os.path.dirname(plycover.__file__)
    classes = {obj for module, _ in _package_trees()
               for obj in vars(importlib.import_module(module)).values()
               if isinstance(obj, type) and _record_fields(obj)}
    assert {cls.__name__ for cls in classes} >= {
        "Point", "UnitRect", "UnitDisk", "WeightedInterval",
        "PreparedIntervals", "IntervalDag", "SlabInstance", "CoverSolution",
        "StripProblem"}
    read = set()
    for cls in classes:
        def spy(self, name, cls=cls, get=cls.__getattribute__,
                fields=set(_record_fields(cls))):
            code = sys._getframe(1).f_code
            if (name in fields and code.co_filename.startswith(pkg)
                    and code.co_name != "_key"):
                read.add("%s.%s" % (cls.__name__, name))
            return get(self, name)
        monkeypatch.setattr(cls, "__getattribute__", spy)
        if not issubclass(cls, tuple):
            continue

        def unpack(self, cls=cls):
            if sys._getframe(1).f_code.co_filename.startswith(pkg):
                read.update("%s.%s" % (cls.__name__, f) for f in cls._fields)
            return tuple.__iter__(self)
        monkeypatch.setattr(cls, "__iter__", unpack)
    for kind, dist in (("rects", "clustered"), ("disks", "clustered"),
                       ("3color", "uniform"), ("intervals", "uniform")):
        inst, sol = tmp_path / (kind + ".jsonl"), tmp_path / (kind + ".json")
        save(generate("disks" if kind == "3color" else kind, 24, 16, dist,
                      seed=7), inst)
        for mode in ("mpc", "mmsc") if kind == "intervals" else ("mpc",):
            assert cli.main(["solve", "--kind", kind, "--mode", mode,
                             "--in", str(inst), "--out", str(sol)]) == 0
            assert cli.main(["check", "--in", str(inst),
                             "--solution", str(sol)]) == 0
        assert cli.main(["render", "--in", str(inst), "--solution", str(sol),
                         "--out", str(tmp_path / (kind + ".svg"))]) == 0
    exempt = {"IntervalDag.n_intervals", "IntervalDag.n_overlaps"}
    fields = {"%s.%s" % (cls.__name__, f) for cls in classes
              for f in _record_fields(cls)}
    assert sorted(fields - read - exempt) == []
