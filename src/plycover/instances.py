"""Instance file format (line-delimited JSON) and seeded random generators.

Rational coordinates are serialized as "p/q" strings so files round-trip
losslessly; disk coordinates stay floats.  The loader reads every rational
into an exact (num, den) int pair.  A rect or interval file keeps those
pairs, which `slabs.solve_mpc` and `intervals.solve_intervals` take as they
are, so a solve of a file that `dumps` wrote makes no `Fraction`,
`UnitRect` or `WeightedInterval` between the file and the objective; the
`points` and `objects` lists are built only when read.  The per-line loop
reads each value through `Fraction` (`rational_pair`).

`loads` has two paths, chosen by the text alone.  A file whose first line
is the header and whose every other line is a record written exactly as
`dumps` writes it is parsed whole: one anchored `findall` per record tag,
then one C-level `map` per value column, and the checks run column by
column.  Every other file, or one with a value that fails a check, goes
through the per-line loop, which decodes each non-blank line with
`json.loads` and owns every refusal.  Generated points are covered by
construction unless explicitly allowed to be uncovered.
"""
from __future__ import annotations

import json
import math
import random
import re
import sys
from fractions import Fraction
from operator import floordiv, lt, mul
from typing import Optional

from .geom import (Point, UnitDisk, UnitRect, WeightedInterval, line_pairs,
                   pair_point, rect_pairs)

KINDS = ("rects", "disks", "intervals")
DISTRIBUTIONS = ("uniform", "clustered", "slab-stress", "chain")


class Instance:
    """A problem instance: its kind, points and objects, plus the seed and
    meta data of a generated one.

    A rect or interval instance may instead be given as exact int pairs,
    as `loads` gives it: `pairs=(points, objects)` in the form the `pairs`
    property returns, with both lists passed as None.  They are built from
    the pairs the first time they are read.  The lists are set only here;
    a list that has been read may be edited in place, and `pairs` follows.
    """

    def __init__(self, kind: str, points: Optional[list],
                 objects: Optional[list], seed: Optional[int] = None,
                 meta: Optional[dict] = None, *, pairs=None):
        self.kind = kind
        self._points = points
        self._objects = objects
        self.seed = seed
        self.meta = meta
        self._pairs = pairs

    @property
    def points(self) -> list:
        if self._points is None:
            if self.kind == "rects":
                self._points = list(map(pair_point, self._pairs[0]))
            else:
                self._points = [Fraction(*x) for x in self._pairs[0]]
        return self._points

    @property
    def objects(self) -> list:
        if self._objects is None:
            # (left, bottom, width) or (lo, hi, weight)
            make = UnitRect if self.kind == "rects" else WeightedInterval
            self._objects = [make(*(Fraction(*v) for v in o))
                             for o in self._pairs[1]]
        return self._objects

    @property
    def pairs(self):
        """A rect or interval instance as exact int pairs, the form
        `geom.rect_pairs` or `geom.line_pairs` returns: those read from the
        file while neither list has been read, else those of the lists."""
        if self._points is None and self._objects is None:
            return self._pairs
        to_pairs = rect_pairs if self.kind == "rects" else line_pairs
        return to_pairs(self.points, self.objects)


def _enc(v) -> str:
    return str(v if isinstance(v, Fraction) else Fraction(v))


def _jline(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dumps(inst: Instance) -> str:
    head = {"kind": inst.kind}
    if inst.seed is not None:
        head["seed"] = inst.seed
    if inst.meta:
        head["meta"] = inst.meta
    lines = [_jline(head)]
    for p in inst.points:
        if inst.kind == "intervals":
            lines.append(_jline({"p": [_enc(p)]}))
        elif inst.kind == "rects":
            lines.append(_jline({"p": [_enc(p.x), _enc(p.y)]}))
        else:
            lines.append(_jline({"p": [float(p.x), float(p.y)]}))
    for o in inst.objects:
        if inst.kind == "rects":
            lines.append(_jline({"r": [_enc(o.left), _enc(o.bottom),
                                       _enc(o.width)]}))
        elif inst.kind == "disks":
            lines.append(_jline({"d": [float(o.center.x), float(o.center.y)]}))
        else:
            lines.append(_jline({"i": [_enc(o.lo), _enc(o.hi),
                                       _enc(o.weight)]}))
    return "\n".join(lines) + "\n"


# per kind: the record tags it accepts, each with its number of values
_ARITY = {"rects": {"p": 2, "r": 3}, "disks": {"p": 2, "d": 2},
          "intervals": {"p": 1, "i": 3}}


def _json(lineno: int, ln: str):
    try:
        return json.loads(ln)
    except (ValueError, RecursionError) as e:
        # the C scanner raises RecursionError on deeply nested JSON
        raise ValueError("line %d: %s" % (lineno, e)) from None


def _finite_point(x, y) -> Point:
    x, y = float(x), float(y)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("coordinates must be finite")
    return Point(x, y)


def rational_pair(v) -> tuple:
    """The exact (num, den) int pair of a record value: lowest terms, den > 0.

    Accepts and refuses exactly what `Fraction(v)` does, but refuses a
    decimal exponent larger in magnitude than `sys.get_int_max_str_digits()`
    (when nonzero), the limit `int` puts on a digit string: `Fraction`
    would compute 10 ** exponent, which for "1e100000000" takes minutes.
    Only the per-line loop and a solution file's objective read values
    here; `_whole_file` reads the "p/q" strings that `dumps` writes on
    its own.
    """
    if type(v) is str:
        _, e, exp = v.replace("E", "e").rpartition("e")
        limit = sys.get_int_max_str_digits()
        try:
            big = e and limit and abs(int(exp)) > limit
        except ValueError:  # no exponent that Fraction would take
            big = False
        if big:
            raise ValueError("decimal exponent beyond %d in magnitude"
                             % limit)
    return Fraction(v).as_integer_ratio()


def _checked_interval(vals) -> tuple:
    lo, hi, w = map(rational_pair, vals)
    if lo[0] * hi[1] >= hi[0] * lo[1]:
        raise ValueError("interval needs lo < hi")
    if w[0] < 0:
        raise ValueError("interval weight must be nonnegative")
    return lo, hi, w


def _checked_rect(vals) -> tuple:
    left, bottom, width = map(rational_pair, vals)
    if width[0] <= 0:
        raise ValueError("rectangle width must be positive")
    return left, bottom, width


def _per_line(lines: list, start: int, kind: str) -> tuple:
    """(points, objects) of the record lines from index `start` on: each
    non-blank line is decoded by `_json` and checked on its own."""
    arity = _ARITY[kind]
    points, objects = [], []
    for lineno, ln in enumerate(lines[start:], start + 1):
        if not ln.strip():
            continue
        rec = _json(lineno, ln)
        tag = next(iter(rec)) if type(rec) is dict and len(rec) == 1 else None
        if tag not in arity:
            raise ValueError("line %d: not a %s record: %s"
                             % (lineno, kind, ln))
        vals = rec[tag]
        if type(vals) is not list or len(vals) != arity[tag]:
            raise ValueError("line %d: %r record needs a list of length %d"
                             % (lineno, tag, arity[tag]))
        try:
            # Fraction and float would take a bool as 1 or 0; json makes
            # one only from a bare true or false literal
            if ("true" in ln or "false" in ln) and bool in map(type, vals):
                raise ValueError("a boolean is not a number")
            if kind == "intervals":
                if tag == "p":
                    points.append(rational_pair(vals[0]))
                else:
                    objects.append(_checked_interval(vals))
            elif kind == "rects":
                if tag == "p":
                    points.append(tuple(map(rational_pair, vals)))
                else:
                    objects.append(_checked_rect(vals))
            elif tag == "p":
                points.append(_finite_point(*vals))
            else:
                objects.append(UnitDisk(_finite_point(*vals)))
        except (TypeError, ValueError, ArithmeticError) as e:
            # Fraction refuses non-numbers, NaN, infinities and "p/0";
            # empty or negative shapes are refused as the objects would
            raise ValueError("line %d: bad %r record: %s"
                             % (lineno, tag, e)) from None
    return points, objects


# A record line as `dumps` writes it: no whitespace, a rational as "p" or
# "p/q" in ASCII digits, a disk coordinate as a JSON number with a fraction
# or an exponent, which JSON itself would read with float().  A record is
# never a file's first line, so each pattern starts at the "\n" before it.
_RATIONAL = r'"(-?[0-9]+)(?:/([0-9]+))?"'
_EXP = r"[eE][-+]?[0-9]+"
_FLOAT = r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:%s)?|%s))" % (_EXP, _EXP)
# per kind: the patterns of its point and its object records, which `re`
# compiles on first use and caches, so importing compiles none of them
_CANONICAL = {kind: [r'\n\{"%s":\[%s\]\}$' % (
    tag, ",".join([_FLOAT if kind == "disks" else _RATIONAL] * n))
    for tag, n in _ARITY[kind].items()] for kind in KINDS}


def _columns(rows: list, width: int) -> list:
    """The `width` group columns of the rows one pattern's `findall` gave."""
    return list(zip(*rows)) or [()] * width


def _whole_file(text: str, kind: str, nrecords: int):
    """(points, objects) of a file whose `nrecords` lines after the header
    are all records as `dumps` writes them, each value passing its check;
    None for any other file.

    A match is a whole "\\n"-delimited line and holds no line break, so it
    is a line of `str.splitlines` too; when the matches number `nrecords`
    they are every record line.  Values are converted, and checked as the
    per-line loop checks them, a column at a time.
    """
    point_rows, object_rows = (re.findall(p, text, re.M)
                               for p in _CANONICAL[kind])
    if len(point_rows) + len(object_rows) != nrecords:
        return None
    pa, oa = _ARITY[kind].values()
    if kind == "disks":
        x, y, cx, cy = (list(map(float, c)) for c in
                        _columns(point_rows, pa) + _columns(object_rows, oa))
        if not all(map(math.isfinite, x + y + cx + cy)):  # "1e999"
            return None
        return (list(map(Point, x, y)),
                list(map(UnitDisk, map(Point, cx, cy))))
    cols = _columns(point_rows, 2 * pa) + _columns(object_rows, 2 * oa)
    try:
        nums = [list(map(int, c)) for c in cols[::2]]
        dens = [[int(d) if d else 1 for d in c] for c in cols[1::2]]
    except ValueError:  # int() refuses more than 4,300 digits
        return None
    if any(0 in d for d in dens):
        return None
    if kind == "rects":
        if min(nums[4], default=1) <= 0:  # the widths
            return None
    elif min(nums[3], default=0) < 0 or not all(map(  # weights, lo < hi
            lt, map(mul, nums[1], dens[2]), map(mul, nums[2], dens[1]))):
        return None
    for i, (n, d) in enumerate(zip(nums, dens)):
        g = list(map(math.gcd, n, d))
        if g.count(1) != len(g):  # not all in lowest terms
            nums[i] = list(map(floordiv, n, g))
            dens[i] = list(map(floordiv, d, g))
    pairs = list(map(zip, nums, dens))
    if kind == "intervals":
        return list(pairs[0]), list(zip(*pairs[1:]))
    return list(zip(*pairs[:2])), list(zip(*pairs[2:]))


def loads(text: str) -> Instance:
    """Parse an instance file; a malformed line raises ValueError naming it.

    Each record is checked for its tag, a list of the right length, and
    values that convert: exact rationals for rects and intervals, finite
    floats for disks.  JSON booleans are refused in every record.  A rect
    or interval file is kept as exact int pairs (see `Instance`), checked
    here as `UnitRect` or `WeightedInterval` would check them.

    Lines are those of `str.splitlines`, and each holds one JSON value; the
    header is the first non-blank one.  When the header is the first line
    and every other line is a record as `dumps` writes it, the file is
    parsed whole (`_whole_file`).  Any other file, or one with a value that
    fails a check there, goes through the per-line loop (`_per_line`),
    which skips blank lines and decodes each other line with `_json`, so a
    refusal names its line and carries the text of `json.loads`.  Both
    paths give the same instance.
    """
    lines = text.splitlines()
    start = next((i for i, ln in enumerate(lines) if ln.strip()), None)
    if start is None:
        raise ValueError("empty instance file")
    head = _json(start + 1, lines[start])
    kind = head.get("kind") if type(head) is dict else None
    if kind not in KINDS:
        raise ValueError("unknown instance kind: %r" % (kind,))
    parsed = _whole_file(text, kind, len(lines) - 1) if start == 0 else None
    if parsed is None:
        parsed = _per_line(lines, start + 1, kind)
    points, objects = parsed
    seed, meta = head.get("seed"), head.get("meta")
    if kind == "disks":
        return Instance(kind, points, objects, seed, meta)
    return Instance(kind, None, None, seed, meta, pairs=(points, objects))


def save(inst: Instance, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(inst))


def load(path) -> Instance:
    with open(path) as fh:
        return loads(fh.read())


def _f8(rng, lo8: int, hi8: int) -> Fraction:
    return Fraction(rng.randint(lo8, hi8), 8)


def _gen_rects(rng, n, m, dist, allow_uncovered):
    rects = []
    span8 = 8 * max(3, m // 2)
    if dist == "uniform":
        for _ in range(m):
            rects.append(UnitRect(_f8(rng, 0, span8), _f8(rng, 0, 32),
                                  _f8(rng, 4, 16)))
        bases = rects
    elif dist == "clustered":
        ncl = max(1, m // 4)
        centers = [(_f8(rng, 0, span8), _f8(rng, 0, 32)) for _ in range(ncl)]
        for _ in range(m):
            cx, cy = centers[rng.randrange(ncl)]
            rects.append(UnitRect(cx + _f8(rng, -8, 8), cy + _f8(rng, -8, 8),
                                  _f8(rng, 4, 16)))
        bases = rects
    else:  # slab-stress: everything inside one height-2 band, with a
        # guaranteed ply-1 cover formed by disjoint base squares
        nbase = max(1, (m + 1) // 2)
        bases = [UnitRect(Fraction(9 * i, 8), _f8(rng, 1, 7)) for i in range(nbase)]
        rects = list(bases)
        hi8 = 9 * (nbase - 1) + 8
        for _ in range(m - nbase):
            rects.append(UnitRect(_f8(rng, 0, max(hi8, 8)), _f8(rng, 1, 7),
                                  _f8(rng, 4, 16)))
    points = []
    for _ in range(n):
        if allow_uncovered:
            points.append(Point(_f8(rng, -8, span8 + 8), _f8(rng, -8, 40)))
        else:
            r = bases[rng.randrange(len(bases))]
            points.append(Point(r.left + r.width * Fraction(rng.randint(0, 8), 8),
                                r.bottom + Fraction(rng.randint(0, 8), 8)))
    return points, rects


def _gen_disks(rng, n, m, dist, allow_uncovered):
    disks = []
    span = max(3.0, m / 2.0)
    if dist == "uniform":
        for _ in range(m):
            disks.append(UnitDisk(Point(round(rng.uniform(0, span), 4),
                                        round(rng.uniform(0, 3), 4))))
    elif dist == "clustered":
        ncl = max(1, m // 4)
        centers = [(rng.uniform(0, span), rng.uniform(0, 3))
                   for _ in range(ncl)]
        for _ in range(m):
            cx, cy = centers[rng.randrange(ncl)]
            disks.append(UnitDisk(Point(round(cx + rng.uniform(-0.8, 0.8), 4),
                                        round(cy + rng.uniform(-0.8, 0.8), 4))))
    else:  # slab-stress: extrema stay inside one height-2 band
        wide = max(2.0, 0.45 * m)
        for _ in range(m):
            disks.append(UnitDisk(Point(round(rng.uniform(0, wide), 4),
                                        round(rng.uniform(0.62, 1.38), 4))))
    points = []
    for _ in range(n):
        if allow_uncovered:
            points.append(Point(round(rng.uniform(-1, span + 1), 6),
                                round(rng.uniform(-1, 4), 6)))
        else:
            d = disks[rng.randrange(len(disks))]
            ang = rng.uniform(0, 2 * math.pi)
            rad = 0.45 * math.sqrt(rng.uniform(0, 1))
            points.append(Point(round(d.center.x + rad * math.cos(ang), 6),
                                round(d.center.y + rad * math.sin(ang), 6)))
    return points, disks


def _gen_intervals(rng, n, m, dist, allow_uncovered):
    ivs = []
    if dist == "chain":
        # consecutive overlaps only: the interval graph is a path
        for i in range(m):
            ivs.append(WeightedInterval(2 * i, 2 * i + 3,
                                        Fraction(rng.randint(1, 9))))
    elif dist == "uniform":
        span8 = 8 * max(4, m)
        for _ in range(m):
            lo = _f8(rng, 0, span8)
            ivs.append(WeightedInterval(lo, lo + _f8(rng, 4, 24),
                                        Fraction(rng.randint(1, 9))))
    else:  # clustered
        ncl = max(1, m // 4)
        centers = [_f8(rng, 0, 8 * max(4, m)) for _ in range(ncl)]
        for _ in range(m):
            c = centers[rng.randrange(ncl)]
            lo = c + _f8(rng, -12, 4)
            ivs.append(WeightedInterval(lo, lo + _f8(rng, 4, 24),
                                        Fraction(rng.randint(1, 9))))
    ivs.sort(key=lambda s: (s.hi, s.lo, s.weight))
    points = []
    for _ in range(n):
        if allow_uncovered:
            lo = min((s.lo for s in ivs), default=Fraction(0)) - 1
            hi = max((s.hi for s in ivs), default=Fraction(1)) + 1
            points.append(lo + (hi - lo) * Fraction(rng.randint(0, 64), 64))
        else:
            s = ivs[rng.randrange(len(ivs))]
            points.append(s.lo + (s.hi - s.lo) * Fraction(rng.randint(0, 16), 16))
    points.sort()
    return points, ivs


def generate(kind: str, n: int, m: int, distribution: str = "uniform",
             seed: int = 0, allow_uncovered: bool = False) -> Instance:
    """Deterministic random instance; every point covered by construction
    unless allow_uncovered is set."""
    if kind not in KINDS:
        raise ValueError("unknown kind: %r" % (kind,))
    if distribution not in DISTRIBUTIONS:
        raise ValueError("unknown distribution: %r" % (distribution,))
    if distribution == "chain" and kind != "intervals":
        raise ValueError("chain distribution is interval-only")
    if distribution == "slab-stress" and kind == "intervals":
        raise ValueError("slab-stress distribution needs a 2-D kind")
    if n < 0:
        raise ValueError("need a nonnegative number of points")
    if m <= 0:
        raise ValueError("need at least one object")
    rng = random.Random(seed)
    if kind == "rects":
        points, objects = _gen_rects(rng, n, m, distribution, allow_uncovered)
    elif kind == "disks":
        points, objects = _gen_disks(rng, n, m, distribution, allow_uncovered)
    else:
        points, objects = _gen_intervals(rng, n, m, distribution,
                                         allow_uncovered)
    meta = {"distribution": distribution, "n": n, "m": m}
    return Instance(kind, points, objects, seed=seed, meta=meta)
