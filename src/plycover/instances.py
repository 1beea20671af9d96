"""Instance file format (line-delimited JSON) and seeded random generators.

Rational coordinates are serialized as "p/q" strings so files round-trip
losslessly; disk coordinates stay floats.  The loader reads every rational
into an exact (num, den) int pair (`rational_pair`).  An interval file
keeps those pairs, which `intervals.solve_intervals` takes as they are, so
a solve makes no `Fraction` or `WeightedInterval` between the file and the
objective; the `points` and `objects` lists are built only when read.
Generated points are covered by construction unless explicitly allowed to
be uncovered.
"""
from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from typing import Optional

from .geom import Point, UnitDisk, UnitRect, WeightedInterval, line_pairs

KINDS = ("rects", "disks", "intervals")
DISTRIBUTIONS = ("uniform", "clustered", "slab-stress", "chain")


class Instance:
    """A problem instance: its kind, points and objects, plus the seed and
    meta data of a generated one.

    An interval instance read by `loads` keeps its values as exact int
    pairs (`pairs`); `points` and `objects` are built from them the first
    time they are read.
    """

    def __init__(self, kind: str, points: list, objects: list,
                 seed: Optional[int] = None, meta: Optional[dict] = None):
        self.kind = kind
        self.points = points
        self.objects = objects
        self.seed = seed
        self.meta = meta
        self._pairs = None

    @property
    def points(self) -> list:
        if self._points is None:
            self._points = [Fraction(*x) for x in self._pairs[0]]
        return self._points

    @points.setter
    def points(self, points: list):
        self._points = points

    @property
    def objects(self) -> list:
        if self._objects is None:
            self._objects = [WeightedInterval(Fraction(*lo), Fraction(*hi),
                                              Fraction(*w))
                             for lo, hi, w in self._pairs[1]]
        return self._objects

    @objects.setter
    def objects(self, objects: list):
        self._objects = objects

    @property
    def pairs(self):
        """An interval instance as exact int pairs, the form `geom.line_pairs`
        returns: those read from the file while neither list has been read
        or assigned, else those of the lists."""
        if self._points is None and self._objects is None:
            return self._pairs
        return line_pairs(self.points, self.objects)


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
    except ValueError as e:
        raise ValueError("line %d: %s" % (lineno, e)) from None


def _finite_point(x, y) -> Point:
    x, y = float(x), float(y)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("coordinates must be finite")
    return Point(x, y)


def rational_pair(v) -> tuple:
    """The exact (num, den) int pair of a record value: lowest terms, den > 0.

    Accepts and refuses exactly what `Fraction(v)` does.  Plain ASCII "p/q"
    and "p" strings (digits, a leading "-" on p, q not zero) are split and
    read with `int`; every other value goes through `Fraction`.
    """
    if type(v) is str and v.isascii():
        num, slash, den = v.partition("/")
        if num.isdigit() or num[:1] == "-" and num[1:].isdigit():
            if not slash:
                return int(num), 1
            if den.isdigit():
                num, den = int(num), int(den)
                if den:
                    g = math.gcd(num, den)
                    return (num, den) if g == 1 else (num // g, den // g)
    return Fraction(v).as_integer_ratio()


def _checked_interval(vals) -> tuple:
    lo, hi, w = map(rational_pair, vals)
    if lo[0] * hi[1] >= hi[0] * lo[1]:
        raise ValueError("interval needs lo < hi")
    if w[0] < 0:
        raise ValueError("interval weight must be nonnegative")
    return lo, hi, w


def _rational(v) -> Fraction:
    return Fraction(*rational_pair(v))


def loads(text: str) -> Instance:
    """Parse an instance file; a malformed line raises ValueError naming it.

    Each record is checked for its tag, a list of the right length, and
    values that convert: exact rationals for rects and intervals, finite
    floats for disks.  JSON booleans are refused in every record.  An
    interval file is kept as exact int pairs (see `Instance`), checked here
    as `WeightedInterval` would check them.
    """
    rows = enumerate(text.splitlines(), 1)
    for lineno, ln in rows:
        if ln.strip():
            head = _json(lineno, ln)
            break
    else:
        raise ValueError("empty instance file")
    kind = head.get("kind") if type(head) is dict else None
    if kind not in KINDS:
        raise ValueError("unknown instance kind: %r" % (kind,))
    arity = _ARITY[kind]
    points, objects = [], []
    for lineno, ln in rows:
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
                    points.append(Point(*map(_rational, vals)))
                else:
                    objects.append(UnitRect(*map(_rational, vals)))
            elif tag == "p":
                points.append(_finite_point(*vals))
            else:
                objects.append(UnitDisk(_finite_point(*vals)))
        except (TypeError, ValueError, ArithmeticError) as e:
            # Fraction refuses non-numbers, NaN, infinities and "p/0";
            # empty or negative shapes are refused as the objects would
            raise ValueError("line %d: bad %r record: %s"
                             % (lineno, tag, e)) from None
    seed, meta = head.get("seed"), head.get("meta")
    if kind != "intervals":
        return Instance(kind, points, objects, seed, meta)
    inst = Instance(kind, None, None, seed, meta)
    inst._pairs = points, objects
    return inst


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
