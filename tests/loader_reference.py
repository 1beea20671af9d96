"""Tests-only instance loader that decodes every line with `json.loads`.

This is the per-line loop of `instances.loads` run on every file: every
non-blank line goes through `instances._json`, where `instances.loads`
parses a file that `dumps` could have written in one pass.  The
differential tests require the production loader to return the same
instance, or raise the same `ValueError` text, as this one on every file.
"""
from __future__ import annotations

from plycover.geom import UnitDisk
from plycover.instances import (_ARITY, KINDS, Instance, _checked_interval,
                                _checked_rect, _finite_point, _json,
                                rational_pair)


def loads(text: str) -> Instance:
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
            raise ValueError("line %d: bad %r record: %s"
                             % (lineno, tag, e)) from None
    seed, meta = head.get("seed"), head.get("meta")
    if kind == "disks":
        return Instance(kind, points, objects, seed, meta)
    return Instance(kind, None, None, seed, meta, pairs=(points, objects))
