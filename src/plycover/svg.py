"""Deterministic SVG rendering of instances and optional solutions."""
from __future__ import annotations

import math

from .slabs import assign_slabs

SCALE = 40.0
MARGIN = 1.0
POINT_R = 3.0
PALETTE = ("#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00", "#a65628")
_TOO_FAR = "cannot draw: coordinates exceed the float range"


def _f(v) -> str:
    return "%.4f" % float(v)


def _solution_parts(solution):
    if solution is None:
        return set(), {}
    colors = solution.get("colors") or {}
    return (set(solution.get("chosen", [])),
            {int(k): int(v) for k, v in colors.items()})


def _object_style(idx, chosen, colors) -> str:
    if idx in colors:
        fill = PALETTE[(colors[idx] - 1) % len(PALETTE)]
        return 'fill="%s" fill-opacity="0.45" stroke="%s"' % (fill, fill)
    if idx in chosen:
        return 'fill="#9ecae1" fill-opacity="0.5" stroke="#08519c"'
    return 'fill="none" stroke="#aaaaaa"'


def render_svg(instance, solution=None) -> str:
    """SVG document string; byte-identical for identical inputs.

    `solution` is None or a solution file's dict.  Raises ValueError when
    the drawing does not fit in floats: a coordinate or the width or
    height beyond the float range."""
    chosen, colors = _solution_parts(solution)
    kind = instance.kind
    objects = instance.objects
    # each object's float extent (left, right, bottom, top), which the
    # bounds, guides and shapes read; interval i is at height 0.5 (i + 1)
    try:
        if kind == "intervals":
            pts_xy = [(float(x), 0.0) for x in instance.points]
            boxes = [(float(s.lo), float(s.hi), 0.5 * (i + 1), 0.5 * (i + 1))
                     for i, s in enumerate(objects)]
        else:
            pts_xy = [(float(p.x), float(p.y)) for p in instance.points]
            if kind == "rects":
                boxes = [(float(o.left), float(o.right), float(o.bottom),
                          float(o.top)) for o in objects]
            else:
                boxes = [(o.center.x - 0.5, o.center.x + 0.5,
                          o.center.y - 0.5, o.center.y + 0.5)
                         for o in objects]
    except OverflowError:
        raise ValueError(_TOO_FAR) from None
    xs = [x for x, _ in pts_xy] + [x for b in boxes for x in b[:2]]
    ys = [y for _, y in pts_xy] + [y for b in boxes for y in b[2:]]
    if kind == "intervals":
        ys.append(0.0)  # the axis
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    width = (x1 - x0 + 2 * MARGIN) * SCALE
    height = (y1 - y0 + 2 * MARGIN) * SCALE
    if not math.isfinite(width + height):
        raise ValueError(_TOO_FAR)

    def sx(x):
        return (float(x) - x0 + MARGIN) * SCALE

    def sy(y):
        return (y1 - float(y) + MARGIN) * SCALE

    out = ['<svg xmlns="http://www.w3.org/2000/svg" width="%s" height="%s" '
           'viewBox="0 0 %s %s">' % (_f(width), _f(height), _f(width), _f(height))]

    out.append('<g id="guides" stroke="#dddddd" stroke-dasharray="4 3">')
    for x in sorted({x for b in boxes for x in b[:2]}):
        out.append('<line x1="%s" y1="0" x2="%s" y2="%s"/>'
                   % (_f(sx(x)), _f(sx(x)), _f(height)))
    if kind in ("rects", "disks"):
        # the bottom and top of every slab the solvers search
        slabs = assign_slabs(instance.points, objects, kind)
        for (on, od), j in sorted({(s.offset, s.index + k)
                                   for s in slabs for k in (0, 1)}):
            yb = (on + 2 * j * od) / od
            out.append('<line x1="0" y1="%s" x2="%s" y2="%s" stroke="#fdae6b"/>'
                       % (_f(sy(yb)), _f(width), _f(sy(yb))))
    elif kind == "intervals":
        out.append('<line x1="0" y1="%s" x2="%s" y2="%s" stroke="#bbbbbb"/>'
                   % (_f(sy(0)), _f(width), _f(sy(0))))
    out.append('</g>')

    out.append('<g id="objects" stroke-width="1.5">')
    for i, (o, (left, right, _, top)) in enumerate(zip(objects, boxes)):
        style = _object_style(i, chosen, colors)
        if kind == "rects":
            out.append('<rect x="%s" y="%s" width="%s" height="%s" %s/>'
                       % (_f(sx(left)), _f(sy(top)),
                          _f(float(o.width) * SCALE), _f(SCALE), style))
        elif kind == "disks":
            out.append('<circle cx="%s" cy="%s" r="%s" %s/>'
                       % (_f(sx(o.center.x)), _f(sy(o.center.y)),
                          _f(0.5 * SCALE), style))
        else:
            out.append('<line x1="%s" y1="%s" x2="%s" y2="%s" %s '
                       'stroke-width="5" stroke-linecap="round"/>'
                       % (_f(sx(left)), _f(sy(top)), _f(sx(right)),
                          _f(sy(top)), style.replace('fill="none" ', '')))
    out.append('</g>')

    out.append('<g id="points" fill="#000000">')
    for x, y in pts_xy:
        out.append('<circle cx="%s" cy="%s" r="%s"/>'
                   % (_f(sx(x)), _f(sy(y)), _f(POINT_R)))
    out.append('</g>')
    out.append('</svg>')
    return "\n".join(out) + "\n"
