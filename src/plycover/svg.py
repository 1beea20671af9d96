"""Deterministic SVG rendering of instances and optional solutions."""
from __future__ import annotations

import math
from fractions import Fraction

from .slabs import CoverSolution, slab_offset

SCALE = 40.0
MARGIN = 1.0
POINT_R = 3.0
PALETTE = ("#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00", "#a65628")


def _f(v) -> str:
    return "%.4f" % float(v)


def _solution_parts(solution):
    if solution is None:
        return set(), {}
    if isinstance(solution, CoverSolution):
        chosen = solution.chosen
        colors = solution.colors or {}
    else:
        chosen = solution.get("chosen", [])
        colors = solution.get("colors") or {}
    return set(chosen), {int(k): int(v) for k, v in colors.items()}


def _object_style(idx, chosen, colors) -> str:
    if idx in colors:
        fill = PALETTE[(colors[idx] - 1) % len(PALETTE)]
        return 'fill="%s" fill-opacity="0.45" stroke="%s"' % (fill, fill)
    if idx in chosen:
        return 'fill="#9ecae1" fill-opacity="0.5" stroke="#08519c"'
    return 'fill="none" stroke="#aaaaaa"'


def render_svg(instance, solution=None) -> str:
    """SVG document string; byte-identical for identical inputs."""
    chosen, colors = _solution_parts(solution)
    kind = instance.kind
    pts_xy = []
    if kind == "intervals":
        pts_xy = [(float(x), 0.0) for x in instance.points]
        rows = [(float(s.lo), float(s.hi), 0.5 * (i + 1))
                for i, s in enumerate(instance.objects)]
        xs = [x for x, _ in pts_xy] + [v for lo, hi, _ in rows for v in (lo, hi)]
        ys = [0.0] + [y for _, _, y in rows]
    else:
        pts_xy = [(float(p.x), float(p.y)) for p in instance.points]
        xs = [x for x, _ in pts_xy]
        ys = [y for _, y in pts_xy]
        for o in instance.objects:
            if kind == "rects":
                xs += [float(o.left), float(o.right)]
                ys += [float(o.bottom), float(o.top)]
            else:
                xs += [o.center.x - 0.5, o.center.x + 0.5]
                ys += [o.center.y - 0.5, o.center.y + 0.5]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    width = (x1 - x0 + 2 * MARGIN) * SCALE
    height = (y1 - y0 + 2 * MARGIN) * SCALE

    def sx(x):
        return (float(x) - x0 + MARGIN) * SCALE

    def sy(y):
        return (y1 - float(y) + MARGIN) * SCALE

    out = ['<svg xmlns="http://www.w3.org/2000/svg" width="%s" height="%s" '
           'viewBox="0 0 %s %s">' % (_f(width), _f(height), _f(width), _f(height))]

    out.append('<g id="guides" stroke="#dddddd" stroke-dasharray="4 3">')
    guide_xs = []
    if kind == "rects":
        for o in instance.objects:
            guide_xs += [float(o.left), float(o.right)]
    elif kind == "disks":
        for o in instance.objects:
            guide_xs += [o.center.x - 0.5, o.center.x + 0.5]
    else:
        for o in instance.objects:
            guide_xs += [float(o.lo), float(o.hi)]
    for x in sorted(set(guide_xs)):
        out.append('<line x1="%s" y1="0" x2="%s" y2="%s"/>'
                   % (_f(sx(x)), _f(sx(x)), _f(height)))
    if kind in ("rects", "disks") and instance.objects:
        off = slab_offset(instance.points, instance.objects, kind)
        for j in range(math.ceil((Fraction(y0) - 1 - off) / 2),
                       math.floor((Fraction(y1) + 1 - off) / 2) + 1):
            yb = off + 2 * j
            out.append('<line x1="0" y1="%s" x2="%s" y2="%s" stroke="#fdae6b"/>'
                       % (_f(sy(yb)), _f(width), _f(sy(yb))))
    elif kind == "intervals":
        out.append('<line x1="0" y1="%s" x2="%s" y2="%s" stroke="#bbbbbb"/>'
                   % (_f(sy(0)), _f(width), _f(sy(0))))
    out.append('</g>')

    out.append('<g id="objects" stroke-width="1.5">')
    for i, o in enumerate(instance.objects):
        style = _object_style(i, chosen, colors)
        if kind == "rects":
            out.append('<rect x="%s" y="%s" width="%s" height="%s" %s/>'
                       % (_f(sx(o.left)), _f(sy(o.top)),
                          _f(float(o.width) * SCALE), _f(SCALE), style))
        elif kind == "disks":
            out.append('<circle cx="%s" cy="%s" r="%s" %s/>'
                       % (_f(sx(o.center.x)), _f(sy(o.center.y)),
                          _f(0.5 * SCALE), style))
        else:
            y = 0.5 * (i + 1)
            out.append('<line x1="%s" y1="%s" x2="%s" y2="%s" %s '
                       'stroke-width="5" stroke-linecap="round"/>'
                       % (_f(sx(o.lo)), _f(sy(y)), _f(sx(o.hi)), _f(sy(y)),
                          style.replace('fill="none" ', '')))
    out.append('</g>')

    out.append('<g id="points" fill="#000000">')
    for x, y in pts_xy:
        out.append('<circle cx="%s" cy="%s" r="%s"/>'
                   % (_f(sx(x)), _f(sy(y)), _f(POINT_R)))
    out.append('</g>')
    out.append('</svg>')
    return "\n".join(out) + "\n"
