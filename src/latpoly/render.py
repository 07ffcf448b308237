"""Deterministic SVG rendering of polytopes and dotted graphs.

Drawing conventions: oriented edges with midpoint arrowheads, initial
vertices and dots as filled disks, terminal vertices as X marks, region
labels as text.  By default the first coordinate axis runs vertically in
the picture; ``math_axes`` flips to the usual orientation.  Output is
byte-stable for a fixed input.
"""
from __future__ import annotations

from . import geometry as G
from . import dotgraph as DG
from .arrangement import Arrangement, segments_by_line

SCALE = 24
PAD = 30


def _bounds(segs, extra=()):
    xs = [p[0] for s in segs for p in s] + [p[0] for p in extra] or [0]
    ys = [p[1] for s in segs for p in s] + [p[1] for p in extra] or [0]
    return min(xs), max(xs), min(ys), max(ys)


class _Canvas:
    def __init__(self, bounds, math_axes: bool):
        self.math_axes = math_axes
        self.xlo, self.xhi, self.ylo, self.yhi = bounds

    def pt2(self, p2):
        """Doubled world coordinates to integer screen coordinates."""
        x2, y2 = p2
        if self.math_axes:
            sx = (x2 - 2 * self.xlo) * SCALE // 2 + PAD
            sy = (2 * self.yhi - y2) * SCALE // 2 + PAD
        else:
            sx = (y2 - 2 * self.ylo) * SCALE // 2 + PAD
            sy = (x2 - 2 * self.xlo) * SCALE // 2 + PAD
        return sx, sy

    def pt(self, p):
        return self.pt2((2 * p[0], 2 * p[1]))

    def size(self):
        if self.math_axes:
            return ((self.xhi - self.xlo) * SCALE + 2 * PAD,
                    (self.yhi - self.ylo) * SCALE + 2 * PAD)
        return ((self.yhi - self.ylo) * SCALE + 2 * PAD,
                (self.xhi - self.xlo) * SCALE + 2 * PAD)


def _arrow(cv, a, b):
    (ax, ay), (bx, by) = cv.pt(a), cv.pt(b)
    mx, my = (ax + bx) // 2, (ay + by) // 2
    dx = (bx > ax) - (bx < ax)
    dy = (by > ay) - (by < ay)
    k = 5
    tip = (mx + k * dx, my + k * dy)
    l = (mx - k * dx - k * dy, my - k * dy + k * dx)
    r = (mx - k * dx + k * dy, my - k * dy - k * dx)
    return (f'<polygon points="{tip[0]},{tip[1]} {l[0]},{l[1]} {r[0]},{r[1]}"'
            f' fill="black"/>')


def _x_mark(cv, p):
    x, y = cv.pt(p)
    k = SCALE // 6
    return (f'<path d="M{x - k} {y - k}L{x + k} {y + k}M{x - k} {y + k}'
            f'L{x + k} {y - k}" stroke="black" stroke-width="2" fill="none"/>')


def _disk(cv, p):
    x, y = cv.pt(p)
    return f'<circle cx="{x}" cy="{y}" r="{SCALE // 6}" fill="black"/>'


def _segments_svg(cv, segs):
    parts = []
    for a, b in segs:
        (x1, y1), (x2, y2) = cv.pt(a), cv.pt(b)
        parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"'
                     f' stroke="black" stroke-width="2"/>')
        parts.append(_arrow(cv, a, b))
    return parts


def _labels_svg(cv, arr):
    parts = []
    for f in arr.faces:
        if f.unbounded:
            continue
        x, y = cv.pt2(f.sample2)
        parts.append(f'<text x="{x}" y="{y + 5}" font-size="{SCALE // 2 + 2}"'
                     f' text-anchor="middle" font-family="monospace">'
                     f'{f.omega}</text>')
    return parts


def render_svg(obj, math_axes: bool = False) -> str:
    """SVG document for a polytope or a dotted graph."""
    if isinstance(obj, G.LatticePolytope):
        segs = G.boundary_segments(obj)
        iso = G.isolated_vertices(obj)
        marks = [("disk", q) for q in sorted(obj.ver0.points)]
        marks += [("x", q) for q in sorted(obj.ver1.points)]
        arr = Arrangement(*segments_by_line([segs]))
        extra = sorted(iso)
    elif isinstance(obj, DG.DottedGraph):
        an = DG.analyze(obj)
        segs = [seg for _, _, seg in DG.all_segments(obj)]
        marks = [("disk", d) for d in sorted(obj.dots)]
        arr = an.arr
        extra = []
    else:
        raise TypeError(f"cannot render {type(obj)!r}")
    cv = _Canvas(_bounds(segs, extra), math_axes)
    w, h = cv.size()
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}"'
             f' viewBox="0 0 {w} {h}">',
             f'<rect width="{w}" height="{h}" fill="white"/>']
    parts += _segments_svg(cv, segs)
    if segs:
        parts += _labels_svg(cv, arr)
    for kind, p in marks:
        parts.append(_disk(cv, p) if kind == "disk" else _x_mark(cv, p))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
