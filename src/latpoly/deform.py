"""Deformations of dotted graphs: applicability predicates and exact
application of dot merging (I), circle deletion (II), loop deletion (III),
band surgery between dotted arcs (IV) with its two good subcases, the arc
isotopy move, starred variants, and the all-cores agreement check.

Surgery runs at a working scale of 16 after coordinate compression, which
leaves integer corridors for the band; results are compressed back, so
coordinates stay small forever.  Every applied move returns a valid graph
with globally recomputed labels; every graph is checked by its first
analysis.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import NamedTuple

from . import errors
from .arrangement import Pt, winding_2x
from . import dotgraph as DG
from .dotgraph import DottedGraph, ComponentCert, GraphAnalysis, analyze

SCALE = 16

KINDS = ("I", "II", "III", "IV")

_KIND_RANK = {"I": 0, "II": 1, "III": 2, "IV": 3, "IVa1": 3, "IVa2": 3, "E": 4}


@dataclass(frozen=True)
class Move:
    """An applicable deformation site on a specific graph."""
    kind: str
    site: tuple
    epsilon: int | None
    magnitude: int

    def sort_key(self):
        return (_KIND_RANK.get(self.kind, 9), repr(self.site))


@dataclass(frozen=True)
class Deformation:
    """One applied move with before/after snapshots."""
    kind: str
    site: tuple
    epsilon: int | None
    magnitude: int
    before: DottedGraph
    after: DottedGraph
    meta: tuple = field(default=(), compare=False)

    def meta_dict(self) -> dict:
        return dict(self.meta)


# ------------------------------------------------------------ helpers ---

def _rot_left(d: Pt) -> Pt:
    return (-d[1], d[0])


def _rot_right(d: Pt) -> Pt:
    return (d[1], -d[0])


def component_sign_ok(an, cert: ComponentCert) -> bool:
    """True when every region of the component's disk carries its sign,
    so that deformation II or III may delete it."""
    eps = cert.orientation
    return all(eps * an.label(f) >= 1 for f in cert.disk_faces)


# ------------------------------------------------------------- apply I --

def apply_I(g: DottedGraph, arc) -> DottedGraph:
    """Collapse the dots of one arc to its first dot."""
    an = analyze(g)
    a = an.arcs_by_key[arc.key if hasattr(arc, "key") else arc]
    if len(a.dots) < 2:
        raise errors.TooFewDots("deformation needs at least two dots on the arc")
    keep = a.dots[0]
    dots = (g.dots - set(a.dots)) | {keep}
    return DottedGraph(g.curves, frozenset(dots))


# ------------------------------------------------------------ apply II --

def apply_II(g: DottedGraph, cert: ComponentCert) -> DottedGraph:
    """Delete a circle component; labels inside its disk drop by epsilon.

    The valid graph g minus one curve and its dots is valid and in normal
    form: the curves keep their order, and the crossings and corners left
    are some of g's.  So the result is built without re-validation."""
    if cert.kind != "circle":
        raise errors.NotALoop("apply_II needs a circle certificate")
    an = analyze(g)
    if not component_sign_ok(an, cert):
        raise errors.LabelMismatch(
            "every region of the disk must carry the sign of the circle")
    curves = tuple(c for i, c in enumerate(g.curves) if i != cert.curve)
    circle_dots = {d for k in cert.arcs for d in an.arcs_by_key[k].dots}
    return DottedGraph(curves, frozenset(d for d in g.dots if d not in circle_dots))


# ----------------------------------------------------------- apply III --

def apply_III(g: DottedGraph, cert: ComponentCert) -> DottedGraph:
    """Delete a loop component, smoothing the apex into a corner; the fused
    arc keeps one dot exactly when the loop was dotted."""
    if cert.kind != "loop":
        raise errors.NotALoop("apply_III needs a loop certificate")
    an = analyze(g)
    if not component_sign_ok(an, cert):
        raise errors.LabelMismatch(
            "every region of the disk must carry the sign of the loop")
    c = cert.apex
    loop_arcs = [an.arcs_by_key[k] for k in cert.arcs]
    loop_dots = set()
    for a in loop_arcs:
        loop_dots.update(a.dots)
    tail_out = None
    first_out = loop_arcs[0].start_dir
    for d in DG.CCW_DIRS:
        arm = an.arms.get((c, d))
        if arm and arm[1] == "out" and d != first_out:
            tail_out = d
    if tail_out is None:
        raise errors.InvalidGraph(f"loop apex {c} has no second outgoing arm")
    tail = _chain_from(an, c, tail_out)
    pts = [c]
    for a in tail:
        pts.extend(a.path[1:])
    new_curve = tuple(pts[:-1])   # the walk closes back at c
    curves = tuple(cc for i, cc in enumerate(g.curves) if i != cert.curve) + (new_curve,)
    dots = set(g.dots) - loop_dots
    if loop_dots:
        dots.add(c)
    return DottedGraph.build(curves, dots)


def _chain_from(an, c: Pt, out_dir: Pt):
    """Arc chain leaving c along the outgoing arm out_dir until the walk
    first returns to c."""
    chain = [an.arcs_by_key[an.arms[(c, out_dir)][0]]]
    while chain[-1].end != c:
        nxt = an.arms[(chain[-1].end, chain[-1].end_dir)]
        if nxt[1] != "out":
            raise errors.InvalidGraph(f"the walk from {c} meets no outgoing arm "
                                      f"ahead at {chain[-1].end}")
        chain.append(an.arcs_by_key[nxt[0]])
        if len(chain) > len(an.arcs) + 1:
            raise errors.InvalidGraph(f"the walk from {c} does not return to it")
    return chain


# ------------------------------------------------------------ apply IV --

def apply_IV(g: DottedGraph, p1: Pt, p2: Pt) -> DottedGraph:
    """Band surgery between two dots across their shared middle region,
    along the canonical core: the shortest route through the middle
    region's quarter cells, ties broken lexicographically."""
    return surgery(g, p1, p2).after


def surgery_site(an: GraphAnalysis, p1: Pt, p2: Pt):
    """The site ``(a1, a2, F)`` of a surgery between the dots p1 and p2:
    their arcs and their middle region, the band face both arcs share.
    Raises ``MissingDot`` for a point that is no dot, and ``NotApplicable``
    where no surgery joins the two."""
    a1, a2 = an.arc_of(p1), an.arc_of(p2)
    return a1, a2, _middle_region(an.geometry, a1, a2)


def surgery(g: DottedGraph, p1: Pt, p2: Pt, hug_crossing=None) -> Deformation:
    """The surgery between the dots p1 and p2 as a deformation: along the
    canonical core, or along the core that hugs the crossing
    ``hug_crossing`` (subcase IVa1).  Its site is ``(p1, p2, None)``."""
    an = analyze(g)
    if p1 == p2:
        raise errors.MissingDot("the two dots must be distinct")
    _, _, F = surgery_site(an, p1, p2)
    eps = 1 if an.label(F) > 0 else -1
    grid = _working_grid(g)
    w = _working_pair(g, p1, p2, hug_crossing)
    if hug_crossing is not None:
        core_s = _hug_core(w.q1, w.n1, w.q2, grid.up(hug_crossing))
    else:
        core_s = _canonical_core(w)
    raw, nd1, nd2 = _cut_and_join(w, core_s)
    out, gx, gy = DG.renormalize(raw)
    analyze(out)                    # validates it: a routing bug raises here

    def down(p: Pt):
        return (gx[p[0]], gy[p[1]])

    meta = (("new_dots", (down(nd1), down(nd2))),
            ("apex", down(grid.up(hug_crossing)) if hug_crossing is not None else None))
    return Deformation("IV", (p1, p2, None), eps, abs(an.label(F)), g, out, meta)


class _Grid:
    """A graph at working scale, set up once for all its surgeries: the
    compression maps ``fx``/``fy`` scaled by SCALE, the scaled graph ``gs``
    and its own geometry ``geo``, and the points no slid dot may take
    besides the dots (``fixed``: corners and crossings).  It memoizes each
    arc's slide candidates (``candidates``) and each surgery site's working
    pair (``pairs``)."""

    def __init__(self, g: DottedGraph):
        xs, ys = DG.coordinate_values(g)
        self.fx = {x: SCALE * i for i, x in enumerate(xs)}
        self.fy = {y: SCALE * i for i, y in enumerate(ys)}
        self.gs = DG.transform_coords(g, self.fx, self.fy)
        self.geo = DG.CurveGeometry(self.gs.curves)
        self.fixed = {p for curve in self.gs.curves for p in curve} | set(self.geo.crossings)
        self.candidates: dict = {}
        self.pairs: dict = {}

    def up(self, p: Pt) -> Pt:
        return (self.fx[p[0]], self.fy[p[1]])


@lru_cache(maxsize=1)
def _working_grid(g: DottedGraph) -> _Grid:
    """The working grid of g, kept for the last graph worked on: the
    explorer keys a state's surgeries and builds them before it moves to
    the next state, so the reuse of a grid falls within one state's work,
    and a second grid would only be held in memory."""
    return _Grid(g)


class _Pair(NamedTuple):
    """Two surgery dots on a working grid: ``gs`` is the grid's graph after
    the dots slid to q1 and q2 (never analysed), Fs their middle region,
    d1, d2 the arc directions at the dots and n1, n2 the normals from the
    dots into Fs.  ``key`` is the working site of ``sharing_key``.  ``geo``
    is the grid's geometry."""
    gs: DottedGraph
    geo: DG.CurveGeometry
    Fs: int
    q1: Pt
    d1: Pt
    n1: Pt
    q2: Pt
    d2: Pt
    n2: Pt
    key: tuple


def _working_pair(g: DottedGraph, p1: Pt, p2: Pt, hug_crossing=None) -> _Pair:
    """The set-up of one surgery on the working grid of g: the dots at p1
    and p2 slide to canonical positions (beside ``hug_crossing`` when
    given), and their arcs, directions, normals and middle region are read
    off the grid's geometry.  Nothing is analysed, and each site's pair is
    built once per grid."""
    grid = _working_grid(g)
    site = (p1, p2, hug_crossing)
    w = grid.pairs.get(site)
    if w is None:
        w = grid.pairs[site] = _slide_pair(grid, p1, p2, hug_crossing)
    return w


def _middle_region(geo, a1, a2):
    F = geo.band_face[a1.key]
    if geo.band_face[a2.key] != F:
        raise errors.NoCommonFace("dots have no shared middle region")
    return F


def _dir_at(arc, q: Pt) -> Pt:
    """Travel direction of an arc at an interior point of one of its pieces."""
    for a, b in arc.pieces:
        if DG._on_segment(q, (a, b)) and q != a and q != b:
            return DG._direction(a, b)
    raise errors.RoutingFailure(f"dot {q} is not interior to an arc piece")


def _normal_into(an, arc, d: Pt, F) -> Pt:
    if an.left_face[arc.key] == F:
        return _rot_left(d)
    if an.right_face[arc.key] == F:
        return _rot_right(d)
    raise errors.NoCommonFace("face not beside the arc")


# dot sliding ---------------------------------------------------------------

def _slide_pair(grid: _Grid, p1: Pt, p2: Pt, hug_crossing) -> _Pair:
    """Slide both surgery dots to canonical arc positions.  Unless the dots
    hug a crossing, the second dot lands beside a different quarter-cell of
    the middle region than the first where it can.  No routing needs that
    rule; it fixes where the canonical core starts and ends, and so the
    coordinates of every surgery's result.  The first dot has left its old
    place when the second slides, so the second may take it."""
    geo, dots = grid.geo, grid.gs.dots
    q1, q2 = grid.up(p1), grid.up(p2)
    near = None if hug_crossing is None else grid.up(hug_crossing)
    a1, a2 = geo.arcs[geo.arc_at(q1)[0]], geo.arcs[geo.arc_at(q2)[0]]
    Fs = _middle_region(geo, a1, a2)
    s1 = _slide(grid, q1, a1, dots, near)
    avoid = None if near is not None else _quarter_of(geo, a1, s1, Fs)
    s2 = _slide(grid, q2, a2, (dots - {q1}) | {s1}, near, avoid, Fs)
    d1, d2 = _dir_at(a1, s1), _dir_at(a2, s2)
    gs = DottedGraph(grid.gs.curves, (dots - {q1, q2}) | {s1, s2})
    return _Pair(gs, geo, Fs, s1, d1, _normal_into(geo, a1, d1, Fs), s2, d2,
                 _normal_into(geo, a2, d2, Fs), (a1.key, s1, a2.key, s2))


def _quarter_of(geo, arc, q: Pt, F):
    """The quarter-cell of face F beside the point q of the arc."""
    return _quarter_beside(geo.arr, q, _normal_into(geo, arc, _dir_at(arc, q), F))


def _slide_candidates(arc) -> list[Pt]:
    out = []
    pieces = sorted(arc.pieces,
                    key=lambda s: -(abs(s[1][0] - s[0][0]) + abs(s[1][1] - s[0][1])))
    for p, r in pieces:
        length = abs(r[0] - p[0]) + abs(r[1] - p[1])
        d = DG._direction(p, r)
        for off in (length // 2, length // 4, 3 * length // 4,
                    length // 2 - 4, length // 2 + 4, 4, length - 4):
            if 4 <= off <= length - 4:
                cand = (p[0] + d[0] * off, p[1] + d[1] * off)
                if cand not in out:
                    out.append(cand)
    return out


def _slide(grid: _Grid, q: Pt, arc, taken, near=None, avoid=None, F=None) -> Pt:
    """Where the dot at q of the arc slides: the first free candidate, one
    that is no corner, crossing or ``taken`` dot (q itself is free), and
    not beside the quarter-cell ``avoid`` of face F if such a one exists."""
    if near is not None:
        candidates = _near_crossing_positions(arc, near)
    else:
        candidates = grid.candidates.get(arc.key)
        if candidates is None:
            candidates = grid.candidates[arc.key] = _slide_candidates(arc)
    free = [c for c in candidates if c == q or not (c in taken or c in grid.fixed)]
    if not free:
        raise errors.RoutingFailure("no free canonical position for a surgery dot")
    return next((c for c in free if avoid is None or
                 _quarter_of(grid.geo, arc, c, F) != avoid), free[0])


def _near_crossing_positions(arc, c: Pt) -> list[Pt]:
    """Points on the arc eight units from its end(s) at crossing c."""
    out = []
    pts = arc.path
    if pts[0] == c:
        d = DG._direction(pts[0], pts[1])
        out.append((c[0] + 8 * d[0], c[1] + 8 * d[1]))
    if pts[-1] == c:
        d = DG._direction(pts[-1], pts[-2])
        out.append((c[0] + 8 * d[0], c[1] + 8 * d[1]))
    if not out:
        raise errors.NotIVa1Site(f"arc does not end at crossing {c}")
    return out


# core construction ----------------------------------------------------------

def _clean_polyline(pts) -> tuple[Pt, ...]:
    out: list[Pt] = []
    for p in pts:
        if out and p == out[-1]:
            continue
        out.append(p)
    i = 1
    while i + 1 < len(out):
        a, b, c = out[i - 1], out[i], out[i + 1]
        if (a[0] == b[0] == c[0]) or (a[1] == b[1] == c[1]):
            out.pop(i)
            if i > 1:
                i -= 1
        else:
            i += 1
    return tuple(out)


def _canonical_core(w: _Pair) -> tuple[Pt, ...]:
    """The core along the shortest quarter-cell route through the middle
    region, ties broken lexicographically: a breadth-first search from the
    second dot's quarter cell, then a walk from the first dot's to the
    least neighbour one step closer.  The search stops once it reaches the
    first dot's quarter cell: every quarter cell nearer the goal then has
    its distance, and the walk reads no other."""
    arr = w.geo.arr
    F_cells = w.geo.face_cells[w.Fs]
    start, goal = _quarter_beside(arr, w.q1, w.n1), _quarter_beside(arr, w.q2, w.n2)
    dist = {goal: 0}
    dq = deque([goal])
    while start not in dist:
        if not dq:
            raise errors.RoutingFailure("face cells are disconnected")
        cur = dq.popleft()
        for nb in _quarter_neighbors(F_cells, cur):
            if nb not in dist:
                dist[nb] = dist[cur] + 1
                dq.append(nb)
    path = [start]
    while path[-1] != goal:
        path.append(min(nb for nb in _quarter_neighbors(F_cells, path[-1])
                        if dist.get(nb, -1) == dist[path[-1]] - 1))
    return _route_through_quarters(arr, path, w.q1, w.n1, w.q2, w.n2)


def _hug_core(q1, n1, q2, c: Pt) -> tuple[Pt, ...]:
    """Core hugging the two crossing arms at distance two."""
    hug = (q1, c, q2)
    off = _offset_polyline(hug, (2 * n1[0], 2 * n1[1]), 2)
    return _clean_polyline([q1] + list(off) + [q2])


def _offset_polyline(path, u0: Pt, dist: int) -> tuple[Pt, ...]:
    dirs = [DG._direction(path[i], path[i + 1]) for i in range(len(path) - 1)]
    s = dirs[0][0] * u0[1] - dirs[0][1] * u0[0]
    us = []
    for d in dirs:
        u = _rot_left(d) if s > 0 else _rot_right(d)
        us.append((u[0] * dist, u[1] * dist))
    pts = [(path[0][0] + us[0][0], path[0][1] + us[0][1])]
    for i in range(1, len(path) - 1):
        pts.append((path[i][0] + us[i - 1][0] + us[i][0],
                    path[i][1] + us[i - 1][1] + us[i][1]))
    pts.append((path[-1][0] + us[-1][0], path[-1][1] + us[-1][1]))
    return _clean_polyline(pts)


# surgery --------------------------------------------------------------------

def _path_between(geo, ci: int, qa: Pt, qb: Pt) -> list[Pt]:
    """Points from qa to qb along curve ci of ``geo``; qa == qb walks the
    whole way around."""
    offsets = []
    for p in (qa, qb):
        loc = geo.locate(p)
        if loc is None or loc[0] != ci:
            raise errors.RoutingFailure(f"{p} not on curve")
        offsets.append(loc[1])
    return [qa] + geo.corners_between(ci, *offsets) + [qb]


def _cut_and_join(w: _Pair, core):
    gs, geo, q1, d1, q2, d2 = w.gs, w.geo, w.q1, w.d1, w.q2, w.d2
    ci1 = _curve_of_point(geo, q1)
    ci2 = _curve_of_point(geo, q2)
    off_minus = _offset_polyline(core, (-d1[0], -d1[1]), 1)
    off_plus = _offset_polyline(core, d1, 1)
    t1m = (q1[0] - d1[0], q1[1] - d1[1])
    t1p = (q1[0] + d1[0], q1[1] + d1[1])
    t2m = (q2[0] - d2[0], q2[1] - d2[1])
    t2p = (q2[0] + d2[0], q2[1] + d2[1])
    if off_minus[0] != t1m or off_plus[0] != t1p:
        raise errors.RoutingFailure("band sides do not meet the first cut")
    if off_minus[-1] != t2p or off_plus[-1] != t2m:
        raise errors.OrientationClash(
            "arcs do not admit the induced orientations along this core")
    if ci1 == ci2:
        piece1 = _path_between(geo, ci1, q1, q2)
        piece2 = _path_between(geo, ci1, q2, q1)
        c1 = _trim(piece2, d2, d1) + list(off_minus[1:-1])
        c2 = _trim(piece1, d1, d2) + list(reversed(off_plus))[1:-1]
        curves = [c for i, c in enumerate(gs.curves) if i != ci1] + \
            [tuple(c1), tuple(c2)]
    else:
        whole1 = _path_between(geo, ci1, q1, q1)
        whole2 = _path_between(geo, ci2, q2, q2)
        merged = (_trim(whole1, d1, d1) + list(off_minus[1:]) +
                  _trim(whole2, d2, d2)[1:] + list(reversed(off_plus))[1:-1])
        curves = [c for i, c in enumerate(gs.curves)
                  if i not in (ci1, ci2)] + [tuple(merged)]
    dots = (set(gs.dots) - {q1, q2}) | {t1m, t2m}
    return DottedGraph(DG.normal_curves(curves), frozenset(dots)), t1m, t2m


def _trim(piece: list[Pt], d_start: Pt, d_end: Pt) -> list[Pt]:
    out = list(piece)
    out[0] = (out[0][0] + d_start[0], out[0][1] + d_start[1])
    out[-1] = (out[-1][0] - d_end[0], out[-1][1] - d_end[1])
    return out


def _curve_of_point(geo, q: Pt) -> int:
    """The least curve of ``geo`` through q."""
    loc = geo.locate(q)
    if loc is None:
        raise errors.RoutingFailure(f"{q} not on any curve")
    return loc[0]


# quarter-cell routing: a core between two dots runs through the middle
# region's arrangement cells split in four, so that an embedded core may
# pass one cell twice

def _quarter_center(arr, node) -> Pt:
    c, r, qx, qy = node
    xlo, xhi, ylo, yhi = arr.cell_bounds((c, r))
    if None in (xlo, xhi, ylo, yhi):
        raise errors.RoutingFailure("route entered an unbounded cell")
    w, h = xhi - xlo, yhi - ylo
    return (xlo + w // 4 + qx * (w // 2), ylo + h // 4 + qy * (h // 2))


def _quarter_neighbors(F_cells, node):
    c, r, qx, qy = node
    out = []
    if qx == 0:
        out.append((c, r, 1, qy))
        if (c - 1, r) in F_cells:
            out.append((c - 1, r, 1, qy))
    else:
        out.append((c, r, 0, qy))
        if (c + 1, r) in F_cells:
            out.append((c + 1, r, 0, qy))
    if qy == 0:
        out.append((c, r, qx, 1))
        if (c, r - 1) in F_cells:
            out.append((c, r - 1, qx, 1))
    else:
        out.append((c, r, qx, 0))
        if (c, r + 1) in F_cells:
            out.append((c, r + 1, qx, 0))
    return out


def _quarter_beside(arr, q: Pt, n: Pt):
    """The quarter of the cell beside the point q of an arc piece, on the
    side of the normal n."""
    cell = arr.cell_of_2x((2 * q[0] + (n[0] or 1), 2 * q[1] + (n[1] or 1)))
    xlo, xhi, ylo, yhi = arr.cell_bounds(cell)
    cx, cy = (xlo + xhi) // 2, (ylo + yhi) // 2
    if n[0] == 0:
        qx = 0 if q[0] <= cx else 1
        qy = 0 if n[1] > 0 else 1
    else:
        qy = 0 if q[1] <= cy else 1
        qx = 0 if n[0] > 0 else 1
    return (cell[0], cell[1], qx, qy)


def _route_through_quarters(arr, nodes, q1, n1, q2, n2) -> tuple[Pt, ...]:
    centers = [_quarter_center(arr, nd) for nd in nodes]
    first, last = centers[0], centers[-1]
    proj1 = (q1[0], first[1]) if n1[0] == 0 else (first[0], q1[1])
    proj2 = (q2[0], last[1]) if n2[0] == 0 else (last[0], q2[1])
    pts = [q1, proj1] + centers + [proj2, q2]
    out = _clean_polyline(pts)
    if len(set(out)) != len(out):
        raise errors.RoutingFailure("core route self-intersects")
    return out


# ------------------------------------------------------------- epsilon ---

def slide_dot(g: DottedGraph, dot: Pt, target: Pt) -> DottedGraph:
    """Move a dot along its own arc (changes nothing up to isotopy)."""
    an = analyze(g)
    arc = an.arc_of(dot)
    target = tuple(target)
    if not any(DG._on_segment(target, s) for s in arc.pieces):
        raise errors.LabelMismatch("dot slide must stay on its arc")
    if target in an.crossings or (target in g.dots and target != dot):
        raise errors.LabelMismatch("slide target is occupied")
    return DottedGraph(g.curves, frozenset((g.dots - {dot}) | {target}))


def apply_E(g: DottedGraph, a: Pt, b: Pt, new_path, moved_dots=()) -> DottedGraph:
    """Re-embed the part of a curve between points a and b along a new
    rectilinear path, carrying the dots of the moved part to the given
    positions.

    The swept zone may pass over other strands only when every swept region
    carries a nonzero label of one sign; the move must not create a loop
    component.
    """
    a, b = tuple(a), tuple(b)
    new_path = [tuple(p) for p in new_path]
    if a == b:
        raise errors.LabelMismatch("a and b must be distinct curve points")
    if new_path[0] != a or new_path[-1] != b:
        raise errors.LabelMismatch("replacement path must run from a to b")
    an = analyze(g)
    geo = an.geometry
    for p in (a, b):
        if geo.locate(p) is None:
            raise errors.LabelMismatch(f"{p} not on any curve")
    ci = _curve_of_point(geo, a)
    if _curve_of_point(geo, b) != ci:
        raise errors.LabelMismatch("a and b must lie on one curve")
    if a in an.crossings or b in an.crossings:
        raise errors.LabelMismatch("cut points must avoid crossings")
    old_piece = _path_between(geo, ci, a, b)
    rest = _path_between(geo, ci, b, a)
    new_curve = tuple(rest + new_path[1:-1])
    old_dots = [d for d in g.dots if _on_piece(d, old_piece) and d not in (a, b)]
    if len(moved_dots) != len(old_dots):
        raise errors.LabelMismatch(
            f"move carries {len(old_dots)} dots; {len(moved_dots)} targets given")
    dots = (set(g.dots) - set(old_dots)) | {tuple(d) for d in moved_dots}
    curves = tuple(c for i, c in enumerate(g.curves) if i != ci) + (new_curve,)
    out = DottedGraph.build(curves, dots)
    _check_sweep_labels(g, old_piece, new_path)
    if len(analyze(out).loops) > len(an.loops):
        raise errors.CreatesLoop("isotopy would create a loop component")
    return out


def _on_piece(p: Pt, piece) -> bool:
    return any(DG._on_segment(p, (piece[i], piece[i + 1]))
               for i in range(len(piece) - 1))


def _check_sweep_labels(g, old_piece, new_path):
    cycle = list(old_piece) + list(reversed(new_path))[1:-1]
    m = len(cycle)
    cyc_segs = [(cycle[i], cycle[(i + 1) % m]) for i in range(m)]
    cyc_segs = [s for s in cyc_segs if s[0] != s[1]]
    g_segs = [seg for _, _, seg in DG.all_segments(g)]
    touched = False
    for seg in g_segs:
        if _seg_inside_piece(seg, old_piece):
            continue
        m2 = (seg[0][0] + seg[1][0], seg[0][1] + seg[1][1])
        if winding_2x(m2, cyc_segs) != 0 or _seg_hits_cycle(seg, cyc_segs):
            touched = True
            break
    if not touched:
        return
    # every face of g plus the new path is a union of cells of the grid
    # through their corners, and both windings are constant on such a face;
    # unbounded cells lie outside the cycle
    points = [p for seg in g_segs for p in seg] + new_path
    xs = sorted({x for x, _ in points})
    ys = sorted({y for _, y in points})
    labels = set()
    for x2 in map(sum, zip(xs, xs[1:])):
        for y2 in map(sum, zip(ys, ys[1:])):
            if winding_2x((x2, y2), cyc_segs) != 0:
                labels.add(winding_2x((x2, y2), g_segs))
    if labels and (0 in labels or (min(labels) < 0 < max(labels))):
        raise errors.LabelMismatch(
            "swept regions must carry nonzero labels of one sign")


def _seg_inside_piece(seg, piece) -> bool:
    return any(DG._on_segment(seg[0], (piece[i], piece[i + 1])) and
               DG._on_segment(seg[1], (piece[i], piece[i + 1]))
               for i in range(len(piece) - 1))


def _seg_hits_cycle(seg, cyc_segs) -> bool:
    v1 = seg[0][0] == seg[1][0]
    for c in cyc_segs:
        v2 = c[0][0] == c[1][0]
        if v1 == v2:
            continue
        hs, vs = (c, seg) if v1 else (seg, c)
        p = (vs[0][0], hs[0][1])
        if DG._interior(p, hs) and DG._interior(p, vs):
            return True
    return False


# -------------------------------------------------------------- starred --

def applicable_star(g: DottedGraph, kind: str, site) -> bool:
    """Weakened applicability: every region inside the disk or middle region
    carries a nonzero total label of one sign, and the overlapping closures
    do not swallow the site (the minimal magnitude shows up adjacent to the
    component)."""
    an = analyze(g)
    if kind == "I":
        a = an.arcs_by_key[site.key if hasattr(site, "key") else site]
        return len(a.dots) >= 2
    if kind in ("II", "III"):
        cert = site
        labels = [an.label(f) for f in cert.disk_faces]
        if 0 in labels or (min(labels) < 0 < max(labels)):
            return False
        adjacent = set()
        for k in cert.arcs:
            adjacent.add(an.left_face[k])
            adjacent.add(an.right_face[k])
        adjacent &= set(cert.disk_faces)
        least = min(abs(x) for x in labels)
        return any(abs(an.label(f)) == least for f in adjacent)
    if kind == "IV":
        try:
            surgery_site(an, *site)
        except errors.NotApplicable:
            return False
        return True
    raise ValueError(f"unknown starred kind {kind}")


# ------------------------------------------------------------ condition A

def check_condition_A(g: DottedGraph, p1: Pt, p2: Pt) -> bool | None:
    """Whether all cores between the two dots give the same result up to
    local moves and dot merging (compared by canonical form): True when the
    forms of the surgery's splits (``surgery_form``) agree, False when they
    differ, and None where the dots lie on different graph components
    around two or more holes, where nothing bounds the number of core
    classes.

    With both dots on one graph component K, a core closed up along K is a
    simple loop, and its class is fixed by the boundary cycles of the
    middle region it encloses (Epstein, *Curves on 2-manifolds and
    isotopies*, 1966): that is the split its band makes.  A middle region
    without holes is a disk, with one split.  A region with one hole whose
    two dots lie on different graph components is an annulus with a dot on
    each boundary: its cores differ only by twists around the hole
    (Epstein), and a full twist is undone by rotating the hole's disk, an
    isotopy of the plane (Farb & Margalit, *A Primer on Mapping Class
    Groups*, 2012), so the plane map fixes the result.  In both, the one
    form needs no reading."""
    an = analyze(g)
    a1, a2, F = surgery_site(an, p1, p2)
    geo = an.geometry
    holes = geo.holes[F]
    if geo.component[a1.curve] != geo.component[a2.curve]:
        return len(holes) < 2 or None
    return not holes or len(set(surgery_form(g, p1, p2))) == 1


def check_condition_A_everywhere(g: DottedGraph) -> bool | None:
    """Condition (A) over every dot pair where a surgery applies, checked
    once per unordered arc pair: the verdict reads only the two arcs, their
    middle region and the plane map, so all the sites of one pair share it.
    False when some site fails, else None when some site is undecided, else
    True."""
    an = analyze(g)
    verdicts = {}               # arc pair -> the verdict of its sites
    for move in enumerate_moves(g, allowed=frozenset({"IV"})):
        a1, a2, _ = surgery_site(an, *move.site)
        key = frozenset((a1.key, a2.key))
        if key not in verdicts:
            verdicts[key] = check_condition_A(g, *move.site)
            if verdicts[key] is False:
                return False
    return None not in verdicts.values() or None


def sharing_key(g: DottedGraph, p1: Pt, p2: Pt):
    """The key under which the surgeries at one state share their result's
    canonical form: the unordered pair of the two arcs' keys wherever the
    forms of the surgery's splits agree (``surgery_form``), and otherwise,
    where condition (A) fails at the site, the working site (a1.key, q1,
    a2.key, q2) of ``_working_pair``, the original arcs with the slid dots'
    positions, in site order.  Only a working site sets up the working
    grid.

    It is sound.  Where the splits agree, ``surgery_form`` reads the one
    form off a1, a2 and their middle region alone.  Elsewhere the canonical
    core, its cut and the band are functions of the geometry, q1 and q2
    alone.  Sites with one working site differ only in which old dots of
    a1 and a2 survive, and every piece of a1 and a2 ends on an arc the band
    creates, which ``_cut_and_join`` dots, so the surgery gives one
    canonical form at all of them."""
    if check_condition_A(g, p1, p2) is False:
        return _working_pair(g, p1, p2).key
    a1, a2, _ = surgery_site(analyze(g), p1, p2)
    return frozenset((a1.key, a2.key))


def surgery_form(g: DottedGraph, p1: Pt, p2: Pt) -> tuple[str, ...]:
    """The canonical forms of the surgery's result, read off g's labeled
    plane map: one per split of the middle region F, the result along the
    cores that make that split (``check_condition_A``).

    With a1 cut at p1 and a2 at p2, the new arcs are a1[start..p1] + band +
    a2[p2..end] and a2[start..p2] + band + a1[p1..end], closed up alike
    where a1 = a2 or an arc is closed, and each carries a dot, as
    ``_cut_and_join`` puts one on it.  The faces across a1 and across a2
    merge through the band.  No label changes.  With the dots on two graph
    components, the band joins two boundary cycles of F, and F stays one
    face: there is one split, whatever the band's route.  With both dots on
    one component K, the band splits F in two, a new face along K from p1
    to p2 and F along K from p2 to p1, and each other boundary cycle of F,
    one per graph component, falls on one side.  Those are F's holes, less
    K if K is one, plus F's outer boundary if K is one (F, a band face,
    has a nonzero label, so it is bounded): k holes give 2^k splits.
    Split i moves the j-th cycle, by graph component, to the new face when
    bit j of i is set.  A disk, without holes, has the one split."""
    an = analyze(g)
    a1, a2, F = surgery_site(an, p1, p2)
    geo = an.geometry
    K = geo.component[a1.curve]
    split = geo.component[a2.curve] == K
    labels = [f.omega for f in an.arr.faces]
    on_left = an.left_face[a1.key] == F         # and so on the left of a2
    across = an.right_face if on_left else an.left_face
    G = across[a1.key]
    F2 = len(labels)                # the new face of a split
    labels.append(labels[F])

    def arc(i: int, start, end, closed=False):
        """A new dotted arc from ``start``'s start to ``end``'s end.  Its
        path keeps only its end pieces, which fix all the form reads of it:
        its ends and their directions."""
        path = start.path if closed else (start.path[0], start.path[1], end.path[-2], end.path[-1])
        return DG.Arc(-1 - i, path, closed, (p1,))

    # the new arcs, each with the side of a split it bounds: 1 the new face, 0 F
    if a1.key == a2.key:            # the piece between the dots closes up alone
        new = [(arc(0, a1, a1, a1.closed), 0), (arc(1, a1, a1, True), 1)]
    elif a1.closed or a2.closed:    # two components: the closed arc joins the other
        a = a1 if a2.closed else a2
        new = [(arc(0, a, a, a.closed), 0)]
    else:
        # walking F's boundary with F on the left runs forward along a1 when
        # F is on its left, so then a2[start..p2] + band + a1[p1..end]
        # bounds the new face, and else a1[start..p1] + band + a2[p2..end]
        new = [(arc(0, a1, a2), 0 if on_left else 1), (arc(1, a2, a1), 1 if on_left else 0)]
    side, beside, cycles = {}, [], []
    if split:
        if a1.key != a2.key:        # K's arcs along the new face
            walk = _face_walk(an, a1.key, F)
            side = dict.fromkeys(walk[1:walk.index(a2.key)], 1)
        beside = [a for a in an.arcs if a.key not in (a1.key, a2.key) and
                  F in (an.left_face[a.key], an.right_face[a.key])]
        cycles = sorted({geo.component[a.curve] for a in beside} - {K})
    faces = (F, F2 if split else F)                 # each side's face
    forms = []
    for i in range(2 ** len(cycles)):
        moved = {c for j, c in enumerate(cycles) if i >> j & 1}
        drop = {a1.key, a2.key}
        edit = [(a, *((faces[s], G) if on_left else (G, faces[s]))) for a, s in new]
        for a in beside:
            f = faces[side.get(a.key, int(geo.component[a.curve] in moved))]
            if f != F:
                drop.add(a.key)
                lf, rf = an.left_face[a.key], an.right_face[a.key]
                edit.append((a, f if lf == F else lf, f if rf == F else rf))
        forms.append(DG._edited_form(an, drop, edit, [(G, across[a2.key])], labels))
    return tuple(forms)


def _face_walk(an: GraphAnalysis, k: tuple, F: int) -> list:
    """The keys of the arcs along the boundary cycle of face F through the
    arc k, in order from k, walking with F on the left: at each crossing
    the walk turns left."""
    walk = [k]
    while True:
        a = an.arcs_by_key[k]
        if an.left_face[k] == F:
            c, h = a.end, a.end_dir
        else:
            c, h = a.start, (-a.start_dir[0], -a.start_dir[1])
        k = an.arms[(c, _rot_left(h))][0]
        if k == walk[0]:
            return walk
        walk.append(k)


# ------------------------------------------------------------ enumerate --

def enumerate_moves(g: DottedGraph, allowed=frozenset(KINDS)) -> list[Move]:
    """Every applicable move of an allowed kind, deterministically ordered;
    surgeries carry one site per dot pair (the canonical core)."""
    an = analyze(g)
    moves: list[Move] = []
    if "I" in allowed:
        for a in an.arcs:
            if len(a.dots) >= 2:
                moves.append(Move("I", a.key, None, 0))
    if "II" in allowed:
        moves += [deletion(c) for c in an.circles if component_sign_ok(an, c)]
    if "III" in allowed:
        moves += [deletion(c) for c in an.loops if component_sign_ok(an, c)]
    if "IV" in allowed:
        dots = sorted(g.dots)
        for i in range(len(dots)):
            for j in range(i + 1, len(dots)):
                p1, p2 = dots[i], dots[j]
                try:
                    _, _, F = surgery_site(an, p1, p2)
                except errors.NotApplicable:
                    continue
                eps = 1 if an.label(F) > 0 else -1
                moves.append(Move("IV", (p1, p2), eps, abs(an.label(F))))
    moves.sort(key=Move.sort_key)
    return moves


def deletion(cert: ComponentCert) -> Move:
    """The move deleting a circle (II) or loop (III) component; it applies
    when every region of the component's disk carries the component's
    sign."""
    return Move("II" if cert.kind == "circle" else "III", cert,
                cert.orientation, abs(cert.disk_label))


def apply_move(g: DottedGraph, move: Move) -> Deformation:
    if move.kind == "I":
        after = apply_I(g, move.site)
        site = move.site
    elif move.kind in ("II", "III"):
        after = (apply_II if move.kind == "II" else apply_III)(g, move.site)
        site = (move.site.kind, move.site.boundary)
    elif move.kind == "IV":
        return surgery(g, move.site[0], move.site[1])
    else:
        raise ValueError(f"cannot apply kind {move.kind}")
    return Deformation(move.kind, site, move.epsilon, move.magnitude, g, after)


# ------------------------------------------------------------- classify --

def try_good_IV(g: DottedGraph, move: Move):
    """Attempt the good interpretations of a surgery move.

    Returns ('IVa1'|'IVa2', (surgery deformation, deletion deformation))
    with the deletion that good order demands, or None."""
    if move.kind != "IV":
        raise ValueError(f"try_good_IV needs a surgery move, not kind {move.kind}")
    p1, p2 = move.site
    an = analyze(g)
    a1, a2, F = surgery_site(an, p1, p2)
    # (a1): arcs adjacent at a crossing whose near quadrant is the region
    for c, (sx, sy), k_in, k_out in hug_sites(an):
        if {k_in, k_out} != {a1.key, a2.key} or \
                an.arr.face_of_2x((2 * c[0] + sx, 2 * c[1] + sy)) != F:
            continue
        try:
            dIV = surgery(g, p1, p2, hug_crossing=c)
        except errors.NotApplicable:
            continue
        apex = dIV.meta_dict()["apex"]
        an2 = analyze(dIV.after)
        for cert in an2.loops:
            if cert.apex == apex and component_sign_ok(an2, cert):
                return ("IVa1", (replace(dIV, kind="IVa1"),
                                 apply_move(dIV.after, deletion(cert))))
    # (a2): concentric circle components merging into a deletable circle
    circle_of = {k: cert for cert in an.circles for k in cert.arcs}
    cert1, cert2 = circle_of.get(a1.key), circle_of.get(a2.key)
    if cert1 is not None and cert2 is not None and cert1 != cert2:
        s1 = (2 * cert1.boundary[0][0] + 1, 2 * cert1.boundary[0][1] + 1)
        s2 = (2 * cert2.boundary[0][0] + 1, 2 * cert2.boundary[0][1] + 1)
        nested = (winding_2x(s2, DG.curve_segments(cert1.boundary)) != 0 or
                  winding_2x(s1, DG.curve_segments(cert2.boundary)) != 0)
        if nested:
            try:
                dIV = surgery(g, p1, p2)
            except errors.NotApplicable:
                return None
            an2 = analyze(dIV.after)
            ci = _curve_of_point(an2.geometry, dIV.meta_dict()["new_dots"][0])
            for cert in an2.circles:
                if cert.curve == ci and component_sign_ok(an2, cert):
                    return ("IVa2", (replace(dIV, kind="IVa2"),
                                     apply_move(dIV.after, deletion(cert))))
    return None


def hug_sites(an: GraphAnalysis):
    """Yield the sites of surgeries that hug a crossing (subcase IVa1).

    For each crossing in sorted order, each incoming arm (in ``CCW_DIRS``
    order) is paired with the perpendicular outgoing arm, and the site is
    ``(crossing, (sx, sy), in-arc key, out-arc key)``: the band runs in the
    quadrant between the two arms, whose diagonal is ``(sx, sy)``."""
    for c in sorted(an.crossings):
        for d_in in DG.CCW_DIRS:
            k_in, role = an.arms[(c, d_in)]
            if role != "in":
                continue
            for d_out in DG.CCW_DIRS:
                k_out, role = an.arms[(c, d_out)]
                if role == "out" and d_in[0] * d_out[0] + d_in[1] * d_out[1] == 0:
                    yield c, (d_in[0] + d_out[0], d_in[1] + d_out[1]), k_in, k_out
