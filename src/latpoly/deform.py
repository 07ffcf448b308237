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

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import NamedTuple

from . import errors
from .arrangement import Pt, winding_2x
from . import dotgraph as DG
from .dotgraph import DottedGraph, ComponentCert, GraphAnalysis, analyze, canonical_form

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


def _viable_side(an, arc_key):
    """The unique side of an arc where a band may attach: the face whose
    label magnitude dominates.  Returns (face, epsilon)."""
    lf, rf = an.left_face[arc_key], an.right_face[arc_key]
    L, R = an.label(lf), an.label(rf)
    if L != R + 1:
        raise errors.InvalidGraph(
            f"left label {L} of arc {arc_key} does not exceed its right label {R} by one")
    return (lf, 1) if L >= 1 else (rf, -1)


def _arc_of_dot(an, dot: Pt):
    for a in an.arcs:
        if dot in a.dots:
            return a
    raise errors.MissingDot(f"{dot} is not a dot of the graph")


def _component_sign_ok(an, cert: ComponentCert) -> bool:
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
    if not _component_sign_ok(an, cert):
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
    if not _component_sign_ok(an, cert):
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

def apply_IV(g: DottedGraph, p1: Pt, p2: Pt, core=None) -> DottedGraph:
    """Band surgery between two dots across their shared middle region.

    With ``core=None`` the canonical core is used: the shortest route
    through the middle region's quarter cells, ties broken
    lexicographically.  An explicit core polyline is matched by its
    homotopy class around the region's obstacles and re-routed at working
    scale (dot slides along arcs are free moves).
    """
    return _surgery(g, p1, p2, core=core).after


def _surgery(g: DottedGraph, p1: Pt, p2: Pt, core=None, hug_crossing=None) -> Deformation:
    an = analyze(g)
    if p1 not in g.dots or p2 not in g.dots:
        raise errors.MissingDot("deformation IV needs two dots")
    if p1 == p2:
        raise errors.MissingDot("the two dots must be distinct")
    if core is not None:
        core = tuple(tuple(p) for p in core)
    F = _middle_region(an, _arc_of_dot(an, p1), _arc_of_dot(an, p2), core)
    eps = 1 if an.label(F) > 0 else -1
    w = _working_pair(g, p1, p2, extra=core or (), hug_crossing=hug_crossing)
    if hug_crossing is not None:
        core_s = _hug_core(w.q1, w.n1, w.q2, w.up(hug_crossing))
    elif core is not None:
        core_s = _core_matching(w, p1, core, p2)
    else:
        core_s = _canonical_core(w)
    raw, nd1, nd2 = _cut_and_join(w, core_s)
    out, gx, gy = DG.renormalize(raw)
    analyze(out)                    # validates it: a routing bug raises here

    def down(p: Pt):
        return (gx[p[0]], gy[p[1]])

    meta = (("new_dots", (down(nd1), down(nd2))),
            ("apex", down(w.up(hug_crossing)) if hug_crossing is not None else None))
    return Deformation("IV", (p1, p2, core), eps, abs(an.label(F)), g, out, meta)


class _Grid:
    """A graph at working scale, set up once for all its surgeries: the
    compression maps ``fx``/``fy`` scaled by SCALE (with the ``extra``
    points of an explicit core placed inside their gaps), the scaled graph
    ``gs`` and its geometry ``geo``, the corners, and the points no slid
    dot may take besides the dots (``fixed``: corners and crossings).  It
    memoizes each arc's slide candidates (``candidates``) and each surgery
    site's working pair (``pairs``)."""

    def __init__(self, g: DottedGraph, extra):
        self.fx, self.fy = _joint_maps(g, extra)
        self.gs = DG.transform_coords(g, self.fx, self.fy)
        self.geo = DG.curve_geometry(self.gs.curves)
        self.corners = {p for curve in self.gs.curves for p in curve}
        self.fixed = self.corners | set(self.geo.crossings)
        self.candidates: dict = {}
        self.pairs: dict = {}

    def up(self, p: Pt) -> Pt:
        return (self.fx[p[0]], self.fy[p[1]])


@lru_cache(maxsize=1)
def _working_grid(g: DottedGraph, extra: tuple) -> _Grid:
    """The working grid of g, kept for the last graph worked on: the
    explorer checks condition (A) at a state and then builds its surgeries
    before it moves to the next state, so the reuse of a grid falls within
    one state's work, and a second grid would only be held in memory."""
    return _Grid(g, extra)


class _Pair(NamedTuple):
    """Two surgery dots on a working grid: ``gs`` is the grid's graph after
    the dots slid to q1 and q2 (never analysed), Fs their middle region,
    d1, d2 the arc directions at the dots and n1, n2 the normals from the
    dots into Fs.  ``key`` is the working site: the arcs of the two dots,
    in site order, with their slid positions.  ``geo`` is the grid's
    geometry and ``fx``/``fy`` its maps of original coordinates up."""
    gs: DottedGraph
    geo: DG.CurveGeometry
    Fs: int
    q1: Pt
    d1: Pt
    n1: Pt
    q2: Pt
    d2: Pt
    n2: Pt
    fx: dict
    fy: dict
    key: tuple

    def up(self, p: Pt) -> Pt:
        return (self.fx[p[0]], self.fy[p[1]])


def _working_pair(g: DottedGraph, p1: Pt, p2: Pt, extra=(), hug_crossing=None) -> _Pair:
    """The set-up of one surgery on the working grid of g (with the
    ``extra`` points of an explicit core): the dots at p1 and p2 slide to
    canonical positions (beside ``hug_crossing`` when given, as little as
    possible for an explicit core), and their arcs, directions, normals and
    middle region are read off the grid's geometry.  Nothing is analysed,
    and each site's pair is built once per grid.

    The working site ``key``, (a1.key, q1, a2.key, q2), fixes the surgery
    up to the form: the core, its cut and the band are functions of the
    geometry, q1 and q2 alone.  Sites with one key differ only in which
    old dots of a1 and a2 survive, and every piece of a1 and a2 ends on an
    arc the band creates, which ``_cut_and_join`` dots, so their results
    have one canonical form, and condition (A) one verdict."""
    grid = _working_grid(g, extra)
    site = (p1, p2, hug_crossing)
    w = grid.pairs.get(site)
    if w is None:
        w = grid.pairs[site] = _slide_pair(grid, p1, p2, hug_crossing, stay_near=bool(extra))
    return w


def _joint_maps(g: DottedGraph, extra_points):
    """Scaled compression maps covering the graph coordinates plus any
    off-grid core coordinates (placed strictly inside their gaps)."""
    xs, ys = DG.coordinate_values(g)
    fx = {x: SCALE * i for i, x in enumerate(xs)}
    fy = {y: SCALE * i for i, y in enumerate(ys)}
    _extend_monotone(fx, xs, sorted({p[0] for p in extra_points} - set(xs)))
    _extend_monotone(fy, ys, sorted({p[1] for p in extra_points} - set(ys)))
    return fx, fy


def _extend_monotone(f: dict, base: list[int], extras: list[int]) -> None:
    groups: dict[int, list[int]] = {}
    for v in extras:
        i = bisect_right(base, v)
        if not 0 < i < len(base):
            raise errors.RoutingFailure(f"core coordinate {v} outside the graph range")
        groups.setdefault(i - 1, []).append(v)
    for lo, vals in groups.items():
        vals.sort()
        k = len(vals)
        if k >= SCALE:
            raise errors.RoutingFailure("too many off-grid core coordinates in one gap")
        for j, v in enumerate(vals, start=1):
            f[v] = f[base[lo]] + (SCALE * j) // (k + 1)


def _middle_region(an, a1, a2, core):
    if core is not None:
        if len(core) < 2:
            raise errors.NoCommonFace("core needs at least one segment")
        for p in core[1:-1]:
            if an.geometry.locate(p) is not None:
                raise errors.RoutingFailure("core interior touches the graph")
        k = max(range(len(core) - 1),
                key=lambda i: abs(core[i][0] - core[i + 1][0]) +
                abs(core[i][1] - core[i + 1][1]))
        probe2 = (core[k][0] + core[k + 1][0], core[k][1] + core[k + 1][1])
        F = an.arr.face_of_2x(probe2)
        sides1 = (an.left_face[a1.key], an.right_face[a1.key])
        sides2 = (an.left_face[a2.key], an.right_face[a2.key])
        if F not in sides1 or F not in sides2:
            raise errors.NoCommonFace("core does not run beside both arcs")
        if an.label(F) == 0:
            raise errors.ZeroLabel("middle region label is zero")
        for a in (a1, a2):
            if (F == an.left_face[a.key]) != (an.label(F) >= 1):
                raise errors.OrientationClash(
                    "arcs do not admit the induced orientations")
        return F
    F1, _ = _viable_side(an, a1.key)
    F2, _ = _viable_side(an, a2.key)
    if F1 != F2:
        raise errors.NoCommonFace("dots have no shared middle region")
    return F1


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

def _slide_pair(grid: _Grid, p1: Pt, p2: Pt, hug_crossing, stay_near) -> _Pair:
    """Slide both surgery dots to canonical arc positions.  Unless the dots
    hug a crossing, the second dot lands beside a different quarter-cell of
    the middle region than the first, so that band routes around it stay
    enumerable.  With ``stay_near`` the dots move as little as possible
    (the drag of an explicit core's endpoints must not wind around
    obstacles).  The first dot has left its old place when the second
    slides, so the second may take it."""
    geo, dots = grid.geo, grid.gs.dots
    q1, q2 = grid.up(p1), grid.up(p2)
    near = None if hug_crossing is None else grid.up(hug_crossing)
    a1, a2 = geo.arcs[geo.arc_at(q1)[0]], geo.arcs[geo.arc_at(q2)[0]]
    Fs = _middle_region(geo, a1, a2, None)
    s1 = _slide(grid, q1, a1, dots, near, stay_near)
    avoid = None if near is not None or stay_near else _quarter_of(geo, a1, s1, Fs)
    s2 = _slide(grid, q2, a2, (dots - {q1}) | {s1}, near, stay_near, avoid, Fs)
    d1, d2 = _dir_at(a1, s1), _dir_at(a2, s2)
    gs = DottedGraph(grid.gs.curves, (dots - {q1, q2}) | {s1, s2})
    return _Pair(gs, geo, Fs, s1, d1, _normal_into(geo, a1, d1, Fs), s2, d2,
                 _normal_into(geo, a2, d2, Fs), grid.fx, grid.fy, (a1.key, s1, a2.key, s2))


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


def _slide(grid: _Grid, q: Pt, arc, taken, near=None, stay_near=False, avoid=None,
           F=None) -> Pt:
    """Where the dot at q of the arc slides: the first free candidate, one
    that is no corner, crossing or ``taken`` dot (q itself is free), and
    not beside the quarter-cell ``avoid`` of face F if such a one exists."""
    if near is not None:
        candidates = _near_crossing_positions(arc, near)
    else:
        candidates = grid.candidates.get(arc.key)
        if candidates is None:
            candidates = grid.candidates[arc.key] = _slide_candidates(arc)
        if stay_near:
            candidates = sorted(candidates, key=lambda c: abs(c[0] - q[0]) + abs(c[1] - q[1]))
            if q not in grid.corners:
                candidates.insert(0, q)     # mid-piece dots need no slide at all
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

def _cell_beside(arr, q: Pt, n: Pt):
    qx, qy = q
    if n[0] == 0:   # q on a horizontal piece, step vertically
        col = bisect_right(arr.xs, qx)
        row = arr.ys.index(qy) + (1 if n[1] > 0 else 0)
    else:
        row = bisect_right(arr.ys, qy)
        col = arr.xs.index(qx) + (1 if n[0] > 0 else 0)
    return (col, row)


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


def _shorter_path_between(geo, ci: int, qa: Pt, qb: Pt) -> list[Pt]:
    """The shorter walk along curve ci (forward on ties); used as the
    canonical drag of a core endpoint to its slid position."""
    if qa == qb:
        return [qa]
    fwd = _path_between(geo, ci, qa, qb)
    bwd = _path_between(geo, ci, qb, qa)

    def length(path):
        return sum(abs(path[i + 1][0] - path[i][0]) +
                   abs(path[i + 1][1] - path[i][1])
                   for i in range(len(path) - 1))

    if length(bwd) < length(fwd):
        return list(reversed(bwd))
    return fwd


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


# homotopy classes of cores ----------------------------------------------------

def _graph_components(geo):
    n = len(geo.curves)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for (hc, _), (vc, _) in geo.crossings.values():
        pa, pb = find(hc), find(vc)
        if pa != pb:
            parent[pb] = pa
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


def _hole_samples(geo, F) -> list[Pt]:
    """One doubled-grid sample inside each graph component enclosed by F.

    Samples carry odd doubled coordinates so they never meet grid lines or
    route vertices."""
    samples = []
    for curves in _graph_components(geo):
        segs = []
        for ci in curves:
            segs.extend(DG.curve_segments(geo.curves[ci]))
        hsegs = [s for s in segs if s[0][1] == s[1][1]]
        top = max(hsegs, key=lambda s: (s[0][1], min(s[0][0], s[1][0])))
        sx2 = top[0][0] + top[1][0]
        if sx2 % 2 == 0:
            sx2 += 1            # stays interior: even sums need length >= 2
        ty = top[0][1]
        above = (sx2, 2 * ty + 1)
        if geo.arr.face_of_2x(above) == F:
            samples.append((sx2, 2 * ty - 1))
    return samples


def _polyline_winding_2x(sample2: Pt, pts) -> int:
    segs = []
    m = len(pts)
    for i in range(m):
        a, b = pts[i], pts[(i + 1) % m]
        if a != b:
            segs.append((a, b))
    return winding_2x(sample2, segs)


def _rect_closed(pts) -> list[Pt]:
    """Close a waypoint cycle into an axis-parallel polyline, inserting an
    elbow wherever consecutive waypoints are diagonal."""
    out: list[Pt] = []
    m = len(pts)
    for i in range(m):
        a, b = pts[i], pts[(i + 1) % m]
        out.append(a)
        if a[0] != b[0] and a[1] != b[1]:
            out.append((a[0], b[1]))
    return out


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
    cell = _cell_beside(arr, q, n)
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


def _ray_deltas(a: Pt, b: Pt, rays) -> tuple[int, ...]:
    """Signed crossings of the step a->b with upward rays from the holes."""
    out = [0] * len(rays)
    if a[1] == b[1] and a[0] != b[0]:
        y2 = 2 * a[1]
        lo2, hi2 = sorted((2 * a[0], 2 * b[0]))
        for i, (rx2, ry2) in enumerate(rays):
            if y2 > ry2 and lo2 < rx2 < hi2:
                out[i] = 1 if b[0] > a[0] else -1
    return tuple(out)


def _enumerate_core_classes(w: _Pair, base, holes, cap=20000):
    """One realized core per winding signature around the face's holes,
    with ``base`` (the canonical core) for the zero signature.

    Reachable crossing vectors are found on the product of the quarter-cell
    graph with the winding lattice bounded by 1 around each hole; each is
    then realized by a simple route found under reachability pruning.
    Windings beyond 1 are outside the enumeration; an exhausted budget
    raises.

    The product graph is built once: an edge table holds each quarter
    node's centre and its steps ``(neighbour, ray-delta vector)``, and per
    target each product state keeps its successors ranked by distance to
    the target.  The route search walks that ranked list, so it visits
    states in the same order and spends the same budget as a search that
    re-ranks the neighbours at every step.

    The rounds run breadth-first: extra 0 for every target, then extra 4
    for the targets still without a route, then extra 12.  Each target
    keeps its own rounds and budgets, so it gets the route it would get
    searched alone, or none; a target's distance table is built when it
    is first searched.  The classes are realized in target order.

    The search stops at 2^k routes for k holes when the two dots' curves
    lie in one graph component.  Both dots then lie on one boundary
    component of F, so a simple route from q1 to q2, closed up along that
    boundary, is a Jordan curve, and its class is fixed by the set of
    holes it encloses (the planar fact behind the classification of arcs
    on surfaces; Epstein, *Curves on 2-manifolds and isotopies*, 1966):
    at most 2^k classes exist.  Distinct targets give distinct
    signatures, since a loop's winding around a hole is its signed
    crossing count with the hole's ray.  So once 2^k routes are found no
    other target has one, and stopping changes no result."""
    if not holes:
        return {(): base}
    arr, q1, n1, q2, n2 = w.geo.arr, w.q1, w.n1, w.q2, w.n2
    F_cells = w.geo.face_cells[w.Fs]
    rays = list(holes)          # odd coordinates: no ties with route points
    nd1 = _quarter_beside(arr, q1, n1)
    nd2 = _quarter_beside(arr, q2, n2)
    zero = tuple(0 for _ in rays)

    centers = {}
    edges = {}

    def center(node):
        if node not in centers:
            centers[node] = _quarter_center(arr, node)
        return centers[node]

    def steps(node):
        """``(neighbour, ray-delta vector)`` per step, with None for a step
        that crosses no ray and so keeps the winding vector."""
        if node not in edges:
            a = center(node)
            edges[node] = []
            for nb in _quarter_neighbors(F_cells, node):
                d = _ray_deltas(a, center(nb), rays)
                edges[node].append((nb, d if any(d) else None))
        return edges[node]

    # forward closure of the product graph
    start = (nd1, zero)
    forward = {start: []}       # state -> predecessors
    succ = {}                   # state -> successors, in neighbour order
    dq = deque([start])
    budget = cap
    while dq:
        budget -= 1
        if budget <= 0:
            raise errors.BudgetExceeded("core class enumeration budget hit")
        node, vec = cur = dq.popleft()
        succ[cur] = []
        for nb, d in steps(node):
            if d is None:
                state = (nb, vec)
            else:
                nvec = tuple(v + x for v, x in zip(vec, d))
                if any(abs(v) > 1 for v in nvec):
                    continue
                state = (nb, nvec)
            succ[cur].append(state)
            forward.setdefault(state, []).append(cur)
            if len(forward[state]) == 1:
                dq.append(state)

    targets = sorted(vec for node, vec in forward if node == nd2)
    limit = 2 ** len(rays) if _dots_share_component(w.geo, q1, q2) else len(targets)
    tables = {}                 # target -> (goal, distances, ranked successors)
    routes = {}                 # target -> quarter nodes of its route

    def dfs(path, visited, state, room):
        """A simple route to the goal within ``room`` more steps, or None;
        each call spends one unit of the round's budget ``left``."""
        nonlocal left
        left -= 1
        if state == goal:
            return list(path)
        moves = ranked.get(state)
        if moves is None:
            moves = ranked[state] = sorted((dist[s], s[0], s)
                                           for s in succ[state] if s in dist)
        for nd, nb, nxt in moves:
            # nearest first: past the first move out of reach, or with the
            # budget spent, no later move can be taken
            if nd > room or left <= 0:
                return None
            if nb not in visited:
                visited.add(nb)
                path.append(nb)
                route = dfs(path, visited, nxt, room - 1)
                path.pop()
                visited.remove(nb)
                if route is not None:
                    return route
        return None

    # near-geodesic representatives only: bounded iterative deepening;
    # vectors without a short simple route are outside the enumeration
    pending = targets
    for extra in (0, 4, 12):
        missed = []
        for tvec in pending:
            if len(routes) == limit:
                break
            if tvec not in tables:
                goal = (nd2, tvec)
                tables[tvec] = goal, _distances_to(forward, goal), {}
            goal, dist, ranked = tables[tvec]
            if start not in dist:
                continue
            left = min(3000, cap)
            nodes = dfs([nd1], {nd1}, start, dist[start] + extra - 1)
            if nodes is None:
                missed.append(tvec)
            else:
                routes[tvec] = nodes
        pending = missed

    found: dict[tuple, tuple[Pt, ...]] = {}
    for tvec in sorted(routes):
        nodes = routes[tvec]
        pts = [base[0]] + [center(nd) for nd in nodes] + [base[-1]] + list(reversed(base))
        loop = _rect_closed(pts)
        sig = tuple(_polyline_winding_2x(h, loop) for h in holes)
        if sig not in found:
            found[sig] = _route_through_quarters(arr, nodes, q1, n1, q2, n2)
    found[zero] = base
    return found


def _distances_to(forward, goal) -> dict:
    """Steps from each state of the product graph to the goal, by backward
    closure."""
    dist = {goal: 0}
    dq = deque([goal])
    while dq:
        state = dq.popleft()
        for prev in forward.get(state, ()):
            if prev not in dist:
                dist[prev] = dist[state] + 1
                dq.append(prev)
    return dist


def _dots_share_component(geo, p1: Pt, p2: Pt) -> bool:
    """True when the curves through the dots p1 and p2 lie in one graph
    component."""
    c1, c2 = _curve_of_point(geo, p1), _curve_of_point(geo, p2)
    return any(c1 in comp and c2 in comp for comp in _graph_components(geo))


def _core_matching(w: _Pair, p1: Pt, core, p2: Pt):
    """Route a core in the homotopy class of an explicitly given core from
    p1 to p2 (original coordinates).

    The given core's endpoints are transported along their arcs to the
    canonical slid positions (a free move, with the forward walk along the
    curve as the canonical drag); the class is measured against the
    canonical core by winding numbers around the middle region's obstacles.
    """
    holes = _hole_samples(w.geo, w.Fs)
    base = _canonical_core(w)
    if not holes:
        return base
    geo, q1, q2 = w.geo, w.q1, w.q2
    conn1 = _shorter_path_between(geo, _curve_of_point(geo, q1), q1, w.up(p1))
    conn2 = _shorter_path_between(geo, _curve_of_point(geo, q2), w.up(p2), q2)
    loop = _rect_closed(list(conn1) + [w.up(p) for p in core[1:]] + list(conn2)[1:] +
                        list(reversed(base))[1:-1])
    want = tuple(_polyline_winding_2x(h, loop) for h in holes)
    classes = _enumerate_core_classes(w, base, holes)
    if want not in classes:
        raise errors.RoutingFailure("no embedded core in the requested class")
    return classes[want]


# ------------------------------------------------------------- epsilon ---

def slide_dot(g: DottedGraph, dot: Pt, target: Pt) -> DottedGraph:
    """Move a dot along its own arc (changes nothing up to isotopy)."""
    an = analyze(g)
    arc = _arc_of_dot(an, dot)
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
        p1, p2 = site
        try:
            a1, a2 = _arc_of_dot(an, p1), _arc_of_dot(an, p2)
            _middle_region(an, a1, a2, None)
            return True
        except errors.NotApplicable:
            return False
    raise ValueError(f"unknown starred kind {kind}")


# ------------------------------------------------------------ condition A

def check_condition_A(g: DottedGraph, p1: Pt, p2: Pt, cap: int = 4000) -> bool:
    """True when all cores between the two dots give the same result up to
    local moves and dot merging (compared by canonical form).  Raises
    BudgetExceeded past the enumeration cap.

    Two cases hold without enumerating cores.  A middle region without
    holes is a disk, where all cores are isotopic.  A region with one hole
    whose two dots lie on different graph components is an annulus with a
    dot on each boundary: its cores differ only by twists around the hole
    (Epstein, *Curves on 2-manifolds and isotopies*, 1966), and a full
    twist is undone by rotating the hole's disk, an isotopy of the plane
    (Farb & Margalit, *A Primer on Mapping Class Groups*, 2012), so every
    core gives the same canonical form."""
    w = _core_search_site(g, p1, p2)
    return w is None or _cores_agree(w, cap)


def check_condition_A_everywhere(g: DottedGraph, cap: int = 4000) -> bool:
    """Condition (A) over every dot pair where a surgery applies, checked
    once per working site (a1.key, q1, a2.key, q2; see ``_working_pair``).
    The core classes, each core's cut and the band are functions of the
    geometry, q1 and q2 alone; sites with one key differ only in which old
    dots of a1 and a2 survive, and every piece of a1 and a2 ends on an arc
    the band creates, which ``_cut_and_join`` dots, so each core gives one
    canonical form at all of them, and the verdict is the same."""
    agreed = set()              # working sites where every core gives one form
    for move in enumerate_moves(g, allowed=frozenset({"IV"})):
        w = _core_search_site(g, *move.site)
        if w is None or w.key in agreed:
            continue
        if not _cores_agree(w, cap):
            return False
        agreed.add(w.key)
    return True


def _core_search_site(g: DottedGraph, p1: Pt, p2: Pt):
    """The working pair of a surgery site where condition (A) needs a core
    search, or None where it holds without one: in a disk, or in an
    annulus with a dot on each boundary (``check_condition_A``)."""
    an = analyze(g)
    F = _middle_region(an, _arc_of_dot(an, p1), _arc_of_dot(an, p2), None)
    holes = _hole_samples(an.geometry, F)
    if not holes or (len(holes) == 1 and not _dots_share_component(an.geometry, p1, p2)):
        return None
    return _working_pair(g, p1, p2)


def _cores_agree(w: _Pair, cap: int) -> bool:
    classes = _enumerate_core_classes(w, _canonical_core(w),
                                      _hole_samples(w.geo, w.Fs), cap=cap)
    forms = set()
    for core in classes.values():
        raw, _, _ = _cut_and_join(w, core)
        forms.add(canonical_form(DG.normalized(raw)))
        if len(forms) > 1:
            return False
    return True


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
        moves += [deletion(c) for c in an.circles if _component_sign_ok(an, c)]
    if "III" in allowed:
        moves += [deletion(c) for c in an.loops if _component_sign_ok(an, c)]
    if "IV" in allowed:
        dots = sorted(g.dots)
        for i in range(len(dots)):
            for j in range(i + 1, len(dots)):
                p1, p2 = dots[i], dots[j]
                try:
                    a1, a2 = _arc_of_dot(an, p1), _arc_of_dot(an, p2)
                    F = _middle_region(an, a1, a2, None)
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
        return _surgery(g, move.site[0], move.site[1])
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
    a1, a2 = _arc_of_dot(an, p1), _arc_of_dot(an, p2)
    F = _middle_region(an, a1, a2, None)
    # (a1): arcs adjacent at a crossing whose near quadrant is the region
    for c, (sx, sy), k_in, k_out in hug_sites(an):
        if {k_in, k_out} != {a1.key, a2.key} or \
                an.arr.face_of_2x((2 * c[0] + sx, 2 * c[1] + sy)) != F:
            continue
        try:
            dIV = _surgery(g, p1, p2, hug_crossing=c)
        except errors.NotApplicable:
            continue
        apex = dIV.meta_dict()["apex"]
        an2 = analyze(dIV.after)
        for cert in an2.loops:
            if cert.apex == apex and _component_sign_ok(an2, cert):
                return ("IVa1", (replace(dIV, kind="IVa1"),
                                 apply_move(dIV.after, deletion(cert))))
    # (a2): concentric circle components merging into a deletable circle
    cert1 = _circle_cert_of_arc(an, a1.key)
    cert2 = _circle_cert_of_arc(an, a2.key)
    if cert1 is not None and cert2 is not None and cert1 != cert2:
        s1 = (2 * cert1.boundary[0][0] + 1, 2 * cert1.boundary[0][1] + 1)
        s2 = (2 * cert2.boundary[0][0] + 1, 2 * cert2.boundary[0][1] + 1)
        nested = (_polyline_winding_2x(s2, list(cert1.boundary)) != 0 or
                  _polyline_winding_2x(s1, list(cert2.boundary)) != 0)
        if nested:
            try:
                dIV = _surgery(g, p1, p2)
            except errors.NotApplicable:
                return None
            an2 = analyze(dIV.after)
            ci = _curve_of_point(an2.geometry, dIV.meta_dict()["new_dots"][0])
            for cert in an2.circles:
                if cert.curve == ci and _component_sign_ok(an2, cert):
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


def _circle_cert_of_arc(an, arc_key):
    for cert in an.circles:
        if arc_key in cert.arcs:
            return cert
    return None
