"""Dotted graphs: oriented closed rectilinear curves with dots and labeled
regions, their association with lattice polytopes, component recognition,
equivalence and realization.

A graph is stored geometrically (corner polylines on the integer grid,
dots as exact points); crossings, arcs, faces and labels are derived, in
two layers.  What the curves alone determine (crossings, arrangement,
arcs, side faces, arms, circle and loop certificates) is a
``CurveGeometry``, computed once and shared by every analysed graph with
the same curves; a ``GraphAnalysis`` adds only its graph's dots, each put
on its arc by its offset along its curve.
Graphs are compared up to ambient isotopy and dot multiplicity through a
canonical encoding of the labeled plane map: a traversal code per connected
component, joined along the tree of faces and components rooted at the
unbounded face, in time polynomial in the size of the graph.
"""
from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import errors
from . import geometry as G
from .arrangement import Arrangement, Pt, Seg, segments_by_line, winding_2x

E, N, W, S = (1, 0), (0, 1), (-1, 0), (0, -1)
CCW_DIRS = (E, N, W, S)
FORM_CACHE_SIZE = 16384     # bounds canonical_form's and reduce._condition_A's graph-keyed caches


def _direction(a: Pt, b: Pt) -> Pt:
    dx, dy = b[0] - a[0], b[1] - a[1]
    if dx and dy:
        raise errors.InvalidGraph(f"non-axis step {a}->{b}")
    if not dx and not dy:
        raise errors.InvalidGraph(f"zero step at {a}")
    return ((dx > 0) - (dx < 0), (dy > 0) - (dy < 0))


def _merge_collinear(pts: list[Pt]) -> list[Pt]:
    out = [p for i, p in enumerate(pts) if p != pts[i - 1]] if pts else []
    changed = True
    while changed and len(out) > 2:
        changed = False
        n = len(out)
        for i in range(n):
            a, b, c = out[(i - 1) % n], out[i], out[(i + 1) % n]
            if (a[0] == b[0] == c[0]) or (a[1] == b[1] == c[1]):
                out.pop(i)
                changed = True
                break
    return out


@dataclass(frozen=True)
class DottedGraph:
    curves: tuple[tuple[Pt, ...], ...]
    dots: frozenset[Pt]

    @staticmethod
    def build(curves, dots=()) -> "DottedGraph":
        """The graph in normal form, checked by its analysis."""
        g = DottedGraph(normal_curves(curves), frozenset(map(G.grid_point, dots)))
        analyze(g)
        return g

    def is_empty(self) -> bool:
        return not self.curves


def normal_curves(curves) -> tuple[tuple[Pt, ...], ...]:
    """The curves in normal form: integer corners, no closing repeat or
    collinear corner, each from its least corner, sorted.  Raises only for
    a curve of fewer than 4 corners."""
    normed = []
    for raw in curves:
        pts = [G.grid_point(p) for p in raw]
        if pts and pts[0] == pts[-1]:
            pts = pts[:-1]
        pts = _merge_collinear(pts)
        if len(pts) < 4:
            raise errors.InvalidGraph(f"closed rectilinear curve needs >= 4 corners: {pts}")
        k = pts.index(min(pts))
        normed.append(tuple(pts[k:] + pts[:k]))
    return tuple(sorted(normed))


def empty_graph() -> DottedGraph:
    return DottedGraph((), frozenset())


def curve_segments(curve: tuple[Pt, ...]) -> list[Seg]:
    return list(zip(curve, curve[1:] + curve[:1]))


def all_segments(g: DottedGraph) -> list[tuple[int, int, Seg]]:
    """(curve index, segment index, segment) for every directed segment."""
    out = []
    for ci, curve in enumerate(g.curves):
        for si, seg in enumerate(curve_segments(curve)):
            out.append((ci, si, seg))
    return out


def _on_segment(p: Pt, seg: Seg) -> bool:
    (x1, y1), (x2, y2) = seg
    if x1 == x2:
        return p[0] == x1 and min(y1, y2) <= p[1] <= max(y1, y2)
    return p[1] == y1 and min(x1, x2) <= p[0] <= max(x1, x2)


def _interior(p: Pt, seg: Seg) -> bool:
    return _on_segment(p, seg) and p != seg[0] and p != seg[1]


def _check_corners(curves) -> None:
    """Raise unless every step is axis-parallel, every corner turns and no
    two corners coincide."""
    corners: set[Pt] = set()
    for curve in curves:
        n = len(curve)
        dirs = [_direction(curve[i], curve[(i + 1) % n]) for i in range(n)]
        for i, p in enumerate(curve):
            if p in corners:
                raise errors.InvalidGraph(f"coincident corners at {p}")
            corners.add(p)
            if (dirs[i - 1][0] == 0) == (dirs[i][0] == 0):
                raise errors.InvalidGraph(f"collinear corner survived at {p}")


def _segment_pass(curves) -> tuple[dict[Pt, tuple], dict, dict]:
    """Check how the segments of the curves meet each other, and return the
    crossings, point -> ((curve, seg) of the horizontal strand, (curve, seg)
    of the vertical one), and the curves' one segment index, the
    ``segments_by_line`` of ``arrangement``: x -> the vertical segments and
    y -> the horizontal ones, each line's sorted ``(lo, hi, dir, curve,
    seg)`` entries.

    Each horizontal segment bisects for the vertical lines strictly inside
    its x-range.  This is the orthogonal case of Bentley & Ottmann's
    crossing search: O(s log s) plus one lookup per (horizontal, vertical
    line) pair in range, not all s² segment pairs.  With distinct corners,
    segments overlap on a line exactly when the later one's start corner
    lies inside the earlier one, a T-junction, so one check per line
    rejects both; after it no point is interior to two segments of one
    axis (no triple points).
    """
    v_by_x, h_by_y = segments_by_line(map(curve_segments, curves))
    for axis, by_line in (("x", v_by_x), ("y", h_by_y)):
        for line, segs in by_line.items():
            for (_, hi, _, _, _), (lo, _, _, _, _) in zip(segs, segs[1:]):
                if lo < hi:
                    corner = (line, lo) if axis == "x" else (lo, line)
                    raise errors.InvalidGraph(f"collinear overlap at {axis}={line}: "
                                              f"T-junction at corner {corner}")
    xs = sorted(v_by_x)
    found: dict[Pt, tuple] = {}
    for y, hsegs in h_by_y.items():
        for xlo, xhi, _, hc, hi in hsegs:
            for x in xs[bisect_right(xs, xlo):bisect_left(xs, xhi)]:
                vsegs = v_by_x[x]       # disjoint: only the last starting below y
                k = bisect_left(vsegs, (y,)) - 1
                if k >= 0 and vsegs[k][1] > y:
                    found[(x, y)] = ((hc, hi), vsegs[k][3:])
    return found, v_by_x, h_by_y


# ----------------------------------------------------------------- arcs --

@dataclass(frozen=True)
class Arc:
    curve: int
    path: tuple[Pt, ...]        # open arcs: crossing -> crossing; closed: corner cycle
    closed: bool
    dots: tuple[Pt, ...]

    @cached_property
    def key(self):
        return (self.curve, self.path, self.closed)

    @property
    def start(self) -> Pt:
        return self.path[0]

    @property
    def end(self) -> Pt:
        return self.path[-1]

    @property
    def start_dir(self) -> Pt:
        return _direction(self.path[0], self.path[1])

    @property
    def end_dir(self) -> Pt:
        return _direction(self.path[-2], self.path[-1])

    @cached_property
    def pieces(self) -> tuple[Seg, ...]:
        """The straight pieces (a, b) in travel order; a closed arc's last
        piece returns to its first corner."""
        pts = self.path
        return tuple(zip(pts, pts[1:] + pts[:1] if self.closed else pts[1:]))


@dataclass(frozen=True)
class ComponentCert:
    kind: str                    # "circle" | "loop"
    curve: int
    arcs: tuple
    boundary: tuple[Pt, ...]     # embedded closed polyline (apex corner included)
    disk_faces: frozenset[int]
    apex: Pt | None
    orientation: int             # winding of the boundary around its disk
    disk_label: int
    outside_label: int


class CurveGeometry:
    """Everything a dotted graph's curves determine without its dots: the
    crossings, the arrangement, the undotted arcs with their side faces,
    band faces and arms, the circle and loop certificates, and where each
    segment and each arc starts along its curve, by arc length from the
    curve's first corner; on first use, each face's cells and hole samples
    and each curve's graph component.  The segment index of
    ``_segment_pass`` is the only one kept: the arrangement is built from
    it, and ``locate`` reads it.  The curves are checked first: analysis is
    the one validity check of a graph, ``DottedGraph.build`` included."""

    def __init__(self, curves: tuple[tuple[Pt, ...], ...]):
        self.curves = curves
        _check_corners(curves)
        self.crossings, self._v_by_x, self._h_by_y = _segment_pass(curves)
        self.arr = Arrangement(self._v_by_x, self._h_by_y)
        self._build_arcs()
        self.arcs_by_key = {a.key: a for a in self.arcs}
        self._sides()
        self._arm_map()
        self.circles, self.loops = self._components()

    # arcs -----------------------------------------------------------

    def _build_arcs(self) -> None:
        self.arcs: list[Arc] = []
        # per curve: each segment's offset, the perimeter, the arcs' sorted
        # offsets and the index of the curve's first arc
        self._offsets: list[tuple[list[int], int, list[int], int]] = []
        cross_on: dict[tuple[int, int], list[Pt]] = {}
        for p, ((hc, hi), (vc, vi)) in self.crossings.items():
            cross_on.setdefault((hc, hi), []).append(p)
            cross_on.setdefault((vc, vi), []).append(p)
        for ci, curve in enumerate(self.curves):
            n = len(curve)
            seg_start = [0] * n
            run = 0
            for si in range(n):
                seg_start[si] = run
                a, b = curve[si], curve[(si + 1) % n]
                run += abs(b[0] - a[0]) + abs(b[1] - a[1])
            perimeter = run
            cuts: list[tuple[int, Pt]] = []
            for si in range(n):
                a = curve[si]
                for p in cross_on.get((ci, si), ()):
                    cuts.append((seg_start[si] + abs(p[0] - a[0]) + abs(p[1] - a[1]), p))
            cuts.sort()
            self._offsets.append((seg_start, perimeter, [s for s, _ in cuts] or [0],
                                  len(self.arcs)))
            if not cuts:
                self.arcs.append(Arc(ci, curve, True, ()))
                continue
            m = len(cuts)
            for k in range(m):
                sa, ap = cuts[k]
                sb, bp = cuts[(k + 1) % m]
                path = [ap] + self.corners_between(ci, sa, sb) + [bp]
                self.arcs.append(Arc(ci, tuple(path), False, ()))

    def locate(self, p: Pt) -> tuple[int, int] | None:
        """(curve, offset) of a point on the curves, or None off them.  The
        offset is the arc length from the curve's first corner.  A corner or
        a crossing lies on two segments and gets the lesser of their two
        pairs, so the first corner reads 0, not the perimeter."""
        x, y = p
        best = None
        for t, segs in ((y, self._v_by_x.get(x)), (x, self._h_by_y.get(y))):
            if segs:                    # disjoint: only the last starting at or before t
                k = bisect_left(segs, (t + 1,)) - 1
                if k >= 0 and segs[k][1] >= t:
                    ci, si = segs[k][3:]
                    a = self.curves[ci][si]
                    loc = (ci, self._offsets[ci][0][si] + abs(x - a[0]) + abs(y - a[1]))
                    if best is None or loc < best:
                        best = loc
        return best

    def segment_at(self, ci: int, off: int) -> tuple[int, int]:
        """(segment, offset along it) of the point at offset ``off`` along
        curve ``ci``; a corner lies on the segment that starts there."""
        seg_start = self._offsets[ci][0]
        si = bisect_right(seg_start, off) - 1
        return si, off - seg_start[si]

    def corners_between(self, ci: int, sa: int, sb: int) -> list[Pt]:
        """The corners of curve ``ci`` strictly between the offsets ``sa``
        and ``sb``, in travel order from ``sa``; ``sa == sb`` walks the
        whole way round."""
        seg_start, perimeter, _, _ = self._offsets[ci]
        curve = self.curves[ci]
        n = len(curve)
        span = (sb - sa) % perimeter or perimeter
        out = []
        j = bisect_right(seg_start, sa)     # the first corner past sa
        for k in range(j, j + n):
            if not 0 < (seg_start[k % n] - sa) % perimeter < span:
                break
            out.append(curve[k % n])
        return out

    def arc_at(self, p: Pt) -> tuple[int, int]:
        """(index in ``arcs``, offset along that arc) of a point on the
        curves off the crossings.  The point's offset along its curve picks
        its arc by bisection among the arcs' start offsets; a point before
        the first start or after the last lies on the arc that wraps round
        the curve's first corner.  Raises for a point on a crossing, or on
        no curve."""
        if p in self.crossings:
            raise errors.DotOnCrossing(f"dot at crossing {p}")
        loc = self.locate(p)
        if loc is None:
            raise errors.InvalidGraph(f"dot {p} not on any curve")
        ci, off = loc
        _, perimeter, starts, first = self._offsets[ci]
        k = bisect_right(starts, off) - 1
        return first + k % len(starts), (off - starts[k]) % perimeter

    def dotted_arcs(self, dots) -> list[Arc]:
        """The arcs with ``dots`` on them, each arc's dots in travel order,
        each dot put on its arc by ``arc_at``."""
        on: dict[int, list[tuple[int, Pt]]] = {}
        for d in dots:
            i, off = self.arc_at(d)
            on.setdefault(i, []).append((off, d))
        arcs = list(self.arcs)
        for i, ds in on.items():
            a = arcs[i]
            arcs[i] = Arc(a.curve, a.path, a.closed, tuple(d for _, d in sorted(ds)))
        return arcs

    def label(self, fid: int) -> int:
        return self.arr.faces[fid].omega

    @cached_property
    def face_cells(self) -> list[frozenset[tuple[int, int]]]:
        """Each face's (column, row) cells of the arrangement, by face
        index, listed by one scan on first use."""
        return self.arr.cells_by_face()

    @cached_property
    def component(self) -> list[int]:
        """Each curve's graph component, named by the component's least
        curve: a union-find over the crossings that keeps the lesser root."""
        parent = list(range(len(self.curves)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for (hc, _), (vc, _) in self.crossings.values():
            pa, pb = find(hc), find(vc)
            parent[max(pa, pb)] = min(pa, pb)
        return [find(i) for i in range(len(self.curves))]

    @cached_property
    def holes(self) -> list[tuple[Pt, ...]]:
        """Each face's hole samples, by face index: one doubled-grid point
        inside each graph component the face encloses, in component order.
        A component is enclosed by the face just above its top horizontal
        segment, and its sample lies just below that segment's middle.
        Samples carry odd doubled coordinates so they never meet grid lines
        or route vertices."""
        hsegs: dict[int, list[Seg]] = {}
        for ci, comp in enumerate(self.component):
            hsegs.setdefault(comp, []).extend(
                s for s in curve_segments(self.curves[ci]) if s[0][1] == s[1][1])
        out: list[list[Pt]] = [[] for _ in self.arr.faces]
        for comp in sorted(hsegs):
            (ax, ty), (bx, _) = max(hsegs[comp], key=lambda s: (s[0][1], min(s[0][0], s[1][0])))
            sx2 = ax + bx | 1           # stays interior: even sums need length >= 2
            out[self.arr.face_of_2x((sx2, 2 * ty + 1))].append((sx2, 2 * ty - 1))
        return [tuple(samples) for samples in out]

    # side faces -------------------------------------------------------

    def _sides(self) -> None:
        """Each arc's left and right faces, and its band face, the one side
        where a band may attach: the side whose label magnitude dominates.
        Each side is the face of a doubled-grid sample half a unit along the
        arc's first piece and half a unit off it.  Across an arc the label
        drops by one from left to right, which is checked here."""
        self.left_face: dict = {}
        self.right_face: dict = {}
        self.band_face: dict = {}
        self._face_arcs: dict[int, list] = {}       # face -> the keys of the arcs beside it
        face_of_2x = self.arr.face_of_2x
        for a in self.arcs:
            (x0, y0), (dx, dy) = a.path[0], a.start_dir
            left = face_of_2x((2 * x0 + dx - dy, 2 * y0 + dy + dx))
            right = face_of_2x((2 * x0 + dx + dy, 2 * y0 + dy - dx))
            L, R = self.label(left), self.label(right)
            if L != R + 1:
                raise errors.InvalidGraph(
                    f"left label {L} of arc {a.key} does not exceed its right label {R} by one")
            self.left_face[a.key] = left
            self.right_face[a.key] = right
            self.band_face[a.key] = left if L >= 1 else right
            self._face_arcs.setdefault(left, []).append(a.key)
            self._face_arcs.setdefault(right, []).append(a.key)

    # arms and darts ----------------------------------------------------

    def _arm_map(self) -> None:
        """(crossing, outward direction) -> (arc key, 'out'|'in')."""
        arms: dict[tuple[Pt, Pt], tuple] = {}
        for a in self.arcs:
            if a.closed:
                continue
            arms[(a.start, a.start_dir)] = (a.key, "out")
            d = a.end_dir
            arms[(a.end, (-d[0], -d[1]))] = (a.key, "in")
        self.arms = arms
        for c in self.crossings:
            for d in CCW_DIRS:
                if (c, d) not in arms:
                    raise errors.InvalidGraph(f"missing arm {d} at crossing {c}")

    # components --------------------------------------------------------

    def _components(self):
        self_crossing = {hc for (hc, _), (vc, _) in self.crossings.values() if hc == vc}
        circles = []
        for ci, curve in enumerate(self.curves):
            if ci in self_crossing:
                continue
            arcs = tuple(a.key for a in self.arcs if a.curve == ci)
            cert = self._certify(kind="circle", curve=ci, arcs=arcs,
                                 boundary=curve, apex=None)
            if cert is not None:
                circles.append(cert)
        loops = []
        for c, ((hc, hi), (vc, vi)) in sorted(self.crossings.items()):
            if hc != vc:
                continue
            for out_dir in self._passage_dirs(c):
                chain = self._excursion(c, out_dir)
                if chain is None:
                    continue
                boundary = self._chain_boundary(chain)
                cert = self._certify(kind="loop", curve=hc,
                                     arcs=tuple(a.key for a in chain),
                                     boundary=boundary, apex=c)
                if cert is not None:
                    loops.append(cert)
        circles.sort(key=lambda c: (c.curve,))
        loops.sort(key=lambda c: (c.apex, c.boundary))
        return circles, loops

    def _passage_dirs(self, c: Pt) -> list[Pt]:
        (hc, hi), (vc, vi) = self.crossings[c]
        hseg = curve_segments(self.curves[hc])[hi]
        vseg = curve_segments(self.curves[vc])[vi]
        return [_direction(*hseg), _direction(*vseg)]

    def _excursion(self, c: Pt, out_dir: Pt):
        """Arcs from leaving c along out_dir until first return to c, or None
        if the walk returns on its own passage or revisits a crossing."""
        first = self.arms.get((c, out_dir))
        if first is None or first[1] != "out":
            return None
        chain = [self.arcs_by_key[first[0]]]
        seen_cross: set[Pt] = set()
        while chain[-1].end != c:
            q = chain[-1].end
            if q in seen_cross:
                return None
            seen_cross.add(q)
            nxt = self.arms.get((q, chain[-1].end_dir))
            if nxt is None or nxt[1] != "out":
                return None
            chain.append(self.arcs_by_key[nxt[0]])
            if len(chain) > len(self.arcs):
                return None
        # must return on the other passage (perpendicular arrival)
        if chain[-1].end_dir[0] != 0 and out_dir[0] != 0:
            return None
        if chain[-1].end_dir[1] != 0 and out_dir[1] != 0:
            return None
        return chain

    def _chain_boundary(self, chain) -> tuple[Pt, ...]:
        pts: list[Pt] = []
        for a in chain:
            pts.extend(a.path[:-1])
        return tuple(pts)

    def _certify(self, kind, curve, arcs, boundary, apex):
        segs = curve_segments(boundary)
        try:
            for i in range(len(boundary)):
                _direction(boundary[i], boundary[(i + 1) % len(boundary)])
        except errors.InvalidGraph:
            return None
        # embedded?
        if len(set(boundary)) != len(boundary):
            return None
        if kind == "loop":
            # the loop's own arms at the apex, and the disk-side quadrant check
            first = self.arcs_by_key[arcs[0]]
            last = self.arcs_by_key[arcs[-1]]
            out_dir = first.start_dir
            ed = last.end_dir
            in_dir = (-ed[0], -ed[1])
            quad = (2 * apex[0] + out_dir[0] + in_dir[0],
                    2 * apex[1] + out_dir[1] + in_dir[1])
            if winding_2x(quad, segs) == 0:
                return None
            for d in CCW_DIRS:
                if d in (out_dir, in_dir):
                    continue
                t = (2 * apex[0] + d[0], 2 * apex[1] + d[1])
                if winding_2x(t, segs) != 0:
                    return None
        # an embedded boundary winds once around the faces on its left when
        # it runs counterclockwise, and not at all when it runs clockwise
        faces = self.arr.faces
        lf, rf = self.left_face[arcs[0]], self.right_face[arcs[0]]
        w = winding_2x(faces[lf].sample2, segs)
        if w not in (0, 1):
            raise errors.InvalidGraph(f"{kind} boundary winds {w} times around its disk")
        inner, outer, orientation = (lf, rf, 1) if w else (rf, lf, -1)
        # by the Jordan curve theorem every other arc lies wholly inside or
        # wholly outside the boundary, so the disk is what the inner side
        # face reaches across them
        on_boundary = set(arcs)
        disk = {inner}
        todo = [inner]
        for f in todo:
            for k in self._face_arcs[f]:
                if k not in on_boundary:
                    for h in (self.left_face[k], self.right_face[k]):
                        if h not in disk:
                            disk.add(h)
                            todo.append(h)
        return ComponentCert(kind, curve, arcs, boundary, frozenset(disk), apex,
                             orientation, faces[inner].omega, faces[outer].omega)


# the one geometry of each analysed curve set, for as long as an analysis holds it
_GEOMETRIES: "weakref.WeakValueDictionary[tuple, CurveGeometry]" = \
    weakref.WeakValueDictionary()


class GraphAnalysis:
    """Everything derived from a dotted graph, in two layers.  The curve
    layer, a ``CurveGeometry``, is computed once per ``curves`` tuple and
    shared by every analysis of a graph with those curves, for as long as
    one of them is alive.  The dot layer is this graph's own: its dots are
    checked (``DotOnCrossing``, or ``InvalidGraph`` for a dot on no curve)
    and put on their arcs, and ``arc_of`` reads each dot's arc."""

    def __init__(self, g: DottedGraph):
        geo = _GEOMETRIES.get(g.curves)
        if geo is None:
            geo = _GEOMETRIES[g.curves] = CurveGeometry(g.curves)
        self.g = g
        self.geometry = geo             # keeps geo in _GEOMETRIES while self lives
        self.crossings, self.arr, self.arms = geo.crossings, geo.arr, geo.arms
        self.left_face, self.right_face = geo.left_face, geo.right_face
        self.circles, self.loops, self.label = geo.circles, geo.loops, geo.label
        self.arcs = geo.dotted_arcs(g.dots)
        self.arcs_by_key = dict(zip(geo.arcs_by_key, self.arcs))
        self._arc_of = {d: a for a in self.arcs for d in a.dots}

    def arc_of(self, dot: Pt) -> Arc:
        """The arc that carries a dot of the graph; ``MissingDot`` for a
        point that is no dot."""
        a = self._arc_of.get(dot)
        if a is None:
            raise errors.MissingDot(f"{dot} is not a dot of the graph")
        return a


@lru_cache(maxsize=4096)
def analyze(g: DottedGraph) -> GraphAnalysis:
    return GraphAnalysis(g)


# ------------------------------------------------------------ operations

def associate(p: G.LatticePolytope) -> DottedGraph:
    """The dotted graph of a polytope: boundary curves dotted at the
    non-isolated initial vertices."""
    iso = G.isolated_vertices(p)
    return DottedGraph.build(G.boundary_cycles(p), p.ver0.points - iso)


def find_components(g: DottedGraph) -> list[ComponentCert]:
    an = analyze(g)
    return list(an.circles) + list(an.loops)


def is_admissible_sufficient(g: DottedGraph) -> bool:
    """True when every arc carries at least two dots (sufficient only)."""
    return all(len(a.dots) >= 2 for a in analyze(g).arcs)


# ------------------------------------------------- canonical form / E+I --

def equivalent_mod_E_I(g1: DottedGraph, g2: DottedGraph) -> bool:
    """Equality of labeled combinatorial maps with dot counts collapsed to
    flags: invariant under ambient isotopy and deformation I."""
    return canonical_form(g1) == canonical_form(g2)


@lru_cache(maxsize=FORM_CACHE_SIZE)
def canonical_form(g: DottedGraph) -> str:
    """A string that two graphs share exactly when their labeled plane maps
    are isomorphic, with dot counts collapsed to flags.

    The components (a closed arc alone, or the open arcs joined through
    their crossings) and the faces form a tree rooted at the unbounded face:
    a component hangs below the face around it, and its other faces hang
    below it.  Codes are built bottom-up.  A face is ``F<label><u|b>[...]``
    with its components' codes sorted inside the brackets.  A closed arc is
    ``O<dotted><left><right>``.  Any other component is the least, over its
    root darts, of a breadth-first walk of its darts (Weinberg's plane-map
    code): each dart writes its role, its arc's dot flag, the walk numbers of
    ``opp`` and ``rot``, and its arc's left and right faces.  A face is
    written ``p`` when it is the parent, its code at its first occurrence,
    and ``#<k>`` after that, so each code is written once per component.
    Sorting the children is the rooted-tree isomorphism code of Aho,
    Hopcroft and Ullman; the whole form takes polynomial time.
    """
    an = analyze(g)
    return _plane_form(an.arcs, an.left_face, an.right_face,
                       [f.omega for f in an.arr.faces], an.arr.unbounded_face)


def form_after_deletion(g: DottedGraph, cert: ComponentCert) -> str:
    """``canonical_form`` of g with the circle or loop of ``cert`` deleted
    (deformation II or III), read off g's own analysis.  The deletion
    merges the two side faces of each of the component's arcs and drops
    every label of its disk by its orientation.  Every other strand through
    a crossing the component leaves fuses its two arcs there, into a closed
    arc when no crossing is left on it; at a loop's apex the two tail arcs
    fuse, and the fused arc is dotted when the loop was, as ``apply_III``
    dots the apex.  No other arc, face or crossing changes.  Unlike the
    graph the deletion builds, this needs no validation, geometry or
    analysis."""
    an = analyze(g)
    gone = [an.arcs_by_key[k] for k in cert.arcs]
    drop = set(cert.arcs)
    # each kept arc that runs into a crossing the component leaves -> the
    # kept arc that runs on from there
    nxt = {}
    apex_in = None
    for c in {p for a in gone if not a.closed for p in (a.start, a.end)}:
        run = {role: k for k, role in (an.arms[(c, d)] for d in CCW_DIRS) if k not in drop}
        nxt[run["in"]] = run["out"]
        if c == cert.apex and any(a.dots for a in gone):
            apex_in = run["in"]
    # the fused arcs: chains from the arcs that nothing runs into, then cycles
    new = []
    runs_on = set(nxt.values())
    for head in [k for k in nxt if k not in runs_on] + list(nxt):
        if head in drop:
            continue
        chain, k = [], head
        while k is not None and k not in drop:
            drop.add(k)
            chain.append(an.arcs_by_key[k])
            k = nxt.get(k)
        dots = tuple(d for a in chain for d in a.dots)
        if any(a.key == apex_in for a in chain):
            dots += (cert.apex,)
        path = chain[0].path + tuple(p for a in chain[1:] for p in a.path[1:])
        first = chain[0].key
        new.append((Arc(-1 - len(new), path, k is not None, dots),
                    an.left_face[first], an.right_face[first]))
    labels = [f.omega - cert.orientation if f.index in cert.disk_faces else f.omega
              for f in an.arr.faces]
    merge = [(an.left_face[a.key], an.right_face[a.key]) for a in gone]
    return _edited_form(an, drop, new, merge, labels)


def _edited_form(an: GraphAnalysis, drop: set, new: list, merge: list, labels: list) -> str:
    """The ``canonical_form`` code of an edit of the labeled plane map of
    ``an``: the arcs keyed in ``drop`` go, each ``(arc, left face, right
    face)`` of ``new`` comes, the two faces of each pair in ``merge``
    become one, and ``labels`` gives each face's label by index.  A merged
    face keeps the unbounded face's index when it is that face."""
    root = an.arr.unbounded_face
    ren: dict[int, int] = {}

    def find(f: int) -> int:
        while f in ren:
            f = ren[f]
        return f

    for f, h in merge:
        f, h = find(f), find(h)
        if f == root:
            f, h = h, f
        if f != h:
            ren[f] = h
    ren = {f: find(f) for f in ren}
    left = {k: ren.get(f, f) for k, f in an.left_face.items()}
    right = {k: ren.get(f, f) for k, f in an.right_face.items()}
    arcs = [a for a in an.arcs if a.key not in drop]
    for a, lf, rf in new:
        arcs.append(a)
        left[a.key], right[a.key] = ren.get(lf, lf), ren.get(rf, rf)
    return _plane_form(arcs, left, right, labels, root)


def _plane_form(arcs: list[Arc], left_face: dict, right_face: dict, labels, root: int) -> str:
    """The code of ``canonical_form`` for a labeled plane map: its arcs,
    each arc's side faces by arc key, each face's label by face index, and
    the unbounded face ``root``."""
    parent: dict[Pt, Pt] = {}

    def find(c: Pt) -> Pt:
        while parent.setdefault(c, c) != c:
            parent[c] = c = parent[parent[c]]
        return c

    for a in arcs:
        if not a.closed:
            parent[find(a.start)] = find(a.end)
    comps: dict = {}                    # component id -> its arcs
    for a in arcs:
        comps.setdefault(a.key if a.closed else find(a.start), []).append(a)
    faces_of = {k: {f for a in arcs for f in (left_face[a.key], right_face[a.key])}
                for k, arcs in comps.items()}
    comps_at: dict[int, list] = {}
    for k, fs in faces_of.items():
        for f in fs:
            comps_at.setdefault(f, []).append(k)

    # faces are ints and components tuples; in a tree, every neighbour but
    # the parent is a child
    order = [(root, None)]
    for x, up in order:
        order.extend((y, x) for y in (faces_of[x] if x in comps else comps_at.get(x, ()))
                     if y != up)
    code: dict = {}
    kids: dict = {}
    for x, up in reversed(order):
        if x in comps:
            code[x] = _component_code(comps[x], left_face, right_face, up, code)
        else:
            inside = ",".join(sorted(kids.get(x, ())))
            code[x] = f"F{labels[x]}{'u' if x == root else 'b'}[{inside}]"
        kids.setdefault(up, []).append(code[x])
    return code[root]


def _component_code(arcs: list[Arc], left_face: dict, right_face: dict, outer: int,
                    code: dict) -> str:
    """Code of the component made of ``arcs``, whose parent face is
    ``outer``; ``code`` already holds the codes of its other faces."""
    if arcs[0].closed:
        a = arcs[0]
        sides = (left_face[a.key], right_face[a.key])
        return f"O{int(bool(a.dots))}" + "".join("p" if f == outer else code[f] for f in sides)
    base = {c: 4 * k for k, c in enumerate({a.start for a in arcs})}
    n = 4 * len(base)
    opp = [0] * n                       # dart 4k + i: arm CCW_DIRS[i] of crossing k
    head = [""] * n
    sides = [()] * n
    for a in arcs:
        ed = a.end_dir
        t = base[a.start] + CCW_DIRS.index(a.start_dir)
        h = base[a.end] + CCW_DIRS.index((-ed[0], -ed[1]))
        opp[t], opp[h] = h, t
        head[t], head[h] = f"o{int(bool(a.dots))}", f"i{int(bool(a.dots))}"
        sides[t] = sides[h] = (left_face[a.key], right_face[a.key])
    rot = [x - x % 4 + (x + 1) % 4 for x in range(n)]
    best: list[str] = []
    for start in range(n):
        num = [-1] * n
        num[start] = 0
        queue = [start]
        ref = {outer: "p"}
        parts = []
        tie = bool(best)                # every part so far equals best's
        for i, x in enumerate(queue):
            for y in (opp[x], rot[x]):
                if num[y] < 0:
                    num[y] = len(queue)
                    queue.append(y)
            part = f"{head[x]}{num[opp[x]]},{num[rot[x]]}"
            for f in sides[x]:
                r = ref.get(f)
                if r is None:
                    ref[f] = f"#{len(ref) - 1}"
                    r = code[f]
                part += r
            if tie and part != best[i]:
                if part > best[i]:
                    break
                tie = False
            parts.append(part)
        else:
            if not tie:
                best = parts
    return "X[" + ";".join(best) + "]"


# ----------------------------------------------------- coordinate maps --

def transform_coords(g: DottedGraph, fx, fy) -> DottedGraph:
    """The validated graph g with x mapped by ``fx`` and y by ``fy``.

    Both maps must be strictly increasing; a map that is not raises
    ValueError.  Such a map keeps a valid graph valid and in normal form:
    it keeps the order of corners along each line, collinearity, each
    curve's least corner, the order of the curves, the crossings and which
    segment each dot lies on.  So the result is built without
    re-validation."""
    for f in (fx, fy):
        values = [f[v] for v in sorted(f)]
        if any(a >= b for a, b in zip(values, values[1:])):
            raise ValueError("coordinate map is not strictly increasing")
    curves = tuple(tuple(G.GridPoint(fx[x], fy[y]) for x, y in c) for c in g.curves)
    return DottedGraph(curves, frozenset(G.GridPoint(fx[x], fy[y]) for x, y in g.dots))


def coordinate_values(g: DottedGraph) -> tuple[list[int], list[int]]:
    xs, ys = set(), set()
    for c in g.curves:
        for x, y in c:
            xs.add(x)
            ys.add(y)
    for x, y in g.dots:
        xs.add(x)
        ys.add(y)
    return sorted(xs), sorted(ys)


def renormalize(g: DottedGraph) -> tuple[DottedGraph, dict, dict]:
    """Compress coordinates to 0..k preserving order (an ambient isotopy)."""
    xs, ys = coordinate_values(g)
    fx = {x: i for i, x in enumerate(xs)}
    fy = {y: i for i, y in enumerate(ys)}
    return transform_coords(g, fx, fy), fx, fy


def scaled(g: DottedGraph, k: int) -> DottedGraph:
    xs, ys = coordinate_values(g)
    return transform_coords(g, {x: k * x for x in xs}, {y: k * y for y in ys})


def normalized(g: DottedGraph) -> DottedGraph:
    return renormalize(g)[0]


# ------------------------------------------------------------- realize --

REALIZE_SCALE = 16


def realize(g: DottedGraph) -> G.LatticePolytope:
    """Construct a lattice polytope whose associated dotted graph is
    equivalent (mod isotopy and dot merging) to ``g``.

    Keeps the given embedding: crossings stay put on a coarse grid, arcs are
    re-dotted at their vertical-to-horizontal corners (padding staircase
    jogs until every arc has at least two), and finally every segment is
    jittered onto its own coordinate line so the distinctness condition
    holds.
    """
    if g.is_empty():
        return G.validate_polytope([], [])
    an = analyze(g)
    for a in an.arcs:
        if len(a.dots) < 2:
            raise errors.UndottedArc(f"arc with fewer than two dots: {a.path[:2]}...")

    work = scaled(renormalize(g)[0], REALIZE_SCALE)
    work = _pad_jogs(work)
    work = _jitter_lines(work)

    ver0: list[Pt] = []
    ver1: list[Pt] = []
    for curve in work.curves:
        n = len(curve)
        for i in range(n):
            din = _direction(curve[(i - 1) % n], curve[i])
            dout = _direction(curve[i], curve[(i + 1) % n])
            if din[0] == 0 and dout[1] == 0:      # vertical in, horizontal out
                ver0.append(curve[i])
            else:
                ver1.append(curve[i])
    p = G.validate_polytope(ver0, ver1)
    realized = {tuple(sorted(seg)) for _, _, seg in all_segments(work)}
    derived = {tuple(sorted(seg)) for seg in G.boundary_segments(p)}
    if realized != derived:
        raise errors.RoutingFailure("realized boundary does not match the derived edges")
    return p


def _pad_jogs(g: DottedGraph) -> DottedGraph:
    """Insert staircase jogs so every arc owns >= 2 vertical->horizontal
    corners (these become the initial vertices)."""
    an = analyze(g)
    inserts: dict[tuple[int, int], list[tuple[int, list[Pt]]]] = {}
    for a in an.arcs:
        need = 2 - _count_vh_on_arc(a)
        if need <= 0:
            continue
        p, q = _longest_arc_piece(a)
        pts = _jog_points(p, q, need)
        ci, off = an.geometry.locate(pts[0])     # inside the piece: on one segment
        si, _ = an.geometry.segment_at(ci, off)
        inserts.setdefault((ci, si), []).append((off, pts))
    curves = []
    for ci, curve in enumerate(g.curves):
        n = len(curve)
        out: list[Pt] = []
        for i in range(n):
            out.append(curve[i])
            for _, pts in sorted(inserts.get((ci, i), [])):
                out.extend(pts)
        curves.append(tuple(out))
    return DottedGraph.build(curves, ())


def _count_vh_on_arc(a: Arc) -> int:
    n = len(a.path)
    cnt = 0
    for i in range(n):
        if not a.closed and (i == 0 or i == n - 1):
            continue
        din = _direction(a.path[(i - 1) % n], a.path[i])
        dout = _direction(a.path[i], a.path[(i + 1) % n])
        if din[0] == 0 and dout[1] == 0:
            cnt += 1
    return cnt


def _longest_arc_piece(a: Arc) -> Seg:
    return max(a.pieces, key=lambda s: abs(s[0][0] - s[1][0]) + abs(s[0][1] - s[1][1]))


def _jog_points(p: Pt, q: Pt, need: int) -> list[Pt]:
    """Staircase corner points replacing the middle of the straight run
    p->q; adds ``need`` corners of each turning type.  The bulge is two
    units wide, safe at the working scale."""
    d = _direction(p, q)
    nx, ny = (-d[1], d[0])     # bulge side (left of travel)
    length = abs(q[0] - p[0]) + abs(q[1] - p[1])
    jogs = (need + 1) // 2
    span = 4 * jogs
    if length < span + 8:
        raise errors.RoutingFailure("arc piece too short for jog insertion")
    start_off = (length - span) // 2
    pts: list[Pt] = []
    cx, cy = p[0] + d[0] * start_off, p[1] + d[1] * start_off
    for _ in range(jogs):
        pts.append((cx, cy))
        pts.append((cx + nx * 2, cy + ny * 2))
        pts.append((cx + nx * 2 + d[0] * 2, cy + ny * 2 + d[1] * 2))
        pts.append((cx + d[0] * 2, cy + d[1] * 2))
        cx, cy = cx + d[0] * 4, cy + d[1] * 4
    return pts


def _jitter_lines(g: DottedGraph) -> DottedGraph:
    """Move every segment onto its own coordinate line, preserving the
    arrangement combinatorics (offsets are far below the line gaps)."""
    v_by_x, h_by_y = segments_by_line(map(curve_segments, g.curves))
    mult = max([len(v) for v in v_by_x.values()] +
               [len(h) for h in h_by_y.values()] + [1])
    k = 4 * mult + 8
    seg_line: dict[tuple[int, int], tuple[str, int]] = {}
    for axis, by_line in (("v", v_by_x), ("h", h_by_y)):
        for line, segs in by_line.items():
            for off, (_, _, _, ci, si) in enumerate(segs):
                seg_line[(ci, si)] = (axis, k * line + off)
    curves = []
    for ci, curve in enumerate(g.curves):
        n = len(curve)
        pts = []
        for i in range(n):
            prev_axis, prev_line = seg_line[(ci, (i - 1) % n)]
            cur_axis, cur_line = seg_line[(ci, i)]
            if prev_axis == cur_axis:
                raise errors.InvalidGraph(f"curve {ci} does not turn at {curve[i]}")
            if cur_axis == "v":
                pts.append((cur_line, prev_line))
            else:
                pts.append((prev_line, cur_line))
        curves.append(tuple(pts))
    return DottedGraph.build(curves, ())
