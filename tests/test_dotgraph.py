import gc
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from latpoly import errors, geometry as G, oracle as O
from latpoly import deform as DF, dotgraph as D, formats as F
from latpoly.arrangement import Arrangement, segments_by_line, winding_2x
from test_deform import reference_cell_beside


# ----------------------------------------------------------- fixtures ---

def square_poly():
    return G.validate_polytope([(0, 0), (1, 1)], [(1, 0), (0, 1)])


def staircase_poly():
    return G.validate_polytope([(0, 0), (1, 1), (2, 2)], [(0, 1), (1, 2), (2, 0)])


def circle(x0=0, y0=0, w=4, h=4, ccw=True, dots=2):
    pts = [(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)]
    if not ccw:
        pts = [pts[0]] + pts[:0:-1]
    dot_pts = pts[:dots]
    return tuple(pts), dot_pts


def circle_graph(ccw=True, dots=2):
    pts, dot_pts = circle(ccw=ccw, dots=dots)
    return D.DottedGraph.build([pts], dot_pts)


def figure_eight(dots_per_lobe=1):
    # one closed curve with a single self-crossing at (1, 0);
    # upper-right lobe winds +1, lower-left lobe winds -1
    curve = [(0, 0), (2, 0), (2, 2), (1, 2), (1, -1), (0, -1)]
    dots = []
    if dots_per_lobe >= 1:
        dots += [(2, 2), (0, -1)]
    if dots_per_lobe >= 2:
        dots += [(2, 0), (1, -1)]
    return D.DottedGraph.build([curve], dots)


def nested_circles(orients=(True, False), dots=1):
    """Concentric axis-parallel rectangles, outermost first."""
    curves = []
    dot_pts = []
    for i, ccw in enumerate(orients):
        k = 2 * i
        pts, dp = circle(x0=k, y0=k, w=12 - 4 * i, h=12 - 4 * i, ccw=ccw, dots=dots)
        curves.append(pts)
        dot_pts += dp
    return D.DottedGraph.build(curves, dot_pts)


def random_polytope(rng, max_points=4, max_coord=6):
    n = rng.randint(1, max_points)
    xs = rng.sample(range(max_coord + 1), n)
    ys = rng.sample(range(max_coord + 1), n)
    ys2 = ys[:]
    rng.shuffle(ys2)
    return G.validate_polytope([(x, y) for x, y in zip(xs, ys)],
                               [(x, y) for x, y in zip(xs, ys2)])


# ------------------------------------------------------------- build ----

def test_build_rejects_t_junction():
    with pytest.raises(errors.InvalidGraph):
        D.DottedGraph.build([[(0, 0), (4, 0), (4, 4), (0, 4)],
                             [(2, 0), (6, 0), (6, -4), (2, -4)]])


def test_build_rejects_collinear_overlap():
    with pytest.raises(errors.InvalidGraph):
        D.DottedGraph.build([[(0, 0), (4, 0), (4, 4), (0, 4)],
                             [(1, 0), (3, 0), (3, -4), (1, -4)]])


def test_build_rejects_dot_on_crossing():
    with pytest.raises(errors.DotOnCrossing):
        figure_eight_with_dot_on_crossing()


def figure_eight_with_dot_on_crossing():
    curve = [(0, 0), (2, 0), (2, 2), (1, 2), (1, -1), (0, -1)]
    return D.DottedGraph.build([curve], [(1, 0)])


def test_build_rejects_dot_off_curve():
    with pytest.raises(errors.InvalidGraph):
        D.DottedGraph.build([[(0, 0), (4, 0), (4, 4), (0, 4)]], [(2, 2)])


SQUARE = [(0, 0), (4, 0), (4, 4), (0, 4)]


def transposed(curves):
    return [[(y, x) for x, y in c] for c in curves]


# each case's error class and message, as ``DottedGraph.build`` raised them
# when it still ran its own checks ahead of any analysis
INVALID_GRAPHS = {
    "non-axis step": ([[(0, 0), (4, 0), (4, 4), (1, 3)]], [],
                      errors.InvalidGraph, "non-axis step (4, 4)->(1, 3)"),
    "fewer than 4 corners": ([[(0, 0), (4, 0), (4, 4)]], [], errors.InvalidGraph,
                             "closed rectilinear curve needs >= 4 corners: "
                             "[(0, 0), (4, 0), (4, 4)]"),
    "coincident corners": ([SQUARE, [(4, 4), (8, 4), (8, 8), (4, 8)]], [],
                           errors.InvalidGraph, "coincident corners at (4, 4)"),
    "horizontal overlap": ([SQUARE, [(1, 0), (3, 0), (3, -4), (1, -4)]], [],
                           errors.InvalidGraph,
                           "collinear overlap at y=0: T-junction at corner (1, 0)"),
    "vertical overlap": (transposed([SQUARE, [(1, 0), (3, 0), (3, -4), (1, -4)]]), [],
                         errors.InvalidGraph,
                         "collinear overlap at x=0: T-junction at corner (0, 1)"),
    "corner inside a horizontal segment":
        ([SQUARE, [(3, 0), (7, 0), (7, -4), (3, -4)]], [], errors.InvalidGraph,
         "collinear overlap at y=0: T-junction at corner (3, 0)"),
    "corner inside a vertical segment":
        (transposed([SQUARE, [(3, 0), (7, 0), (7, -4), (3, -4)]]), [], errors.InvalidGraph,
         "collinear overlap at x=0: T-junction at corner (0, 3)"),
    "dot on a crossing": ([[(0, 0), (2, 0), (2, 2), (1, 2), (1, -1), (0, -1)]], [(1, 0)],
                          errors.DotOnCrossing, "dot at crossing (1, 0)"),
    "dot off every curve": ([SQUARE], [(2, 2)],
                            errors.InvalidGraph, "dot (2, 2) not on any curve"),
}


def raised(f, *args) -> tuple:
    """The class and message of the error that ``f(*args)`` raises."""
    with pytest.raises(errors.LatPolyError) as info:
        f(*args)
    return info.type, str(info.value)


@pytest.mark.parametrize("case", sorted(INVALID_GRAPHS))
def test_build_rejection_classes(case):
    curves, dots, *want = INVALID_GRAPHS[case]
    got = raised(D.DottedGraph.build, curves, dots)
    if got != tuple(want):          # not an assert: the test also runs under -O
        pytest.fail(f"{case}: raised {got}, want {tuple(want)}")


@pytest.mark.parametrize("case", sorted(set(INVALID_GRAPHS) - {"fewer than 4 corners"}))
def test_analysis_rejects_what_build_rejects(case):
    # a graph made with the plain constructor is checked by its first
    # analysis, with the error that build raises
    curves, dots, *want = INVALID_GRAPHS[case]
    g = D.DottedGraph(D.normal_curves(curves), frozenset(dots))
    assert raised(D.analyze, g) == raised(D.DottedGraph.build, curves, dots) == tuple(want)


def test_empty_graph():
    g = D.empty_graph()
    assert g.is_empty()
    assert D.find_components(g) == []
    assert D.canonical_form(g) == D.canonical_form(D.empty_graph())


# --------------------------------------------------------- associate ----

def test_associate_square():
    g = D.associate(square_poly())
    assert len(g.curves) == 1
    assert len(g.dots) == 2
    an = D.analyze(g)
    labels = sorted(f.omega for f in an.arr.faces)
    assert labels == [0, 1]
    inner = [f for f in an.arr.faces if not f.unbounded]
    assert inner[0].omega == 1 and inner[0].area == 1


def test_associate_staircase_labels():
    g = D.associate(staircase_poly())
    an = D.analyze(g)
    bounded = [f for f in an.arr.faces if not f.unbounded]
    assert all(f.omega == 1 for f in bounded)
    assert sum(f.area for f in bounded) == 3
    assert len(g.dots) == 3


def test_associate_isolated_only():
    p = G.validate_polytope([(0, 0), (3, 3)], [(0, 0), (3, 3)])
    g = D.associate(p)
    assert g.is_empty()


def test_associate_labels_match_region_decomposition():
    rng = random.Random(31)
    for _ in range(40):
        p = random_polytope(rng)
        g = D.associate(p)
        an = D.analyze(g)
        got = sorted((f.omega, f.area) for f in an.arr.faces if not f.unbounded)
        arr = Arrangement(*segments_by_line([G.boundary_segments(p)]))
        want = sorted((f.omega, f.area) for f in arr.faces if not f.unbounded)
        assert got == want


def test_associate_satisfies_invariants_fuzz():
    rng = random.Random(17)
    for _ in range(60):
        p = random_polytope(rng)
        g = D.associate(p)           # build() validates all invariants
        an = D.analyze(g)
        # every dot sits on exactly one arc
        counted = sum(len(a.dots) for a in an.arcs)
        assert counted == len(g.dots)


@st.composite
def polytopes(draw, max_points=12):
    """An n-point polytope on the 3n x 3n grid, n <= max_points."""
    n = draw(st.integers(1, max_points))
    coords = st.lists(st.integers(0, 3 * n - 1), min_size=n, max_size=n, unique=True)
    xs, ys = draw(coords), draw(coords)
    ys1 = draw(st.permutations(ys))
    return G.validate_polytope(list(zip(xs, ys)), list(zip(xs, ys1)))


@settings(max_examples=100, deadline=None)
@given(polytopes())
def test_face_of_2x_matches_cell_lookup(p):
    an = D.analyze(D.associate(p))
    arr = an.arr
    for f in arr.faces:
        assert arr.face_of_2x(f.sample2) == f.index
    for cx, cy in an.crossings:
        for sx in (-1, 1):
            for sy in (-1, 1):
                cell = (arr.xs.index(cx) + (sx > 0), arr.ys.index(cy) + (sy > 0))
                assert arr.face_of_2x((2 * cx + sx, 2 * cy + sy)) == arr.face_of_cell(cell)
    for a in an.arcs:
        # the two sides of the arc's first piece
        assert (an.left_face[a.key], an.right_face[a.key]) == reference_sides(arr, a)
        # the cell beside each point inside a piece, on either side, as
        # deform._quarter_beside reads it
        for (x0, y0), (x1, y1) in a.pieces:
            d = D._direction((x0, y0), (x1, y1))
            for t in range(1, abs(x1 - x0) + abs(y1 - y0)):
                qx, qy = x0 + t * d[0], y0 + t * d[1]
                for nx, ny in ((-d[1], d[0]), (d[1], -d[0])):
                    assert arr.cell_of_2x((2 * qx + (nx or 1), 2 * qy + (ny or 1))) == \
                        reference_cell_beside(arr, (qx, qy), (nx, ny))


@settings(max_examples=150, deadline=None)
@given(polytopes())
def test_associate_crossings_and_segments_match_edges(p):
    g = D.associate(p)
    brute = {(c.x, a.y) for a, b in G.x_edges(p) for c, d in G.y_edges(p)
             if min(a.x, b.x) < c.x < max(a.x, b.x) and min(c.y, d.y) < a.y < max(c.y, d.y)}
    assert set(D.analyze(g).crossings) == brute
    assert {seg for _, _, seg in D.all_segments(g)} == set(G.boundary_segments(p))


@settings(max_examples=150, deadline=None)
@given(polytopes())
def test_no_vertex_lies_inside_an_edge(p):
    vertices = p.ver0.points | p.ver1.points
    for a, b in G.x_edges(p):
        assert not any(q.y == a.y and min(a.x, b.x) < q.x < max(a.x, b.x) for q in vertices)
    for a, b in G.y_edges(p):
        assert not any(q.x == a.x and min(a.y, b.y) < q.y < max(a.y, b.y) for q in vertices)


@st.composite
def segment_systems(draw):
    """The segments of a random dotted graph, of the same graph at working
    scale, or of a polytope boundary."""
    kind = draw(st.sampled_from(("graph", "scaled", "polytope")))
    if kind == "polytope":
        return G.boundary_segments(draw(polytopes()))
    g = O.random_dotted_graph(draw(st.randoms(use_true_random=False)),
                              require_all_dotted=False)
    if kind == "scaled":
        g = D.scaled(D.normalized(g), 16)
    return [seg for _, _, seg in D.all_segments(g)]


def gap2(lines, k):
    """A doubled coordinate strictly inside the k-th gap of sorted lines."""
    ext = [lines[0] - 1] + lines + [lines[-1] + 1] if lines else [-1, 1]
    return ext[k] + ext[k + 1]


def on_a_segment(p2, segs):
    return any(2 * min(x1, x2) <= p2[0] <= 2 * max(x1, x2) and
               2 * min(y1, y2) <= p2[1] <= 2 * max(y1, y2)
               for (x1, y1), (x2, y2) in segs)


@settings(max_examples=200, deadline=None)
@given(segment_systems())
def test_arrangement_matches_ray_cast_and_segment_cover(segs):
    # cells are visited in index order: column-major, bottom to top
    arr = Arrangement(*segments_by_line([segs]))
    ncol, nrow = len(arr.xs) + 1, len(arr.ys) + 1
    first_seen = []
    for c in range(ncol):
        x2 = gap2(arr.xs, c)
        for r in range(nrow):
            y2 = gap2(arr.ys, r)
            f = arr.face_of_cell((c, r))
            if f not in first_seen:
                first_seen.append(f)
            assert arr.faces[f].omega == winding_2x((x2, y2), segs)
            if c + 1 < ncol:
                open_border = not on_a_segment((2 * arr.xs[c], y2), segs)
                assert (arr.face_of_cell((c + 1, r)) == f) == open_border
            if r + 1 < nrow:
                open_border = not on_a_segment((x2, 2 * arr.ys[r]), segs)
                assert (arr.face_of_cell((c, r + 1)) == f) == open_border
    assert first_seen == [face.index for face in arr.faces] == list(range(len(arr.faces)))


# -------------------------------------------------------- components ----

def test_components_square():
    g = D.associate(square_poly())
    comps = D.find_components(g)
    assert len(comps) == 1
    c = comps[0]
    assert c.kind == "circle"
    assert c.disk_label == 1 and c.outside_label == 0
    assert c.orientation == 1


def test_components_figure_eight_loops():
    g = figure_eight()
    comps = D.find_components(g)
    kinds = sorted(c.kind for c in comps)
    assert kinds == ["loop", "loop"]
    labels = sorted(c.disk_label for c in comps)
    assert labels == [-1, 1]
    for c in comps:
        assert c.apex == (1, 0)
        assert c.outside_label == 0
        # re-walk the certificate: arcs form the boundary, boundary is closed
        an = D.analyze(g)
        pts = []
        for key in c.arcs:
            pts.extend(an.arcs_by_key[key].path[:-1])
        assert tuple(pts) == c.boundary


def test_components_nested():
    g = nested_circles((True, True))
    comps = D.find_components(g)
    assert [c.kind for c in comps] == ["circle", "circle"]
    by_label = {c.disk_label: c for c in comps}
    assert set(by_label) == {1, 2}
    assert by_label[2].outside_label == 1


def test_certificates_reverify():
    # walking the certified arcs reproduces the claimed disk
    for g in (D.associate(staircase_poly()), figure_eight(), nested_circles()):
        an = D.analyze(g)
        for c in D.find_components(g):
            from latpoly.arrangement import winding_2x
            segs = D.curve_segments(c.boundary)
            disk = frozenset(f.index for f in an.arr.faces
                             if winding_2x(f.sample2, segs) != 0)
            assert disk == c.disk_faces
            assert all(an.arcs_by_key[k] for k in c.arcs)


# ---------------------------------------------------- analysis layers ----

def reference_sides(arr, a):
    """The former side faces of an arc, (left, right), by index arithmetic
    on the grid lines through its first piece's start."""
    p0, p1 = a.path[0], a.path[1]
    d = D._direction(p0, p1)
    if d[0]:
        row = arr.ys.index(p0[1])
        col = arr.xs.index(p0[0]) + (1 if d[0] > 0 else 0)
        north, south = arr.face_of_cell((col, row + 1)), arr.face_of_cell((col, row))
        return (north, south) if d[0] > 0 else (south, north)
    col = arr.xs.index(p0[0])
    row = arr.ys.index(p0[1]) + (1 if d[1] > 0 else 0)
    west, east = arr.face_of_cell((col, row)), arr.face_of_cell((col + 1, row))
    return (west, east) if d[1] > 0 else (east, west)


class reference_analysis:
    """The one-layer analysis that ``GraphAnalysis`` replaced: everything is
    rebuilt per graph, and each dot is placed by a scan over its curve's
    segments."""

    def __init__(self, g):
        self.g = g
        found, v_by_x, h_by_y = D._segment_pass(g.curves)
        for d in g.dots:
            if d in found:
                raise errors.DotOnCrossing(f"dot at crossing {d}")
            x, y = d
            if not any(lo <= y <= hi for lo, hi, *_ in v_by_x.get(x, ())) and \
                    not any(lo <= x <= hi for lo, hi, *_ in h_by_y.get(y, ())):
                raise errors.InvalidGraph(f"dot {d} not on any curve")
        self.crossings = found
        self.arr = Arrangement(*segments_by_line([[seg for _, _, seg in D.all_segments(g)]]))
        self.arcs = self._build_arcs()
        self.arcs_by_key = {a.key: a for a in self.arcs}
        self._sides()
        self._arm_map()
        self.circles, self.loops = self._components()

    def label(self, fid):
        return self.arr.faces[fid].omega

    def _build_arcs(self):
        g = self.g
        arcs = []
        cross_on = {}
        for p, ((hc, hi), (vc, vi)) in self.crossings.items():
            cross_on.setdefault((hc, hi), []).append(p)
            cross_on.setdefault((vc, vi), []).append(p)
        for ci, curve in enumerate(g.curves):
            n = len(curve)
            seg_start = [0] * n
            run = 0
            for si in range(n):
                seg_start[si] = run
                a, b = curve[si], curve[(si + 1) % n]
                run += abs(b[0] - a[0]) + abs(b[1] - a[1])
            perimeter = run

            def scalar(si, p):
                a = curve[si]
                return seg_start[si] + abs(p[0] - a[0]) + abs(p[1] - a[1])

            cuts = []
            for si in range(n):
                for p in cross_on.get((ci, si), ()):
                    cuts.append((scalar(si, p), p))
            dots_here = []
            for d in g.dots:
                pos = self._dot_position(ci, d)
                if pos is not None:
                    dots_here.append((scalar(*pos), d))
            dots_here.sort()
            if not cuts:
                arcs.append(D.Arc(ci, curve, True, tuple(d for _, d in dots_here)))
                continue
            cuts.sort()
            corner_at = sorted((seg_start[j], j) for j in range(n))
            m = len(cuts)
            for k in range(m):
                sa, ap = cuts[k]
                sb, bp = cuts[(k + 1) % m]
                span = (sb - sa) % perimeter or perimeter
                mids = sorted(((off - sa) % perimeter, curve[j]) for off, j in corner_at
                              if 0 < (off - sa) % perimeter < span)
                path = [ap] + [pt for _, pt in mids] + [bp]
                arc_dots = sorted(((sd - sa) % perimeter, d) for sd, d in dots_here
                                  if ((sd - sa) % perimeter) < span)
                arcs.append(D.Arc(ci, tuple(path), False, tuple(d for _, d in arc_dots)))
        return arcs

    def _dot_position(self, ci, d):
        curve = self.g.curves[ci]
        n = len(curve)
        for si in range(n):
            seg = (curve[si], curve[(si + 1) % n])
            if D._on_segment(d, seg) and d != seg[1]:
                return (si, d)
        return None

    def _sides(self):
        self.left_face, self.right_face = {}, {}
        for a in self.arcs:
            self.left_face[a.key], self.right_face[a.key] = reference_sides(self.arr, a)

    def _arm_map(self):
        arms = {}
        for a in self.arcs:
            if a.closed:
                continue
            arms[(a.start, a.start_dir)] = (a.key, "out")
            d = a.end_dir
            arms[(a.end, (-d[0], -d[1]))] = (a.key, "in")
        self.arms = arms

    def _components(self):
        self_crossing = {hc for (hc, _), (vc, _) in self.crossings.values() if hc == vc}
        circles = []
        for ci, curve in enumerate(self.g.curves):
            if ci in self_crossing:
                continue
            arcs = tuple(a.key for a in self.arcs if a.curve == ci)
            cert = self._certify("circle", ci, arcs, curve, None)
            if cert is not None:
                circles.append(cert)
        loops = []
        for c, ((hc, hi), (vc, vi)) in sorted(self.crossings.items()):
            if hc != vc:
                continue
            hseg = D.curve_segments(self.g.curves[hc])[hi]
            vseg = D.curve_segments(self.g.curves[vc])[vi]
            for out_dir in (D._direction(*hseg), D._direction(*vseg)):
                chain = self._excursion(c, out_dir)
                if chain is None:
                    continue
                boundary = tuple(p for a in chain for p in a.path[:-1])
                cert = self._certify("loop", hc, tuple(a.key for a in chain), boundary, c)
                if cert is not None:
                    loops.append(cert)
        circles.sort(key=lambda c: (c.curve,))
        loops.sort(key=lambda c: (c.apex, c.boundary))
        return circles, loops

    def _excursion(self, c, out_dir):
        first = self.arms.get((c, out_dir))
        if first is None or first[1] != "out":
            return None
        chain = [self.arcs_by_key[first[0]]]
        seen_cross = set()
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
        if chain[-1].end_dir[0] != 0 and out_dir[0] != 0:
            return None
        if chain[-1].end_dir[1] != 0 and out_dir[1] != 0:
            return None
        return chain

    def _certify(self, kind, curve, arcs, boundary, apex):
        segs = D.curve_segments(boundary)
        try:
            for i in range(len(boundary)):
                D._direction(boundary[i], boundary[(i + 1) % len(boundary)])
        except errors.InvalidGraph:
            return None
        if len(set(boundary)) != len(boundary):
            return None
        if kind == "loop":
            first, last = self.arcs_by_key[arcs[0]], self.arcs_by_key[arcs[-1]]
            out_dir = first.start_dir
            ed = last.end_dir
            in_dir = (-ed[0], -ed[1])
            quad = (2 * apex[0] + out_dir[0] + in_dir[0], 2 * apex[1] + out_dir[1] + in_dir[1])
            if winding_2x(quad, segs) == 0:
                return None
            for d in D.CCW_DIRS:
                if d not in (out_dir, in_dir) and \
                        winding_2x((2 * apex[0] + d[0], 2 * apex[1] + d[1]), segs) != 0:
                    return None
        disk = frozenset(f.index for f in self.arr.faces if winding_2x(f.sample2, segs) != 0)
        if not disk:
            return None
        lf, rf = self.left_face[arcs[0]], self.right_face[arcs[0]]
        orientation = winding_2x(self.arr.faces[next(iter(disk))].sample2, segs)
        if lf in disk and rf not in disk:
            disk_label, outside_label = self.label(lf), self.label(rf)
        elif rf in disk and lf not in disk:
            disk_label, outside_label = self.label(rf), self.label(lf)
        else:
            return None
        return D.ComponentCert(kind, curve, arcs, boundary, disk, apex,
                               orientation, disk_label, outside_label)


def analysis_fields(an):
    """Every public field of an analysis, dict fields with their order."""
    return (an.g, list(an.crossings.items()), vars(an.arr), an.arcs,
            list(an.arcs_by_key.items()), list(an.left_face.items()),
            list(an.right_face.items()), list(an.arms.items()), an.circles, an.loops,
            [an.label(f.index) for f in an.arr.faces])


def analysis_or_error(analysis, g):
    try:
        return analysis_fields(analysis(g))
    except errors.LatPolyError as e:
        return type(e), str(e)


@st.composite
def analysed_graphs(draw):
    """A random dotted graph, the same at working scale, or the graph of a
    polytope with n <= 12."""
    kind = draw(st.sampled_from(("graph", "scaled", "polytope")))
    if kind == "polytope":
        return D.associate(draw(polytopes()))
    g = O.random_dotted_graph(draw(st.randoms(use_true_random=False)),
                              require_all_dotted=False)
    return D.scaled(D.normalized(g), 16) if kind == "scaled" else g


@settings(max_examples=200, deadline=None)
@given(analysed_graphs(), st.randoms(use_true_random=False))
def test_analysis_matches_reference(g, rng):
    # re-dottings of g's curves share g's geometry while its analysis lives:
    # some dots dropped, moved to any point of a segment (a corner, a
    # crossing) or added, and now and then one put off every curve
    an = D.analyze(g)
    assert analysis_fields(an) == analysis_fields(reference_analysis(g))
    segs = [seg for _, _, seg in D.all_segments(g)]
    xs, ys = D.coordinate_values(g)
    for _ in range(4):
        dots = {d for d in g.dots if rng.random() < 0.6}
        for _ in range(rng.randint(0, 4) if segs else 0):
            (x1, y1), (x2, y2) = rng.choice(segs)
            dots.add((rng.randint(min(x1, x2), max(x1, x2)),
                      rng.randint(min(y1, y2), max(y1, y2))))
        if xs and rng.random() < 0.1:
            dots.add((rng.randint(xs[0] - 1, xs[-1] + 1), rng.randint(ys[0] - 1, ys[-1] + 1)))
        h = D.DottedGraph(g.curves, frozenset(dots))
        assert analysis_or_error(D.GraphAnalysis, h) == \
            analysis_or_error(reference_analysis, h)
    assert an.geometry is D.GraphAnalysis(D.DottedGraph(g.curves, frozenset())).geometry


# the point-on-curve scans that ``CurveGeometry.locate`` replaced, as they
# were in deform, formats and the arrangement

def reference_curve_of_point(g, q):
    for ci, curve in enumerate(g.curves):
        n = len(curve)
        for i in range(n):
            if D._on_segment(q, (curve[i], curve[(i + 1) % n])):
                return ci
    raise errors.RoutingFailure(f"{q} not on any curve")


def reference_path_between(curve, qa, qb):
    n = len(curve)
    seg_start = []
    run = 0
    for i in range(n):
        seg_start.append(run)
        a, b = curve[i], curve[(i + 1) % n]
        run += abs(b[0] - a[0]) + abs(b[1] - a[1])

    def scalar(p):
        for i in range(n):
            a, b = curve[i], curve[(i + 1) % n]
            if D._on_segment(p, (a, b)) and p != b:
                return seg_start[i] + abs(p[0] - a[0]) + abs(p[1] - a[1])
        raise errors.RoutingFailure(f"{p} not on curve")

    sa, sb = scalar(qa), scalar(qb)
    span = (sb - sa) % run or run
    mids = []
    for i in range(n):
        rel = (seg_start[i] - sa) % run
        if 0 < rel < span:
            mids.append((rel, curve[i]))
    mids.sort()
    return [qa] + [p for _, p in mids] + [qb]


def reference_locate_dot(g, d):
    for ci, curve in enumerate(g.curves):
        n = len(curve)
        for si in range(n):
            seg = (curve[si], curve[(si + 1) % n])
            if D._on_segment(d, seg) and d != seg[1]:
                off = abs(d[0] - seg[0][0]) + abs(d[1] - seg[0][1])
                return ci, si, off
    raise errors.ParseError(f"dot {d} not on any curve")


class reference_segment_cover:
    """The arrangement's own copy of the segments by line, and its
    ``on_any_segment``."""

    def __init__(self, segs):
        self._v_by_x = {}
        self._h_by_y = {}
        for seg in segs:
            (x1, y1), (x2, y2) = seg
            if x1 == x2:
                lo, hi = sorted((y1, y2))
                self._v_by_x.setdefault(x1, []).append((lo, hi, 1 if y2 > y1 else -1))
            else:
                lo, hi = sorted((x1, x2))
                self._h_by_y.setdefault(y1, []).append((lo, hi, 1 if x2 > x1 else -1))

    def on_any_segment(self, p):
        x, y = p
        for lo, hi, _ in self._v_by_x.get(x, ()):
            if lo <= y <= hi:
                return True
        for lo, hi, _ in self._h_by_y.get(y, ()):
            if lo <= x <= hi:
                return True
        return False


def outcome(f, *args):
    try:
        return f(*args)
    except errors.LatPolyError as e:
        return type(e), str(e)


@settings(max_examples=200, deadline=None)
@given(analysed_graphs(), st.randoms(use_true_random=False))
def test_locate_matches_reference_scans(g, rng):
    # probes: corners, crossings, points inside segments, points one step
    # past a segment's end along its line, and points anywhere near
    geo = D.analyze(g).geometry
    segs = [seg for _, _, seg in D.all_segments(g)]
    cover = reference_segment_cover(segs)
    probes = [p for c in g.curves for p in c] + list(geo.crossings)
    for (x1, y1), (x2, y2) in segs:
        probes.append((rng.randint(min(x1, x2), max(x1, x2)),
                       rng.randint(min(y1, y2), max(y1, y2))))
        probes.append((x2 + (x2 > x1) - (x2 < x1), y2 + (y2 > y1) - (y2 < y1)))
    xs, ys = D.coordinate_values(g)
    if xs:
        probes += [(rng.randint(xs[0] - 1, xs[-1] + 1), rng.randint(ys[0] - 1, ys[-1] + 1))
                   for _ in range(8)]
    for p in probes:
        assert (geo.locate(p) is not None) == cover.on_any_segment(p)
        assert outcome(DF._curve_of_point, geo, p) == outcome(reference_curve_of_point, g, p)
        assert outcome(F._locate_dot, geo, p) == outcome(reference_locate_dot, g, p)
    on_curve = [p for p in probes if geo.locate(p) is not None]
    pairs = [(q, q) for q in on_curve[:10]]
    pairs += [(rng.choice(on_curve), rng.choice(on_curve)) for _ in range(40 if on_curve else 0)]
    for qa, qb in pairs:
        ci = reference_curve_of_point(g, qa)
        want = outcome(reference_path_between, g.curves[ci], qa, qb)
        got = outcome(DF._path_between, geo, ci, qa, qb)
        if got != want:
            # the one difference, on no caller's path: a crossing of two
            # curves is located on the lesser, so a walk along the greater
            # does not find it
            (hc, _), (vc, _) = geo.crossings[qb]
            assert hc != vc and ci == max(hc, vc) and isinstance(want, list)
            assert got == (errors.RoutingFailure, f"{qb} not on curve")


def test_graphs_with_equal_curves_share_one_geometry():
    g1, g2 = figure_eight(1), figure_eight(2)
    a1, a2 = D.analyze(g1), D.analyze(g2)
    assert a1.arr is a2.arr and a1.circles is a2.circles
    assert [a.dots for a in a1.arcs] == [a.dots for a in reference_analysis(g1).arcs]
    assert [a.dots for a in a2.arcs] == [a.dots for a in reference_analysis(g2).arcs]
    assert [len(a.dots) for a in a1.arcs] == [1, 1]
    assert [len(a.dots) for a in a2.arcs] == [2, 2]
    del a1, a2
    D.analyze.cache_clear()
    gc.collect()
    assert len(D._GEOMETRIES) == 0


def drop_last_arc(setattr):
    build = D.CurveGeometry._build_arcs

    def build_all_but_the_last(self):
        build(self)
        self.arcs.pop()
    setattr(D.CurveGeometry, "_build_arcs", build_all_but_the_last)


def double_windings(setattr):
    setattr(D, "winding_2x", lambda p2, segs: 2 * winding_2x(p2, segs))


# case -> (patch of the analysis, graph, message of the InvalidGraph raised)
BROKEN_ANALYSES = {
    "missing arm": (drop_last_arc, figure_eight, "missing arm (-1, 0) at crossing (1, 0)"),
    "winding 2": (double_windings, circle_graph,
                  "circle boundary winds 2 times around its disk"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_ANALYSES))
def test_broken_analysis_raises_typed_error(case, monkeypatch):
    patch, graph, message = BROKEN_ANALYSES[case]
    patch(monkeypatch.setattr)
    with pytest.raises(errors.InvalidGraph) as info:
        D.CurveGeometry(graph().curves)
    assert str(info.value) == message
    here = os.path.dirname(os.path.abspath(__file__))
    code = ("import test_dotgraph as T\n"
            f"patch, graph, _ = T.BROKEN_ANALYSES[{case!r}]\n"
            "patch(setattr)\n"
            "T.D.CurveGeometry(graph().curves)\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(here, os.pardir, "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", code], cwd=here, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert f"latpoly.errors.InvalidGraph: {message}" in proc.stderr


def jogs_on_a_short_piece(setattr):
    # one jog spans 4 units and needs 4 more on each side
    D._jog_points((0, 0), (11, 0), 2)


def jitter_a_straight_corner(setattr):
    # built without validation: (2, 0) is a corner on a straight run
    D._jitter_lines(D.DottedGraph((((0, 0), (2, 0), (4, 0), (4, 2), (0, 2)),), frozenset()))


def shoelace_of_a_triangle(setattr):
    setattr(G, "boundary_cycles", lambda p: [[G.P(0, 0), G.P(1, 0), G.P(0, 1)]])
    G.shoelace_total(square_poly())


# case -> (call, error class, message): checks that once were asserts
BROKEN_CALLS = {
    "jog on a short piece": (jogs_on_a_short_piece, errors.RoutingFailure,
                             "arc piece too short for jog insertion"),
    "jitter without a turn": (jitter_a_straight_corner, errors.InvalidGraph,
                              "curve 0 does not turn at (2, 0)"),
    "odd shoelace area": (shoelace_of_a_triangle, errors.InvalidGraph,
                          "boundary cycles enclose an odd doubled area 1"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_CALLS))
def test_broken_calls_raise_typed_errors(case, monkeypatch):
    call, error, message = BROKEN_CALLS[case]
    with pytest.raises(error) as info:
        call(monkeypatch.setattr)
    assert str(info.value) == message
    here = os.path.dirname(os.path.abspath(__file__))
    code = ("import test_dotgraph as T\n"
            f"T.BROKEN_CALLS[{case!r}][0](setattr)\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(here, os.pardir, "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", code], cwd=here, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert f"{error.__name__}: {message}" in proc.stderr


# --------------------------------------------------- coordinate maps ----

def built_image(g, fx, fy):
    return D.DottedGraph.build([[(fx[x], fy[y]) for x, y in c] for c in g.curves],
                               [(fx[x], fy[y]) for x, y in g.dots])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 20))
def test_transform_coords_equals_build(seed, k):
    # a strictly increasing map needs no re-validation or re-normalization
    rng = random.Random(seed)
    g = O.random_dotted_graph(rng, require_all_dotted=rng.random() < 0.5)
    for _ in range(rng.randint(0, 2)):
        moves = DF.enumerate_moves(g)
        after = DF.apply_move(g, rng.choice(moves)).after if moves else g
        g = g if after.is_empty() else after
    xs, ys = D.coordinate_values(g)

    def increasing_map(values):
        """A strictly increasing, non-uniform map: random positive gaps."""
        out, t = {}, rng.randint(-20, 20)
        for v in values:
            t += rng.randint(1, 9)
            out[v] = t
        return out

    fx, fy = increasing_map(xs), increasing_map(ys)
    out, gx, gy = D.renormalize(g)
    pairs = [(out, built_image(g, gx, gy)),
             (D.scaled(g, k), built_image(g, {x: k * x for x in xs}, {y: k * y for y in ys})),
             (D.transform_coords(g, fx, fy), built_image(g, fx, fy))]
    for got, want in pairs:
        assert got == want
        points = [p for c in got.curves for p in c] + list(got.dots)
        assert {type(p) for p in points} <= {G.GridPoint}


@pytest.mark.parametrize("fx", [{0: 0, 4: 0}, {0: 4, 4: 0}, {0: 0, 2: 5, 4: 3}])
def test_transform_coords_rejects_maps_that_do_not_increase(fx):
    g = circle_graph()
    ident = {0: 0, 4: 4}
    for maps in ((fx, ident), (ident, fx)):
        with pytest.raises(ValueError, match="^coordinate map is not strictly increasing$"):
            D.transform_coords(g, *maps)


# ------------------------------------------------------- equivalence ----

def test_equivalence_dot_collapse():
    g3 = circle_graph(dots=3)
    g1 = circle_graph(dots=1)
    assert D.equivalent_mod_E_I(g3, g1)


def test_equivalence_orientation_matters():
    assert not D.equivalent_mod_E_I(circle_graph(ccw=True), circle_graph(ccw=False))


def test_equivalence_isotopy_invariance():
    a = D.DottedGraph.build([[(0, 0), (5, 0), (5, 7), (0, 7)]], [(0, 0), (5, 0)])
    b = D.DottedGraph.build([[(2, 1), (3, 1), (3, 2), (2, 2)]], [(2, 1), (3, 1)])
    assert D.equivalent_mod_E_I(a, b)


def test_equivalence_nesting_vs_side_by_side():
    nested = nested_circles((True, False))
    side = D.DottedGraph.build(
        [circle(0, 0, 4, 4, ccw=True)[0], circle(6, 0, 4, 4, ccw=False)[0]],
        [(0, 0), (6, 0)])
    assert not D.equivalent_mod_E_I(nested, side)


def test_equivalence_properties_on_corpus():
    rng = random.Random(13)
    graphs = [D.associate(random_polytope(rng)) for _ in range(25)]
    forms = [D.canonical_form(g) for g in graphs]
    for g, f in zip(graphs, forms):
        assert D.canonical_form(g) == f              # reflexive / stable
    for i in range(len(graphs)):
        for j in range(len(graphs)):
            eq = D.equivalent_mod_E_I(graphs[i], graphs[j])
            assert eq == (forms[i] == forms[j])      # symmetric + transitive


# -------------------------------------------------------- admissible ----

def test_admissible_sufficient():
    assert D.is_admissible_sufficient(circle_graph(dots=2))
    assert not D.is_admissible_sufficient(circle_graph(dots=1))
    assert D.is_admissible_sufficient(D.empty_graph())


# ----------------------------------------------------------- realize ----

def test_realize_circle_roundtrip():
    g = circle_graph(dots=2)
    p = D.realize(g)
    assert D.equivalent_mod_E_I(D.associate(p), g)


def test_realize_figure_eight_roundtrip():
    g = figure_eight(dots_per_lobe=2)
    p = D.realize(g)
    assert D.equivalent_mod_E_I(D.associate(p), g)


def test_realize_nested_roundtrip():
    for orients in [(True, True), (True, False), (False, True), (True, True, False)]:
        g = nested_circles(orients, dots=2)
        p = D.realize(g)
        assert D.equivalent_mod_E_I(D.associate(p), g)


def test_realize_requires_two_dots():
    with pytest.raises(errors.UndottedArc):
        D.realize(circle_graph(dots=1))


def test_realize_empty():
    p = D.realize(D.empty_graph())
    assert len(p.ver0) == 0 and len(p.ver1) == 0


def test_realize_polytope_graphs_roundtrip():
    rng = random.Random(41)
    done = 0
    for _ in range(200):
        p = random_polytope(rng)
        g = D.associate(p)
        if g.is_empty() or not D.is_admissible_sufficient(g):
            continue
        q = D.realize(g)
        assert D.equivalent_mod_E_I(D.associate(q), g)
        done += 1
    assert done >= 20
