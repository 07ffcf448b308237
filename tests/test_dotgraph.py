import random

import pytest
from hypothesis import given, settings, strategies as st

from latpoly import errors, geometry as G, oracle as O
from latpoly import dotgraph as D
from latpoly.arrangement import Arrangement, winding_2x


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


INVALID_GRAPHS = {
    "non-axis step": ([[(0, 0), (4, 0), (4, 4), (1, 3)]], []),
    "fewer than 4 corners": ([[(0, 0), (4, 0), (4, 4)]], []),
    "coincident corners": ([SQUARE, [(4, 4), (8, 4), (8, 8), (4, 8)]], []),
    "horizontal overlap": ([SQUARE, [(1, 0), (3, 0), (3, -4), (1, -4)]], []),
    "vertical overlap": (transposed([SQUARE, [(1, 0), (3, 0), (3, -4), (1, -4)]]), []),
    "corner inside a horizontal segment":
        ([SQUARE, [(3, 0), (7, 0), (7, -4), (3, -4)]], []),
    "corner inside a vertical segment":
        (transposed([SQUARE, [(3, 0), (7, 0), (7, -4), (3, -4)]]), []),
    "dot on a crossing": ([[(0, 0), (2, 0), (2, 2), (1, 2), (1, -1), (0, -1)]], [(1, 0)]),
    "dot off every curve": ([SQUARE], [(2, 2)]),
}


@pytest.mark.parametrize("case", sorted(INVALID_GRAPHS))
def test_build_rejection_classes(case):
    curves, dots = INVALID_GRAPHS[case]
    want = errors.DotOnCrossing if case == "dot on a crossing" else errors.InvalidGraph
    with pytest.raises(errors.InvalidGraph) as info:
        D.DottedGraph.build(curves, dots)
    if info.type is not want:       # not an assert: the test also runs under -O
        pytest.fail(f"{case}: raised {info.type.__name__}, want {want.__name__}")


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
        want = sorted((r.omega, r.area) for r in G.region_decomposition(p).regions
                      if not r.unbounded)
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
    arr = Arrangement(segs)
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
