"""The plane-map canonical form against the colour-refinement form it
replaced: both must split graphs into the same classes.  And the form that
``form_after_deletion`` reads off for a circle or loop deletion against the
form of the graph the deletion builds."""
import random
import time
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from latpoly import deform as DF, dotgraph as D, errors, geometry as G, oracle as O, reduce as R


def reference_form(g: D.DottedGraph) -> str:
    """The former ``canonical_form``: colour refinement plus
    individualization on the labeled incidence graph of faces, arcs,
    crossings and darts.  Exact, but factorial on symmetric graphs."""
    an = D.analyze(g)
    nodes: list = []
    color: dict = {}

    def add(key, col):
        nodes.append(key)
        color[key] = col

    for f in an.arr.faces:
        add(("F", f.index), ("F", f.omega, f.unbounded))
    for a in an.arcs:
        add(("A", a.key), ("A", bool(a.dots), a.closed))
    for c in sorted(an.crossings):
        add(("C", c), ("C",))
        for d in D.CCW_DIRS:
            add(("D", c, d), ("D",))

    edges: list[tuple[str, tuple, tuple]] = []
    for c in sorted(an.crossings):
        for i, d in enumerate(D.CCW_DIRS):
            nd = D.CCW_DIRS[(i + 1) % 4]
            edges.append(("r", ("D", c, d), ("D", c, nd)))
            edges.append(("c", ("D", c, d), ("C", c)))
            arc_key, role = an.arms[(c, d)]
            edges.append(("t" if role == "out" else "h", ("A", arc_key), ("D", c, d)))
    for a in an.arcs:
        edges.append(("l", ("A", a.key), ("F", an.left_face[a.key])))
        edges.append(("g", ("A", a.key), ("F", an.right_face[a.key])))

    idx = {k: i for i, k in enumerate(nodes)}
    n = len(nodes)
    adj: list[list[tuple[str, str, int]]] = [[] for _ in range(n)]
    for et, a, b in edges:
        adj[idx[a]].append((et, "o", idx[b]))
        adj[idx[b]].append((et, "i", idx[a]))
    init = [color[k] for k in nodes]

    def refine(cols):
        while True:
            keys = [(cols[v], tuple(sorted((et, d, cols[u]) for et, d, u in adj[v])))
                    for v in range(n)]
            ranking = {k: r for r, k in enumerate(sorted(set(keys)))}
            new = [ranking[k] for k in keys]
            if new == cols:
                return cols
            cols = new

    def compress(vals):
        ranking = {k: r for r, k in enumerate(sorted(set(vals)))}
        return [ranking[v] for v in vals]

    def encode(cols):
        order = sorted(range(n), key=lambda v: cols[v])
        pos = {v: i for i, v in enumerate(order)}
        parts = [repr(init[v]) for v in order]
        es = sorted((et, pos[idx[a]], pos[idx[b]]) for et, a, b in edges)
        return "|".join(parts) + "#" + ";".join(f"{t}{x},{y}" for t, x, y in es)

    def canon(cols):
        cols = refine(cols)
        groups: dict[int, list[int]] = {}
        for v in range(n):
            groups.setdefault(cols[v], []).append(v)
        multi = [c for c, vs in groups.items() if len(vs) > 1]
        if not multi:
            return encode(cols)
        best = None
        for v in groups[min(multi)]:
            trial = list(cols)
            trial[v] = n + 1
            enc = canon(compress(trial))
            if best is None or enc < best:
                best = enc
        return best

    return canon(compress([repr(c) for c in init]))


def _random_polytope(rng, n):
    xs = rng.sample(range(2 * n), n)
    ys = rng.sample(range(2 * n), n)
    ys1 = ys[:]
    rng.shuffle(ys1)
    return G.validate_polytope(list(zip(xs, ys)), list(zip(xs, ys1)))


def _population() -> list[D.DottedGraph]:
    """Random dotted graphs, associated polytopes and their good-reduction
    states, the one-move successors of some of them, and moved copies."""
    rng = random.Random(2024)
    graphs = [O.random_dotted_graph(random.Random(f"confluence/{i}")) for i in range(56)]
    graphs += [O.random_dotted_graph(rng, require_all_dotted=bool(i % 2)) for i in range(200)]
    for n in range(3, 12):
        for _ in range(6):
            graphs.extend(R.good_reduce(D.associate(_random_polytope(rng, n))).graphs())
    graphs = list(dict.fromkeys(graphs))
    for g in graphs[::2]:
        for m in DF.enumerate_moves(g):
            try:
                graphs.append(DF.apply_move(g, m).after)
            except errors.LatPolyError:
                continue
    graphs = list(dict.fromkeys(graphs))
    return graphs + [D.scaled(D.normalized(g), 3) for g in graphs[::6]]


def test_partition_matches_reference():
    graphs = _population()
    assert len(graphs) >= 1500
    new_of_ref: dict[str, str] = {}
    ref_of_new: dict[str, str] = {}
    for g in graphs:
        new, ref = D.canonical_form(g), reference_form(g)
        assert new_of_ref.setdefault(ref, new) == new
        assert ref_of_new.setdefault(new, ref) == ref
    assert len(new_of_ref) >= 300


def _squares(k, side=2, gap=1, x0=0, y0=0):
    return [[(x0 + j * (side + gap), y0), (x0 + j * (side + gap) + side, y0),
             (x0 + j * (side + gap) + side, y0 + side), (x0 + j * (side + gap), y0 + side)]
            for j in range(k)]


def test_symmetric_graphs_are_fast():
    curves = _squares(10)
    g = D.DottedGraph.build(curves, [c[0] for c in curves])
    t = time.perf_counter()
    form = D.canonical_form(g)
    assert time.perf_counter() - t < 1.0
    assert form.count("O1") == 10

    # four identical squares, each holding three identical squares; moving
    # the inner squares of one is an isotopy, moving one into another is not
    def nested(shift_first, move_one):
        outer = _squares(4, side=12, gap=2)
        inner = [_squares(3, x0=14 * j + 2, y0=6 if shift_first and j == 0 else 2)
                 for j in range(4)]
        if move_one:
            inner[3].append(inner[0].pop()[:])
            inner[3][-1] = [(x + 42, y + 4) for x, y in inner[3][-1]]
        curves = outer + [sq for group in inner for sq in group]
        return D.DottedGraph.build(curves, [c[0] for c in curves])

    t = time.perf_counter()
    form = D.canonical_form(nested(False, False))
    assert time.perf_counter() - t < 1.0
    assert D.canonical_form(nested(True, False)) == form
    assert D.canonical_form(nested(False, True)) != form


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 4))
def test_form_is_invariant_under_renormalize_and_scaled(seed, k):
    g = O.random_dotted_graph(random.Random(seed), require_all_dotted=False)
    form = D.canonical_form(g)
    assert D.canonical_form(D.renormalize(g)[0]) == form
    assert D.canonical_form(D.scaled(g, k)) == form


def _square(x0, y0, side, ccw):
    sq = [(x0, y0), (x0 + side, y0), (x0 + side, y0 + side), (x0, y0 + side)]
    return sq if ccw else [sq[0]] + sq[:0:-1]


@st.composite
def graphs_with_circles(draw):
    """Nested squares alone, or a random dotted graph inside up to two
    enclosing squares; every added square has a random orientation and
    zero to two dots."""
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        curves, dots, inner = [], [], 0
    else:
        g = O.random_dotted_graph(rng, require_all_dotted=False)
        xs, ys = D.coordinate_values(g)        # moved to lie strictly inside [0, inner]^2
        curves = [[(x - xs[0] + 1, y - ys[0] + 1) for x, y in c] for c in g.curves]
        dots = [(x - xs[0] + 1, y - ys[0] + 1) for x, y in g.dots]
        inner = max(xs[-1] - xs[0], ys[-1] - ys[0]) + 2
    depth = draw(st.integers(0 if curves else 1, 3))
    for d in range(depth):
        k = 3 * (depth - d)
        sq = _square(-k, -k, inner + 2 * k, draw(st.booleans()))
        curves.append(sq)
        dots += sq[:draw(st.integers(0, 2))]
    return D.DottedGraph.build(curves, dots)


EIGHT = [(4, 4), (10, 4), (10, 10), (7, 10), (7, 2), (4, 2)]     # two loops, apex (7, 4)


@settings(max_examples=150, deadline=None)
@given(graphs_with_circles())
@example(D.DottedGraph.build([_square(0, 0, 4, True)], [(0, 0)]))
@example(D.DottedGraph.build([_square(0, 0, 12, True), _square(3, 3, 6, False),
                              _square(5, 5, 2, True)], [(0, 0), (3, 3)]))
@example(D.DottedGraph.build([_square(0, 0, 16, True), EIGHT], [(0, 0), (10, 6)]))
@example(D.DottedGraph.build([EIGHT, [(8, 0), (9, 0), (9, 12), (8, 12)]], [(10, 6), (8, 1)]))
def test_deletion_form_is_the_form_after_the_deletion(g):
    # every circle and every loop, whether or not its disk carries its sign
    an = D.analyze(g)
    for c in an.circles:
        dots = set(g.dots).difference(*(an.arcs_by_key[k].dots for k in c.arcs))
        rest = D.DottedGraph.build([cv for i, cv in enumerate(g.curves) if i != c.curve], dots)
        if DF.component_sign_ok(an, c):
            assert DF.apply_II(g, c) == rest
        assert D.form_after_deletion(g, c) == D.canonical_form(rest)
    with mock.patch.object(DF, "component_sign_ok", lambda an, cert: True):
        for c in an.loops:
            assert D.form_after_deletion(g, c) == D.canonical_form(DF.apply_III(g, c))
