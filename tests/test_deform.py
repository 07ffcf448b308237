import copy
import os
import random
import subprocess
import sys
from bisect import bisect_right
from collections import deque
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from latpoly import errors, deform as DF, dotgraph as D, oracle as O
from latpoly.arrangement import winding_2x


def circle_graph(x0=0, y0=0, w=4, h=4, ccw=True, dots=2):
    pts = [(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)]
    if not ccw:
        pts = [pts[0]] + pts[:0:-1]
    return D.DottedGraph.build([pts], pts[:dots])


def nested(orients, dots=1, size=18):
    curves, dot_pts = [], []
    for i, ccw in enumerate(orients):
        k = 3 * i
        pts = [(k, k), (size - k, k), (size - k, size - k), (k, size - k)]
        if not ccw:
            pts = [pts[0]] + pts[:0:-1]
        curves.append(pts)
        dot_pts += pts[:dots]
    return D.DottedGraph.build(curves, dot_pts)


def figure_eight(upper_dots=1, lower_dots=1):
    curve = [(0, 0), (2, 0), (2, 2), (1, 2), (1, -1), (0, -1)]
    dots = []
    dots += [(2, 2), (2, 0)][:upper_dots]
    dots += [(0, -1), (1, -1)][:lower_dots]
    return D.DottedGraph.build([curve], dots)


def kinds(moves):
    return sorted(m.kind for m in moves)


# ------------------------------------------------------------ enumerate --

def test_enumerate_circle_three_dots():
    g = circle_graph(dots=3)
    moves = DF.enumerate_moves(g)
    assert kinds(moves) == ["I", "II", "IV", "IV", "IV"]


def test_enumerate_empty():
    assert DF.enumerate_moves(D.empty_graph()) == []


def test_enumerate_II_label_conditions():
    # inner +2 against outer +1: deletable (both circles, in fact)
    g = nested((True, True))
    moves = DF.enumerate_moves(g, allowed={"II"})
    assert len(moves) == 2
    # clockwise innermost inside two counters: disk +1 but complement +2
    g2 = nested((True, True, False))
    certs = {c.curve: c for c in D.find_components(g2)}
    inner = certs[2]
    assert inner.disk_label == 1 and inner.outside_label == 2
    with pytest.raises(errors.LabelMismatch):
        DF.apply_II(g2, inner)
    assert len(DF.enumerate_moves(g2, allowed={"II"})) == 2


def test_enumerate_II_rejects_wrong_sign_ambient():
    # counterclockwise circle deep inside two clockwise ones: disk -1,
    # complement -2; the label conditions reject the deletion
    g = nested((False, False, True))
    inner = {c.curve: c for c in D.find_components(g)}[2]
    assert inner.disk_label == -1 and inner.outside_label == -2
    with pytest.raises(errors.LabelMismatch):
        DF.apply_II(g, inner)


# -------------------------------------------------------------- apply I --

def test_apply_I():
    g = circle_graph(dots=3)
    an = D.analyze(g)
    out = DF.apply_I(g, an.arcs[0])
    assert len(out.dots) == 1
    assert D.equivalent_mod_E_I(out, circle_graph(dots=1))


def test_apply_I_too_few():
    g = circle_graph(dots=1)
    with pytest.raises(errors.TooFewDots):
        DF.apply_I(g, D.analyze(g).arcs[0])


# ------------------------------------------------------------- apply II --

def test_apply_II_single_circle():
    g = circle_graph(dots=1)
    cert = D.find_components(g)[0]
    out = DF.apply_II(g, cert)
    assert out.is_empty()


def test_apply_II_concentric_keeps_outer():
    g = nested((True, True))          # labels 0 / +1 / +2
    certs = {c.disk_label: c for c in D.find_components(g)}
    out = DF.apply_II(g, certs[2])
    labels = sorted(f.omega for f in D.analyze(out).arr.faces)
    assert labels == [0, 1]
    assert len(out.curves) == 1


# ------------------------------------------------------------ apply III --

def test_apply_III_dotted_loop():
    g = figure_eight(upper_dots=1, lower_dots=1)
    certs = {c.disk_label: c for c in D.find_components(g)}
    out = DF.apply_III(g, certs[1])
    assert len(out.curves) == 1
    an = D.analyze(out)
    assert not an.crossings
    # the fused arc keeps the tail dot and gains one for the deleted loop
    assert len(out.dots) == 2
    labels = sorted(f.omega for f in an.arr.faces)
    assert labels == [-1, 0]


def test_apply_III_undotted_loop_gives_no_dot():
    g = figure_eight(upper_dots=0, lower_dots=1)
    certs = {c.disk_label: c for c in D.find_components(g)}
    out = DF.apply_III(g, certs[1])
    assert len(out.dots) == 1
    assert len(D.analyze(out).crossings) == 0


def test_apply_III_rejects_bad_labels():
    g = circle_graph()
    cert = D.find_components(g)[0]
    with pytest.raises(errors.NotALoop):
        DF.apply_III(g, cert)


# ------------------------------------------------------------- apply IV --

def test_apply_IV_splits_circle():
    g = circle_graph(dots=2)
    p1, p2 = sorted(g.dots)
    out = DF.apply_IV(g, p1, p2)
    assert len(out.curves) == 2
    an = D.analyze(out)
    assert not an.crossings
    labels = sorted(f.omega for f in an.arr.faces)
    assert labels == [0, 1, 1]
    expected = D.DottedGraph.build(
        [[(0, 0), (4, 0), (4, 4), (0, 4)], [(8, 0), (12, 0), (12, 4), (8, 4)]],
        [(0, 0), (8, 0)])
    assert D.equivalent_mod_E_I(out, expected)


def test_apply_IV_preserves_counts():
    g = circle_graph(dots=2)
    p1, p2 = sorted(g.dots)
    out = DF.apply_IV(g, p1, p2)
    assert len(out.dots) == len(g.dots)
    assert len(D.analyze(out).crossings) == len(D.analyze(g).crossings)


def test_apply_IV_merges_concentric():
    g = nested((True, False))        # labels 0 / +1 / 0
    dots = sorted(g.dots)
    out = DF.apply_IV(g, dots[0], dots[1])
    assert len(out.curves) == 1
    labels = sorted(f.omega for f in D.analyze(out).arr.faces)
    assert labels == [0, 1]


def test_apply_IV_errors():
    g = circle_graph(dots=2)
    with pytest.raises(errors.MissingDot):
        DF.apply_IV(g, (0, 0), (2, 2))
    # two far-apart circles share no middle region
    g2 = D.DottedGraph.build(
        [[(0, 0), (4, 0), (4, 4), (0, 4)], [(8, 0), (12, 0), (12, 4), (8, 4)]],
        [(0, 0), (8, 0)])
    a, b = sorted(g2.dots)
    with pytest.raises(errors.NoCommonFace):
        DF.apply_IV(g2, a, b)


def test_apply_IV_same_sign_nested_circles_share_no_region():
    # same-sign nested circles: the ring is not a legal middle region, the
    # arcs run parallel along it, so their band faces differ
    outer = [(0, 0), (16, 0), (16, 16), (0, 16)]
    inner = [(4, 4), (12, 4), (12, 12), (4, 12)]
    g = D.DottedGraph.build([outer, inner], [(8, 0), (8, 4)])
    with pytest.raises(errors.NoCommonFace):
        DF.apply_IV(g, (8, 0), (8, 4))


# ------------------------------------------------------------- classify --

def test_classify_IVa2():
    g = nested((True, False))
    dots = sorted(g.dots)
    move = [m for m in DF.enumerate_moves(g, allowed={"IV"})][0]
    kind, (dIV, dII) = DF.try_good_IV(g, move)
    assert kind == "IVa2"
    assert dII.after.is_empty()


def test_classify_IVa1_same_arc_at_crossing():
    g = figure_eight(upper_dots=2, lower_dots=1)
    moves = DF.enumerate_moves(g, allowed={"IV"})
    pair = [m for m in moves
            if set(m.site) == {(2, 2), (2, 0)}]
    assert pair
    kind, (dIV, dIII) = DF.try_good_IV(g, pair[0])
    assert kind == "IVa1"
    an = D.analyze(dIII.after)
    assert len(an.crossings) == 0


def test_classify_none_for_plain_split():
    g = circle_graph(dots=3)
    move = DF.enumerate_moves(g, allowed={"IV"})[0]
    assert DF.try_good_IV(g, move) is None


# -------------------------------------------------------------- epsilon --

def test_slide_dot_keeps_form():
    g = circle_graph(dots=2)
    out = DF.slide_dot(g, (0, 0), (2, 0))
    assert D.equivalent_mod_E_I(out, g)


def test_apply_E_push_across_overlap():
    # two squares crossing like a Venn diagram; push the bulge of one
    # through the doubly-covered lens
    a_sq = [(0, 0), (8, 0), (8, 8), (0, 8)]
    b_sq = [(4, 2), (12, 2), (12, 6), (4, 6)]
    g = D.DottedGraph.build([a_sq, b_sq], [(0, 0), (12, 2)])
    assert len(D.analyze(g).crossings) == 2
    out = DF.apply_E(g, (4, 5), (4, 3),
                     [(4, 5), (9, 5), (9, 3), (4, 3)])
    assert len(D.analyze(out).crossings) == 4


@pytest.mark.parametrize("b, error, message", [
    ((8, 4), errors.LabelMismatch, "cut points must avoid crossings"),
    ((12, 4), errors.LabelMismatch, "a and b must lie on one curve"),
    ((20, 20), errors.LabelMismatch, "(20, 20) not on any curve"),
])
def test_apply_E_cut_at_a_crossing(b, error, message):
    # (8, 2) is a crossing of both squares; it counts as a point of the
    # first curve
    a_sq = [(0, 0), (8, 0), (8, 8), (0, 8)]
    b_sq = [(4, 2), (12, 2), (12, 6), (4, 6)]
    g = D.DottedGraph.build([a_sq, b_sq], [(0, 0), (12, 2)])
    with pytest.raises(error) as info:
        DF.apply_E(g, (8, 2), b, [(8, 2), b])
    assert str(info.value) == message


def test_apply_E_rejects_zero_label_sweep():
    a_sq = [(0, 0), (8, 0), (8, 8), (0, 8)]
    small = [(3, 9), (5, 9), (5, 11), (3, 11)]
    g = D.DottedGraph.build([a_sq, small], [(0, 0), (3, 9)])
    with pytest.raises(errors.LabelMismatch):
        DF.apply_E(g, (6, 8), (2, 8),
                   [(6, 8), (6, 10), (2, 10), (2, 8)])


def test_apply_E_rejects_loop_creation():
    g = nested((True, True), size=12)   # outer (0..12), inner (3..9)
    with pytest.raises(errors.CreatesLoop):
        DF.apply_E(g, (5, 3), (7, 3),
                   [(5, 3), (5, 11), (7, 11), (7, 3)])


# -------------------------------------------------------------- starred --

def test_applicable_star_examples():
    g = nested((True, True))
    certs = {c.disk_label: c for c in D.find_components(g)}
    assert DF.applicable_star(g, "II", certs[1])      # disk {+1,+2}
    g2 = nested((True, False))
    certs2 = {c.disk_label: c for c in D.find_components(g2)}
    assert not DF.applicable_star(g2, "II", certs2[1])   # disk {+1, 0}


def test_star_implied_by_plain_on_unoverlapped_sites():
    for g in (circle_graph(dots=2), nested((True, True))):
        for m in DF.enumerate_moves(g):
            if m.kind == "II":
                assert DF.applicable_star(g, "II", m.site)
            if m.kind == "IV":
                assert DF.applicable_star(g, "IV", m.site)


# ---------------------------------------------------------- condition A --

def test_condition_A_no_obstacles():
    g = circle_graph(dots=2)
    p1, p2 = sorted(g.dots)
    assert DF.check_condition_A(g, p1, p2)


def test_condition_A_with_coherent_overlay():
    # big dotted circle containing a same-sign circle: both routings agree
    big = [(0, 0), (16, 0), (16, 16), (0, 16)]
    inner = [(6, 6), (10, 6), (10, 10), (6, 10)]
    g = D.DottedGraph.build([big, inner], [(0, 0), (16, 0)])
    assert DF.check_condition_A(g, (0, 0), (16, 0))


def test_condition_A_fails_on_incoherent_content():
    # a clockwise obstacle and a separate marker circle: routing the band on
    # either side of the obstacle separates different content
    big = [(0, 0), (24, 0), (24, 16), (0, 16)]
    junk = [(6, 6), (6, 10), (10, 10), (10, 6)]     # clockwise
    marker = [(14, 6), (18, 6), (18, 10), (14, 10)]
    g = D.DottedGraph.build([big, junk, marker], [(0, 0), (24, 0)])
    assert not DF.check_condition_A(g, (0, 0), (24, 0))


def test_core_routing_bugs_reach_the_caller(monkeypatch):
    # the overlay's inner circle is a hole, so core classes are enumerated
    # and each found class is routed through the quarter cells
    def broken(*args):
        raise errors.RoutingFailure("route failed")
    big = [(0, 0), (16, 0), (16, 16), (0, 16)]
    inner = [(6, 6), (10, 6), (10, 10), (6, 10)]
    g = D.DottedGraph.build([big, inner], [(0, 0), (16, 0)])
    monkeypatch.setattr(DF, "_route_through_quarters", broken)
    with pytest.raises(errors.RoutingFailure, match="route failed"):
        DF.check_condition_A_everywhere(g)


def test_viable_side_rejects_unit_step_violation(monkeypatch):
    # each arc's band face is read off its two side labels when the
    # geometry is built; a pair that does not drop by one is rejected
    monkeypatch.setattr(D.CurveGeometry, "label", lambda geo, f: 2 * geo.arr.faces[f].omega)
    with pytest.raises(errors.InvalidGraph, match="left label 2 of arc .* right label 0 by one"):
        D.CurveGeometry(D.normal_curves([[(0, 0), (4, 0), (4, 4), (0, 4)]]))


def test_quarter_center_rejects_unbounded_cell():
    # cell (0, 0) lies left of and below every line of the square
    arr = D.analyze(circle_graph()).arr
    assert DF._quarter_center(arr, (1, 1, 0, 0)) == (1, 1)
    assert DF._quarter_center(arr, (1, 1, 1, 1)) == (3, 3)
    with pytest.raises(errors.RoutingFailure, match="unbounded cell"):
        DF._quarter_center(arr, (0, 0, 0, 0))
    here = os.path.dirname(os.path.abspath(__file__))
    code = ("import test_deform as T\n"
            "T.DF._quarter_center(T.D.analyze(T.circle_graph()).arr, (0, 0, 0, 0))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(here, os.pardir, "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", code], cwd=here, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "latpoly.errors.RoutingFailure: route entered an unbounded cell" in proc.stderr



def apex_without_tail(setattr):
    # the figure-eight's analysis, less the second outgoing arm at the apex
    g = figure_eight()
    cert = max(D.find_components(g), key=lambda c: c.disk_label)
    an = copy.copy(D.analyze(g))
    first_out = an.arcs_by_key[cert.arcs[0]].start_dir
    an.arms = {(c, d): arm for (c, d), arm in an.arms.items()
               if c != cert.apex or arm[1] == "in" or d == first_out}
    setattr(DF, "analyze", lambda _: an)
    DF.apply_III(g, cert)


def walk_meeting_an_incoming_arm(setattr):
    a = D.Arc(0, ((0, 0), (2, 0)), False, ())
    an = SimpleNamespace(arms={((0, 0), (1, 0)): (a.key, "out"),
                               ((2, 0), (1, 0)): (a.key, "in")},
                         arcs_by_key={a.key: a}, arcs=[a])
    DF._chain_from(an, (0, 0), (1, 0))


def walk_never_returning(setattr):
    a = D.Arc(0, ((0, 0), (2, 0)), False, ())
    b = D.Arc(0, ((2, 0), (4, 0), (4, 2), (1, 2), (1, 0), (2, 0)), False, ())
    an = SimpleNamespace(arms={((0, 0), (1, 0)): (a.key, "out"),
                               ((2, 0), (1, 0)): (b.key, "out")},
                         arcs_by_key={a.key: a, b.key: b}, arcs=[a, b])
    DF._chain_from(an, (0, 0), (1, 0))


def good_IV_of_a_dot_merge(setattr):
    g = circle_graph(dots=2)
    DF.try_good_IV(g, DF.Move("I", tuple(sorted(g.dots)), None, 0))


def surgery_routed_into_a_T_junction(setattr):
    # a routing bug: the cut returns curves that no build would accept
    bad = D.DottedGraph(D.normal_curves([[(0, 0), (4, 0), (4, 4), (0, 4)],
                                         [(3, 0), (7, 0), (7, -4), (3, -4)]]), frozenset())
    setattr(DF, "_cut_and_join", lambda w, core: (bad, (0, 0), (0, 0)))
    g = circle_graph(dots=3)
    DF.apply_move(g, DF.enumerate_moves(g, allowed={"IV"})[0])


# case -> (call, error class, message): broken arms make loop deletion
# raise, a surgery checks its result, and try_good_IV rejects a move that
# is not a surgery
BROKEN_CALLS = {
    "apex without tail": (apex_without_tail, errors.InvalidGraph,
                          "loop apex (1, 0) has no second outgoing arm"),
    "incoming arm ahead": (walk_meeting_an_incoming_arm, errors.InvalidGraph,
                           "the walk from (0, 0) meets no outgoing arm ahead at (2, 0)"),
    "walk never returns": (walk_never_returning, errors.InvalidGraph,
                           "the walk from (0, 0) does not return to it"),
    "good IV of kind I": (good_IV_of_a_dot_merge, ValueError,
                          "try_good_IV needs a surgery move, not kind I"),
    "surgery result invalid": (surgery_routed_into_a_T_junction, errors.InvalidGraph,
                               "collinear overlap at y=1: T-junction at corner (1, 1)"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_CALLS))
def test_broken_calls_raise_typed_errors(case, monkeypatch):
    call, error, message = BROKEN_CALLS[case]
    with pytest.raises(error) as info:
        call(monkeypatch.setattr)
    assert str(info.value) == message
    here = os.path.dirname(os.path.abspath(__file__))
    code = ("import test_deform as T\n"
            f"T.BROKEN_CALLS[{case!r}][0](setattr)\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(here, os.pardir, "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", code], cwd=here, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert f"{error.__name__}: {message}" in proc.stderr


# ------------------------------------------------------- dot slides --

def reference_slide_one(gs, q, taken, near=None, distinct_quarter=None, F=None):
    """The former ``_slide_one``: the quarter of every candidate is computed
    before the first free one is taken."""
    an = D.analyze(gs)
    arc = an.arc_of(q)
    corners = set()
    for curve in gs.curves:
        corners.update(curve)
    if near is not None:
        candidates = DF._near_crossing_positions(arc, near)
    else:
        candidates = DF._slide_candidates(arc)
        if distinct_quarter is not None:
            preferred = [c for c in candidates
                         if DF._quarter_of(an, arc, c, F) != distinct_quarter]
            candidates = preferred + [c for c in candidates if c not in preferred]
    blocked = set(gs.dots) | set(taken) | set(an.crossings) | corners
    blocked.discard(q)
    for cand in candidates:
        if cand not in blocked:
            dots = (gs.dots - {q}) | {cand}
            return D.DottedGraph(gs.curves, frozenset(dots)), cand
    raise errors.RoutingFailure("no free canonical position for a surgery dot")


def outcome(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except errors.LatPolyError as e:
        return type(e), str(e)


def walked_graph(rng):
    g = O.random_dotted_graph(rng, require_all_dotted=rng.random() < 0.5)
    for _ in range(rng.randint(0, 2)):
        moves = DF.enumerate_moves(g)
        if not moves:
            break
        g = DF.apply_move(g, rng.choice(moves)).after
    return g


def geometry_slide_one(grid, q, taken, near=None, distinct_quarter=None, F=None):
    """``DF._slide`` called as the former ``_slide_one`` was, on the grid's
    graph; it returns the slid position."""
    arc = grid.geo.arcs[grid.geo.arc_at(q)[0]]
    avoid = None if near is not None else distinct_quarter
    return DF._slide(grid, q, arc, grid.gs.dots | taken, near, avoid, F)


def reference_slid_position(*args, **kwargs):
    return reference_slide_one(*args, **kwargs)[1]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32))
def test_slide_one_matches_reference(seed):
    # the same position, or the same error, for every quarter the slid dot
    # may be told to avoid, and beside each crossing at an end of the dot's
    # arc
    g = walked_graph(random.Random(seed))
    for m in DF.enumerate_moves(g, allowed={"IV"}):
        grid = DF._working_grid(g)
        gs = grid.gs
        q1, q2 = [grid.up(p) for p in m.site]
        an = D.analyze(gs)
        arc, _, F = DF.surgery_site(an, q1, q2)
        quarters = {DF._quarter_of(an, arc, c, F) for c in DF._slide_candidates(arc)}
        options = [dict(distinct_quarter=dq, F=F) for dq in sorted(quarters) + [None]]
        options += [dict(near=c) for c in {arc.path[0], arc.path[-1]} if c in an.crossings]
        for kwargs in options:
            assert outcome(geometry_slide_one, grid, q1, {q2}, **kwargs) == \
                outcome(reference_slid_position, gs, q1, {q2}, **kwargs)


# ------------------------------------------------------ core classes --

def reference_ray_deltas(a, b, rays):
    """The former ``_ray_deltas``: signed crossings of the step a->b with
    upward rays from the holes."""
    out = [0] * len(rays)
    if a[1] == b[1] and a[0] != b[0]:
        y2 = 2 * a[1]
        lo2, hi2 = sorted((2 * a[0], 2 * b[0]))
        for i, (rx2, ry2) in enumerate(rays):
            if y2 > ry2 and lo2 < rx2 < hi2:
                out[i] = 1 if b[0] > a[0] else -1
    return tuple(out)


def reference_rect_closed(pts):
    """The former ``_rect_closed``: a waypoint cycle closed into an
    axis-parallel polyline, with an elbow wherever consecutive waypoints
    are diagonal."""
    out = []
    for i, a in enumerate(pts):
        b = pts[(i + 1) % len(pts)]
        out.append(a)
        if a[0] != b[0] and a[1] != b[1]:
            out.append((a[0], b[1]))
    return out


def reference_core_classes(w, base, holes, cap=20000):
    """The former core-class search: reachable crossing vectors on the
    product of the quarter-cell graph with the winding lattice bounded by 1
    around each hole, each realized by a simple route found by a ranked
    depth-first search in rounds of extra length 0, 4 and 12, with 3,000
    steps per round; raises ``BudgetExceeded`` past ``cap`` closure
    states.  Every step recomputes quarter centres and ray deltas."""
    if not holes:
        return {(): base}
    arr, q1, n1, q2, n2 = w.geo.arr, w.q1, w.n1, w.q2, w.n2
    F_cells = w.geo.face_cells[w.Fs]
    rays = list(holes)
    nd1 = DF._quarter_beside(arr, q1, n1)
    nd2 = DF._quarter_beside(arr, q2, n2)
    zero = tuple(0 for _ in rays)

    centers = {}
    adjacency = {}

    def neighbors(node):
        if node not in adjacency:
            adjacency[node] = DF._quarter_neighbors(F_cells, node)
            centers[node] = DF._quarter_center(arr, node)
        return adjacency[node]

    centers[nd1] = DF._quarter_center(arr, nd1)
    start = (nd1, zero)
    forward = {start: []}
    dq = deque([start])
    budget = cap
    while dq:
        budget -= 1
        if budget <= 0:
            raise errors.BudgetExceeded("core class enumeration budget hit")
        node, vec = dq.popleft()
        for nb in neighbors(node):
            d = reference_ray_deltas(centers[node], DF._quarter_center(arr, nb), rays)
            nvec = tuple(v + x for v, x in zip(vec, d))
            if any(abs(v) > 1 for v in nvec):
                continue
            state = (nb, nvec)
            forward.setdefault(state, []).append((node, vec))
            if len(forward[state]) == 1:
                dq.append(state)

    targets = sorted(vec for node, vec in forward if node == nd2)
    found = {}

    def signature(nodes):
        pts = ([base[0]] + [DF._quarter_center(arr, nd) for nd in nodes] +
               [base[-1]] + list(reversed(base)))
        loop = reference_rect_closed(pts)
        return tuple(winding_2x(h, D.curve_segments(loop)) for h in holes)

    for tvec in targets:
        dist = {(nd2, tvec): 0}
        dq = deque([(nd2, tvec)])
        while dq:
            state = dq.popleft()
            for prev in forward.get(state, ()):
                if prev not in dist:
                    dist[prev] = dist[state] + 1
                    dq.append(prev)
        if start not in dist:
            continue
        result = [None]

        def dfs(path, visited, vec, maxlen, budget_dfs):
            if result[0] is not None or budget_dfs[0] <= 0:
                budget_dfs[0] -= 1
                return
            budget_dfs[0] -= 1
            if path[-1] == nd2 and vec == tvec:
                result[0] = list(path)
                return
            ranked = []
            for nb in neighbors(path[-1]):
                if nb in visited:
                    continue
                d = reference_ray_deltas(centers[path[-1]], DF._quarter_center(arr, nb), rays)
                nvec = tuple(v + x for v, x in zip(vec, d))
                nd = dist.get((nb, nvec))
                if nd is None or len(path) + nd > maxlen:
                    continue
                ranked.append((nd, nb, nvec))
            ranked.sort()
            for _, nb, nvec in ranked:
                visited.add(nb)
                path.append(nb)
                dfs(path, visited, nvec, maxlen, budget_dfs)
                path.pop()
                visited.remove(nb)
                if result[0] is not None:
                    return

        for extra in (0, 4, 12):
            dfs([nd1], {nd1}, zero, dist[start] + extra, [min(3000, cap)])
            if result[0] is not None:
                break
        if result[0] is None:
            continue
        sig = signature(result[0])
        if sig not in found:
            found[sig] = DF._route_through_quarters(arr, result[0], q1, n1, q2, n2)
    found[zero] = base
    return found


def holed_sites(g):
    """(working pair, canonical core, holes) at every surgery site of g
    whose middle region has holes."""
    out = []
    for m in DF.enumerate_moves(g, allowed={"IV"}):
        w = DF._working_pair(g, *m.site)
        holes = w.geo.holes[w.Fs]
        if holes:
            out.append((w, DF._canonical_core(w), holes))
    return out


@st.composite
def holed_graphs(draw):
    """A random dotted graph after up to three random moves: the first such
    draw that has a surgery site with holes.  At every walk length at least
    one draw in twenty has one, so a thousand draws without one mean the
    generator or the site derivation is broken."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    all_dotted, walk = draw(st.booleans()), draw(st.integers(0, 3))
    for _ in range(1000):
        g = O.random_dotted_graph(rng, require_all_dotted=all_dotted)
        for _ in range(walk):
            moves = DF.enumerate_moves(g)
            if not moves:
                break
            g = DF.apply_move(g, rng.choice(moves)).after
        if holed_sites(g):
            return g
    raise AssertionError("no draw in a thousand has a surgery site around holes")


def one_component_sites(g):
    """(site, working pair, canonical core, holes) at every surgery site of
    g whose middle region has holes and whose dots lie on one graph
    component, the sites where the core classes are built."""
    out = []
    for m in DF.enumerate_moves(g, allowed={"IV"}):
        w = DF._working_pair(g, *m.site)
        holes = w.geo.holes[w.Fs]
        if holes and reference_dots_share_component(w.geo, w.q1, w.q2):
            out.append((m.site, w, DF._canonical_core(w), holes))
    return out


def cut_form(w, core):
    return D.canonical_form(D.normalized(DF._cut_and_join(w, core)[0]))


def assert_core_classes_match(g):
    """At every site of g where the core classes are built, every class the
    former search finds within check_condition_A's former cap of 4000 is
    built, and the cut along its core gives the same canonical form (or
    the same error); the canonical core keeps the zero signature."""
    for _, w, base, holes in one_component_sites(g):
        built = DF._enumerate_core_classes(w, base, holes)
        assert built[tuple(0 for _ in holes)] is base
        try:
            want = reference_core_classes(w, base, holes, cap=4000)
        except errors.BudgetExceeded:
            continue
        assert set(want) <= set(built)
        for sig, core in want.items():
            assert outcome(cut_form, w, built[sig]) == outcome(cut_form, w, core)


@settings(max_examples=25, deadline=None)
@given(holed_graphs())
def test_core_classes_match_reference(g):
    assert_core_classes_match(g)


def test_core_classes_match_reference_around_two_holes():
    big = [(0, 0), (24, 0), (24, 16), (0, 16)]
    junk = [(6, 6), (6, 10), (10, 10), (10, 6)]
    marker = [(14, 6), (18, 6), (18, 10), (14, 10)]
    g = D.DottedGraph.build([big, junk, marker], [(0, 0), (24, 0)])
    [(_, w, base, holes)] = one_component_sites(g)
    assert len(holes) == 2 and len(DF._enumerate_core_classes(w, base, holes)) == 4
    assert_core_classes_match(g)


@settings(max_examples=40, deadline=None)
@given(holed_graphs())
def test_every_core_class_is_built_or_the_check_is_undecided(g):
    # at every site where the core classes are built: 2^k distinct
    # signatures, or check_condition_A is not True (None, or False when two
    # built classes already give different forms)
    for site, w, base, holes in one_component_sites(g):
        classes = DF._enumerate_core_classes(w, base, holes)
        assert len(classes) <= 2 ** len(holes)
        verdict = condition_A_outcome(DF.check_condition_A, g, *site)
        if len(classes) < 2 ** len(holes):
            assert verdict is not True
        else:
            assert verdict is not None


def dots_on_a_hole(w):
    """True when the dots' graph component is itself a hole of the middle
    region, by the test of ``reference_hole_samples``: the middle region
    lies just above the component's top segment."""
    ci = DF._curve_of_point(w.geo, w.q1)
    [comp] = [c for c in reference_graph_components(w.geo) if ci in c]
    tops = [s for i in comp for s in D.curve_segments(w.gs.curves[i]) if s[0][1] == s[1][1]]
    top = max(tops, key=lambda s: (s[0][1], min(s[0][0], s[1][0])))
    return w.geo.arr.face_of_2x((top[0][0] + top[1][0] | 1, 2 * top[0][1] + 1)) == w.Fs


@settings(max_examples=25, deadline=None)
@given(holed_graphs())
def test_dots_on_one_component_give_at_most_two_to_the_k_classes(g):
    # the bound that stops the route search, shown on the reference
    # enumeration, which does not use it.  With the dots on the middle
    # region's outer boundary, a route encloses each hole or not, so each
    # signature entry takes two values
    for w, base, holes in holed_sites(g):
        if not reference_dots_share_component(w.geo, w.q1, w.q2):
            continue
        try:
            classes = reference_core_classes(w, base, holes, cap=4000)
        except errors.BudgetExceeded:
            continue
        assert len(classes) <= 2 ** len(holes)
        if not dots_on_a_hole(w):
            for i in range(len(holes)):
                assert len({sig[i] for sig in classes}) <= 2


def test_dots_on_a_hole_give_three_values_and_still_2_to_the_k_classes():
    # dots on a clockwise hole H0 beside a second hole H.  A route closed up
    # along H0 encloses a set of holes, and it runs counterclockwise exactly
    # when that set holds H0, so H's entry takes three values, while the
    # classes are still at most one per set of holes
    big = [(0, 0), (40, 0), (40, 24), (0, 24)]
    h0 = [(6, 6), (6, 18), (14, 18), (14, 6)]
    h = [(24, 6), (24, 18), (32, 18), (32, 6)]
    g = D.DottedGraph.build([big, h0, h], [(6, 10), (14, 10)])
    [(w, base, holes)] = holed_sites(g)
    assert reference_dots_share_component(w.geo, w.q1, w.q2) and dots_on_a_hole(w)
    classes = reference_core_classes(w, base, holes)
    assert list(classes) == [(1, 1), (1, 0), (0, 0), (0, -1)]
    assert set(DF._enumerate_core_classes(w, base, holes)) == set(classes)
    assert_core_classes_match(g)


def test_route_search_stops_at_two_classes_around_one_hole():
    # both dots on the outer square: a route passes the hole on one side or
    # the other, so there are two classes
    big = [(0, 0), (16, 0), (16, 16), (0, 16)]
    inner = [(6, 6), (10, 6), (10, 10), (6, 10)]
    g = D.DottedGraph.build([big, inner], [(0, 0), (16, 0)])
    [(w, base, holes)] = holed_sites(g)
    assert reference_dots_share_component(w.geo, w.q1, w.q2) and not dots_on_a_hole(w)
    assert len(holes) == 1
    assert len(DF._enumerate_core_classes(w, base, holes)) == 2


# (curves, dots, site) of three states that exploring a random dotted graph
# reaches, where the former search missed a class or met a hole in another
# hole's notch
PROBE_277 = ([[(0, 0), (0, 7), (1, 7), (1, 10), (10, 10), (10, 9), (6, 9), (6, 5), (10, 5),
               (10, 0), (8, 0), (8, 2), (3, 2), (3, 0)],
              [(1, 3), (1, 4), (2, 4), (2, 3)], [(4, 0), (4, 1), (7, 1), (7, 0)],
              [(9, 6), (9, 8), (10, 8), (10, 6)]],
             [(1, 4), (4, 0), (5, 0), (8, 0), (10, 6), (10, 9)], ((8, 0), (10, 9)))
PROBE_189 = ([[(2, 0), (2, 5), (4, 5), (4, 12), (2, 12), (2, 15), (12, 15), (12, 2), (11, 2),
               (11, 0)],
              [(2, 8), (2, 11), (3, 11), (3, 8)], [(6, 2), (6, 3), (7, 3), (7, 2)],
              [(10, 7), (10, 9), (11, 9), (11, 7)]],
             [(2, 5), (2, 11), (6, 2), (11, 1), (11, 2), (11, 7), (12, 14)], ((11, 1), (11, 2)))
CONFLUENCE_16 = ([[(0, 0), (3, 0), (3, 5), (0, 5)], [(1, 1), (2, 1), (2, 4), (1, 4)],
                  [(4, 0), (11, 0), (11, 5), (4, 5)],
                  [(5, 1), (6, 1), (6, 3), (9, 3), (9, 1), (10, 1), (10, 4), (5, 4)],
                  [(7, 1), (8, 1), (8, 2), (7, 2)], [(12, 0), (15, 0), (15, 5), (12, 5)],
                  [(13, 1), (14, 1), (14, 4), (13, 4)]],
                 [(0, 0), (1, 1), (3, 0), (4, 0), (6, 1), (8, 1), (11, 0), (12, 0), (13, 1),
                  (14, 1), (15, 0)], ((4, 0), (11, 0)))


@pytest.mark.parametrize("state, holes, classes, verdict", [
    (PROBE_277, 1, 2, True),        # random_dotted_graph(Random("probe/277")): the search found 1
    (PROBE_189, 2, 4, False),       # "probe/189": the search found 3
    (CONFLUENCE_16, 2, 4, False),   # "confluence/16": a hole in the notch of another hole
], ids=["probe-277", "probe-189", "confluence-16"])
def test_core_classes_of_explored_states(state, holes, classes, verdict):
    curves, dots, site = state
    g = D.DottedGraph.build(curves, dots)
    w = DF._working_pair(g, *site)
    assert len(w.geo.holes[w.Fs]) == holes
    built = DF._enumerate_core_classes(w, DF._canonical_core(w), w.geo.holes[w.Fs])
    assert len(built) == classes
    assert DF.check_condition_A(g, *site) is verdict
    assert_core_classes_match(g)


def test_fewer_classes_than_two_to_the_k_are_undecided(monkeypatch):
    # the overlay's one hole gives two classes; with the canonical core's
    # class alone, the cores are not shown to agree
    big = [(0, 0), (16, 0), (16, 16), (0, 16)]
    inner = [(6, 6), (10, 6), (10, 10), (6, 10)]
    g = D.DottedGraph.build([big, inner], [(0, 0), (16, 0)])
    assert DF.check_condition_A(g, (0, 0), (16, 0)) is True
    monkeypatch.setattr(DF, "_enumerate_core_classes", lambda w, base, holes: {(0,): base})
    assert DF.check_condition_A(g, (0, 0), (16, 0)) is None
    assert DF.check_condition_A_everywhere(g) is None


def two_holes_on_two_components():
    """A counterclockwise square around two clockwise ones, with a dot on
    the outer square and on each inner one: every surgery site has two
    holes and its dots on two graph components."""
    big = [(0, 0), (24, 0), (24, 16), (0, 16)]
    h1 = [(4, 4), (4, 8), (8, 8), (8, 4)]
    h2 = [(14, 4), (14, 8), (18, 8), (18, 4)]
    return D.DottedGraph.build([big, h1, h2], [(0, 0), (4, 4), (14, 4)])


def test_dots_on_two_components_around_two_holes_are_undecided():
    g = two_holes_on_two_components()
    sites = [m.site for m in DF.enumerate_moves(g, allowed={"IV"})]
    assert len(sites) == 3
    for site in sites:
        w = DF._working_pair(g, *site)
        assert len(w.geo.holes[w.Fs]) == 2
        assert not reference_dots_share_component(w.geo, w.q1, w.q2)
        assert DF.check_condition_A(g, *site) is None
    assert DF.check_condition_A_everywhere(g) is None


# --------------------------------------------------- condition A rules --

def reference_check_condition_A(g, p1, p2):
    """The former ``check_condition_A`` with its verdicts read as today's:
    the core classes are searched for (``reference_core_classes``, capped
    at 4000) at every site whose middle region has holes; False when two
    give different forms; None when the search hits its cap or, at a site
    whose dots lie on one graph component, finds fewer than 2^k classes,
    and at every site whose dots lie on two components around two or more
    holes."""
    an = D.analyze(g)
    a1, a2 = reference_arc_of_dot(an, p1), reference_arc_of_dot(an, p2)
    F = reference_middle_region(an, a1, a2)
    if not reference_hole_samples(an.geometry, F):
        return True
    w = DF._working_pair(g, p1, p2)
    holes = reference_hole_samples(w.geo, w.Fs)
    one_component = reference_dots_share_component(w.geo, w.q1, w.q2)
    if len(holes) > 1 and not one_component:
        return None
    try:
        classes = reference_core_classes(w, DF._canonical_core(w), holes, cap=4000)
    except errors.BudgetExceeded:
        return None
    if len({cut_form(w, core) for core in classes.values()}) > 1:
        return False
    return len(classes) == 2 ** len(holes) or not one_component or None


def condition_A_outcome(check, g, p1, p2):
    try:
        return check(g, p1, p2)
    except errors.LatPolyError as e:
        return (type(e).__name__, str(e))


def assert_verdict_matches_reference(g, site):
    """The verdict at a site is the former check's wherever that one
    decides, and the same error where it raises one."""
    want = condition_A_outcome(reference_check_condition_A, g, *site)
    if want is not None:
        assert condition_A_outcome(DF.check_condition_A, g, *site) == want


def annulus_sites(g):
    """(dots, working pair, canonical core, holes) at every surgery site of
    g whose middle region has one hole and whose dots lie on different
    graph components."""
    out = []
    for m in DF.enumerate_moves(g, allowed={"IV"}):
        w = DF._working_pair(g, *m.site)
        holes = reference_hole_samples(w.geo, w.Fs)
        if len(holes) == 1 and not reference_dots_share_component(w.geo, w.q1, w.q2):
            out.append((m.site, w, DF._canonical_core(w), holes))
    return out


def assert_annulus_rule(g):
    """At every surgery site the verdict is the former check's where that
    one decides; at annulus sites every core class that the former search
    finds gives one form, and the check builds none of them."""
    for m in DF.enumerate_moves(g, allowed={"IV"}):
        assert_verdict_matches_reference(g, m.site)
    sites = annulus_sites(g)
    for _, w, base, holes in sites:
        classes = reference_core_classes(w, base, holes)
        assert len({cut_form(w, core) for core in classes.values()}) == 1

    def no_enumeration(*args, **kwargs):
        raise AssertionError("core classes built at an annulus site")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DF, "_enumerate_core_classes", no_enumeration)
        for (p1, p2), _, _, _ in sites:
            assert DF.check_condition_A(g, p1, p2) is True
    return len(sites)


@settings(max_examples=40, deadline=None)
@given(holed_graphs())
def test_annulus_rule_matches_the_enumeration(g):
    assert_annulus_rule(g)


def test_annulus_rule_on_a_dot_on_the_hole():
    # a counterclockwise square around a clockwise one, with a dot on each:
    # the former search finds three classes, winding 1, 0 and -1 around the
    # hole, and they give one form
    big = [(0, 0), (16, 0), (16, 16), (0, 16)]
    inner = [(6, 6), (6, 10), (10, 10), (10, 6)]
    g = D.DottedGraph.build([big, inner], [(0, 0), (6, 6)])
    [(_, w, base, holes)] = annulus_sites(g)
    assert list(reference_core_classes(w, base, holes)) == [(1,), (0,), (-1,)]
    assert assert_annulus_rule(g) == 1


# ------------------------------------------------------ canonical core --

def reference_cell_center(arr, cell):
    xlo, xhi, ylo, yhi = arr.cell_bounds(cell)
    if None in (xlo, xhi, ylo, yhi):
        raise errors.RoutingFailure("route entered an unbounded cell")
    return ((xlo + xhi) // 2, (ylo + yhi) // 2)


def reference_cell_beside(arr, q, n):
    """The former ``_cell_beside``: the cell beside the point q of an arc
    piece on the side of the normal n, by index arithmetic."""
    qx, qy = q
    if n[0] == 0:   # q on a horizontal piece, step vertically
        col = bisect_right(arr.xs, qx)
        row = arr.ys.index(qy) + (1 if n[1] > 0 else 0)
    else:
        row = bisect_right(arr.ys, qy)
        col = arr.xs.index(qx) + (1 if n[0] > 0 else 0)
    return (col, row)


def reference_cell_path(F_cells, c1, c2):
    """Deterministic shortest path in the cell graph of a face."""
    def neighbors(cell):
        c, r = cell
        return [nb for nb in ((c - 1, r), (c + 1, r), (c, r - 1), (c, r + 1))
                if nb in F_cells]
    dist = {c2: 0}
    dq = deque([c2])
    while dq:
        cur = dq.popleft()
        for nb in neighbors(cur):
            if nb not in dist:
                dist[nb] = dist[cur] + 1
                dq.append(nb)
    if c1 not in dist:
        raise errors.RoutingFailure("face cells are disconnected")
    path = [c1]
    while path[-1] != c2:
        path.append(min(nb for nb in neighbors(path[-1])
                        if dist.get(nb, -1) == dist[path[-1]] - 1))
    return path


def reference_border_midpoint(arr, a, b):
    (c1, r1), (c2, r2) = a, b
    if r1 == r2:
        return (arr.xs[min(c1, c2)], (arr.ys[r1 - 1] + arr.ys[r1]) // 2)
    return ((arr.xs[c1 - 1] + arr.xs[c1]) // 2, arr.ys[min(r1, r2)])


def reference_route_through_cells(arr, cells_path, q1, n1, q2, n2):
    """An embedded rectilinear polyline q1 -> q2 through the given cells'
    centres and border midpoints."""
    entries = [(q1, n1)]
    for a, b in zip(cells_path, cells_path[1:]):
        entries.append((reference_border_midpoint(arr, a, b),
                        (1, 0) if a[0] != b[0] else (0, 1)))
    entries.append((q2, n2))
    pts = [q1]
    for i, cell in enumerate(cells_path):
        (a, na), (b, nb) = entries[i], entries[i + 1]
        cx, cy = reference_cell_center(arr, cell)
        ia = (cx, a[1]) if na[0] != 0 else (a[0], cy)
        ib = (cx, b[1]) if nb[0] != 0 else (b[0], cy)
        pts += [ia, (cx, cy), ib, b]
    out = DF._clean_polyline(pts)
    if len(set(out)) != len(out):
        raise errors.RoutingFailure("core route self-intersects")
    return out


def reference_canonical_core(w):
    """The former canonical core: the shortest route through whole
    arrangement cells of the middle region, ties broken lexicographically."""
    arr = w.geo.arr
    path = reference_cell_path(w.geo.face_cells[w.Fs], reference_cell_beside(arr, w.q1, w.n1),
                               reference_cell_beside(arr, w.q2, w.n2))
    return reference_route_through_cells(arr, path, w.q1, w.n1, w.q2, w.n2)


def surgery_outcome(g, p1, p2):
    try:
        return D.canonical_form(DF.surgery(g, p1, p2).after)
    except errors.LatPolyError as e:
        return type(e).__name__


def core_router_outcomes(g):
    """Per surgery site of g: the surgery's form (or error class) and the
    condition (A) verdict (or error class)."""
    out = []
    for m in DF.enumerate_moves(g, allowed={"IV"}):
        verdict = condition_A_outcome(DF.check_condition_A, g, *m.site)
        out.append((surgery_outcome(g, *m.site),
                    verdict[0] if isinstance(verdict, tuple) else verdict))
    return out


@settings(max_examples=25, deadline=None)
@given(holed_graphs(), st.integers(0, 2**32))
def test_canonical_core_matches_the_cell_router(g, seed):
    # the quarter-cell core and the former cell core are isotopic: every
    # surgery gives the same form, and condition (A) the same verdict
    for h in (g, O.random_dotted_graph(random.Random(seed))):
        got = core_router_outcomes(h)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(DF, "_canonical_core", reference_canonical_core)
            assert core_router_outcomes(h) == got


# ------------------------------------------------------- surgery sites --

def reference_arc_of_dot(an, dot):
    """The former ``_arc_of_dot``: a scan of the arcs."""
    for a in an.arcs:
        if dot in a.dots:
            return a
    raise errors.MissingDot(f"{dot} is not a dot of the graph")


def reference_viable_side(an, arc_key):
    """The former ``_viable_side``: (face, epsilon) of the side whose label
    magnitude dominates."""
    lf, rf = an.left_face[arc_key], an.right_face[arc_key]
    L, R = an.label(lf), an.label(rf)
    if L != R + 1:
        raise errors.InvalidGraph(
            f"left label {L} of arc {arc_key} does not exceed its right label {R} by one")
    return (lf, 1) if L >= 1 else (rf, -1)


def reference_middle_region(an, a1, a2):
    """The former ``_middle_region`` without a core."""
    F1, _ = reference_viable_side(an, a1.key)
    F2, _ = reference_viable_side(an, a2.key)
    if F1 != F2:
        raise errors.NoCommonFace("dots have no shared middle region")
    return F1


def reference_graph_components(geo):
    """The former ``_graph_components``: each graph component's curves."""
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
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


def reference_hole_samples(geo, F):
    """The former ``_hole_samples``: one doubled-grid sample inside each
    graph component enclosed by F, recomputed per call."""
    samples = []
    for curves in reference_graph_components(geo):
        segs = []
        for ci in curves:
            segs.extend(D.curve_segments(geo.curves[ci]))
        hsegs = [s for s in segs if s[0][1] == s[1][1]]
        top = max(hsegs, key=lambda s: (s[0][1], min(s[0][0], s[1][0])))
        sx2 = top[0][0] + top[1][0]
        if sx2 % 2 == 0:
            sx2 += 1
        ty = top[0][1]
        if geo.arr.face_of_2x((sx2, 2 * ty + 1)) == F:
            samples.append((sx2, 2 * ty - 1))
    return samples


def reference_dots_share_component(geo, p1, p2):
    """The former ``_dots_share_component``."""
    c1, c2 = DF._curve_of_point(geo, p1), DF._curve_of_point(geo, p2)
    return any(c1 in comp and c2 in comp for comp in reference_graph_components(geo))


def reference_core_search_site(g, p1, p2):
    """The former ``_core_search_site``: the working pair of a site where
    condition (A) needs a core search, or None."""
    an = D.analyze(g)
    F = reference_middle_region(an, reference_arc_of_dot(an, p1), reference_arc_of_dot(an, p2))
    holes = reference_hole_samples(an.geometry, F)
    if not holes or (len(holes) == 1 and
                     not reference_dots_share_component(an.geometry, p1, p2)):
        return None
    return DF._working_pair(g, p1, p2)


def reference_disk_arc_pair(g, move):
    """The former ``reduce._disk_arc_pair``: the unordered pair of arc keys
    of a site whose middle region has no hole, or None."""
    an = D.analyze(g)
    a1, a2 = (reference_arc_of_dot(an, p) for p in move.site)
    if reference_hole_samples(an.geometry, reference_middle_region(an, a1, a2)):
        return None
    return frozenset((a1.key, a2.key))


def site_record(g, move):
    """A surgery site as the library derives it: its arcs and middle
    region, the hole samples on the graph's geometry and, around holes, on
    the working grid's, the sharing key and whether condition (A) searches
    cores there."""
    an = D.analyze(g)
    a1, a2, F = DF.surgery_site(an, *move.site)
    holes = list(an.geometry.holes[F])
    grid_holes = None
    if holes:
        w = DF._working_pair(g, *move.site)
        grid_holes = list(w.geo.holes[w.Fs])
    return (a1.key, a2.key, F, holes, grid_holes, DF.sharing_key(g, *move.site),
            DF._needs_core_classes(an, *move.site))


def reference_site_record(g, move):
    """``site_record`` by the former helpers."""
    an = D.analyze(g)
    a1, a2 = (reference_arc_of_dot(an, p) for p in move.site)
    F = reference_middle_region(an, a1, a2)
    holes = reference_hole_samples(an.geometry, F)
    grid_holes = None
    if holes:
        w = DF._working_pair(g, *move.site)
        grid_holes = reference_hole_samples(w.geo, w.Fs)
    key = reference_disk_arc_pair(g, move) or DF._working_pair(g, *move.site).key
    return (a1.key, a2.key, F, holes, grid_holes, key,
            reference_core_search_site(g, *move.site) is not None)


def assert_sites_match_reference(g):
    """At every surgery site of g, the site, its holes, its sharing key and
    condition (A)'s choice to search are those of the former helpers, or
    both raise the same error; returns the number of sites."""
    moves = DF.enumerate_moves(g, allowed={"IV"})
    for m in moves:
        assert outcome(site_record, g, m) == outcome(reference_site_record, g, m)
    return len(moves)


@settings(max_examples=25, deadline=None)
@given(holed_graphs())
def test_sites_match_the_former_derivations(g):
    assert_sites_match_reference(g)


# ------------------------------------------------------- working sites --

def reference_slide(g, p1, p2, hug_crossing=None):
    """The former slides of ``_working_pair``: g scaled to the working grid
    and analysed, then each dot slid on the analysis of the graph so far,
    the first by ``reference_slide_one`` with the second taken, the second
    with the first's new position taken and, unless the dots hug a
    crossing, away from the quarter-cell beside the first; returns the slid
    positions."""
    grid = DF._working_grid(g)
    fx, fy = grid.fx, grid.fy
    gs = D.transform_coords(g, fx, fy)
    q1, q2 = [(fx[x], fy[y]) for x, y in (p1, p2)]
    near = None if hug_crossing is None else (fx[hug_crossing[0]], fy[hug_crossing[1]])
    _, _, F = DF.surgery_site(D.analyze(gs), q1, q2)
    gs, s1 = reference_slide_one(gs, q1, {q2}, near=near)
    distinct = None
    if near is None:
        an = D.analyze(gs)
        distinct = DF._quarter_of(an, an.arc_of(s1), s1, F)
    _, s2 = reference_slide_one(gs, q2, {s1}, near=near, distinct_quarter=distinct, F=F)
    return s1, s2


def geometry_slide(g, p1, p2, hug_crossing=None):
    w = DF._working_pair(g, p1, p2, hug_crossing=hug_crossing)
    return w.q1, w.q2


def assert_working_sites_agree(g):
    """At every surgery site of g the slides land where the former ones
    did, also beside each crossing the site's arcs hug, and any two sites
    with one working site key give one surgery form (or error class) and
    one condition (A) verdict (or error class).  Each site starts from a
    fresh working grid, so no site reads another's memo.  Returns how many
    sites in regions with holes repeat an earlier site's key."""
    by_key = {}
    repeats = 0
    moves = DF.enumerate_moves(g, allowed={"IV"})
    for m in moves:
        DF._working_grid.cache_clear()
        assert outcome(geometry_slide, g, *m.site) == outcome(reference_slide, g, *m.site)
        try:
            w = DF._working_pair(g, *m.site)
        except errors.LatPolyError:
            continue
        verdict = condition_A_outcome(DF.check_condition_A, g, *m.site)
        site = (surgery_outcome(g, *m.site), verdict[0] if isinstance(verdict, tuple) else verdict)
        if w.key in by_key and w.geo.holes[w.Fs]:
            repeats += 1
        by_key.setdefault(w.key, set()).add(site)
    assert all(len(sites) == 1 for sites in by_key.values())
    an = D.analyze(g)
    for c, _, k_in, k_out in DF.hug_sites(an):
        for m in moves:
            if {an.arc_of(p).key for p in m.site} == {k_in, k_out}:
                DF._working_grid.cache_clear()
                assert outcome(geometry_slide, g, *m.site, c) == \
                    outcome(reference_slide, g, *m.site, c)
    return repeats


@settings(max_examples=25, deadline=None)
@given(holed_graphs())
def test_sites_with_one_working_site_key_agree(g):
    # the rule behind one surgery and one condition (A) verdict per working
    # site: the slid dots' positions and the arcs fix the result's form
    assert_working_sites_agree(g)


# ----------------------------------------------------------- properties --

def test_moves_yield_valid_graphs_and_measures():
    fixtures = [circle_graph(dots=3), nested((True, True)),
                nested((True, False)), figure_eight(1, 1)]
    for g in fixtures:
        an = D.analyze(g)
        base = (len(g.dots), len(an.crossings))
        for m in DF.enumerate_moves(g):
            d = DF.apply_move(g, m)
            an2 = D.analyze(d.after)       # validates invariants on build
            dots2, cross2 = len(d.after.dots), len(an2.crossings)
            if m.kind == "I":
                assert dots2 < base[0] and cross2 == base[1]
            elif m.kind == "II":
                assert len(an2.circles) <= len(an.circles)
            elif m.kind == "III":
                assert cross2 < base[1] and dots2 <= base[0]
            elif m.kind == "IV":
                assert dots2 == base[0] and cross2 == base[1]


def test_all_IV_sites_at_a_dot_share_a_side():
    # every surgery at one dot uses the same side of its arc
    for g in (circle_graph(dots=3), nested((True, False)), figure_eight(2, 2)):
        an = D.analyze(g)
        sides = {}
        for m in DF.enumerate_moves(g, allowed={"IV"}):
            for p in m.site:
                arc, _, F = DF.surgery_site(an, p, p)
                side = "L" if an.left_face[arc.key] == F else "R"
                sides.setdefault(p, set()).add(side)
        assert all(len(s) == 1 for s in sides.values())


def test_no_IV_between_loop_and_outside_arc():
    # sites where a deletable loop exists never pair a loop arc with an
    # arc outside the loop's disk
    g = figure_eight(2, 2)
    an = D.analyze(g)
    loops = [c for c in an.loops if DF.component_sign_ok(an, c)]
    for m in DF.enumerate_moves(g, allowed={"IV"}):
        p1, p2 = m.site
        a1, a2 = an.arc_of(p1), an.arc_of(p2)
        for cert in loops:
            in1 = a1.key in cert.arcs
            in2 = a2.key in cert.arcs
            assert not (in1 ^ in2)


def test_core_class_table_around_junk():
    # the class-matching claim through the class table: both dots lie on
    # one component around two holes, so there are 4 core classes; the
    # zero class is the canonical core, and the core around the clockwise
    # obstacle alone separates different content
    big = [(0, 0), (24, 0), (24, 16), (0, 16)]
    junk = [(6, 6), (6, 10), (10, 10), (10, 6)]     # clockwise obstacle
    marker = [(14, 6), (18, 6), (18, 10), (14, 10)]
    g = D.DottedGraph.build([big, junk, marker], [(4, 0), (20, 0)])
    w = DF._working_pair(g, (4, 0), (20, 0))
    holes = w.geo.holes[w.Fs]
    assert len(holes) == 2
    classes = DF._enumerate_core_classes(w, DF._canonical_core(w), holes)
    assert len(classes) == 4

    def form(core):
        return D.canonical_form(D.normalized(DF._cut_and_join(w, core)[0]))

    junk_hole = min(holes)                          # junk lies left of marker
    only_junk = [sig for sig in classes
                 if [s != 0 for s in sig] == [h == junk_hole for h in holes]]
    assert len(only_junk) == 1
    zero = form(classes[(0, 0)])
    assert zero == D.canonical_form(DF.apply_IV(g, (4, 0), (20, 0)))
    assert form(classes[only_junk[0]]) != zero
    assert not DF.check_condition_A(g, (4, 0), (20, 0))
