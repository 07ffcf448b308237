import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from latpoly import errors, geometry as G, dotgraph as D, deform as DF, oracle as O, reduce as R
from test_deform import (assert_sites_match_reference, assert_working_sites_agree,
                         reference_check_condition_A, reference_disk_arc_pair,
                         two_holes_on_two_components)


def square_graph():
    return D.associate(G.validate_polytope([(0, 0), (1, 1)], [(1, 0), (0, 1)]))


def circle_graph(dots=2):
    pts = [(0, 0), (4, 0), (4, 4), (0, 4)]
    return D.DottedGraph.build([pts], pts[:dots])


def figure_eight(upper_dots=1, lower_dots=1):
    curve = [(0, 0), (2, 0), (2, 2), (1, 2), (1, -1), (0, -1)]
    dots = [(2, 2), (2, 0)][:upper_dots] + [(0, -1), (1, -1)][:lower_dots]
    return D.DottedGraph.build([curve], dots)


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


def stuck_graph(dots=1):
    """A counterclockwise circle holding two clockwise circles side by side:
    labels block every deletion, the clockwise pair is not concentric, and
    single dots block every merge of interest from being good."""
    big = [(0, 0), (24, 0), (24, 16), (0, 16)]
    cw1 = [(4, 4), (4, 12), (10, 12), (10, 4)]
    cw2 = [(14, 4), (14, 12), (20, 12), (20, 4)]
    dot_pts = [big[0], cw1[0], cw2[0]]
    if dots >= 2:
        dot_pts += [big[1], cw1[1], cw2[1]]
    return D.DottedGraph.build([big, cw1, cw2], dot_pts)


# ------------------------------------------------------------- measure ---

def test_measure():
    assert R.measure(square_graph()) == (2, 0, 1)
    assert R.measure(D.empty_graph()) == (0, 0, 0)
    assert R.measure(figure_eight()) == (2, 1, 0)


# --------------------------------------------------------- good_reduce ---

def test_good_reduce_square():
    trace = R.good_reduce(square_graph())
    assert trace.kinds() == ["I", "II"]
    assert trace.terminal.is_empty()


def test_good_reduce_rho():
    trace = R.good_reduce(figure_eight(1, 1))
    assert trace.kinds()[0] == "III"
    assert trace.terminal.is_empty()


def test_good_reduce_already_reduced():
    g = stuck_graph()
    trace = R.good_reduce(g)
    assert trace.kinds() == []
    assert trace.terminal == g
    assert R.is_good_reduced(g)


def test_good_reduce_concentric_pair_is_IVa2():
    trace = R.good_reduce(nested((True, False)))
    assert trace.kinds() == ["IVa2", "II"]
    assert trace.terminal.is_empty()


def test_stuck_all_dotted_reduction_is_a_bug(monkeypatch):
    # stage two always has a circle-eliminating step; with every deletion
    # refused, a lone circle leaves it none, and the error names the face
    # of greatest label magnitude and the circles beside it
    monkeypatch.setattr(DF, "component_sign_ok", lambda an, cert: False)
    with pytest.raises(errors.StuckReduction) as info:
        R.reduce_all_dotted(circle_graph())
    assert str(info.value) == ("no circle-eliminating step applies: the face of label 1, "
                               "the greatest magnitude, borders circles at [(0, 0)]")


@pytest.mark.parametrize("reducer, graph", [(R.good_reduce, nested((True, False))),
                                            (R.reduce_all_dotted, figure_eight(2, 2))])
def test_surgery_bugs_are_not_swallowed(monkeypatch, reducer, graph):
    """Only NotApplicable means "no good surgery here"; a RoutingFailure,
    which marks a bug, reaches the caller."""
    def broken(*args, **kwargs):
        raise errors.RoutingFailure("broken router")

    monkeypatch.setattr(DF, "surgery", broken)
    with pytest.raises(errors.RoutingFailure, match="broken router"):
        reducer(graph)


def test_good_reduce_trace_measures_decrease():
    for g in (square_graph(), figure_eight(2, 2), nested((True, True)),
              nested((True, False))):
        trace = R.good_reduce(g)
        ms = [R.measure(x) for x in trace.graphs()]
        for i, step in enumerate(trace.steps):
            before, after = ms[i], ms[i + 1]
            if step.kind == "I":
                assert after[0] < before[0] and after[1] == before[1]
            elif step.kind == "III":
                assert after[1] < before[1] and after[0] <= before[0]
            elif step.kind == "II":
                assert after[2] == before[2] - 1
        # each IVa pair decreases (dots, crossings) lexicographically
        for i, step in enumerate(trace.steps):
            if step.kind in ("IVa1", "IVa2"):
                b = ms[i]
                a = ms[i + 2]
                assert (a[0], a[1]) < (b[0], b[1])


# ---------------------------------------------------- reduce_all_dotted ---

def test_reduce_all_dotted_two_circles():
    g = D.DottedGraph.build(
        [[(0, 0), (4, 0), (4, 4), (0, 4)], [(8, 0), (12, 0), (12, 4), (8, 4)]],
        [(0, 0), (8, 0)])
    trace = R.reduce_all_dotted(g)
    assert trace.kinds() == ["II", "II"]
    assert trace.terminal.is_empty()


def test_reduce_all_dotted_concentric_opposite():
    trace = R.reduce_all_dotted(nested((True, False)))
    assert trace.terminal.is_empty()
    assert "IV" in [k[:2] for k in trace.kinds()]


def test_reduce_all_dotted_figure_eight():
    g = figure_eight(1, 1)
    trace = R.reduce_all_dotted(g)
    assert trace.terminal.is_empty()
    stage1 = R.stage1_terminal(trace)
    an = D.analyze(stage1)
    assert not an.crossings
    assert len(an.circles) == len(stage1.curves)
    assert all(a.dots for a in an.arcs)


def test_reduce_all_dotted_requires_dots():
    g = circle_graph(dots=0)
    with pytest.raises(errors.UndottedArc):
        R.reduce_all_dotted(g)


def test_reduce_all_dotted_blocked_circles_resolve():
    # labels 0/+1/0/0: nothing is deletable at first; merges must unblock
    trace = R.reduce_all_dotted(stuck_graph(dots=2))
    assert trace.terminal.is_empty()


def surgery_pair():
    """The IVa1 surgery of figure_eight(2, 1) and its loop deletion."""
    g = figure_eight(2, 1)
    from latpoly import deform as DF
    move = [m for m in DF.enumerate_moves(g, allowed={"IV"})
            if set(m.site) == {(2, 2), (2, 0)}][0]
    kind, (dIV, dIII) = DF.try_good_IV(g, move)
    assert kind == "IVa1"
    return g, dIV, dIII


def test_good_order_violations_are_unrepresentable():
    # a trace whose surgery is not followed by its loop deletion is rejected
    g, dIV, dIII = surgery_pair()
    with pytest.raises(errors.InvalidTrace):
        R.ReductionTrace(g, (dIV,))          # pair left dangling
    with pytest.raises(errors.InvalidTrace):
        R.ReductionTrace(g, (dIII,))         # steps do not compose
    R.ReductionTrace(g, (dIV, dIII))         # good order is accepted


def test_good_order_holds_under_O():
    here = os.path.dirname(os.path.abspath(__file__))
    code = ("import test_reduce as T\n"
            "g, dIV, dIII = T.surgery_pair()\n"
            "T.R.ReductionTrace(g, (dIV,))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(here, os.pardir, "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", code], cwd=here, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert ("latpoly.errors.InvalidTrace: good order: IVa1 must be followed by "
            "its deformation III") in proc.stderr


def test_bad_curve_input_rejected():
    with pytest.raises(errors.InvalidGraph):
        D.DottedGraph.build([[(0, 0), (4, 0), (0, 0), (0, 4)]])


# ------------------------------------------------------------- explore ---

def test_enumerate_square_single_terminal():
    forms = R.enumerate_reductions(square_graph())
    assert forms == {D.canonical_form(D.empty_graph())}


def test_enumerate_reduced_input():
    # opposite nested circles, one dot in total: no deformation applies
    curves = [[(0, 0), (12, 0), (12, 12), (0, 12)],
              [(3, 3), (3, 9), (9, 9), (9, 3)]]
    g = D.DottedGraph.build(curves, [(0, 0)])
    forms = R.enumerate_reductions(g)
    assert forms == {D.canonical_form(g)}


def test_explore_reports_condition_A():
    rep = R.explore_reductions(square_graph(), check_A=True)
    assert rep.condition_A_ok
    assert rep.terminals == {D.canonical_form(D.empty_graph())}


def test_explore_confluence_on_fixtures():
    for g in (circle_graph(3), nested((True, False)), figure_eight(1, 1),
              figure_eight(2, 2)):
        rep = R.explore_reductions(g, check_A=True)
        if rep.condition_A_ok:
            assert len(rep.terminals) == 1


@pytest.fixture
def fresh_condition_A():
    """An empty condition (A) cache, emptied again afterwards, so that no
    verdict of a patched check outlives the test."""
    R._condition_A.cache_clear()
    yield
    R._condition_A.cache_clear()


def test_condition_A_budget_hit_is_undecided(monkeypatch, fresh_condition_A):
    # every surgery site of this graph has its dots on two graph components
    # around two holes, where condition (A) is undecided
    rep = R.explore_reductions(two_holes_on_two_components())
    assert rep.condition_A_undecided and not rep.condition_A_ok
    assert rep.terminals == {D.canonical_form(D.empty_graph())}
    R._condition_A.cache_clear()
    monkeypatch.setattr(DF, "check_condition_A_everywhere", lambda g: False)
    rep = R.explore_reductions(two_holes_on_two_components())
    assert not rep.condition_A_undecided and not rep.condition_A_ok


def test_condition_A_cache_stays_bounded(fresh_condition_A):
    assert R._condition_A.cache_info().maxsize == D.FORM_CACHE_SIZE
    R.explore_reductions(square_graph())
    hits = R._condition_A.cache_info().hits
    R._condition_A(D.normalized(square_graph()))     # cached per graph
    assert R._condition_A.cache_info().hits == hits + 1


def test_condition_A_verdict_belongs_to_the_graph_not_its_form():
    # two graphs of the benchmark's confluence population with one canonical
    # form: random_dotted_graph(Random("confluence/36")) normalized, where
    # condition (A) holds throughout, and a state that exploring
    # "confluence/50" reaches, where it fails; the form collapses dot counts
    # to flags (6 dots against 7)
    holds = D.DottedGraph.build(
        [[(0, 0), (6, 0), (6, 7), (0, 7)], [(1, 3), (3, 3), (3, 4), (1, 4)],
         [(4, 1), (8, 1), (8, 6), (4, 6)]],
        [(2, 3), (5, 6), (5, 7), (6, 2), (6, 5), (7, 1)])
    fails = D.DottedGraph.build(
        [[(0, 0), (8, 0), (8, 6), (0, 6)],
         [(2, 1), (11, 1), (11, 5), (7, 5), (7, 2), (3, 2), (3, 5), (2, 5)],
         [(4, 4), (6, 4), (6, 5), (4, 5)]],
        [(1, 6), (4, 5), (5, 6), (7, 5), (8, 3), (9, 1), (10, 1)])
    assert D.canonical_form(holds) == D.canonical_form(fails)
    for order in ((holds, fails), (fails, holds)):
        R._condition_A.cache_clear()
        oks = {g: R.explore_reductions(g).condition_A_ok for g in order}
        assert oks == {holds: True, fails: False}


def reference_condition_A(g):
    """Condition (A) at every surgery site by the former check, which
    searches for the core classes wherever the middle region has holes:
    False when some site fails, else None when some site is undecided."""
    verdicts = [reference_check_condition_A(g, *m.site)
                for m in DF.enumerate_moves(g, allowed={"IV"})]
    return False if False in verdicts else None not in verdicts or None


def reference_explore(g, budget=2000, check_A=True, states=None):
    """The former ``explore_reductions``: every successor is built, its own
    canonical form decides whether it is new, and condition (A) enumerates
    every core class.  Appends each visited state to ``states`` if given."""
    report = R.ExplorationReport()
    start = D.normalized(g)
    seen = {D.canonical_form(start)}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        if states is not None:
            states.append(cur)
        report.visited += 1
        if report.visited > budget:
            raise errors.BudgetExceeded("reduction exploration budget hit")
        if check_A and report.condition_A_ok:
            ok = reference_condition_A(cur)
            if not ok:
                report.condition_A_ok = False
                report.condition_A_undecided = ok is None
        usable = []
        for m in DF.enumerate_moves(cur):
            if m.kind == "IV" and R._excluded_IV(cur, m):
                report.skipped_exclusion += 1
                continue
            usable.append(m)
        if not usable:
            report.terminals.add(D.canonical_form(cur))
            continue
        for m in usable:
            d = DF.apply_move(cur, m)
            f = D.canonical_form(d.after)
            if f not in seen:
                seen.add(f)
                frontier.append(d.after)
    return report


def identical_squares(k, side=3, gap=2, ccw=True):
    curves = []
    for j in range(k):
        x = j * (side + gap)
        sq = [(x, 0), (x + side, 0), (x + side, side), (x, side)]
        curves.append(sq if ccw else [sq[0]] + sq[:0:-1])
    return D.DottedGraph.build(curves, [sq[0] for sq in curves])


def report_fields(rep):
    return (rep.terminals, rep.visited, rep.skipped_exclusion, rep.condition_A_ok,
            rep.condition_A_undecided)


@pytest.mark.parametrize("g", [O.random_dotted_graph(random.Random(seed))
                               for seed in range(24)] +
                         [identical_squares(k, ccw=bool(k % 2)) for k in range(2, 6)] +
                         [O.random_dotted_graph(random.Random(f"confluence/{i}"))
                          for i in (51, 35, 7, 47, 48)])
def test_explore_matches_reference(g):
    # the explorer skips building merges, already-seen deletions of circles
    # that cross nothing, repeated surgeries on one arc pair in a disk and
    # at one working site around holes, and condition (A) skips annulus
    # sites and repeated working sites; what it reports must not change
    want = report_fields(reference_explore(g))
    R._condition_A.cache_clear()
    assert report_fields(R.explore_reductions(g)) == want


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.booleans(), st.integers(0, 3))
def test_surgeries_on_one_arc_pair_in_a_disk_give_one_form(seed, all_dotted, walk):
    # the rule behind the explorer's one surgery per arc pair, on a random
    # graph after up to three random moves
    rng = random.Random(seed)
    g = O.random_dotted_graph(rng, require_all_dotted=all_dotted)
    for _ in range(walk):
        moves = DF.enumerate_moves(g)
        if not moves:
            break
        g = DF.apply_move(g, rng.choice(moves)).after
    forms = {}
    for m in DF.enumerate_moves(g, allowed={"IV"}):
        pair = reference_disk_arc_pair(g, m)
        if pair is not None:
            forms.setdefault(pair, set()).add(D.canonical_form(DF.apply_move(g, m).after))
    assert all(len(f) == 1 for f in forms.values())


@pytest.mark.parametrize("i", [35, 7, 47])
def test_working_sites_agree_on_explored_states(i):
    # the confluence inputs that repeat a working site around holes most
    # often, at every state their exploration visits
    states = []
    reference_explore(O.random_dotted_graph(random.Random(f"confluence/{i}")),
                      check_A=False, states=states)
    assert sum(assert_working_sites_agree(s) for s in states) > 0


@pytest.mark.parametrize("i", [51, 35, 7, 47, 48])
def test_sites_match_the_former_derivations_on_explored_states(i):
    # every surgery site of every state the exploration visits
    states = []
    reference_explore(O.random_dotted_graph(random.Random(f"confluence/{i}")),
                      check_A=False, states=states)
    assert sum(assert_sites_match_reference(s) for s in states) > 0


def reference_first_good_group(g):
    """The former ``_first_good_group``: one enumeration of every kind,
    surgery sites included."""
    moves = DF.enumerate_moves(g)
    for m in moves:
        if m.kind in ("I", "II", "III"):
            return [DF.apply_move(g, m)]
    for m in moves:
        if m.kind != "IV":
            continue
        out = DF.try_good_IV(g, m)
        if out is not None:
            return list(out[1])
    return None


def random_polytope(rng, n):
    """An n-point polytope on the 3n x 3n grid."""
    xs = rng.sample(range(3 * n), n)
    ys = rng.sample(range(3 * n), n)
    ys1 = ys[:]
    rng.shuffle(ys1)
    return G.validate_polytope(list(zip(xs, ys)), list(zip(xs, ys1)))


@pytest.mark.parametrize("n", range(6, 12))
def test_good_reduce_matches_reference_scheduler(n, monkeypatch):
    rng = random.Random(f"good-reduce/{n}")
    graphs = [D.associate(random_polytope(rng, n)) for _ in range(6)]
    traces = [R.good_reduce(g) for g in graphs]
    monkeypatch.setattr(R, "_first_good_group", reference_first_good_group)
    for g, trace in zip(graphs, traces):
        want = R.good_reduce(g)
        assert trace.steps == want.steps
        assert [s.meta for s in trace.steps] == [s.meta for s in want.steps]
