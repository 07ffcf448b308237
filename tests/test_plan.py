import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from latpoly import (errors, geometry as G, deform as DF, dotgraph as D, oracle as O,
                     plan as PL, reduce as R)
from latpoly.arrangement import winding_2x
from latpoly.geometry import P, Rect


def square():
    return G.validate_polytope([(0, 0), (1, 1)], [(1, 0), (0, 1)])


def staircase():
    return G.validate_polytope([(0, 0), (1, 1), (2, 2)], [(0, 1), (1, 2), (2, 0)])


def random_polytope(rng, max_points=3, max_coord=4):
    n = rng.randint(1, max_points)
    xs = rng.sample(range(max_coord + 1), n)
    ys = rng.sample(range(max_coord + 1), n)
    ys2 = ys[:]
    rng.shuffle(ys2)
    return G.validate_polytope([(x, y) for x, y in zip(xs, ys)],
                               [(x, y) for x, y in zip(xs, ys2)])


def sorting_steps(conf, target_config, maker):
    steps = []
    target = target_config.by_x()
    while True:
        wrong = sorted(q for q in conf.points if target[q.x] != q)
        if not wrong:
            break
        v = wrong[0]
        w = conf.by_y()[target[v.x].y]
        steps.append(maker(v, w))
        conf = G.rect_transform(conf, v, w)
    return steps, conf


def random_mixed_plan(rng, p):
    """A complete mixed plan: normal moves take Ver0 to a random midpoint
    configuration, reversed moves take Ver1 there too."""
    xs = sorted(q.x for q in p.ver0.points)
    ys = [q.y for q in p.ver0.points]
    rng.shuffle(ys)
    mid = G.PointConfig.of(list(zip(xs, ys)))
    normal, _ = sorting_steps(p.ver0, mid, PL.normal_step)
    rev, _ = sorting_steps(p.ver1, mid, PL.reversed_step)
    return PL.TransformPlan(tuple(normal + rev))


# ----------------------------------------------------------- classify_step --

def reference_classify(p, r, mode="normal", with_tag=True):
    """The former ``classify_step``: apply the move, then compare the
    winding numbers before and after at every cell of the rectangle cut by
    the boundary's lines."""
    q = PL.apply_step(p, PL.PlanStep(r, mode))
    before = G.boundary_segments(p)
    after = G.boundary_segments(q)
    xlo, xhi, ylo, yhi = r.bounds()
    xs = sorted({x for seg in before + after for x in (seg[0][0], seg[1][0])
                 if xlo <= x <= xhi} | {xlo, xhi})
    ys = sorted({y for seg in before + after for y in (seg[0][1], seg[1][1])
                 if ylo <= y <= yhi} | {ylo, yhi})
    eps = None
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            s2 = (xs[i] + xs[i + 1], ys[j] + ys[j + 1])
            lb = winding_2x(s2, before)
            la = winding_2x(s2, after)
            if lb == 0:
                return PL.StepVerdict(False, None, "", (s2, lb, la))
            e = 1 if lb > 0 else -1
            if eps is None:
                eps = e
            if e != eps or la != lb - eps:
                return PL.StepVerdict(False, eps, "", (s2, lb, la))
    return PL.StepVerdict(True, eps, PL._step_tag(p, q) if with_tag else "", None)


def reference_passing_steps(p):
    """The former ``_passing_steps``: every candidate through the reference
    classifier, normal moves first."""
    out = []
    for mode, points, make in (("normal", p.ver0.points, PL.normal_step),
                               ("reversed", p.ver1.points, PL.reversed_step)):
        pts = sorted(points)
        for i, v in enumerate(pts):
            for w in pts[i + 1:]:
                step = make(v, w)
                if reference_classify(p, step.rect, mode, with_tag=False).minimal:
                    out.append(step)
    return out


def reference_mixed_steps(p):
    """The mixed ``_passing_steps`` of descent before it searched normal
    moves only: normal moves on pairs of initial vertices, then reversed
    moves on pairs of terminal vertices, each tested on one label grid with
    e the sign of its stored rectangle."""
    grid = G.label_grid(p)
    for points, make, flip in ((p.ver0.points, PL.normal_step, 1),
                               (p.ver1.points, PL.reversed_step, -1)):
        pts = sorted(points)
        for i, v in enumerate(pts):
            for w in pts[i + 1:]:
                if grid.uniform(v, w, flip if w.y > v.y else -flip):
                    yield make(v, w)


def reference_descend(p):
    """The mixed ``_descend``: depth-first search over both normal and
    reversed passing moves, with dead states keyed by both point sets."""
    dead = set()
    stack = [(p, reference_mixed_steps(p), None)]
    while stack:
        state, moves, _ = stack[-1]
        if G.trivial(state):
            return [step for _, _, step in stack[1:]]
        for step in moves:
            nxt = PL.apply_step(state, step)
            if (nxt.ver0.points, nxt.ver1.points) not in dead:
                stack.append((nxt, reference_mixed_steps(nxt), step))
                break
        else:
            dead.add((state.ver0.points, state.ver1.points))
            stack.pop()
    return None


@st.composite
def walked_polytopes(draw, max_points=10, max_coord=30):
    """A random polytope with some isolated vertices, then a short random
    walk of normal and reversed moves from it."""
    n = draw(st.integers(1, max_points))
    coords = st.lists(st.integers(0, max_coord), min_size=n, max_size=n, unique=True)
    xs, ys = draw(coords), draw(coords)
    fixed = draw(st.sets(st.integers(0, n - 1)))
    free = [i for i in range(n) if i not in fixed]
    ys1 = ys[:]
    for i, k in zip(free, draw(st.permutations(free))):
        ys1[i] = ys[k]
    p = G.validate_polytope(list(zip(xs, ys)), list(zip(xs, ys1)))
    for normal, i, j in draw(st.lists(st.tuples(st.booleans(), st.integers(0, n - 1),
                                                st.integers(0, n - 1)), max_size=4)):
        pts = sorted(p.ver0.points if normal else p.ver1.points)
        if i != j:
            r = Rect(pts[i], pts[j])
            p = G.apply_normal(p, r) if normal else G.apply_reversed(p, r)
    return p


@settings(max_examples=120, deadline=None)
@given(walked_polytopes())
def test_classifier_matches_reference(p):
    # every candidate of both modes, naming either diagonal
    for mode, config in (("normal", p.ver0), ("reversed", p.ver1)):
        pts = sorted(config.points)
        for i, v in enumerate(pts):
            for w in pts[i + 1:]:
                for r in (Rect(v, w), Rect(*Rect(v, w).other_diagonal())):
                    assert PL.classify_step(p, r, mode) == reference_classify(p, r, mode)
    normal_half = [s for s in reference_passing_steps(p) if s.mode == "normal"]
    assert list(PL._passing_steps(p)) == normal_half


def test_classify_square_move():
    verdict = PL.classify_step(square(), Rect(P(0, 0), P(1, 1)))
    assert verdict.minimal and verdict.epsilon == 1


def test_classify_rejects_zero_region():
    p = G.validate_polytope([(0, 0), (1, 1), (3, 3)], [(1, 0), (0, 1), (3, 3)])
    verdict = PL.classify_step(p, Rect(P(0, 0), P(3, 3)))
    assert not verdict.minimal
    assert verdict.witness is not None


def test_classify_staircase_plan_steps():
    p = staircase()
    v1 = PL.classify_step(p, Rect(P(0, 0), P(2, 2)))
    assert not v1.minimal          # spans the outside of the staircase
    v2 = PL.classify_step(p, Rect(P(0, 0), P(1, 1)))
    assert v2.minimal


# ----------------------------------------------------------- verify_minimal --

def test_verify_minimal_square():
    plan = PL.TransformPlan((PL.normal_step(P(0, 0), P(1, 1)),))
    assert PL.verify_minimal(plan, square())


def test_verify_minimal_detour():
    mv = PL.normal_step(P(0, 0), P(1, 1))
    back = PL.normal_step(P(1, 0), P(0, 1))
    plan = PL.TransformPlan((mv, back, mv))
    assert plan.cost_abs == 3
    assert plan.cost_signed == 1
    assert not PL.verify_minimal(plan, square())


def test_verify_minimal_trivial():
    p = G.validate_polytope([(0, 0)], [(0, 0)])
    assert PL.verify_minimal(PL.TransformPlan(()), p)


def test_replay_wraps_step_errors_and_lets_bug_errors_through(monkeypatch):
    p = square()
    stray = PL.TransformPlan((PL.normal_step(P(0, 0), P(2, 2)),))
    with pytest.raises(errors.InvalidPlan, match="^plan does not replay: "):
        PL.replay(p, stray)
    odd = PL.TransformPlan((PL.PlanStep(Rect(P(0, 0), P(1, 1)), "sideways"),))
    with pytest.raises(errors.InvalidPlan,
                       match="^plan does not replay: unknown step mode sideways$"):
        PL.replay(p, odd)

    def broken(cur, step):
        raise errors.RoutingFailure("route failed")
    monkeypatch.setattr(PL, "apply_step", broken)
    with pytest.raises(errors.RoutingFailure, match="^route failed$"):
        PL.replay(p, PL.TransformPlan((PL.normal_step(P(0, 0), P(1, 1)),)))


def test_verify_requires_completion():
    plan = PL.TransformPlan(())
    with pytest.raises(errors.NotATransformation):
        PL.verify_minimal(plan, square())


# ------------------------------------------------------------ realize_IVa1 --

def crossed_polytope():
    """One boundary crossing: a figure-eight shaped polytope."""
    g = D.DottedGraph.build([[(0, 0), (2, 0), (2, 2), (1, 2), (1, -1), (0, -1)]],
                            [(2, 0), (2, 2), (0, -1), (1, -1)])
    return D.realize(g)


def test_realize_IVa1_finds_rectangle():
    p = crossed_polytope()
    an = D.analyze(D.associate(p))
    assert len(an.crossings) == 1
    c = next(iter(an.crossings))
    found = None
    for quad in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        try:
            found = PL.realize_IVa1(p, (c, quad))
            break
        except errors.NotIVa1Site:
            continue
    assert found is not None
    rect, mode = found
    step = PL.PlanStep(rect, mode)
    q = PL.apply_step(p, step)
    assert len(D.analyze(D.associate(q)).crossings) == 0


def test_realize_IVa1_covers_both_modes():
    # the two viable quadrants of the crossing sit at initial corners on one
    # side and terminal corners on the other
    p = crossed_polytope()
    an = D.analyze(D.associate(p))
    c = next(iter(an.crossings))
    modes = {}
    for quad in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        try:
            rect, mode = PL.realize_IVa1(p, (c, quad))
            modes[mode] = rect
        except errors.NotIVa1Site:
            continue
    assert set(modes) == {"normal", "reversed"}
    rv, rw = modes["reversed"].other_diagonal()
    assert rv in p.ver1.points and rw in p.ver1.points
    q = PL.apply_step(p, PL.PlanStep(modes["reversed"], "reversed"))
    assert len(D.analyze(D.associate(q)).crossings) == 0


def test_realize_IVa1_rejects_non_site():
    p = square()
    with pytest.raises(errors.NotIVa1Site):
        PL.realize_IVa1(p, ((0, 0), (1, 1)))


# ------------------------------------------------------------------ compile --

def test_compile_square():
    p = square()
    trace = R.good_reduce(D.associate(p))
    plan = PL.compile_plan(trace, p)
    assert plan.cost_abs == 1 == G.area_abs(p)
    assert [s.mode for s in plan.steps] == ["normal"]


def test_compile_staircase():
    p = staircase()
    trace = R.good_reduce(D.associate(p))
    plan = PL.compile_plan(trace, p)
    assert plan.cost_abs == 3 == G.area_abs(p)
    assert PL.verify_minimal(plan, p)
    cur = p
    for step in plan.steps:
        assert PL.classify_step(cur, step.rect, step.mode).minimal
        cur = PL.apply_step(cur, step)


def test_compile_crossed_polytope():
    p = crossed_polytope()
    trace = R.good_reduce(D.associate(p))
    assert trace.terminal.is_empty()
    plan = PL.compile_plan(trace, p)
    assert PL.verify_minimal(plan, p)


def test_compile_rejects_nonempty_terminal():
    curves = [[(0, 0), (12, 0), (12, 12), (0, 12)],
              [(3, 3), (3, 9), (9, 9), (9, 3)]]
    g = D.DottedGraph.build(curves, [(0, 0), (12, 0), (3, 3), (3, 9)])
    p = D.realize(g)
    trace = R.good_reduce(D.associate(p))
    if not trace.terminal.is_empty():
        with pytest.raises(errors.NonEmptyTerminal):
            PL.compile_plan(trace, p)


_descend = PL._descend


def detoured_descend(p):
    """_descend, then a move on two terminal points and its inverse: the
    plan still replays but is no longer minimal."""
    a, b = sorted(p.ver1.points)[:2]
    detour = [PL.normal_step(a, b), PL.normal_step(P(a.x, b.y), P(b.x, a.y))]
    return _descend(p) + detour


def test_compile_postcondition_raises_compile_gap(monkeypatch):
    monkeypatch.setattr(PL, "_descend", detoured_descend)
    p = staircase()
    with pytest.raises(errors.CompileGap, match="^compiled plan is not minimal$"):
        PL.compile_plan(R.good_reduce(D.associate(p)), p)


def test_compile_postcondition_holds_under_O():
    here = os.path.dirname(os.path.abspath(__file__))
    code = ("import test_plan as T\n"
            "T.PL._descend = T.detoured_descend\n"
            "p = T.staircase()\n"
            "T.PL.compile_plan(T.R.good_reduce(T.D.associate(p)), p)\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(here, os.pardir, "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", code], cwd=here, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "latpoly.errors.CompileGap: compiled plan is not minimal" in proc.stderr


@st.composite
def polytopes(draw, max_points=8):
    """A random polytope of 1..max_points points."""
    n = draw(st.integers(1, max_points))
    coords = st.lists(st.integers(0, 3 * n), min_size=n, max_size=n, unique=True)
    xs, ys = draw(coords), draw(coords)
    ys1 = draw(st.permutations(ys))
    return G.validate_polytope(list(zip(xs, ys)), list(zip(xs, ys1)))


# Draws with no minimal plan, found by seeded search under reference_descend:
# draw 5 of Random(5) and draw 55 of Random(8), each drawn as in
# test_compile_past_desk_scale.
NO_PLAN_5 = G.validate_polytope([(1, 11), (4, 5), (5, 2), (7, 14), (13, 7)],
                                [(1, 2), (4, 7), (5, 14), (7, 5), (13, 11)])
NO_PLAN_8 = G.validate_polytope(
    [(1, 4), (2, 10), (3, 23), (7, 19), (8, 5), (11, 14), (14, 16), (21, 6)],
    [(1, 16), (2, 14), (3, 4), (7, 6), (8, 19), (11, 10), (14, 5), (21, 23)])


@settings(max_examples=200, deadline=None)
@given(polytopes())
@example(NO_PLAN_5)
@example(NO_PLAN_8)
def test_normal_descent_matches_reference(p):
    steps = PL._descend(p)
    assert (steps is None) == (reference_descend(p) is None)
    if steps is not None:
        assert all(s.mode == "normal" for s in steps)
        assert PL.verify_minimal(PL.TransformPlan(tuple(steps)), p)


def test_pinned_draws_have_no_minimal_plan():
    for p in (NO_PLAN_5, NO_PLAN_8):
        assert PL._descend(p) is None and reference_descend(p) is None
    assert O.min_cost(NO_PLAN_5.ver0, NO_PLAN_5.ver1)[0] > G.area_abs(NO_PLAN_5)


def test_compile_past_desk_scale():
    compiled = 0
    for n in (10, 12, 14):
        rng = random.Random(n)
        for _ in range(12):
            xs = rng.sample(range(3 * n), n)
            ys = rng.sample(range(3 * n), n)
            ys1 = ys[:]
            rng.shuffle(ys1)
            p = G.validate_polytope(list(zip(xs, ys)), list(zip(xs, ys1)))
            trace = R.good_reduce(D.associate(p))
            if not trace.terminal.is_empty():
                continue
            plan = PL.compile_plan(trace, p)
            assert PL.verify_minimal(plan, p)
            cur = p
            for step in plan.steps:
                assert PL.classify_step(cur, step.rect, step.mode, with_tag=False).minimal
                cur = PL.apply_step(cur, step)
            compiled += 1
    assert compiled == 29


def test_seven_point_witness_has_a_plan_but_no_move():
    # the dotted graph admits no deformation, yet descent finds a minimal
    # plan: a minimal plan does not imply an emptying reduction
    p = G.validate_polytope(
        [(8, 5), (10, 0), (14, 4), (15, 18), (16, 7), (17, 1), (20, 9)],
        [(8, 5), (10, 7), (14, 9), (15, 1), (16, 0), (17, 18), (20, 4)])
    g = D.associate(p)
    assert DF.enumerate_moves(g) == []
    trace = R.good_reduce(g)
    assert trace.steps == () and not trace.terminal.is_empty()
    steps = PL._descend(p)
    assert len(steps) == 7
    cur = p
    for step in steps:
        assert PL.classify_step(cur, step.rect, step.mode).minimal
        cur = PL.apply_step(cur, step)
    plan = PL.normalize(PL.TransformPlan(tuple(steps)), p)
    assert PL.verify_minimal(plan, p) and plan.cost_abs == 80 == G.area_abs(p)
    assert O.min_cost(p.ver0, p.ver1, limit=7)[0] == 80


# ---------------------------------------------------------------- normalize --

def test_normalize_single_block():
    p = square()
    plan = PL.TransformPlan((PL.reversed_step(P(0, 1), P(1, 0)),))
    # one reversed move completes: ver1 becomes {(0,0),(1,1)} = ver0? no:
    # reversed along the terminal diagonal joins the two configurations
    final = PL.replay(p, plan)
    assert G.trivial(final)
    out = PL.normalize(plan, p)
    assert all(s.mode == "normal" for s in out.steps)
    assert out.cost_abs == plan.cost_abs
    assert out.cost_signed == plan.cost_signed


def test_normalize_keeps_normal_plans():
    p = square()
    plan = PL.TransformPlan((PL.normal_step(P(0, 0), P(1, 1)),))
    assert PL.normalize(plan, p) == plan


def test_normalize_random_mixed_plans():
    rng = random.Random(77)
    done = 0
    for _ in range(200):
        p = random_polytope(rng)
        plan = random_mixed_plan(rng, p)
        if not plan.steps:
            continue
        out = PL.normalize(plan, p)
        assert all(s.mode == "normal" for s in out.steps)
        assert out.cost_abs == plan.cost_abs
        assert out.cost_signed == plan.cost_signed
        assert G.trivial(PL.replay(p, out))
        done += 1
    assert done >= 100


def test_mixed_plans_satisfy_area_identity():
    rng = random.Random(5)
    for _ in range(100):
        p = random_polytope(rng)
        plan = random_mixed_plan(rng, p)
        assert plan.cost_signed == G.area_signed(p)


def test_realize_IVa1_rejects_polluted_rectangle():
    # other boundary parts run through the candidate rectangle; the move
    # would not present the surgery
    p = G.validate_polytope([(0, 2), (2, 7), (3, 0), (7, 8), (8, 5)],
                            [(0, 8), (2, 0), (3, 7), (7, 5), (8, 2)])
    with pytest.raises(errors.NotIVa1Site):
        PL.realize_IVa1(p, ((3, 2), (1, 1)))
