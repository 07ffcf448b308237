"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""
import random
import time
from functools import lru_cache

import pytest

from latpoly import (deform as DF, dotgraph as D, errors, geometry as G,
                     oracle as O, plan as PL, reduce as R)

CORPUS_MAX_POINTS = 3
CORPUS_MAX_COORD = 4


@lru_cache(maxsize=1)
def corpus():
    return list(O.exhaustive_polytopes(CORPUS_MAX_POINTS, CORPUS_MAX_COORD))


@lru_cache(maxsize=1)
def corpus_graphs():
    """One representative polytope per distinct boundary-graph form."""
    reps = {}
    for p in corpus():
        g = D.associate(p)
        form = D.canonical_form(g)
        reps.setdefault(form, (g, p))
    return reps


@lru_cache(maxsize=1)
def corpus_translated():
    """Translation representatives (identical under coordinate shifts)."""
    reps = {}
    for p in corpus():
        xs = sorted(q.x for q in p.ver0.points)
        ys = sorted(q.y for q in p.ver0.points)
        x0, y0 = xs[0], ys[0]
        key = (tuple(sorted((q.x - x0, q.y - y0) for q in p.ver0.points)),
               tuple(sorted((q.x - x0, q.y - y0) for q in p.ver1.points)))
        reps.setdefault(key, p)
    return list(reps.values())


def test_criterion_1_signed_area_identity():
    t0 = time.monotonic()
    rng = random.Random(20260808)
    for _ in range(1000):
        p = O.random_polytope(rng, max_points=4, max_coord=6)
        rects = O.random_transformation(rng, p)
        signed, absolute = G.plan_cost(rects)
        assert signed == G.area_signed(p)
        assert absolute >= G.area_abs(p)
    dt = time.monotonic() - t0
    assert dt < 10.0, f"criterion 1 took {dt:.1f}s"
    print(f"\nCRITERION 1: PASS - 1000 random transformations match the "
          f"signed area exactly and cost at least the absolute area ({dt:.1f}s)")


def test_criterion_2_oracle_cost_bounds_area():
    t0 = time.monotonic()
    checked = 0
    for p in corpus():
        cost, _ = O.min_cost(p.ver0, p.ver1)
        assert cost >= G.area_abs(p)
        checked += 1
    dt = time.monotonic() - t0
    assert dt < 60.0, f"criterion 2 took {dt:.1f}s"
    print(f"\nCRITERION 2: PASS - oracle cost >= absolute area on all "
          f"{checked} corpus polytopes ({dt:.1f}s)")


def test_criterion_3_compiled_plans_are_minimal():
    empties_forms = {form for form, (g, _) in corpus_graphs().items()
                     if O.reduction_empties(g)}
    # the area identities hold for every corpus polytope
    compiled = 0
    for p in corpus_translated():
        g = D.associate(p)
        if D.canonical_form(g) not in empties_forms:
            continue
        trace = R.good_reduce(g)
        plan = PL.compile_plan(trace, p)
        cost, _ = O.min_cost(p.ver0, p.ver1)
        assert plan.cost_abs == G.area_abs(p) == cost
        cur = p
        for step in plan.steps:
            assert PL.classify_step(cur, step.rect, step.mode,
                                    with_tag=False).minimal
            cur = PL.apply_step(cur, step)
        compiled += 1
    # fixed expectations from the oracle
    sq = G.validate_polytope([(0, 0), (1, 1)], [(1, 0), (0, 1)])
    st = G.validate_polytope([(0, 0), (1, 1), (2, 2)], [(0, 1), (1, 2), (2, 0)])
    assert PL.compile_plan(R.good_reduce(D.associate(sq)), sq).cost_abs == 1
    assert PL.compile_plan(R.good_reduce(D.associate(st)), st).cost_abs == 3
    print(f"\nCRITERION 3: PASS - {compiled} translation-distinct polytopes "
          f"with emptying reductions compile to minimal plans "
          f"(square cost 1, staircase cost 3)")


def test_criterion_4_termination_and_measures():
    graphs = [g for g, _ in corpus_graphs().values()]
    rng = random.Random(4)
    for _ in range(500):
        graphs.append(O.random_dotted_graph(rng))
    checked_steps = 0
    for g in graphs:
        trace = R.good_reduce(g)           # budget violation raises
        ms = [R.measure(x) for x in trace.graphs()]
        for i, step in enumerate(trace.steps):
            b, a = ms[i], ms[i + 1]
            if step.kind == "I":
                assert a[0] < b[0] and a[1] == b[1]
            elif step.kind == "III":
                assert a[1] < b[1] and a[0] <= b[0]
            elif step.kind == "II":
                assert a[2] == b[2] - 1
            if step.kind in ("IVa1", "IVa2"):
                after_pair = ms[i + 2]
                assert (after_pair[0], after_pair[1]) < (b[0], b[1])
            checked_steps += 1
    print(f"\nCRITERION 4: PASS - good reduction terminated on "
          f"{len(graphs)} graphs (corpus forms + 500 random samples), "
          f"{checked_steps} steps all decreasing as required")


def test_criterion_5_confluence_under_condition_A():
    rng = random.Random(5)
    pool = {form: g for form, (g, _) in corpus_graphs().items()}
    while len(pool) < 44:
        g = O.random_dotted_graph(rng)
        if len(g.dots) > 4:
            continue
        pool.setdefault(D.canonical_form(g), g)
    single = 0
    skipped = 0
    for form, g in pool.items():
        rep = R.explore_reductions(g, budget=4000, check_A=True)
        if not rep.condition_A_ok:
            skipped += 1
            continue
        assert len(rep.terminals) == 1, \
            f"multiple terminals for a graph satisfying the all-cores condition: {form}"
        single += 1
    assert single > 0
    print(f"\nCRITERION 5: PASS - {single} graph forms (corpus plus random) "
          f"satisfying the all-cores condition reduce to a unique terminal "
          f"({skipped} forms outside the condition)")


def test_criterion_6_realize_roundtrip():
    rng = random.Random(6)
    done = 0
    tried = 0
    while done < 200 and tried < 4000:
        tried += 1
        g = O.random_dotted_graph(rng)
        if g.is_empty() or not D.is_admissible_sufficient(g):
            continue
        p = D.realize(g)
        assert D.equivalent_mod_E_I(D.associate(p), g)
        done += 1
    assert done == 200
    print(f"\nCRITERION 6: PASS - 200 graphs with two dots per arc "
          f"realize and associate back to the same form")


def test_criterion_7_all_dotted_reduction():
    cases = []
    for form, (g, p) in corpus_graphs().items():
        cases.append((g, p))
    rng = random.Random(7)
    seen = {D.canonical_form(g) for g, _ in cases}
    tries = 0
    while len(cases) < 30 and tries < 400:
        tries += 1
        g = O.random_dotted_graph(rng)
        form = D.canonical_form(g)
        if form in seen:
            continue
        seen.add(form)
        p = None
        if D.is_admissible_sufficient(g):
            q = D.realize(g)
            if len(q.ver0) <= 9:
                p = q
        cases.append((g, p))
    checked = 0
    compiled = 0
    for g, p in cases:
        an = D.analyze(g)
        if g.is_empty() or not all(a.dots for a in an.arcs):
            continue
        trace = R.reduce_all_dotted(g)
        assert trace.terminal.is_empty()
        stage1 = R.stage1_terminal(trace)
        s1an = D.analyze(stage1)
        assert not s1an.crossings
        assert len(s1an.circles) == len(stage1.curves)
        assert all(a.dots for a in s1an.arcs)
        checked += 1
        if p is not None:
            plan = PL.compile_plan(trace, p)
            assert plan.cost_abs == G.area_abs(p)
            compiled += 1
    assert checked > 0 and compiled > 0
    print(f"\nCRITERION 7: PASS - {checked} all-dotted graph forms reduce to "
          f"empty with disjoint dotted circles after stage one; {compiled} "
          f"compiled plans match the absolute area")


def test_criterion_8_normalization():
    rng = random.Random(8)
    done = 0
    while done < 200:
        p = O.random_polytope(rng, max_points=4, max_coord=6)
        xs = sorted(q.x for q in p.ver0.points)
        ys = [q.y for q in p.ver0.points]
        rng.shuffle(ys)
        mid = G.PointConfig.of(list(zip(xs, ys)))
        normal = _sorting_steps(p.ver0, mid, PL.normal_step)
        rev = _sorting_steps(p.ver1, mid, PL.reversed_step)
        plan = PL.TransformPlan(tuple(normal + rev))
        if not plan.steps:
            continue
        out = PL.normalize(plan, p)
        assert all(s.mode == "normal" for s in out.steps)
        assert out.cost_abs == plan.cost_abs
        assert out.cost_signed == plan.cost_signed == G.area_signed(p)
        assert G.trivial(PL.replay(p, out))
        done += 1
    print("\nCRITERION 8: PASS - 200 random mixed plans normalize to "
          "normal-only plans with identical endpoints and costs")


def _sorting_steps(conf, target_config, maker):
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
    return steps


def _poked_fixture():
    """Three nested circles and the same graph with the innermost edge
    poked through the middle circle (the extended move that undoes itself
    with an arc isotopy)."""
    outer = [(0, 0), (24, 0), (24, 24), (0, 24)]
    middle = [(4, 4), (20, 4), (20, 20), (4, 20)]
    inner = [(8, 8), (16, 8), (16, 16), (8, 16)]
    dots = [(0, 0), (4, 4), (8, 8)]
    flat = D.DottedGraph.build([outer, middle, inner], dots)
    poked_inner = [(8, 8), (10, 8), (10, 2), (14, 2), (14, 8),
                   (16, 8), (16, 16), (8, 16)]
    poked = D.DottedGraph.build([outer, middle, poked_inner], dots)
    return flat, poked


def test_criterion_9_negative_fixtures():
    flat, poked = _poked_fixture()
    # the poke/unpoke pair cycles forever under the extended move set
    budget = R.step_budget(flat)
    g = flat
    steps = 0
    tripped = False
    while True:
        g = poked                                   # the pictorial move
        steps += 1
        g = DF.apply_E(g, (10, 8), (14, 8), [(10, 8), (14, 8)])
        steps += 1
        assert D.equivalent_mod_E_I(g, flat)
        if steps > budget:
            tripped = True
            break
    assert tripped, "the extended move set should never terminate"
    # under the four deformations alone the same graph reduces fine
    assert R.good_reduce(flat).terminal.is_empty()
    assert R.good_reduce(poked).terminal.is_empty()
    assert R.enumerate_reductions(poked) == {D.canonical_form(D.empty_graph())}

    # label-condition counterexamples are rejected
    def nested(orients, size=18):
        curves, dot_pts = [], []
        for i, ccw in enumerate(orients):
            k = 3 * i
            pts = [(k, k), (size - k, k), (size - k, size - k), (k, size - k)]
            if not ccw:
                pts = [pts[0]] + pts[:0:-1]
            curves.append(pts)
            dot_pts.append(pts[0])
        return D.DottedGraph.build(curves, dot_pts)

    bad1 = nested((True, True, False))      # disk +1 against complement +2
    inner1 = {c.curve: c for c in D.find_components(bad1)}[2]
    with pytest.raises(errors.LabelMismatch):
        DF.apply_II(bad1, inner1)
    bad2 = nested((False, False, True))     # disk -1 against complement -2
    inner2 = {c.curve: c for c in D.find_components(bad2)}[2]
    with pytest.raises(errors.LabelMismatch):
        DF.apply_II(bad2, inner2)
    assert all(m.site.curve != 2 for m in DF.enumerate_moves(bad1, {"II"}))
    print("\nCRITERION 9: PASS - the poke/isotopy cycle trips the step "
          "budget while the plain deformations terminate; label-condition "
          "counterexamples are rejected")
