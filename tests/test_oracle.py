import random

import pytest

from latpoly import errors, geometry as G, oracle as O, dotgraph as D
from latpoly.geometry import Rect


def exhaustive_min_cost(ver0, ver1, depth: int) -> int | None:
    """Depth-bounded exhaustive search; an independent check of min_cost."""
    p = G.validate_polytope(ver0, ver1)
    goal = frozenset(p.ver1.points)

    def go(conf, budget, used):
        if conf == goal:
            return 0
        if budget == 0:
            return None
        out = None
        pts = sorted(conf)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                v, w = pts[i], pts[j]
                if v.x == w.x or v.y == w.y:
                    continue
                nconf = frozenset(G.rect_transform(G.PointConfig(conf), v, w).points)
                if nconf in used:
                    continue
                sub = go(nconf, budget - 1, used | {nconf})
                if sub is not None:
                    c = sub + abs(G.rect_area_signed(Rect(v, w)))
                    out = c if out is None else min(out, c)
        return out

    start = frozenset(p.ver0.points)
    return go(start, depth, {start})


def test_min_cost_square():
    cost, plan = O.min_cost([(0, 0), (1, 1)], [(1, 0), (0, 1)])
    assert cost == 1
    assert len(plan.steps) == 1


def test_min_cost_staircase():
    cost, _ = O.min_cost([(0, 0), (1, 1), (2, 2)], [(0, 1), (1, 2), (2, 0)])
    assert cost == 3


def test_min_cost_trivial():
    cost, plan = O.min_cost([(0, 0), (3, 3)], [(0, 0), (3, 3)])
    assert cost == 0 and plan.steps == ()


def test_min_cost_matches_exhaustive():
    rng = random.Random(19)
    for _ in range(30):
        p = O.random_polytope(rng, max_points=3, max_coord=4)
        cost, plan = O.min_cost(p.ver0, p.ver1)
        bounded = exhaustive_min_cost(p.ver0, p.ver1, depth=len(plan.steps) + 1)
        assert bounded == cost


def test_min_cost_swap_invariance():
    rng = random.Random(29)
    for _ in range(30):
        p = O.random_polytope(rng, max_points=3, max_coord=4)
        c1, _ = O.min_cost(p.ver0, p.ver1)
        c2, _ = O.min_cost(p.ver1, p.ver0)
        assert c1 == c2


def test_min_cost_bounds():
    rng = random.Random(37)
    for _ in range(40):
        p = O.random_polytope(rng, max_points=3, max_coord=4)
        cost, plan = O.min_cost(p.ver0, p.ver1)
        assert cost >= G.area_abs(p) >= abs(G.area_signed(p))
        assert plan.cost_signed == G.area_signed(p)


def test_min_cost_too_large():
    pts0 = [(i, i) for i in range(6)]
    pts1 = [(i, (i + 1) % 6) for i in range(6)]
    with pytest.raises(errors.TooLarge):
        O.min_cost(pts0, pts1)


def test_min_cost_deterministic():
    a = O.min_cost([(0, 0), (1, 1), (2, 2)], [(0, 1), (1, 2), (2, 0)])
    b = O.min_cost([(0, 0), (1, 1), (2, 2)], [(0, 1), (1, 2), (2, 0)])
    assert a == b


def test_cross_check_small():
    corpus = [
        G.validate_polytope([(0, 0), (1, 1)], [(1, 0), (0, 1)]),
        G.validate_polytope([(0, 0), (1, 1), (2, 2)], [(0, 1), (1, 2), (2, 0)]),
        G.validate_polytope([(0, 0)], [(0, 0)]),
    ]
    rows = O.cross_check_thm37(corpus)
    assert [r.oracle_cost for r in rows] == [1, 3, 0]
    assert all(r.steps_all_minimal for r in rows)
    for r in rows:
        if r.empties:
            assert r.compile_cost == r.oracle_cost == r.area_abs


def test_exhaustive_polytope_count():
    count = sum(1 for _ in O.exhaustive_polytopes(max_points=2, max_coord=2))
    # n=1: 9 placements; n=2: C(3,2)^2 * 2! * 2! = 36
    assert count == 9 + 36 == O.check_exhaustive_size(2, 2)
    assert O.check_exhaustive_size(3, 4) == 4025       # the desk corpus


def test_exhaustive_size_bounds():
    with pytest.raises(errors.TooLarge, match="^exhaustive corpus of 940"):
        O.check_exhaustive_size(5, 9)
    with pytest.raises(errors.TooLarge, match="oracle bound is 5 points$"):
        O.check_exhaustive_size(6, 3)         # holds no 6-point polytope
    assert O.check_exhaustive_size(3, -5) == 0


def test_random_dotted_graph_generator():
    rng = random.Random(99)
    for _ in range(25):
        g = O.random_dotted_graph(rng)
        from latpoly import dotgraph as D
        an = D.analyze(g)
        assert all(a.dots for a in an.arcs)


def test_cross_check_rows_do_not_depend_on_the_corpus():
    # x and y have graphs of one canonical form, but only x's good
    # reduction empties: each row is that of the polytope checked alone
    x = G.validate_polytope([(3, 7), (7, 10), (8, 6), (10, 5)],
                            [(3, 5), (7, 6), (8, 7), (10, 10)])
    y = G.validate_polytope([(0, 9), (4, 8), (5, 4), (6, 2), (7, 1)],
                            [(0, 4), (4, 1), (5, 2), (6, 8), (7, 9)])
    assert D.canonical_form(D.associate(x)) == D.canonical_form(D.associate(y))
    rows = O.cross_check_thm37([x, y])
    assert rows == O.cross_check_thm37([x]) + O.cross_check_thm37([y])
    assert [r.empties for r in rows] == [True, False]
    assert (rows[1].oracle_cost, rows[1].area_abs, rows[1].minimal_without_empty) == \
        (54, 54, True)
