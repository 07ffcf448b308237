import os
import random
import subprocess
import sys

import pytest

from latpoly import errors, geometry as G
from latpoly.arrangement import Arrangement, segments_by_line, winding_2x
from latpoly.geometry import P, Rect


# ---------------------------------------------------------------- oracles

def oracle_shoelace(cycle):
    """Signed area of a closed vertex cycle, computed independently."""
    total2 = 0
    n = len(cycle)
    for i in range(n):
        a, b = cycle[i], cycle[(i + 1) % n]
        total2 += a.x * b.y - b.x * a.y
    return total2 / 2


def oracle_winding(point2, cycles):
    """Ray-cast winding of doubled-grid point against vertex cycles."""
    px2, py2 = point2
    w = 0
    for cyc in cycles:
        n = len(cyc)
        for i in range(n):
            a, b = cyc[i], cyc[(i + 1) % n]
            if a.x == b.x and 2 * a.x > px2:
                lo, hi = sorted((a.y, b.y))
                if 2 * lo < py2 < 2 * hi:
                    w += 1 if b.y > a.y else -1
    return w


def square():
    return G.validate_polytope([(0, 0), (1, 1)], [(1, 0), (0, 1)])


def staircase():
    return G.validate_polytope([(0, 0), (1, 1), (2, 2)], [(0, 1), (1, 2), (2, 0)])


def cw_rect():
    return G.validate_polytope([(0, 2), (3, 1)], [(0, 1), (3, 2)])


def random_polytope(rng, max_points=4, max_coord=6):
    n = rng.randint(1, max_points)
    xs = rng.sample(range(max_coord + 1), n)
    ys = rng.sample(range(max_coord + 1), n)
    ys2 = ys[:]
    rng.shuffle(ys2)
    ver0 = [(x, y) for x, y in zip(xs, ys)]
    ver1 = [(x, y) for x, y in zip(xs, ys2)]
    return G.validate_polytope(ver0, ver1)


def random_move_sequence(rng, p, extra=4):
    """Random rectangle path from Ver0 to Ver1 (random walk, then sort home)."""
    conf = p.ver0
    rects = []
    pts = sorted(conf.points)
    for _ in range(rng.randint(0, extra)):
        pts = sorted(conf.points)
        if len(pts) < 2:
            break
        v, w = rng.sample(pts, 2)
        if v.x == w.x or v.y == w.y:
            continue
        rects.append(Rect(v, w))
        conf = G.rect_transform(conf, v, w)
    target = p.ver1.by_x()
    while True:
        wrong = sorted(q for q in conf.points if target[q.x] != q)
        if not wrong:
            break
        v = wrong[0]
        want_y = target[v.x].y
        w = conf.by_y()[want_y]
        rects.append(Rect(v, w))
        conf = G.rect_transform(conf, v, w)
    assert conf.points == p.ver1.points
    return rects


# ---------------------------------------------------------------- configs

def test_point_config_rejects_duplicate_components():
    with pytest.raises(errors.DuplicateComponent):
        G.PointConfig.of([(0, 0), (0, 1)])
    with pytest.raises(errors.DuplicateComponent):
        G.PointConfig.of([(0, 1), (2, 1)])


def test_validate_square_edges():
    p = square()
    assert G.x_edges(p) == [(P(0, 0), P(1, 0)), (P(1, 1), P(0, 1))]
    assert G.y_edges(p) == [(P(0, 1), P(0, 0)), (P(1, 0), P(1, 1))]
    cyc = G.boundary_cycles(p)
    assert cyc == [[P(0, 0), P(1, 0), P(1, 1), P(0, 1)]]


def test_validate_isolated_vertex():
    p = G.validate_polytope([(0, 0)], [(0, 0)])
    assert G.isolated_vertices(p) == {P(0, 0)}
    assert G.boundary_cycles(p) == []
    assert G.trivial(p)


def test_validate_mismatched_components():
    with pytest.raises(errors.MismatchedComponents):
        G.validate_polytope([(0, 0), (1, 1)], [(0, 1), (2, 0)])


# ------------------------------------------------------------- rectangles

def test_rect_transform_formula():
    d = G.PointConfig.of([(0, 0), (2, 3)])
    out = G.rect_transform(d, P(0, 0), P(2, 3))
    assert out.points == {P(2, 0), P(0, 3)}


def test_rect_transform_bystander():
    d = G.PointConfig.of([(1, 5), (4, 2), (9, 9)])
    out = G.rect_transform(d, P(1, 5), P(4, 2))
    assert out.points == {P(4, 5), P(1, 2), P(9, 9)}


def test_rect_transform_involution():
    rng = random.Random(7)
    for _ in range(50):
        p = random_polytope(rng)
        pts = sorted(p.ver0.points)
        if len(pts) < 2:
            continue
        v, w = rng.sample(pts, 2)
        if v.x == w.x or v.y == w.y:
            continue
        once = G.rect_transform(p.ver0, v, w)
        vt, wt = Rect(v, w).other_diagonal()
        twice = G.rect_transform(once, vt, wt)
        assert twice.points == p.ver0.points


def test_rect_transform_errors():
    d = G.PointConfig.of([(0, 0), (2, 3)])
    with pytest.raises(errors.NotInConfig):
        G.rect_transform(d, P(0, 0), P(5, 5))
    d2 = G.PointConfig.of([(0, 0), (2, 3), (5, 7)])
    with pytest.raises(errors.DegenerateRectangle):
        G.rect_transform(d2, P(0, 0), P(0, 0))


def test_rect_transform_preserves_component_multisets():
    rng = random.Random(11)
    for _ in range(100):
        p = random_polytope(rng)
        pts = sorted(p.ver0.points)
        if len(pts) < 2:
            continue
        v, w = rng.sample(pts, 2)
        if v.x == w.x or v.y == w.y:
            continue
        out = G.rect_transform(p.ver0, v, w)
        assert {q.x for q in out.points} == {q.x for q in p.ver0.points}
        assert {q.y for q in out.points} == {q.y for q in p.ver0.points}
        # built without re-validation, it equals its validated construction
        assert out == G.PointConfig.of((p.ver0.points - {v, w}) | {P(w.x, v.y), P(v.x, w.y)})
        assert all(type(q) is G.GridPoint for q in out.points)


def test_rect_area_signed():
    assert G.rect_area_signed(Rect(P(0, 0), P(2, 3))) == 6
    assert G.rect_area_signed(Rect(P(0, 3), P(2, 0))) == -6
    rng = random.Random(3)
    for _ in range(1000):
        x1, x2 = rng.sample(range(-20, 20), 2)
        y1, y2 = rng.sample(range(-20, 20), 2)
        r = Rect(P(x1, y1), P(x2, y2))
        assert abs(G.rect_area_signed(r)) == abs(x2 - x1) * abs(y2 - y1)
        # symmetric in the diagonal pair
        assert G.rect_area_signed(Rect(P(x2, y2), P(x1, y1))) == G.rect_area_signed(r)


# ------------------------------------------------------------------ moves

def test_apply_normal_square_finishes():
    p = square()
    out = G.apply_normal(p, Rect(P(0, 0), P(1, 1)))
    assert out.ver0.points == out.ver1.points == {P(1, 0), P(0, 1)}
    assert G.trivial(out)


def test_apply_normal_staircase():
    p = staircase()
    out = G.apply_normal(p, Rect(P(0, 0), P(1, 1)))
    assert out.ver0.points == {P(1, 0), P(0, 1), P(2, 2)}


def test_apply_normal_rejects_terminal_only():
    p = square()
    with pytest.raises(errors.NotInitialVertices):
        G.apply_normal(G.LatticePolytope(G.PointConfig.of([(0, 0), (1, 1), (2, 2)]),
                                         G.PointConfig.of([(0, 1), (1, 2), (2, 0)])),
                       Rect(P(0, 1), P(1, 2)))
    del p


def test_apply_reversed():
    p = square()
    out = G.apply_reversed(p, Rect(P(0, 1), P(1, 0)))
    assert out.ver1.points == {P(0, 0), P(1, 1)} == p.ver0.points
    back = G.apply_reversed(out, Rect(P(0, 0), P(1, 1)))
    assert back == p
    with pytest.raises(errors.NotTerminalVertices):
        G.apply_reversed(staircase(), Rect(P(0, 0), P(1, 1)))


# ---------------------------------------------------------------- regions

def arrangement(p):
    """The arrangement of p's boundary, whose faces are p's regions."""
    return Arrangement(*segments_by_line([G.boundary_segments(p)]))


def test_regions_unit_square():
    faces = arrangement(square()).faces
    bounded = [r for r in faces if not r.unbounded]
    unbounded = [r for r in faces if r.unbounded]
    assert len(bounded) == 1 and bounded[0].omega == 1 and bounded[0].area == 1
    assert len(unbounded) == 1 and unbounded[0].omega == 0


def test_regions_clockwise_rect():
    p = cw_rect()
    assert oracle_shoelace(G.boundary_cycles(p)[0]) == -3
    bounded = [r for r in arrangement(p).faces if not r.unbounded]
    assert len(bounded) == 1 and bounded[0].omega == -1 and bounded[0].area == 3


def test_regions_isolated_only():
    p = G.validate_polytope([(0, 0), (4, 4)], [(0, 0), (4, 4)])
    faces = arrangement(p).faces
    assert len(faces) == 1
    assert faces[0].omega == 0 and faces[0].unbounded


def test_region_winding_matches_oracle():
    rng = random.Random(23)
    for _ in range(40):
        p = random_polytope(rng)
        cycles = G.boundary_cycles(p)
        for r in arrangement(p).faces:
            assert r.omega == oracle_winding(r.sample2, cycles)


def test_area_signed_examples():
    assert G.area_signed(square()) == 1
    assert G.area_signed(staircase()) == 3
    assert G.area_signed(cw_rect()) == -3


def test_area_abs_examples():
    assert G.area_abs(square()) == 1
    assert G.area_abs(cw_rect()) == 3


def test_area_abs_two_opposite_squares():
    # CCW unit square next to a CW unit square (diagonally displaced so the
    # distinctness condition holds)
    p = G.validate_polytope([(0, 0), (1, 1), (2, 3), (3, 2)],
                            [(1, 0), (0, 1), (2, 2), (3, 3)])
    assert G.area_signed(p) == 0
    assert G.area_abs(p) == 2


def test_area_signed_equals_shoelace():
    rng = random.Random(5)
    for _ in range(60):
        p = random_polytope(rng)
        sh = sum(oracle_shoelace(c) for c in G.boundary_cycles(p))
        assert G.area_signed(p) == sh
        assert G.shoelace_total(p) == sh


def test_adjacent_region_labels_differ_by_one():
    # crossing an oriented edge from its left to its right drops the label by 1
    rng = random.Random(9)
    for _ in range(30):
        p = random_polytope(rng)
        arr = arrangement(p)
        for a, b in G.x_edges(p):
            lo, hi = sorted((a.x, b.x))
            row = arr.ys.index(a.y)
            for c in range(arr.xs.index(lo) + 1, arr.xs.index(hi) + 1):
                north = arr.faces[arr.face_of_cell((c, row + 1))].omega
                south = arr.faces[arr.face_of_cell((c, row))].omega
                left, right = (north, south) if b.x > a.x else (south, north)
                assert left == right + 1


def walked_polytopes(seed, count, max_points=10, max_coord=20):
    """Random polytopes, some with isolated vertices, each followed by a
    short random walk of normal and reversed moves."""
    rng = random.Random(seed)
    for _ in range(count):
        p = random_polytope(rng, max_points, max_coord)
        for _ in range(rng.randint(0, 3)):
            config = rng.choice((p.ver0, p.ver1))
            if len(config) < 2:
                break
            v, w = rng.sample(sorted(config.points), 2)
            r = Rect(v, w)
            p = G.apply_normal(p, r) if config is p.ver0 else G.apply_reversed(p, r)
        yield p


def test_label_grid_matches_winding():
    for p in walked_polytopes(31, 150):
        g = G.label_grid(p)
        segs = G.boundary_segments(p)
        assert len(g.labels) == max(len(g.xs) - 1, 0)
        for i, column in enumerate(g.labels):
            assert len(column) == len(g.ys) - 1
            for j, lab in enumerate(column):
                s2 = (g.xs[i] + g.xs[i + 1], g.ys[j] + g.ys[j + 1])
                assert lab == winding_2x(s2, segs)


def test_label_grid_uniform_matches_cell_scan():
    rng = random.Random(32)
    for p in walked_polytopes(33, 150):
        g = G.label_grid(p)
        if len(g.xs) < 2:
            continue
        for _ in range(20):
            x0, x1 = sorted(rng.sample(g.xs, 2))
            y0, y1 = sorted(rng.sample(g.ys, 2))
            v, w = rng.choice(((P(x0, y0), P(x1, y1)), (P(x1, y0), P(x0, y1))))
            cells = [g.labels[i][j] for i in range(g.col[x0], g.col[x1])
                     for j in range(g.row[y0], g.row[y1])]
            assert g.uniform(v, w, 1) == all(lab > 0 for lab in cells)
            assert g.uniform(v, w, -1) == all(lab < 0 for lab in cells)


def test_areas_match_regions_and_shoelace():
    for p in walked_polytopes(34, 200):
        bounded = [r for r in arrangement(p).faces if not r.unbounded]
        assert G.area_signed(p) == sum(r.omega * r.area for r in bounded) == \
            G.shoelace_total(p)
        assert G.area_abs(p) == sum(abs(r.omega) * r.area for r in bounded)


def test_arrangement_checks_hold_under_O():
    # one open vertical segment: the cells beside it wind once but share
    # the unbounded face
    here = os.path.dirname(os.path.abspath(__file__))
    code = ("from latpoly.arrangement import Arrangement, segments_by_line\n"
            "Arrangement(*segments_by_line([[((0, 0), (0, 2))]]))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(here, os.pardir, "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", code], cwd=here, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "latpoly.errors.InvalidGraph: winding not constant on a face" in proc.stderr


# ------------------------------------------------------------------ costs

def test_plan_cost():
    assert G.plan_cost([Rect(P(0, 0), P(1, 1))]) == (1, 1)
    assert G.plan_cost([Rect(P(0, 0), P(1, 1)), Rect(P(1, 0), P(2, 2))]) == (3, 3)
    assert G.plan_cost([]) == (0, 0)


def test_transformation_area_identity():
    # sum of signed rectangle areas equals the signed area of the polytope,
    # exactly, for any complete move sequence
    rng = random.Random(42)
    for _ in range(200):
        p = random_polytope(rng)
        rects = random_move_sequence(rng, p)
        signed, absolute = G.plan_cost(rects)
        assert signed == G.area_signed(p)
        assert absolute >= G.area_abs(p)
