"""Brute-force ground truth: least-cost search over point configurations
for minimal-area transformations, randomized checks of the signed-area
identity, and the cross-check relating reductions, compiled plans and
oracle costs.
"""
from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from math import comb, factorial

from . import errors
from . import geometry as G
from .geometry import LatticePolytope, Rect
from . import dotgraph as DG
from . import reduce as R
from . import plan as PL

DESK_LIMIT = 5
EXHAUSTIVE_LIMIT = 100_000      # polytopes in an exhaustive corpus; (3, 4) has 4,025


def min_cost(ver0, ver1, limit: int = DESK_LIMIT) -> tuple[int, PL.TransformPlan]:
    """Least total absolute rectangle area joining two configurations, by
    uniform-cost search; the reported plan is the lexicographically least
    among the cheapest."""
    p = G.validate_polytope(ver0, ver1)
    if len(p.ver0) > limit:
        raise errors.TooLarge(f"oracle bound is {limit} points")
    start = frozenset(p.ver0.points)
    goal = frozenset(p.ver1.points)
    heap = [(0, (), start)]
    best: dict[frozenset, tuple] = {}
    while heap:
        cost, path, conf = heapq.heappop(heap)
        if conf == goal:
            steps = tuple(PL.normal_step(v, w) for v, w in path)
            return cost, PL.TransformPlan(steps)
        if best.get(conf, (10 ** 9, None)) < (cost, path):
            continue
        pts = sorted(conf)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                v, w = pts[i], pts[j]
                if v.x == w.x or v.y == w.y:
                    continue
                rect = Rect(v, w)
                nconf = frozenset(G.rect_transform(
                    G.PointConfig(conf), v, w).points)
                ncost = cost + abs(G.rect_area_signed(rect))
                npath = path + ((v, w),)
                if best.get(nconf, (10 ** 9, None)) > (ncost, npath):
                    best[nconf] = (ncost, npath)
                    heapq.heappush(heap, (ncost, npath, nconf))
    raise errors.LatPolyError("configurations are not connected")  # unreachable


# -------------------------------------------------------------- generators --

def random_polytope(rng: random.Random, max_points=4, max_coord=6) -> LatticePolytope:
    """A polytope of 1..max_points points with coordinates in 0..max_coord;
    ``ParseError`` unless 1 <= max_points <= max_coord + 1."""
    if not 1 <= max_points <= max_coord + 1:
        raise errors.ParseError(
            f"need 1 <= max_points <= max_coord + 1, "
            f"got max_points={max_points}, max_coord={max_coord}")
    n = rng.randint(1, max_points)
    xs = rng.sample(range(max_coord + 1), n)
    ys = rng.sample(range(max_coord + 1), n)
    ys2 = ys[:]
    rng.shuffle(ys2)
    return G.validate_polytope([(x, y) for x, y in zip(xs, ys)],
                               [(x, y) for x, y in zip(xs, ys2)])


def random_transformation(rng: random.Random, p: LatticePolytope,
                          extra: int = 4) -> list[Rect]:
    """A random rectangle path from Ver0 to Ver1: a random walk followed by
    a sorting walk home."""
    conf = p.ver0
    rects: list[Rect] = []
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
        w = conf.by_y()[target[v.x].y]
        rects.append(Rect(v, w))
        conf = G.rect_transform(conf, v, w)
    return rects


def check_exhaustive_size(max_points: int, max_coord: int) -> int:
    """How many polytopes ``exhaustive_polytopes`` yields (per n: the x- and
    y-sets times the y orders of Ver0 and Ver1).  Raises ``TooLarge`` past
    ``DESK_LIMIT`` points, checked before counting, or past
    ``EXHAUSTIVE_LIMIT`` polytopes."""
    if max_points > DESK_LIMIT:
        raise errors.TooLarge(f"exhaustive corpus of up to {max_points} points: "
                              f"oracle bound is {DESK_LIMIT} points")
    size = sum(comb(max(max_coord + 1, 0), n) ** 2 * factorial(n) ** 2
               for n in range(1, max_points + 1))
    if size > EXHAUSTIVE_LIMIT:
        raise errors.TooLarge(f"exhaustive corpus of {size} polytopes: "
                              f"bound is {EXHAUSTIVE_LIMIT} polytopes")
    return size


def exhaustive_polytopes(max_points=3, max_coord=4):
    """Every valid polytope with at most the given size (absolute
    coordinates in 0..max_coord)."""
    from itertools import combinations, permutations
    for n in range(1, max_points + 1):
        for xs in combinations(range(max_coord + 1), n):
            for ys in combinations(range(max_coord + 1), n):
                for p0 in permutations(ys):
                    ver0 = [(x, y) for x, y in zip(xs, p0)]
                    for p1 in permutations(ys):
                        ver1 = [(x, y) for x, y in zip(xs, p1)]
                        yield G.validate_polytope(ver0, ver1)


CROSSING_TEMPLATES = (
    # two squares overlapping like a Venn diagram
    [[(0, 0), (8, 0), (8, 8), (0, 8)], [(4, 2), (12, 2), (12, 6), (4, 6)]],
    # one curve with three self-crossings
    [[(0, 0), (6, 0), (6, 2), (1, 2), (1, -2), (3, -2), (3, 1), (0, 1)]],
    # figure eight
    [[(0, 0), (2, 0), (2, 2), (1, 2), (1, -1), (0, -1)]],
    # Venn pair with a bystander circle inside the first square
    [[(0, 0), (8, 0), (8, 8), (0, 8)], [(4, 2), (12, 2), (12, 6), (4, 6)],
     [(1, 3), (3, 3), (3, 5), (1, 5)]],
)


def dotted_template(rng: random.Random, curves) -> DG.DottedGraph:
    """Scale a template and put one or two dots on every arc."""
    scaled = [[(4 * x, 4 * y) for x, y in c] for c in curves]
    if rng.random() < 0.5:
        scaled = [[(y, x) for x, y in c] for c in scaled]   # transpose
    g0 = DG.DottedGraph.build(scaled)
    an = DG.analyze(g0)
    dots = []
    for a in an.arcs:
        a0, b0 = max(a.pieces, key=lambda s: abs(s[1][0] - s[0][0]) +
                     abs(s[1][1] - s[0][1]))
        length = abs(b0[0] - a0[0]) + abs(b0[1] - a0[1])
        dx = (b0[0] > a0[0]) - (b0[0] < a0[0])
        dy = (b0[1] > a0[1]) - (b0[1] < a0[1])
        offs = (1, length - 1) if rng.random() < 0.5 else (1,)
        for off in offs:
            dots.append((a0[0] + dx * off, a0[1] + dy * off))
    return DG.DottedGraph.build(g0.curves, dots)


def random_dotted_graph(rng: random.Random, require_all_dotted=True) -> DG.DottedGraph:
    """Random small dotted graphs mixing polytope boundaries, nested circle
    families, figure-eight curves and crossing-rich templates."""
    kind = rng.randrange(4)
    if kind == 0:
        for _ in range(40):
            g = DG.associate(random_polytope(rng, max_points=4, max_coord=6))
            if g.is_empty():
                continue
            an = DG.analyze(g)
            if not require_all_dotted or all(a.dots for a in an.arcs):
                return g
        kind = 1
    if kind == 1:
        m = rng.randint(1, 3)
        curves, dots = [], []
        x = 0
        for _ in range(m):
            depth = rng.randint(1, 2)
            size = 6 * depth
            for d in range(depth):
                k = 3 * d
                pts = [(x + k, k), (x + size - k, k),
                       (x + size - k, size - k), (x + k, size - k)]
                if rng.random() < 0.5:
                    pts = [pts[0]] + pts[:0:-1]
                curves.append(pts)
                dots.extend(pts[:rng.randint(1, 2)])
            x += size + 2
        return DG.DottedGraph.build(curves, dots)
    if kind == 2:
        curve = [(0, 0), (2, 0), (2, 2), (1, 2), (1, -1), (0, -1)]
        dots = [(2, 2), (0, -1)]
        if rng.random() < 0.5:
            dots += [(2, 0), (1, -1)]
        return DG.DottedGraph.build([curve], dots)
    return dotted_template(rng, rng.choice(CROSSING_TEMPLATES))


# ------------------------------------------------------------------ reports --

@dataclass
class CrossCheckRow:
    ver0: tuple
    ver1: tuple
    empties: bool
    compile_cost: int | None
    oracle_cost: int
    area_abs: int
    minimal_without_empty: bool
    steps_all_minimal: bool


def reduction_empties(g: DG.DottedGraph) -> bool:
    """True when the good reduction of g ends at the empty graph.  Not
    cached by canonical form: the reduction orders its sites by
    coordinates, so two graphs with one form can end differently."""
    return R.good_reduce(g).terminal.is_empty()


def cross_check_thm37(corpus) -> list[CrossCheckRow]:
    """For each polytope: compare the empty-reduction predicate, the
    compiled plan cost, the oracle cost and the absolute area; verify the
    per-step label criterion along every oracle plan."""
    rows = []
    for p in corpus:
        trace = R.good_reduce(DG.associate(p))
        empties = trace.terminal.is_empty()
        cost, plan = min_cost(p.ver0, p.ver1)
        area = G.area_abs(p)
        compile_cost = None
        if empties:
            compile_cost = PL.compile_plan(trace, p).cost_abs
            if not compile_cost == cost == area:
                raise errors.CompileGap(
                    f"compiled cost {compile_cost}, oracle cost {cost} and "
                    f"area_abs {area} differ")
        steps_ok = _plan_steps_minimal(p, plan) if cost == area else True
        rows.append(CrossCheckRow(
            tuple(p.ver0), tuple(p.ver1), empties, compile_cost, cost, area,
            cost == area and not empties, steps_ok))
    return rows


def _plan_steps_minimal(p: LatticePolytope, plan: PL.TransformPlan) -> bool:
    cur = p
    for step in plan.steps:
        if not PL.classify_step(cur, step.rect, step.mode, with_tag=False).minimal:
            return False
        cur = PL.apply_step(cur, step)
    return True
