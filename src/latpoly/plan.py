"""Bridging dotted-graph reductions and polytope transformations: compile a
reduction to the empty graph into a minimal-area rectangle plan, realize
the crossing surgeries as single rectangle moves, normalize mixed plans to
normal-only ones, and classify the steps of any given plan.

A rectangle move adds plus or minus its rectangle's boundary to the
boundary chain, so every label under the rectangle changes by the same -e
and no label outside it changes; e is the sign of the stored rectangle
(the consumed diagonal of a normal move, the added one of a reversed
move).  A move passes the label classifier when every cell under its
rectangle has a label of sign e, and then lowers ``area_abs`` by exactly
its own area.  ``geometry.label_grid`` labels the cells of the compressed
coordinate grid in one sweep, and its two summed-area tables decide the
test for any rectangle in O(1).

Compilation is a depth-first descent through passing normal moves, with
one label grid per state: any path of passing moves that reaches the
trivial polytope is a minimal plan.  Normal moves suffice: ``normalize``
turns any minimal plan into a normal-only one with the same rectangles,
and a plan is minimal exactly when every step passes.

Sign bookkeeping: a reversed step records its rectangle by the diagonal
pair it adds to the terminal vertices.  That is the pair consumed when the
whole transformation is read forward, so summing signed rectangle areas
over any complete plan gives the polytope's signed area, and replaying a
reversed block backwards reuses the same stored rectangles.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import errors
from . import geometry as G
from .geometry import GridPoint, LatticePolytope, Rect
from . import deform as DF
from . import dotgraph as DG
from .dotgraph import analyze, associate
from .reduce import ReductionTrace


@dataclass(frozen=True)
class PlanStep:
    rect: Rect
    mode: str = "normal"          # "normal" | "reversed"


@dataclass(frozen=True)
class TransformPlan:
    steps: tuple[PlanStep, ...]

    @property
    def cost_signed(self) -> int:
        return G.plan_cost([s.rect for s in self.steps])[0]

    @property
    def cost_abs(self) -> int:
        return G.plan_cost([s.rect for s in self.steps])[1]

    def rects(self) -> list[Rect]:
        return [s.rect for s in self.steps]


def normal_step(v: GridPoint, w: GridPoint) -> PlanStep:
    return PlanStep(Rect(v, w), "normal")


def reversed_step(v: GridPoint, w: GridPoint) -> PlanStep:
    """A reversed move applied at terminal vertices v, w; the stored
    rectangle is the opposite diagonal (the pair the move adds)."""
    return PlanStep(Rect(GridPoint(w.x, v.y), GridPoint(v.x, w.y)), "reversed")


def apply_step(p: LatticePolytope, step: PlanStep) -> LatticePolytope:
    if step.mode == "normal":
        return G.apply_normal(p, step.rect)
    if step.mode == "reversed":
        return G.apply_reversed(p, step.rect)
    raise errors.InvalidPlan(f"unknown step mode {step.mode}")


def replay(p: LatticePolytope, plan: TransformPlan) -> LatticePolytope:
    cur = p
    for step in plan.steps:
        try:
            cur = apply_step(cur, step)
        except (errors.NotInitialVertices, errors.NotTerminalVertices, errors.NotInConfig,
                errors.DegenerateRectangle, errors.DuplicateComponent, errors.InvalidPlan) as e:
            raise errors.InvalidPlan(f"plan does not replay: {e}") from e
    return cur


# ---------------------------------------------------------- classification --

@dataclass(frozen=True)
class StepVerdict:
    minimal: bool
    epsilon: int | None
    tag: str
    witness: tuple | None        # (sample2, label_before, label_after)

    def __bool__(self) -> bool:
        return self.minimal


def classify_step(p: LatticePolytope, r: Rect, mode: str = "normal",
                  with_tag: bool = True) -> StepVerdict:
    """Check the label profile of one rectangle move: minimal steps cover
    only regions with nonzero labels of one sign, each dropping by one.
    The grid test decides; a failing step is then scanned over the lines of
    non-isolated points for its first witness cell."""
    q = apply_step(p, PlanStep(r, mode))
    e = 1 if G.rect_area_signed(r) > 0 else -1
    consumed = r.v in (p.ver0 if mode == "normal" else p.ver1)
    if consumed != (mode == "normal"):
        e = -e                           # r is not the stored rectangle
    grid = G.label_grid(p)
    if not grid.uniform(r.v, r.w, e):
        xlo, xhi, ylo, yhi = r.bounds()
        iso = G.isolated_vertices(p)
        isox, isoy = {v.x for v in iso}, {v.y for v in iso}
        xs = [x for x in grid.xs[grid.col[xlo]:grid.col[xhi] + 1]
              if x not in isox or x in (xlo, xhi)]
        ys = [y for y in grid.ys[grid.row[ylo]:grid.row[yhi] + 1]
              if y not in isoy or y in (ylo, yhi)]
        eps = None
        for x0, x1 in zip(xs, xs[1:]):
            for y0, y1 in zip(ys, ys[1:]):
                lb = grid.labels[grid.col[x0]][grid.row[y0]]
                witness = ((x0 + x1, y0 + y1), lb, lb - e)
                if lb == 0:
                    return StepVerdict(False, None, "", witness)
                sign = 1 if lb > 0 else -1
                eps = sign if eps is None else eps
                if sign != eps or eps != e:
                    return StepVerdict(False, eps, "", witness)
    return StepVerdict(True, e, _step_tag(p, q) if with_tag else "", None)


def _step_tag(p: LatticePolytope, q: LatticePolytope) -> str:
    bp, bq = analyze(associate(p)), analyze(associate(q))
    if len(bq.circles) < len(bp.circles) and len(bq.crossings) == len(bp.crossings):
        return "II*-like"
    if len(bq.crossings) < len(bp.crossings):
        return "III*-like"
    if len(bq.crossings) == len(bp.crossings) and \
            len(bq.g.curves) != len(bp.g.curves):
        return "IV*-like"
    return "generic"


def verify_minimal(plan: TransformPlan, p: LatticePolytope) -> bool:
    """True when the plan completes the transformation at the least
    possible absolute cost."""
    final = replay(p, plan)
    if not G.trivial(final):
        raise errors.NotATransformation("plan does not join Ver0 to Ver1")
    return plan.cost_abs == G.area_abs(p)


# ------------------------------------------------------------ IVa1 rectangles

def realize_IVa1(p: LatticePolytope, site) -> tuple[Rect, str]:
    """The rectangle move realizing a surgery at adjacent arcs of a
    crossing: site = (crossing point, quadrant diagonal), the quadrant
    being the middle region.  The rectangle spans the two edge endpoints on
    the quadrant side; the move is normal or reversed according to whether
    those are initial or terminal vertices.

    The sites are those of ``deform.hug_sites``, which the all-dotted
    reducer scans too.  ``compile_plan`` does not call this: its descent
    through classifier-passing moves reaches every minimal plan without
    it."""
    (cx, cy), (sx, sy) = site
    if sx not in (-1, 1) or sy not in (-1, 1):
        raise errors.NotIVa1Site("quadrant must be a diagonal direction")
    g = associate(p)
    an = analyze(g)
    c = GridPoint(cx, cy)
    if c not in an.crossings:
        raise errors.NotIVa1Site(f"{c} is not a crossing of the boundary")
    keys = next(((k_in, k_out) for cc, diag, k_in, k_out in DF.hug_sites(an)
                 if cc == c and diag == (sx, sy)), None)
    if keys is None:
        raise errors.NotIVa1Site("the quadrant arms are not an adjacent pair")
    a_in, a_out = (an.arcs_by_key[k] for k in keys)
    if not a_in.dots or not a_out.dots or (a_in.key == a_out.key and len(a_in.dots) < 2):
        raise errors.NotIVa1Site("both arcs need dots")
    q = a_in.dots[1] if a_in.key == a_out.key else a_out.dots[0]
    try:
        _, _, F = DF.surgery_site(an, a_in.dots[0], q)
    except errors.NoCommonFace:
        F = None
    if F != an.arr.face_of_2x((2 * c.x + sx, 2 * c.y + sy)):
        raise errors.NotIVa1Site("the quadrant is not the middle region")
    v = _edge_endpoint(p, c, horizontal=True, sign=sx)
    w = _edge_endpoint(p, c, horizontal=False, sign=sy)
    _check_clean_rectangle(p, v, w, c)
    if v in p.ver0.points and w in p.ver0.points:
        return Rect(v, w), "normal"
    if v in p.ver1.points and w in p.ver1.points:
        return reversed_step(v, w).rect, "reversed"
    raise errors.NotIVa1Site("quadrant corners mix initial and terminal vertices")


def _check_clean_rectangle(p: LatticePolytope, v, w, c) -> None:
    """The realizing rectangle must meet the boundary only along the two
    crossing edges; otherwise the move does not present the surgery."""
    xlo, xhi = sorted((v.x, w.x))
    ylo, yhi = sorted((v.y, w.y))
    for a, b in G.boundary_segments(p):
        if (a.y == b.y == c.y and min(a.x, b.x) <= c.x <= max(a.x, b.x)) or \
                (a.x == b.x == c.x and min(a.y, b.y) <= c.y <= max(a.y, b.y)):
            continue                      # a crossing edge itself
        sxlo, sxhi = sorted((a.x, b.x))
        sylo, syhi = sorted((a.y, b.y))
        if max(sxlo, xlo) < min(sxhi, xhi) and max(sylo, ylo) < min(syhi, yhi):
            raise errors.NotIVa1Site("other boundary parts cross the rectangle")
        if a.y == b.y and ylo < a.y < yhi and max(sxlo, xlo) < min(sxhi, xhi):
            raise errors.NotIVa1Site("other boundary parts cross the rectangle")
        if a.x == b.x and xlo < a.x < xhi and max(sylo, ylo) < min(syhi, yhi):
            raise errors.NotIVa1Site("other boundary parts cross the rectangle")


def _edge_endpoint(p: LatticePolytope, c, horizontal: bool, sign: int) -> GridPoint:
    edges = G.x_edges(p) if horizontal else G.y_edges(p)
    for a, b in edges:
        if horizontal and a.y == c.y and min(a.x, b.x) < c.x < max(a.x, b.x):
            return a if (a.x - c.x) * sign > 0 else b
        if not horizontal and a.x == c.x and min(a.y, b.y) < c.y < max(a.y, b.y):
            return a if (a.y - c.y) * sign > 0 else b
    raise errors.NotIVa1Site("no boundary edge through the crossing")


# ------------------------------------------------------------------ compile --

def compile_plan(trace: ReductionTrace, p: LatticePolytope) -> TransformPlan:
    """Compile a reduction of the boundary graph to the empty graph into a
    transformation plan whose every rectangle passes the minimality
    classifier.

    The trace only certifies that such a plan exists; the plan itself is
    found by depth-first descent through classifier-passing normal moves to
    the trivial polytope.  A passing move lowers ``area_abs`` by exactly its
    own area, so every such path is a minimal plan, and normal-only by
    construction.  Raises ``CompileGap`` when no passing path reaches the
    trivial polytope or a postcondition fails.
    """
    if not DG.equivalent_mod_E_I(trace.start, associate(p)):
        raise errors.InvalidPlan("trace does not start at the polytope's graph")
    if not trace.terminal.is_empty():
        raise errors.NonEmptyTerminal("the reduction must end empty")
    steps = _descend(p)
    if steps is None:
        raise errors.CompileGap("no classifier-passing path reaches the trivial polytope")
    plan = TransformPlan(tuple(steps))
    if not G.trivial(replay(p, plan)):
        raise errors.CompileGap("compiled plan does not replay to the trivial polytope")
    if plan.cost_abs != G.area_abs(p):
        raise errors.CompileGap("compiled plan is not minimal")
    if plan.cost_signed != G.area_signed(p):
        raise errors.CompileGap("signed-area identity broken")
    return plan


def _descend(p: LatticePolytope) -> list[PlanStep] | None:
    """The first path of classifier-passing normal moves from p to a
    trivial polytope, or None.  Passing moves lower ``area_abs``, so the
    moves form a finite DAG and backtracking out of dead states is
    complete; a state is its Ver0 point set, as Ver1 never changes.  The
    stack is explicit because a path may take up to ``area_abs`` moves."""
    dead: set[frozenset] = set()
    stack = [(p, _passing_steps(p), None)]
    while stack:
        state, moves, _ = stack[-1]
        if G.trivial(state):
            return [step for _, _, step in stack[1:]]
        for step in moves:
            nxt = apply_step(state, step)
            if nxt.ver0.points not in dead:
                stack.append((nxt, _passing_steps(nxt), step))
                break
        else:
            dead.add(state.ver0.points)
            stack.pop()
    return None


def _passing_steps(p: LatticePolytope):
    """Yield the classifier-passing normal moves of p, each tested on one
    label grid with e the sign of its rectangle."""
    grid = G.label_grid(p)
    pts = sorted(p.ver0.points)
    for i, v in enumerate(pts):
        for w in pts[i + 1:]:                # w.x > v.x
            if grid.uniform(v, w, 1 if w.y > v.y else -1):
                yield normal_step(v, w)


# ---------------------------------------------------------------- normalize --

def normalize(plan: TransformPlan, p: LatticePolytope) -> TransformPlan:
    """Rewrite a complete mixed plan as a normal-only plan with the same
    endpoints and the same multiset of rectangles.

    The normal steps keep their order (they see the same initial-vertex
    states); the reversed steps are then replayed as normal moves in
    reverse chronological order, walking the meeting configuration back up
    the terminal side.  Each replay finds the diagonal pair its reversed
    original added, so the rewrite is valid for every complete plan,
    including those where later reversed moves consume earlier ones'
    corners.
    """
    final = replay(p, plan)       # validates the input plan
    if not G.trivial(final):
        raise errors.InvalidPlan("only complete plans can be normalized")
    if all(s.mode == "normal" for s in plan.steps):
        return plan
    normals = [s for s in plan.steps if s.mode == "normal"]
    reverseds = [s for s in plan.steps if s.mode == "reversed"]
    out = normals + [PlanStep(s.rect, "normal") for s in reversed(reverseds)]
    result = TransformPlan(tuple(out))
    check = replay(p, result)
    if not (G.trivial(check) and check.ver0.points == p.ver1.points):
        raise errors.CompileGap("normalization broke the endpoints")
    if sorted((min(s.rect.v, s.rect.w), max(s.rect.v, s.rect.w))
              for s in result.steps) != \
            sorted((min(s.rect.v, s.rect.w), max(s.rect.v, s.rect.w))
                   for s in plan.steps):
        raise errors.CompileGap("normalization changed the rectangles")
    return result
