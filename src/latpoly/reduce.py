"""Reduction of dotted graphs: the good-order scheduler, the pipeline for
graphs with a dot on every arc, and depth-first enumeration of all
reduction outcomes for confluence checks.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from . import errors
from . import dotgraph as DG
from .dotgraph import DottedGraph, analyze, canonical_form
from . import deform as DF
from .deform import Deformation


def measure(g: DottedGraph) -> tuple[int, int, int]:
    """(dots, crossings, circle components)."""
    an = analyze(g)
    return (len(g.dots), len(an.crossings), len(an.circles))


def step_budget(g: DottedGraph) -> int:
    d, c, k = measure(g)
    return 10 * (d + c + k + 1)


@dataclass(frozen=True)
class ReductionTrace:
    """A composable list of deformations; good-order violations are
    rejected at construction."""
    start: DottedGraph
    steps: tuple[Deformation, ...]

    def __post_init__(self):
        prev = self.start
        for i, s in enumerate(self.steps):
            if s.before != prev:
                raise errors.InvalidTrace("trace steps do not compose")
            prev = s.after
            nxt = self.steps[i + 1] if i + 1 < len(self.steps) else None
            if s.kind == "IVa1":
                if nxt is None or nxt.kind != "III":
                    raise errors.InvalidTrace(
                        "good order: IVa1 must be followed by its deformation III")
                if nxt.site[1][0] != s.meta_dict().get("apex"):
                    raise errors.InvalidTrace(
                        "good order: the deleted loop is not the created one")
            if s.kind == "IVa2" and (nxt is None or nxt.kind != "II"):
                raise errors.InvalidTrace(
                    "good order: IVa2 must be followed by its deformation II")

    @property
    def terminal(self) -> DottedGraph:
        return self.steps[-1].after if self.steps else self.start

    @property
    def measures(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(measure(s.after) for s in self.steps)

    def kinds(self) -> list[str]:
        return [s.kind for s in self.steps]

    def graphs(self) -> list[DottedGraph]:
        return [self.start] + [s.after for s in self.steps]


# ------------------------------------------------------------ good order --

def good_reduce(g: DottedGraph) -> ReductionTrace:
    """Apply good deformations in good order until none applies.

    Scheduler priority: I, II, III, then the IVa pairs, with sites in
    deterministic order.  Termination is guaranteed; the step budget turns
    a violation into a hard error.
    """
    steps: list[Deformation] = []
    budget = step_budget(g)
    current = g
    while True:
        group = _first_good_group(current)
        if group is None:
            break
        if len(steps) + len(group) > budget:
            raise errors.BudgetExceeded(f"good reduction exceeded its step budget: limit "
                                        f"{budget}, {len(steps)} steps taken")
        steps.extend(group)
        current = group[-1].after
    return ReductionTrace(g, tuple(steps))


def _first_good_group(g: DottedGraph):
    """The first move in ``Move.sort_key`` order: kinds rank before sites,
    so surgery sites are enumerated only when no I, II or III move exists."""
    moves = DF.enumerate_moves(g, allowed=frozenset({"I", "II", "III"}))
    if moves:
        return [DF.apply_move(g, moves[0])]
    for m in DF.enumerate_moves(g, allowed=frozenset({"IV"})):
        out = DF.try_good_IV(g, m)
        if out is not None:
            return list(out[1])
    return None


def is_good_reduced(g: DottedGraph) -> bool:
    return _first_good_group(g) is None


# ------------------------------------------------- every arc carries a dot --

def reduce_all_dotted(g: DottedGraph) -> ReductionTrace:
    """Reduce a graph whose every arc carries a dot to the empty graph.

    Stage one removes crossings (surgeries at crossings in good order with
    their loop deletions, plus direct loop deletions); stage two eliminates
    the remaining disjoint dotted circles by deletions and merges at a
    region of maximal label magnitude, each step dropping the circle count.
    """
    an = analyze(g)
    if any(not a.dots for a in an.arcs):
        raise errors.UndottedArc("every arc needs at least one dot")
    steps: list[Deformation] = []
    budget = 4 * step_budget(g) + 16
    current = g
    while not current.is_empty():
        if len(steps) > budget:
            raise errors.BudgetExceeded(f"all-dotted reduction exceeded its step budget: "
                                        f"limit {budget}, {len(steps)} steps taken")
        group = _all_dotted_group(current)
        steps.extend(group)
        current = group[-1].after
    return ReductionTrace(g, tuple(steps))


def stage1_terminal(trace: ReductionTrace) -> DottedGraph:
    """The first crossing-free graph along the trace."""
    for graph in trace.graphs():
        if not analyze(graph).crossings:
            return graph
    raise errors.NonEmptyTerminal("trace never becomes crossing-free")


def _all_dotted_group(g: DottedGraph):
    """The next group of the all-dotted pipeline.  Without crossings there
    are no hug sites and no loops, so only the circle steps remain."""
    an = analyze(g)
    # surgeries hugging a crossing, followed by the loop deletion
    for _, _, k_in, k_out in DF.hug_sites(an):
        a_in, a_out = an.arcs_by_key[k_in], an.arcs_by_key[k_out]
        if k_in == k_out:
            if len(a_in.dots) < 2:
                continue
            p, q = a_in.dots[0], a_in.dots[1]
        else:
            if not a_in.dots or not a_out.dots:
                continue
            p, q = a_in.dots[0], a_out.dots[0]
        move = DF.Move("IV", tuple(sorted((p, q))), None, 0)
        try:
            out = DF.try_good_IV(g, move)
        except errors.NotApplicable:
            continue
        if out is not None and out[0] == "IVa1":
            return list(out[1])
    # then a loop deletion, or a circle deletion to unblock the rest
    for cert in [*an.loops, *an.circles]:
        if DF.component_sign_ok(an, cert):
            return [DF.apply_move(g, DF.deletion(cert))]
    return _merge_at_max_face(g, an)


def _merge_at_max_face(g: DottedGraph, an):
    faces = sorted((f for f in an.arr.faces if not f.unbounded),
                   key=lambda f: (-abs(f.omega), f.sample2))
    for R in faces:
        if R.omega == 0:
            break
        adjacent = [cert for cert in an.circles
                    if R.index in (an.left_face[cert.arcs[0]],
                                   an.right_face[cert.arcs[0]])]
        if len(adjacent) < 2:
            continue
        p = _first_dot(an, adjacent[0])
        q = _first_dot(an, adjacent[1])
        return [DF.surgery(g, p, q)]
    top = faces[0]
    circles = [cert.boundary[0] for cert in an.circles
               if top.index in (an.left_face[cert.arcs[0]], an.right_face[cert.arcs[0]])]
    raise errors.StuckReduction(f"no circle-eliminating step applies: the face of label "
                                f"{top.omega}, the greatest magnitude, borders circles at "
                                f"{circles}")


def _first_dot(an, cert):
    for k in cert.arcs:
        a = an.arcs_by_key[k]
        if a.dots:
            return a.dots[0]
    raise errors.UndottedArc("circle component lost its dots")


# -------------------------------------------------------------- exploration --

@dataclass
class ExplorationReport:
    """What ``explore_reductions`` found: the canonical forms of the
    states without a usable move (``terminals``, empty when every visited
    state had one), the number of states visited, one per form reached,
    and the surgeries skipped as excluded.  ``condition_A_ok`` is True only
    when condition (A) was shown at every visited state;
    ``condition_A_undecided`` marks a run where a check was undecided
    instead (some site's core classes were not all built, or its dots lie
    on two graph components around two or more holes), which also leaves
    ``condition_A_ok`` False."""
    terminals: set[str] = field(default_factory=set)
    condition_A_ok: bool = True
    condition_A_undecided: bool = False
    visited: int = 0
    skipped_exclusion: int = 0


@lru_cache(maxsize=DG.FORM_CACHE_SIZE)
def _condition_A(g: DottedGraph) -> bool | None:
    """Whether condition (A) holds at g, or None when that is undecided
    (``deform.check_condition_A``).  Cached per graph, not per canonical
    form: graphs of one form can differ in it.  The start and every
    surgery's result are normalized, but a deletion's result keeps the
    gaps its removed curve leaves in the coordinates, so one graph up to
    isotopy can hold several entries."""
    return DF.check_condition_A_everywhere(g)


def explore_reductions(g: DottedGraph, budget: int = 2000,
                       check_A: bool = True) -> ExplorationReport:
    """Depth-first closure of all deformation sequences I-IV (canonical
    cores), skipping the surgeries excluded by the uniqueness theorem's
    hypothesis; reports the distinct terminal forms.  The frontier is a
    stack, and ``visited`` counts the states popped in that order.

    A successor is built only when its canonical form is new, and the form
    is read off the current graph's plane map before any build wherever
    the map fixes it.  A merge (I) keeps the current graph's own form,
    since the form collapses dot counts to flags, so it is never built.
    A deletion (II or III) gets its form from
    ``dotgraph.form_after_deletion``.  A surgery (IV) is met once per
    ``deform.sharing_key``, and ``deform.surgery_form`` reads its form off
    unless its middle region has holes and both dots lie on one graph
    component; only such a surgery is built to learn its form."""
    report = ExplorationReport()
    start = DG.normalized(g)
    seen = {canonical_form(start)}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        if report.visited == budget:
            raise errors.BudgetExceeded(
                f"reduction exploration exceeded its state budget: limit {budget}, "
                f"{report.visited} states visited, {len(seen)} forms seen")
        report.visited += 1
        if check_A and report.condition_A_ok:
            ok = _condition_A(cur)
            if not ok:
                report.condition_A_ok = False
                report.condition_A_undecided = ok is None
        moves = DF.enumerate_moves(cur)
        usable = []
        for m in moves:
            if m.kind == "IV" and _excluded_IV(cur, m):
                report.skipped_exclusion += 1
                continue
            usable.append(m)
        if not usable:
            report.terminals.add(canonical_form(cur))
            continue
        met = set()             # the sharing keys of the surgeries met
        for m in usable:
            if m.kind == "I":
                continue
            if m.kind == "IV":
                key = DF.sharing_key(cur, *m.site)
                if key in met:
                    continue
                met.add(key)
                f = DF.surgery_form(cur, *m.site)
            else:
                f = DG.form_after_deletion(cur, m.site)
            if f in seen:
                continue
            after = DF.apply_move(cur, m).after
            if f is None:               # only the built graph tells its form
                f = canonical_form(after)
                if f in seen:
                    continue
            seen.add(f)
            frontier.append(after)
    return report


def enumerate_reductions(g: DottedGraph, budget: int = 2000) -> set[str]:
    """Canonical forms of all reachable reduced graphs."""
    return explore_reductions(g, budget, check_A=False).terminals


def _excluded_IV(g: DottedGraph, move) -> bool:
    """Surgery between a deletable circle/loop component and an arc of its
    overlapping regions (the uniqueness theorem excludes these; the
    detector errs conservative)."""
    an = analyze(g)
    a1, a2, _ = DF.surgery_site(an, *move.site)
    for cert in list(an.circles) + list(an.loops):
        if not DF.component_sign_ok(an, cert):
            continue
        on1 = a1.key in cert.arcs
        on2 = a2.key in cert.arcs
        in1 = _arc_inside(an, a1, cert)
        in2 = _arc_inside(an, a2, cert)
        if (on1 and in2) or (on2 and in1):
            return True
    return False


def _arc_inside(an, arc, cert) -> bool:
    return (an.left_face[arc.key] in cert.disk_faces and
            an.right_face[arc.key] in cert.disk_faces)
