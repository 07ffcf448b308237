"""File formats: polytopes, dotted graphs, plans and traces as JSON
documents.  Emitted files are deterministic; labels are always recomputed
on load, never read."""
from __future__ import annotations

import json

from . import errors
from . import geometry as G
from .geometry import LatticePolytope, Rect
from . import dotgraph as DG
from .dotgraph import DottedGraph
from . import plan as PL


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def polytope_to_obj(p: LatticePolytope) -> dict:
    return {"ver0": sorted(p.ver0.points), "ver1": sorted(p.ver1.points)}


def obj_to_polytope(obj) -> LatticePolytope:
    try:
        return G.validate_polytope(obj["ver0"], obj["ver1"])
    except (KeyError, TypeError, ValueError) as e:
        raise errors.ParseError(f"bad polytope document: {e}") from e


def graph_to_obj(g: DottedGraph) -> dict:
    curves = [[list(p) for p in curve] for curve in g.curves]
    geo = DG.analyze(g).geometry
    dots = []
    for d in sorted(g.dots):
        ci, si, off = _locate_dot(geo, d)
        dots.append({"curve": ci, "segment": si, "offset": off})
    return {"curves": curves, "dots": dots}


def _locate_dot(geo: DG.CurveGeometry, d):
    """(curve, segment, offset along the segment) of a dot; a dot on a
    corner is written on the segment that starts there."""
    loc = geo.locate(d)
    if loc is None:
        raise errors.ParseError(f"dot {d} not on any curve")
    ci, off = loc
    return (ci, *geo.segment_at(ci, off))


def obj_to_graph(obj) -> DottedGraph:
    try:
        curves = [[G.grid_point(p) for p in curve] for curve in obj["curves"]]
        dots = []
        for rec in obj.get("dots", []):
            curve = curves[_dot_index(rec, "curve", len(curves))]
            n = len(curve)
            si = _dot_index(rec, "segment", n)
            a, b = curve[si], curve[(si + 1) % n]
            dx = (b[0] > a[0]) - (b[0] < a[0])
            dy = (b[1] > a[1]) - (b[1] < a[1])
            off, length = rec["offset"], abs(b[0] - a[0]) + abs(b[1] - a[1])
            if type(off) is not int:
                raise TypeError(f"dot offset must be an integer: {off!r}")
            if not 0 <= off <= length:
                raise ValueError(f"dot offset must be in 0..{length} on its segment: {off}")
            dots.append((a[0] + dx * off, a[1] + dy * off))
        return DottedGraph.build(curves, dots)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise errors.ParseError(f"bad dotted-graph document: {e}") from e


def _dot_index(rec, name: str, n: int) -> int:
    i = rec[name]
    if type(i) is not int or not 0 <= i < n:
        raise ValueError(f"dot {name} must be an integer in 0..{n - 1}: {i!r}")
    return i


def plan_to_obj(plan: PL.TransformPlan) -> list:
    out = []
    for s in plan.steps:
        rec = {"v": s.rect.v, "w": s.rect.w}
        if s.mode != "normal":
            rec["mode"] = s.mode
        out.append(rec)
    return out


def obj_to_plan(obj) -> PL.TransformPlan:
    try:
        steps = []
        for rec in obj:
            rect = Rect(G.grid_point(rec["v"]), G.grid_point(rec["w"]))
            mode = rec.get("mode", "normal")
            if mode not in ("normal", "reversed"):
                raise ValueError(f"unknown step mode {mode!r}")
            steps.append(PL.PlanStep(rect, mode))
        return PL.TransformPlan(tuple(steps))
    except (KeyError, TypeError, ValueError, errors.DegenerateRectangle) as e:
        raise errors.ParseError(f"bad plan document: {e}") from e


def trace_to_obj(trace) -> list:
    out = []
    for s in trace.steps:
        out.append({"kind": s.kind, "site": _site_obj(s.site),
                    "epsilon": s.epsilon, "i": s.magnitude})
    return out


def _site_obj(site):
    if isinstance(site, tuple):
        return [_site_obj(x) for x in site]
    return site


def load(path: str):
    """Sniff and load a polytope or a dotted graph."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise errors.ParseError(f"cannot read {path}: {e}") from e
    if isinstance(obj, dict) and "ver0" in obj:
        return obj_to_polytope(obj)
    if isinstance(obj, dict) and "curves" in obj:
        return obj_to_graph(obj)
    raise errors.ParseError(f"{path} is neither a polytope nor a dotted graph")


def load_plan(path: str) -> PL.TransformPlan:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise errors.ParseError(f"cannot read {path}: {e}") from e
    return obj_to_plan(obj)
