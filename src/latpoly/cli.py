"""Command-line front end: validation, areas, graph association, reduction,
planning, oracle runs, plan verification and SVG rendering.

Exit codes: 0 ok, 2 validation or parse failure, 3 property violation,
4 internal error (a bug: ``RoutingFailure``, ``CompileGap`` or
``StuckReduction``).
"""
from __future__ import annotations

import argparse
import csv
import os
import sys

from . import errors
from . import geometry as G
from . import dotgraph as DG
from . import reduce as R
from . import plan as PL
from . import oracle as O
from . import formats as F
from .render import render_svg


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="latpoly")
    sub = ap.add_subparsers(dest="verb", required=True)

    p_val = sub.add_parser("validate", help="check a polytope or graph file")
    p_val.add_argument("path")

    p_area = sub.add_parser("area", help="signed and absolute area")
    p_area.add_argument("path")

    p_assoc = sub.add_parser("associate", help="dotted graph of a polytope")
    p_assoc.add_argument("path")
    p_assoc.add_argument("-o", "--out")

    p_red = sub.add_parser("reduce", help="reduce a dotted graph")
    p_red.add_argument("path")
    p_red.add_argument("--all-dotted", action="store_true",
                       help="use the every-arc-dotted pipeline")
    p_red.add_argument("--trace", help="write the deformation trace")
    p_red.add_argument("--confluence", action="store_true",
                       help="enumerate all reduction outcomes")
    p_red.add_argument("--render-dir", help="write one SVG per step")
    p_red.add_argument("--math-axes", action="store_true")

    p_plan = sub.add_parser("plan", help="compile a minimal-area plan")
    p_plan.add_argument("path")
    p_plan.add_argument("-o", "--out")

    p_or = sub.add_parser("oracle", help="brute-force minimal cost")
    p_or.add_argument("path", nargs="?")
    p_or.add_argument("--corpus", action="store_true",
                      help="cross-check a generated corpus")
    p_or.add_argument("--max-points", type=int, default=2)
    p_or.add_argument("--max-coord", type=int, default=3)
    p_or.add_argument("--seed", type=int, default=0,
                      help="seed of the random corpus (unused with --count 0)")
    p_or.add_argument("--count", type=int, default=0,
                      help="number of random polytopes (0 = exhaustive)")
    p_or.add_argument("--report", help="write a CSV report")
    p_or.add_argument("--render-dir", help="render each corpus polytope")
    p_or.add_argument("--math-axes", action="store_true")

    p_ver = sub.add_parser("verify", help="replay and classify a plan")
    p_ver.add_argument("path")
    p_ver.add_argument("--plan", required=True)

    p_ren = sub.add_parser("render", help="draw a polytope or graph")
    p_ren.add_argument("path")
    p_ren.add_argument("-o", "--out", required=True)
    p_ren.add_argument("--math-axes", action="store_true")

    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except (errors.ParseError, errors.DuplicateComponent,
            errors.MismatchedComponents, errors.InvalidGraph) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (errors.RoutingFailure, errors.CompileGap, errors.StuckReduction) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4
    except errors.LatPolyError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    if args.verb == "validate":
        obj = F.load(args.path)
        if isinstance(obj, G.LatticePolytope):
            cyc = G.boundary_cycles(obj)
            iso = G.isolated_vertices(obj)
            print(f"polytope ok: {len(obj.ver0)} initial vertices, "
                  f"{len(cyc)} boundary circles, {len(iso)} isolated")
        else:
            an = DG.analyze(obj)
            print(f"dotted graph ok: {len(obj.curves)} curves, "
                  f"{len(obj.dots)} dots, {len(an.crossings)} crossings")
        return 0

    if args.verb == "area":
        p = _need_polytope(F.load(args.path))
        print(f"signed {G.area_signed(p)}, absolute {G.area_abs(p)}")
        return 0

    if args.verb == "associate":
        p = _need_polytope(F.load(args.path))
        g = DG.associate(p)
        doc = F.dumps(F.graph_to_obj(g))
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(doc)
        else:
            sys.stdout.write(doc)
        m = R.measure(g)
        print(f"dots {m[0]}, crossings {m[1]}, circles {m[2]}", file=sys.stderr)
        return 0

    if args.verb == "reduce":
        obj = F.load(args.path)
        g = obj if isinstance(obj, DG.DottedGraph) else DG.associate(obj)
        if args.confluence:
            import hashlib
            rep = R.explore_reductions(g)
            print(f"terminals: {len(rep.terminals)}")
            held = "undecided" if rep.condition_A_undecided else rep.condition_A_ok
            print(f"condition (A) throughout: {held}")
            if not rep.terminals:
                print("no terminal found: every visited state had a usable move")
            for form in sorted(rep.terminals):
                digest = hashlib.sha256(form.encode()).hexdigest()[:16]
                print(f"  {digest}")
            return 0 if len(rep.terminals) == 1 else 3
        trace = R.reduce_all_dotted(g) if args.all_dotted else R.good_reduce(g)
        term = trace.terminal
        print(f"terminal: {'empty' if term.is_empty() else 'nonempty'}")
        print(f"steps: {' '.join(trace.kinds()) if trace.steps else '(none)'}")
        if args.trace:
            with open(args.trace, "w") as fh:
                fh.write(F.dumps(F.trace_to_obj(trace)))
        if args.render_dir:
            os.makedirs(args.render_dir, exist_ok=True)
            for i, graph in enumerate(trace.graphs()):
                with open(os.path.join(args.render_dir, f"step{i:03d}.svg"), "w") as fh:
                    fh.write(render_svg(graph, args.math_axes))
        return 0

    if args.verb == "plan":
        p = _need_polytope(F.load(args.path))
        trace = R.good_reduce(DG.associate(p))
        if not trace.terminal.is_empty():
            print("verdict: NO-PLAN (good reduction does not empty)")
            return 3
        plan = PL.compile_plan(trace, p)
        minimal = PL.verify_minimal(plan, p)
        doc = F.dumps(F.plan_to_obj(plan))
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(doc)
        else:
            sys.stdout.write(doc)
        print(f"{len(plan.steps)}-step plan, cost {plan.cost_abs}, "
              f"verdict {'MINIMAL' if minimal else 'NOT-MINIMAL'}", file=sys.stderr)
        return 0 if minimal else 3

    if args.verb == "oracle":
        if args.corpus:
            return _oracle_corpus(args)
        if args.path is None:
            raise errors.ParseError("oracle needs a polytope file or --corpus")
        p = _need_polytope(F.load(args.path))
        cost, plan = O.min_cost(p.ver0, p.ver1)
        print(f"minimal cost {cost} (area_abs {G.area_abs(p)})")
        sys.stdout.write(F.dumps(F.plan_to_obj(plan)))
        return 0

    if args.verb == "verify":
        p = _need_polytope(F.load(args.path))
        plan = F.load_plan(args.plan)
        violations = 0
        cur = p
        for i, step in enumerate(plan.steps):
            verdict = PL.classify_step(cur, step.rect, step.mode)
            state = "MINIMAL" if verdict.minimal else \
                f"NON-MINIMAL witness={verdict.witness}"
            print(f"step {i}: {step.mode} {step.rect.v}..{step.rect.w} {state}"
                  + (f" [{verdict.tag}]" if verdict.minimal else ""))
            violations += 0 if verdict.minimal else 1
            cur = PL.apply_step(cur, step)
        if not G.trivial(cur):
            print("endpoint: NOT a transformation (Ver0 does not reach Ver1)")
            return 3
        signed = plan.cost_signed
        print(f"cost signed {signed} (area {G.area_signed(p)}), "
              f"absolute {plan.cost_abs} (area_abs {G.area_abs(p)})")
        if signed != G.area_signed(p):
            violations += 1
        return 3 if violations else 0

    if args.verb == "render":
        obj = F.load(args.path)
        with open(args.out, "w") as fh:
            fh.write(render_svg(obj, args.math_axes))
        return 0

    raise AssertionError(args.verb)


def _need_polytope(obj) -> G.LatticePolytope:
    if isinstance(obj, G.LatticePolytope):
        return obj
    raise errors.ParseError("this command needs a polytope file")


def _oracle_corpus(args) -> int:
    if args.count < 0:
        raise errors.ParseError(f"need count >= 0, got count={args.count}")
    if args.count:
        import random
        rng = random.Random(args.seed)
        corpus = [O.random_polytope(rng, args.max_points, args.max_coord)
                  for _ in range(args.count)]
    else:
        if not O.check_exhaustive_size(args.max_points, args.max_coord):
            raise errors.ParseError(f"empty exhaustive corpus: max_points={args.max_points}, "
                                    f"max_coord={args.max_coord}")
        corpus = list(O.exhaustive_polytopes(args.max_points, args.max_coord))
    rows = O.cross_check_thm37(corpus)
    agree = sum(1 for r in rows if r.empties and
                r.compile_cost == r.oracle_cost == r.area_abs)
    second = sum(1 for r in rows if r.minimal_without_empty)
    print(f"corpus {len(rows)}: {agree} compiled minimal, "
          f"{second} minimal without empty reduction")
    if args.report:
        with open(args.report, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["ver0", "ver1", "empties", "compile_cost",
                        "oracle_cost", "area_abs", "minimal_without_empty",
                        "steps_all_minimal"])
            for r in rows:
                w.writerow([r.ver0, r.ver1, int(r.empties),
                            "" if r.compile_cost is None else r.compile_cost,
                            r.oracle_cost, r.area_abs,
                            int(r.minimal_without_empty),
                            int(r.steps_all_minimal)])
    if args.render_dir:
        os.makedirs(args.render_dir, exist_ok=True)
        for i, p in enumerate(corpus):
            with open(os.path.join(args.render_dir, f"poly{i:04d}.svg"), "w") as fh:
                fh.write(render_svg(p, args.math_axes))
    bad = [r for r in rows if not r.steps_all_minimal]
    return 3 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
