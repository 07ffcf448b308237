"""The four benchmark workloads: their input populations, the library calls
one instance makes, and the checks on each instance's verdict.

Inputs are plain tuples until a run builds them with the library, so the
same population can be rebuilt after a fresh import.  Each population is
drawn once from fixed per-entry seeds (``random.Random("<workload>/<i>")``)
or is the exhaustive desk corpus; the run's ``--seed`` sets the order of
each pass over it.  That keeps the recorded digests (``digests.json``)
valid for every seed.

Each workload calls the library functions that the CLI verb it stands for
calls in ``cli._dispatch``, one instance per timed call.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    limit_s: float                   # per-instance time limit
    populate: Callable               # (lib) -> list of plain-data inputs
    order: Callable                  # (rng, population) -> one pass of indices
    build: Callable                  # (lib, data) -> library input
    run: Callable                    # (lib, input, out: dict) -> None
    check: Callable                  # (lib, input, out) -> list of problems
    digest: Callable                 # (lib, out) -> tuple to hash, or None
    record: Callable                 # what digests.json records: like run


def digest_of(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:10]


def _interleaved(rng: random.Random, groups: list[list[int]]) -> list[int]:
    """One pass: each group shuffled, then one entry from each group in turn,
    so every stretch of a run has the same mix."""
    walks = [rng.sample(g, len(g)) for g in groups]
    return [w[j] for j in range(max(map(len, walks))) for w in walks if j < len(w)]


def _random_lattice_polytope(rng: random.Random, n: int):
    """An n-point polytope on the 3n x 3n grid, as (ver0, ver1) tuples."""
    xs = rng.sample(range(3 * n), n)
    ys = rng.sample(range(3 * n), n)
    ys1 = ys[:]
    rng.shuffle(ys1)
    return tuple(zip(xs, ys)), tuple(zip(xs, ys1))


def _ladder_population(name: str, sizes, per_size: int):
    def populate(lib):
        return [(n, _random_lattice_polytope(random.Random(f"{name}/{n}/{i}"), n))
                for n in sizes for i in range(per_size)]

    def order(rng, population):
        return _interleaved(rng, [[i for i, (n, _) in enumerate(population) if n == size]
                                  for size in sizes])
    return populate, order


def _build_polytope(lib, data):
    _, (ver0, ver1) = data
    return lib.geometry.validate_polytope(ver0, ver1)


def _trace_digest(lib, out):
    """Trace kinds and terminal measure; for plan-ladder also when the
    compile timed out after the reduction."""
    if "trace" not in out:
        return None
    return (tuple(out["trace"].kinds()), lib.reduce.measure(out["trace"].terminal))


def _measure_rule_problems(lib, trace) -> list[str]:
    """The per-step measure rules of acceptance criterion 4."""
    ms = [lib.reduce.measure(x) for x in trace.graphs()]
    out = []
    for i, step in enumerate(trace.steps):
        b, a = ms[i], ms[i + 1]
        if step.kind == "I":
            ok = a[0] < b[0] and a[1] == b[1]
        elif step.kind == "III":
            ok = a[1] < b[1] and a[0] <= b[0]
        elif step.kind == "II":
            ok = a[2] == b[2] - 1
        elif step.kind in ("IVa1", "IVa2"):
            ok = i + 2 < len(ms) and ms[i + 2][:2] < b[:2]
        else:
            ok = True
        if not ok:
            out.append(f"step {i} ({step.kind}) breaks the measure rule: {b} -> {a}")
    return out


# -------------------------------------------------------------- plan-ladder --

PLAN_SIZES = (6, 7, 8, 9, 10, 11)


def _plan_run(lib, p, out):
    """The `latpoly plan` path."""
    trace = lib.reduce.good_reduce(lib.dotgraph.associate(p))
    out["trace"] = trace
    if not trace.terminal.is_empty():
        out["verdict"] = "NO-PLAN"
        return
    plan = lib.plan.compile_plan(trace, p)
    out["plan"] = plan
    out["verdict"] = "MINIMAL" if lib.plan.verify_minimal(plan, p) else "NOT-MINIMAL"


def _plan_check(lib, p, out):
    G = lib.geometry
    if out["verdict"] == "NO-PLAN":
        return [] if not out["trace"].terminal.is_empty() else \
            ["NO-PLAN although the reduction ends empty"]
    plan = out["plan"]
    problems = []
    if out["verdict"] != "MINIMAL":
        problems.append("plan is not minimal")
    if not G.trivial(lib.plan.replay(p, plan)):
        problems.append("plan does not replay to a trivial polytope")
    if plan.cost_abs != G.area_abs(p):
        problems.append(f"cost_abs {plan.cost_abs} != area_abs {G.area_abs(p)}")
    if plan.cost_signed != G.area_signed(p):
        problems.append(f"cost_signed {plan.cost_signed} != area_signed {G.area_signed(p)}")
    return problems


# ------------------------------------------------------------- reduce-large --

REDUCE_SIZES = (12, 14, 16, 18, 20, 22, 24, 26)


def _reduce_run(lib, p, out):
    """The `latpoly reduce` path."""
    out["trace"] = lib.reduce.good_reduce(lib.dotgraph.associate(p))


def _reduce_check(lib, p, out):
    trace = out["trace"]
    problems = _measure_rule_problems(lib, trace)
    if not lib.reduce.is_good_reduced(trace.terminal):
        problems.append("terminal graph still has a good move")
    return problems


# ------------------------------------------------------------ oracle-corpus --

def _oracle_populate(lib):
    return [(tuple((q.x, q.y) for q in sorted(p.ver0.points)),
             tuple((q.x, q.y) for q in sorted(p.ver1.points)))
            for p in lib.oracle.exhaustive_polytopes(3, 4)]


def _oracle_order(rng, population):
    return rng.sample(range(len(population)), len(population))


def _oracle_build(lib, data):
    return lib.geometry.validate_polytope(*data)


def _oracle_run(lib, p, out):
    """The `latpoly oracle --corpus` path, one polytope per call."""
    out["row"] = lib.oracle.cross_check_thm37([p])[0]


def _oracle_check(lib, p, out):
    r = out["row"]
    problems = []
    if r.empties and not r.compile_cost == r.oracle_cost == r.area_abs:
        problems.append(f"emptying row costs differ: compile {r.compile_cost}, "
                        f"oracle {r.oracle_cost}, area_abs {r.area_abs}")
    if not r.steps_all_minimal:
        problems.append("an oracle plan step fails the label classifier")
    return problems


def _oracle_digest(lib, out):
    if "row" not in out:
        return None
    r = out["row"]
    return (r.empties, r.compile_cost, r.oracle_cost, r.area_abs,
            r.minimal_without_empty, r.steps_all_minimal)


# --------------------------------------------------------------- confluence --

CONFLUENCE_RANDOM = 56
SQUARE_COUNTS = (2, 3, 4, 5, 6, 7, 8)
RANDOM_PER_SQUARES = 8            # random graphs before each squares instance


def _squares(rng: random.Random, k: int):
    """k disjoint identical dotted squares: one side, orientation and dot
    corner for all of them, so the graph has k! symmetries."""
    side = rng.choice((2, 3, 4))
    gap = rng.choice((1, 2, 3))
    corner = rng.randrange(4)
    ccw = rng.random() < 0.5
    curves, dots = [], []
    for j in range(k):
        x = j * (side + gap)
        sq = [(x, 0), (x + side, 0), (x + side, side), (x, side)]
        if not ccw:
            sq = [sq[0]] + sq[:0:-1]
        curves.append(tuple(sq))
        dots.append(sq[corner])
    return tuple(curves), tuple(dots)


def _confluence_populate(lib):
    out = []
    for i in range(CONFLUENCE_RANDOM):
        g = lib.oracle.random_dotted_graph(random.Random(f"confluence/{i}"))
        out.append(("random", (g.curves, tuple(sorted(g.dots)))))
    for k in SQUARE_COUNTS:
        out.append((f"squares{k}", _squares(random.Random(f"squares/{k}"), k)))
    return out


def _confluence_order(rng, population):
    """The random graphs in seeded order, with the squares instances
    (k = 2 ... 8) one after every RANDOM_PER_SQUARES of them."""
    randoms = [i for i, (kind, _) in enumerate(population) if kind == "random"]
    squares = [i for i, (kind, _) in enumerate(population) if kind != "random"]
    randoms = rng.sample(randoms, len(randoms))
    out = []
    for j, sq in enumerate(squares):
        out += randoms[RANDOM_PER_SQUARES * j:RANDOM_PER_SQUARES * (j + 1)] + [sq]
    return out + randoms[RANDOM_PER_SQUARES * len(squares):]


def _confluence_build(lib, data):
    curves, dots = data[1]
    return lib.dotgraph.DottedGraph.build(curves, dots)


def _confluence_run(lib, g, out):
    """The `latpoly reduce --confluence` path."""
    out["report"] = lib.reduce.explore_reductions(g)


def _confluence_check(lib, g, out):
    rep = out["report"]
    if rep.condition_A_ok and len(rep.terminals) != 1:
        return [f"{len(rep.terminals)} terminal forms although condition (A) held"]
    return []


def _confluence_digest(lib, out):
    """Leaves out condition_A_ok: reduce._COND_A_CACHE is keyed by the
    canonical form, which is coarser than what condition (A) depends on,
    so that verdict depends on which inputs ran before."""
    if "report" not in out:
        return None
    rep = out["report"]
    return (len(rep.terminals), rep.visited, rep.skipped_exclusion)


# ------------------------------------------------------------------ registry --

_plan_pop, _plan_order = _ladder_population("plan-ladder", PLAN_SIZES, 8)
_reduce_pop, _reduce_order = _ladder_population("reduce-large", REDUCE_SIZES, 5)

# Why each workload is here, and what it should show: BENCHMARK.json, README.md.
WORKLOADS = {w.name: w for w in (
    Workload("plan-ladder", 0.25, _plan_pop, _plan_order, _build_polytope,
             _plan_run, _plan_check, _trace_digest, _reduce_run),
    Workload("reduce-large", 5.0, _reduce_pop, _reduce_order, _build_polytope,
             _reduce_run, _reduce_check, _trace_digest, _reduce_run),
    Workload("oracle-corpus", 5.0, _oracle_populate, _oracle_order, _oracle_build,
             _oracle_run, _oracle_check, _oracle_digest, _oracle_run),
    Workload("confluence", 1.0, _confluence_populate, _confluence_order, _confluence_build,
             _confluence_run, _confluence_check, _confluence_digest, _confluence_run),
)}
