"""Seeded benchmark of the latpoly pipeline: one workload per run.

    python3 perfbench/run.py --workload plan-ladder --seed 1 --seconds 20 --trace 0

Runs the workload's instances one after another in this one process (a
closed loop with one client), in whole passes over its input population
until ``--seconds`` seconds of instance time have passed, each instance
under its workload's time limit, and checks every verdict outside the
timed spans.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the same instances are replayed
on a freshly imported library with every layer boundary traced, and the
JSON object carries the per-layer metrics named in ``BENCHMARK.json``.
Spans and per-type exception counts go to ``perfbench/out/``.

The library is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from tracer import Tracer
from workloads import WORKLOADS, digest_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
LAYERS = ("geometry", "arrangement", "dotgraph", "deform", "reduce", "plan", "oracle")
SETUP_REPEATS = 5
TRACE_BUDGET = 2          # the traced replay stops after this many --seconds


class InstanceTimeout(BaseException):
    """Raised by SIGALRM inside the instance; a BaseException so that no
    handler in the library can swallow it."""


def _on_alarm(signum, frame):
    raise InstanceTimeout()


@dataclass
class Record:
    index: int
    latency: float
    status: str            # "decided" | "timeout" | "error"


def fresh_library() -> SimpleNamespace:
    """Import latpoly anew, so every library cache starts empty."""
    for name in [n for n in sys.modules if n == "latpoly" or n.startswith("latpoly.")]:
        del sys.modules[name]
    gc.collect()
    importlib.import_module("latpoly.cli")        # the modules the CLI loads
    return SimpleNamespace(**{m: sys.modules[f"latpoly.{m}"] for m in LAYERS})


def setup(workload):
    """Import plus input generation.  The inputs are generated as plain data
    and then built against a second fresh import, so the generators' own
    library calls leave nothing in the caches the timed run uses."""
    lib = fresh_library()
    data = workload.populate(lib)
    lib = fresh_library()
    return lib, data, [workload.build(lib, d) for d in data]


def run_limited(workload, lib, inp, out: dict) -> str:
    try:
        signal.setitimer(signal.ITIMER_REAL, workload.limit_s)
        try:
            workload.run(lib, inp, out)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except InstanceTimeout:
        return "timeout"
    except Exception as e:             # recorded as a failed verdict
        out["error"] = f"{type(e).__name__}: {e}"
        return "error"
    return "decided"


def run_pass(workload, lib, inputs, indices, budget: float = float("inf"), tracer=None):
    """Run instances in order until ``budget`` seconds of instance time have
    passed; returns their records and outputs."""
    records: list[Record] = []
    outs: list[dict] = []
    timed = 0.0
    for i in indices:
        if timed >= budget:
            break
        out: dict = {}
        t0 = time.perf_counter()
        if tracer is None:
            status = run_limited(workload, lib, inputs[i], out)
        else:
            with tracer.instance(len(records)):
                status = run_limited(workload, lib, inputs[i], out)
        records.append(Record(i, time.perf_counter() - t0, status))
        outs.append(out)
        timed += records[-1].latency
    return records, outs


def run_passes(workload, data, lib, inputs, rng, seconds: float, expected):
    """Run whole seeded passes over the population until ``seconds`` of
    instance time have passed; the pass in progress is finished, so every
    run measures the same inputs.  Each pass after the first starts on a
    freshly imported library, so no pass hits caches an earlier one filled.
    A pass's outputs are checked and dropped when it ends, so none of them
    keeps its library alive.  The re-import and the checks are outside the
    timed spans.  Returns the records, the timed seconds and the failed
    checks."""
    records: list[Record] = []
    failed: list[str] = []
    while True:
        recs, outs = run_pass(workload, lib, inputs, workload.order(rng, data))
        failed += check_records(workload, lib, inputs, recs, outs, expected)
        records += recs
        timed = sum(r.latency for r in records)
        if timed >= seconds:
            return records, timed, failed
        lib = fresh_library()
        inputs = [workload.build(lib, d) for d in data]


def check_records(workload, lib, inputs, records, outs, expected) -> list[str]:
    """Verdict checks and digest comparisons; one entry per failed instance."""
    failed = []
    for r, out in zip(records, outs):
        if r.status == "error":
            failed.append(f"input {r.index}: {out['error']}")
            continue
        problems = workload.check(lib, inputs[r.index], out) \
            if r.status == "decided" else []
        value = workload.digest(lib, out)
        if value is not None and expected[r.index] is not None and \
                digest_of(value) != expected[r.index]:
            problems.append(f"digest {digest_of(value)} != recorded "
                            f"{expected[r.index]} for {value}")
        if problems:
            failed.append(f"input {r.index}: " + "; ".join(problems))
    return failed


def end_to_end(records, timed: float, setup_s: float, rss_mb: float) -> dict:
    lat = [r.latency for r in records]
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    return {
        "throughput_per_s": len(records) / timed,
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": p90,
        "decided_share": sum(r.status == "decided" for r in records) / len(records),
        "peak_rss_mb": rss_mb,
        "setup_s": setup_s,
    }


def traced_replay(workload, data, indices, seconds: float, expected):
    """Replay instances, in order, on a fresh import with every layer
    boundary traced; stops after ``seconds`` of instance time."""
    lib = fresh_library()
    inputs = [workload.build(lib, d) for d in data]
    tracer = Tracer(lib, ignore=(InstanceTimeout,))
    tracer.install()
    try:
        records, outs = run_pass(workload, lib, inputs, indices, seconds, tracer)
    finally:
        tracer.uninstall()
    values = tracer.metrics()           # before the checks touch the caches
    return records, values, tracer, check_records(workload, lib, inputs, records,
                                                  outs, expected)


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _result(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "latpoly" / "__init__.py").is_file():
        print(f"perfbench: no latpoly package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    recorded = json.loads((HERE / "digests.json").read_text())[workload.name]
    signal.signal(signal.SIGALRM, _on_alarm)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib, data, inputs = setup(workload)
        setup_times.append(time.perf_counter() - t0)
    if digest_of(data) != recorded["population"]:
        print("perfbench: the input population differs from the one digests.json "
              "was recorded on", file=sys.stderr)
        return 2

    records, timed, failed = run_passes(workload, data, lib, inputs,
                                        random.Random(args.seed), args.seconds,
                                        recorded["digests"])
    metrics = end_to_end(records, timed, statistics.median(setup_times),
                         resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    counts = Counter(r.status for r in records)
    print(f"{workload.name} seed {args.seed}: {len(records)} instances in "
          f"{timed:.2f} timed s ({counts['decided']} decided, {counts['timeout']} "
          f"timed out at {workload.limit_s} s, {counts['error']} errors); "
          f"percentiles from {len(records)} samples; wrong_verdicts {len(failed)}")
    units = _declared("end_to_end")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    attempted = len(records)

    if args.trace:
        first_pass = (r.index for r in records[:len(data)])
        traced, values, tracer, traced_failed = traced_replay(
            workload, data, first_pass, TRACE_BUDGET * args.seconds, recorded["digests"])
        failed += traced_failed
        attempted += len(traced)
        values["trace.overhead_s"] = sum(r.latency for r in traced) - \
            sum(r.latency for r in records[:len(traced)])
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"trace-{workload.name}-seed{args.seed}"
        kept = tracer.write_spans(stem.with_suffix(".tsv"))
        stem.with_suffix(".json").write_text(json.dumps({
            "workload": workload.name, "seed": args.seed,
            "instances_replayed": len(traced), "spans_kept": kept,
            "spans_dropped": tracer.spans_dropped,
            "raised_by_type": tracer.raised_by_type(), "metrics": values,
        }, indent=1) + "\n")
        print(f"traced replay: {len(traced)} instances, overhead "
              f"{values['trace.overhead_s']:.3f} s, {kept} spans in {stem}.tsv "
              f"({tracer.spans_dropped} not kept)")
        result = _result(values, _declared("per_layer"))
    else:
        result = _result(metrics, units)
    for line in failed[:20]:
        print(f"  WRONG {line}", file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
