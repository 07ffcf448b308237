"""Run the benchmark over several seeds and write one BENCH file.

    python3 perfbench/collect.py --tag baseline --seeds 1-10 [--workloads a,b] [--trace]

Runs ``run.py`` once per workload and seed, one run at a time, each in a
fresh process, for ``run_seconds`` from ``BENCHMARK.json``.  For every
end-to-end metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's
bound.  With ``--trace`` it adds one traced run per workload on the first
seed.  The result goes to ``perfbench/BENCH_<tag>.json`` with the Python
version, the CPU count and the git commit.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0, "bound": bound}
    return out


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    report = {"tag": args.tag, "commit": _commit(), "python": platform.python_version(),
              "cpu_count": os.cpu_count(), "run_seconds": seconds,
              "seeds": _seeds(args.seeds), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in report["seeds"]:
            runs.append(run_once(workload, seed, seconds, trace=False))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
                file=sys.stderr)
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": [r["attempted"] for r in runs],
                 "failed": sum(r["failed"] for r in runs),
                 "end_to_end": summarize(runs, bounds), "runs": runs}
        if args.trace:
            entry["traced"] = run_once(workload, report["seeds"][0], seconds, trace=True)
        report["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"  {workload} {name}: median {s['median']:.4g} {units[name]}, "
                  f"spread {s['spread']:.3f} (bound {s['bound']})", file=sys.stderr)
    path = HERE / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
