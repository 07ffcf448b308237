"""Record the reference digests that run.py compares each verdict against.

    python3 perfbench/record_digests.py [workload ...]

For every input of each workload's population, runs the workload's
reference path (for plan-ladder, the good reduction only) under a limit of
RECORD_LIMIT_S and stores a short hash of the trace kinds and terminal
measure, the oracle row or the exploration report; an input that needs
longer is stored as null and run.py checks it by its verdict rules only.
Run it only at a commit whose behaviour is the reference; the result
replaces ``digests.json`` entries.
"""
from __future__ import annotations

import dataclasses
import json
import signal
import sys
import time

from run import HERE, SRC, _on_alarm, run_limited, setup
from workloads import WORKLOADS, digest_of

RECORD_LIMIT_S = 60


def main(names) -> int:
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    path = HERE / "digests.json"
    recorded = json.loads(path.read_text()) if path.exists() else {}
    for name in names or sorted(WORKLOADS):
        w = WORKLOADS[name]
        reference = dataclasses.replace(w, run=w.record, limit_s=RECORD_LIMIT_S)
        lib, data, inputs = setup(w)
        t0 = time.perf_counter()
        digests = []
        for inp in inputs:
            out: dict = {}
            status = run_limited(reference, lib, inp, out)
            if status == "error":
                raise SystemExit(f"{name}: {out['error']}")
            digests.append(digest_of(w.digest(lib, out)) if status == "decided" else None)
        recorded[name] = {"population": digest_of(data), "digests": digests}
        print(f"{name}: {len(digests)} digests ({digests.count(None)} over "
              f"{RECORD_LIMIT_S} s) in {time.perf_counter() - t0:.1f} s",
              file=sys.stderr)
        path.write_text(json.dumps(recorded, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
