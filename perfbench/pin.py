"""Write perfbench/pins.json: the digests of the seed-independent answers.

    python3 perfbench/pin.py

Runs one untraced repetition of every workload (seed 0, the default search
bound) and records the answer digest of each query marked `pin`.  Later runs
fail a query whose answer differs from its pinned digest, so verdicts and
certificates cannot change unnoticed.  Re-pin only when a change of answers is
intended, and say so in the change that does it.
"""
from __future__ import annotations

import json
import os
import sys

import run


def main():
    spec_path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(spec_path, encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    pins = {}
    for name in names:
        record = run.run_worker(name, seed=0, bound=run.SEARCH_BOUND, trace=0)
        bad = {f["query"] for f in record["failures"] if not f["known_defect"]}
        if bad:
            print(f"error: {name} fails {sorted(bad)}; not pinning", file=sys.stderr)
            return 1
        pins[name] = {q: record["answers"][q] for q in record["pin"]}
    with open(os.path.join(run.HERE, "pins.json"), "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
