#!/usr/bin/env python3
"""Writes the seed-determined counts of three fixed mobility runs as JSON.

Usage: python3 scripts/mobility_answers.py [NELA_BINARY] > results/mobility_answers.json

Runs `nela mobility --users 20000 --ticks 10 --rate 20 --json` once per
clustering algorithm (`tconn`, `central`, `knn`) and keeps only what a fixed
seed determines: the integer counts of the summary and of every tick (movers,
dirty and changed users, invalidations, releases, live clusters, requests,
served, reused, failed, valid). Wall times (`*_ns`), the speedup and the rates
derived from the counts are dropped. A change to WPG maintenance, the lifetime
audit or the request path that alters any tick's outcome changes this file;
CI regenerates it and fails on a diff.
"""

import json
import subprocess
import sys

MOBILITY = [
    "mobility", "--users", "20000", "--ticks", "10", "--rate", "20", "--json",
]
ALGOS = ["tconn", "central", "knn"]


def counts(record):
    return {
        name: value
        for name, value in record.items()
        if isinstance(value, int) and not name.endswith("_ns")
    }


def main():
    nela = sys.argv[1] if len(sys.argv) > 1 else "target/release/nela"
    out = {"command": " ".join(["nela"] + MOBILITY), "runs": {}}
    for algo in ALGOS:
        text = subprocess.run(
            [nela] + MOBILITY + ["--algo", algo],
            check=True, capture_output=True, text=True,
        ).stdout
        summary = json.loads(text)
        run = counts(summary)
        run["per_tick"] = [counts(tick) for tick in summary["per_tick"]]
        out["runs"][algo] = run
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
