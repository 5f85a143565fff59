#!/usr/bin/env python3
"""Writes the deterministic fields of two fixed serving runs as JSON.

Usage: python3 scripts/serve_answers.py [NELA_BINARY] > results/serve_answers.json

Runs `nela serve` over two chained single-worker sessions, once in-process
and once over the 5%-loss simulated radio, and keeps per session only what
a fixed seed determines: the answer digest, the outcome counts, the mean
candidates and transfer units the LBS returned, and the radio counters
(without `virtual_s`). Latencies and wall times are dropped. A change to the
query kernel, the request path or the radio that alters any served answer
changes this file; CI regenerates it and fails on a diff.
"""

import json
import subprocess
import sys

SERVE = [
    "serve", "--users", "20000", "--requests", "400", "--rate", "500",
    "--threads", "1", "--query", "mix", "--sessions", "2", "--json",
]
RUNS = {
    "in-process": [],
    "netsim": ["--transport", "netsim", "--net-loss", "0.05"],
}
FIELDS = [
    "answers_digest", "served", "failed", "reused",
    "mean_candidates", "mean_transfer_units",
]


def session_fields(report):
    kept = {name: report[name] for name in FIELDS}
    net = report.get("net")
    kept["net"] = None if net is None else {
        name: value for name, value in net.items() if name != "virtual_s"
    }
    return kept


def main():
    nela = sys.argv[1] if len(sys.argv) > 1 else "target/release/nela"
    out = {"command": " ".join(["nela"] + SERVE), "runs": {}}
    for name, extra in RUNS.items():
        text = subprocess.run(
            [nela] + SERVE + extra, check=True, capture_output=True, text=True
        ).stdout
        out["runs"][name] = {
            "flags": " ".join(extra),
            "sessions": [session_fields(r) for r in json.loads(text)],
        }
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
