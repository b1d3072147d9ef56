#!/usr/bin/env python3
"""Append one `kind:"mergebench"` entry to BENCH_xmerge.json.

The entry is read from the saved standard output of one timed `mergebench`
run (`--trace 0`): its `mergebench-detail` line gives the workload, the seed
and every sample. The entry records the commit, the workload, the seed, the
number of measuring processes, and the median and quartiles of `setup_s`,
`merge_s` and `peak_rss_mb`, computed as `mergebench` computes them (linear
interpolation between the sorted samples).

    cargo run --quiet --release --offline --manifest-path mergebench/Cargo.toml -- \\
        --workload intra-spec2006 --seconds 30 > run.txt
    scripts/mergebench-entry.py run.txt                  # commit: git describe
    scripts/mergebench-entry.py run.txt --commit df62ef2 --out BENCH_xmerge.json
"""

import argparse
import json
import subprocess
import sys
import time

METRICS = ("setup_s", "merge_s", "peak_rss_mb")
DETAIL = "mergebench-detail "


def quartiles(values):
    """(q1, median, q3) by linear interpolation, as mergebench reports them."""
    v = sorted(values)
    if not v:
        raise ValueError("no samples")

    def at(q):
        pos = q * (len(v) - 1)
        lo, hi = int(pos), min(int(pos) + 1, len(v) - 1)
        return v[lo] + (v[hi] - v[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def detail_of(path):
    with open(path, encoding="utf-8") as f:
        details = [line[len(DETAIL):] for line in f if line.startswith(DETAIL)]
    if len(details) != 1:
        sys.exit(f"{path}: expected one mergebench-detail line, found {len(details)}")
    detail = json.loads(details[0])
    if detail.get("trace") != 0 or "samples" not in detail:
        sys.exit(f"{path}: not a timed run (--trace 0): its detail line has no samples")
    return detail


def describe():
    return subprocess.run(
        ["git", "describe", "--always", "--dirty"],
        check=True,
        capture_output=True,
        text=True,
    ).stdout.strip()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", help="saved standard output of one mergebench run")
    parser.add_argument("--commit", help="commit measured (default: git describe --always --dirty)")
    parser.add_argument("--out", default="BENCH_xmerge.json", help="file to append to")
    args = parser.parse_args()

    detail = detail_of(args.output)
    samples = detail["samples"]
    entry = {
        "kind": "mergebench",
        "schema": 1,
        "unix_time": int(time.time()),
        "commit": args.commit or describe(),
        "workload": detail["workload"],
        "seed": detail["seed"],
        "processes": len(samples["merge_s"]),
    }
    for name in METRICS:
        q1, median, q3 = quartiles(samples[name])
        entry[name] = {"median": median, "q1": q1, "q3": q3, "samples": len(samples[name])}
    with open(args.out, "a", encoding="utf-8") as f:
        f.write(json.dumps(entry, separators=(",", ":")) + "\n")
    print(json.dumps(entry))


if __name__ == "__main__":
    main()
