#!/usr/bin/env python3
"""Steadiness evidence for the merge benchmark.

Runs every workload of BENCHMARK.json ten times for its run_seconds, in
fresh processes, alternating workloads, one seed per round (seeds 1-10).
For every end-to-end metric it prints the median, the quartiles (as
statistics.quantiles with n=4 gives them), the quartile spread as a share
of the median, and the gap between the medians of the two interleaved
halves (even and odd rounds); it fails if a spread or a halves gap exceeds
the metric's bound. It then runs each workload twice untraced and twice
traced on its pinned default seed, and fails if any count, or any metric
that is not a measurement, differs between the two runs of a pair.

Run from the repository root:

    python3 mergebench/steady.py --out mergebench/results/steady.json

The benchmark is built once with cargo (into $CARGO_TARGET_DIR, or
mergebench/target) before any run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MEASURED = {"setup_s", "merge_s", "peak_rss_mb"}
RUNS = 10
FIRST_SEED = 1


def build():
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        check=True,
    )
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    return os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                        "release", "mergebench")


def run(binary, workload, seed, seconds, trace):
    """One fresh process; `seed` None runs the workload's pinned seed."""
    cmd = [binary, "--workload", workload, "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    started = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.time() - started
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = next(json.loads(l.split(" ", 1)[1]) for l in lines
                  if l.startswith("mergebench-detail "))
    return {"workload": workload, "seed": detail["seed"], "trace": trace, "wall_s": wall,
            "result": result, "detail": detail}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    even, odd = values[0::2], values[1::2]
    gap = abs(statistics.median(even) - statistics.median(odd)) if odd else 0.0
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "halves_gap": gap / med if med else 0.0,
            "values": values}


def exact_view(record):
    """Everything that must repeat exactly for one seed: every count and
    every metric that is not a measurement. Timings, peak RSS, the trace's
    coverage and overhead, and the allocation counts and bytes are
    measurements; the last vary by a few allocations in a million because
    std's hash maps are seeded per process."""
    metrics = record["result"]["metrics"]
    view = {"counts": record["detail"]["counts"],
            "failed_pct": record["detail"]["failed_pct"],
            "correct": record["result"]["correct"]}
    for name, m in metrics.items():
        measured = (m["unit"] in ("s", "MB/s") or name in MEASURED
                    or name.startswith("trace.") or name.endswith((".allocs", ".alloc_mb")))
        if not measured:
            view[name] = m["value"]
    if record["trace"]:
        view["replayed"] = record["detail"]["replayed"]
    return view


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=None, help="write every run and summary as JSON")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    binary = build()

    records = []
    for i in range(RUNS):
        # Alternate the order so no workload always runs first after another.
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            rec = run(binary, w, FIRST_SEED + i, seconds, 0)
            records.append(rec)
            print(f"run {i + 1}/{RUNS} {w} seed {rec['seed']}: "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in rec["result"]["metrics"].items())
                  + f" ({rec['wall_s']:.1f} s)", flush=True)

    summary = {}
    ok = True
    print(f"\n{'workload':<24} {'metric':<20} {'median':>10} {'q1':>10} {'q3':>10}"
          f" {'spread':>8} {'halves':>8} {'bound':>6}")
    for w in workloads:
        runs = [r for r in records if r["workload"] == w]
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            s = summarize(values)
            summary.setdefault(w, {})[name] = s
            flag = "" if s["spread"] < bounds[name] / 3 else "  <- spread above bound/3"
            if s["spread"] > bounds[name]:
                ok = False
                flag = "  <- spread above bound"
            if s["halves_gap"] > bounds[name]:
                ok = False
                flag += "  <- halves gap above bound"
            print(f"{w:<24} {name:<20} {s['median']:>10.5g} {s['q1']:>10.5g} {s['q3']:>10.5g}"
                  f" {s['spread']:>8.2%} {s['halves_gap']:>8.2%} {bounds[name]:>6}{flag}")
        failed = [r for r in runs if not r["result"]["correct"] or r["result"]["failed"]]
        if failed:
            ok = False
            print(f"{w}: {len(failed)} runs reported failures")

    repeats = []
    for w in workloads:
        untraced = [run(binary, w, None, seconds, 0) for _ in range(2)]
        traced = [run(binary, w, None, seconds, 1) for _ in range(2)]
        repeats += untraced + traced
        for (a, b), what in [(untraced, "untraced"), (traced, "traced")]:
            same = exact_view(a) == exact_view(b)
            correct = a["result"]["correct"] and b["result"]["correct"]
            ok &= same and correct
            print(f"determinism {w} pinned seed {a['seed']} {what}: "
                  + ("identical" if same else "DIFFERENT")
                  + f", correct {a['result']['correct']} and {b['result']['correct']}"
                  + f", failed {a['result']['failed']} and {b['result']['failed']}"
                  + f" of {a['result']['attempted']} checks")
            if not same:
                va, vb = exact_view(a), exact_view(b)
                for k in sorted(set(va) | set(vb)):
                    if va.get(k) != vb.get(k):
                        print(f"  {k}: {va.get(k)} vs {vb.get(k)}")

    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump({"seconds": seconds, "first_seed": FIRST_SEED,
                       "nproc": os.cpu_count(), "summary": summary,
                       "runs": records, "repeats": repeats}, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
