#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b,...]
                                    [--seed-base 1000] [--traced 1]

Runs every workload --runs times, alternating workloads (run i visits them
in an order rotated by i) and giving run i the seed seed-base + i. For each
workload and end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4), the quartile spread as a share of the median,
and the gap between the medians of two interleaved sets of runs (even and
odd i), signed so that a positive gap means the second set reads worse. The
bounds in BENCHMARK.json are set from these figures. With --traced N it
also makes N traced runs per workload and reports the tracing overhead:
the traced run's throughput against the untraced median.

Reads BENCHMARK.json for the command, run length and metrics. Writes the
raw results to .bench_out/steadiness-<UTC time>.json.
"""

import argparse
import datetime
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TAIL = re.compile(r"latency: n=(\d+) p50=[\d.]+ us (p[\d.]+)=([\d.]+) us")


def run_once(spec, workload, seed, trace):
    command = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d)" %
                           (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    # The tail percentile is a reference figure, logged on stderr.
    tail = TAIL.search(proc.stderr)
    if tail:
        result["tail"] = {"samples": int(tail.group(1)),
                          "name": tail.group(2),
                          "us": float(tail.group(3))}
    return result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--traced", type=int, default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]
    started = datetime.datetime.now(datetime.timezone.utc)

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for workload in order:
            result = run_once(spec, workload, args.seed_base + i, 0)
            results[workload].append(result)
            print("run %d %-16s %s" % (i, workload, " ".join(
                "%s=%.6g" % (m["name"], result["metrics"][m["name"]]["value"])
                for m in metrics)), file=sys.stderr, flush=True)

    traced = {w: [] for w in workloads}
    for i in range(args.traced):
        for workload in workloads:
            traced[workload].append(
                run_once(spec, workload, args.seed_base + i, 1))

    report = {"started": started.isoformat(timespec="seconds"),
              "finished": datetime.datetime.now(
                  datetime.timezone.utc).isoformat(timespec="seconds"),
              "runs": args.runs, "run_seconds": spec["run_seconds"],
              "workloads": {}}
    print("%-16s %-18s %12s %12s %12s %8s %8s %6s" %
          ("workload", "metric", "median", "q1", "q3", "spread", "sets",
           "bound"))
    for workload in workloads:
        runs = results[workload]
        entry = {"correct": all(r["correct"] for r in runs),
                 "failed_share": sorted({r["failed"] / r["attempted"]
                                         for r in runs}),
                 "metrics": {}}
        for metric in metrics:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            stats = summarize(values)
            first = statistics.median(values[0::2])
            second = statistics.median(values[1::2])
            gap = (second - first) / first if first else 0.0
            if metric["better"] == "higher":
                gap = -gap
            stats["sets_gap"] = gap
            stats["bound"] = metric["bound"]
            stats["values"] = values
            entry["metrics"][name] = stats
            print("%-16s %-18s %12.6g %12.6g %12.6g %7.1f%% %7.1f%% %5.0f%%" %
                  (workload, name, stats["median"], stats["q1"], stats["q3"],
                   100 * stats["spread"], 100 * gap, 100 * metric["bound"]))
        tails = [r["tail"] for r in runs if "tail" in r]
        if tails:
            entry["tail"] = {"name": tails[0]["name"],
                             "median_us": statistics.median(
                                 t["us"] for t in tails),
                             "samples_per_run": statistics.median(
                                 t["samples"] for t in tails)}
            print("%-16s reference tail %s %.6g us (median over runs, "
                  "%d samples per run)" %
                  (workload, entry["tail"]["name"],
                   entry["tail"]["median_us"],
                   entry["tail"]["samples_per_run"]))
        if traced[workload]:
            untraced = statistics.median(
                r["metrics"]["throughput_per_s"]["value"] for r in runs)
            with_trace = statistics.median(
                r["metrics"]["trace.throughput_per_s"]["value"]
                for r in traced[workload])
            entry["tracing_overhead"] = 1 - with_trace / untraced
            entry["traced"] = traced[workload]
            print("%-16s tracing overhead %.1f%% (traced %.6g vs %.6g /s)" %
                  (workload, 100 * entry["tracing_overhead"], with_trace,
                   untraced))
        report["workloads"][workload] = entry

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "steadiness-%s.json" %
                        started.strftime("%Y%m%dT%H%M%SZ"))
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    print("raw results: %s" % os.path.relpath(path, ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
