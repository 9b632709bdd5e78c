#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 swbench/tools/spread.py --workload ingest --seeds 1-10 [--trace 0]

For every end-to-end metric it prints the median, the interquartile
distance as a share of the median (statistics.quantiles(values, n=4),
the same figure the acceptance check uses) and that share against the
metric's bound in BENCHMARK.json. Each run's JSON result and its printed
detail figures are appended as JSON lines to the file named by --out,
when given.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    values = {m["name"]: [] for m in metrics}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        try:
            res = json.loads(last)
        except json.JSONDecodeError:
            print(f"seed {seed}: exit {proc.returncode}, no result\n{proc.stderr[-2000:]}", file=sys.stderr)
            sys.exit(1)
        if args.out:
            with open(args.out, "a") as f:
                details = {}
                for line in proc.stdout.splitlines():
                    parts = line.split()
                    if len(parts) >= 3 and parts[0] == "detail":
                        details[parts[1]] = float(parts[2])
                f.write(json.dumps({"workload": args.workload, "seed": seed, "trace": args.trace,
                                    "exit": proc.returncode, "result": res, "details": details}) + "\n")
        ok = proc.returncode == 0 and res["correct"] and res["failed"] == 0
        print(f"seed {seed}: exit {proc.returncode} correct {res['correct']} "
              f"attempted {res['attempted']} failed {res['failed']}" + ("" if ok else "  <-- FAILED"))
        for name, m in res["metrics"].items():
            if name in values:
                values[name].append(m["value"])
    for m in metrics:
        v = values[m["name"]]
        if len(v) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med if med else float("nan")
        bound = m.get("bound")
        verdict = ""
        if bound is not None:
            verdict = "ok" if spread < bound / 3 else ("WITHIN BOUND" if spread <= bound else "OVER BOUND")
            verdict = f"bound {bound:.3f} (third {bound / 3:.3f}) {verdict}"
        print(f"{m['name']:40s} median {med:14.6g} spread {spread:7.4f} {verdict}")


if __name__ == "__main__":
    main()
