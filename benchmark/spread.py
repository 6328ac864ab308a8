#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread the way the driver does.

Runs BENCHMARK.json's command on every workload with ten different seeds and
prints, per end-to-end metric, the median and the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median, next
to the metric's bound. Run it from the repository root:

    python3 benchmark/spread.py [--first-seed 1] [--runs 10] [--workload NAME] [--out FILE]

--out appends one JSON line per run, so two sets can be compared afterwards.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    worst = 0.0
    for wl in workloads:
        values = {}
        t0 = time.time()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit(f"{wl} seed {seed}: exit code {proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                sys.exit(f"{wl} seed {seed}: {res['failed']} of {res['attempted']} operations failed")
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": wl, "seed": seed, **res}) + "\n")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{wl}: {args.runs} runs in {time.time() - t0:.0f} s")
        for name, vs in values.items():
            q1, q2, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "  > bound" if spread > bound else ("  > bound/3" if spread > bound / 3 else "")
            print(f"  {name:22s} median {q2:12.6g}  spread {spread:7.4f}  bound {bound}{flag}")
    print(f"worst spread/bound: {worst:.2f}")


if __name__ == "__main__":
    main()
