"""Measure the benchmark's steadiness and record it as BASELINE.json.

usage: python3 perfbench/baseline.py [--sets 2] [--runs 10] [--first-seed 101]
                                     [--trace-seed 101] [--write]

Run from the root of the tree.  For each set, and within it for each
workload of BENCHMARK.json, runs the benchmark command --runs times with
--trace 0, one seed per run, for BENCHMARK.json's run_seconds.  A set is
summarized per end-to-end metric, and for the unbounded medians wall_s
and ref_s, by the median over its runs and the spread: the distance between the first and third quartile of the runs
(statistics.quantiles(values, n=4)) as a share of their median.  The
script prints each spread next to the metric's bound and, for the second
and later sets, how much worse each median is than the first set's.  Then
one --trace 1 run per workload gives the per-layer values.  With --write
the summary goes to perfbench/BASELINE.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}): "
                 f"{proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    env = next(json.loads(line.split("env ", 1)[1]) for line in lines
               if line.startswith("  env "))
    # the run's record holds the unbounded medians wall_s and ref_s
    record = os.path.join(".perfbench_out",
                          f"{workload}-seed{seed}-trace{trace}.json")
    with open(record) as fh:
        ok = [s for s in json.load(fh)["samples"] if s["ok"]]
    for key in ("wall_s", "ref_s"):
        result["metrics"].setdefault(key, {
            "value": statistics.median(s[key] for s in ok), "unit": "s"})
    return result, env


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": round((q3 - q1) / median, 4),
            "runs": [round(v, 6) for v in values]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--trace-seed", type=int, default=101)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {name: {"sets": []} for name in names}
    env = None
    for k in range(args.sets):
        first = args.first_seed + k * args.runs
        seeds = list(range(first, first + args.runs))
        for name in names:
            results = []
            for seed in seeds:
                result, env = run_once(bench, name, seed, 0)
                if not result["correct"]:
                    sys.exit(f"{name} seed {seed}: {result['failed']} of "
                             f"{result['attempted']} operations failed")
                results.append(result)
            metrics = {m: dict(summarize([r["metrics"][m]["value"]
                                          for r in results]),
                               unit=results[0]["metrics"][m]["unit"])
                       for m in list(bounds) + ["wall_s", "ref_s"]}
            sets = summary[name]["sets"]
            sets.append({"seeds": seeds, "end_to_end": metrics,
                         "attempted": sum(r["attempted"] for r in results),
                         "failed": sum(r["failed"] for r in results)})
            for m, s in metrics.items():
                worse = s["median"] / sets[0]["end_to_end"][m]["median"] - 1
                print(f"set {k + 1} {name:18s} {m:12s} median "
                      f"{s['median']:10.4f}  spread {s['spread']:.4f} "
                      f"(bound {bounds.get(m)})  vs set 1 {worse:+.4f}",
                      flush=True)
    for name in names:
        result, _ = run_once(bench, name, args.trace_seed, 1)
        summary[name]["per_layer"] = {
            m: round(v["value"], 6) for m, v in result["metrics"].items()}
    record = {
        "description": (
            f"Steadiness and first baseline of perfbench: {args.sets} sets "
            f"run one after the other, each {args.runs} --trace 0 runs per "
            "workload with one seed per run; per metric, the median over "
            "the runs and the spread (quartile distance over median). "
            "Per-layer values come from one --trace 1 run per workload."),
        "claim": None,
        "run_seconds": bench["run_seconds"],
        "trace_seed": args.trace_seed,
        "env": env,
        "workloads": summary,
    }
    text = json.dumps(record, indent=1) + "\n"
    if args.write:
        with open(os.path.join(HERE, "BASELINE.json"), "w") as fh:
            fh.write(text)
    else:
        print(text)


if __name__ == "__main__":
    main()
