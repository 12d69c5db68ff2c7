"""Benchmark of exacthom: time to a certified table, end to end and per layer.

usage: python3 perfbench/run.py --workload NAME|all --seed N --seconds S
                                --trace 0|1

Run it from the root of an exacthom source tree; it imports the package
from ./src.  A run is a closed loop with one client: it starts one sample
at a time, each in a fresh Python process (perfbench/child.py), and starts
another only while the next one is expected to end within --seconds.  Every
sample runs under a memory cap and a wall timeout, and every output of
every sample is checked against golden.json.

--trace 0 reports the end-to-end metrics as medians over the samples:
  wall_rel     wall_s / ref_s
  setup_s      process launch -> exacthom imported, algebras built and validated
  peak_rss_mb  peak resident memory of the sample's process
where
  wall_s       algebras ready -> last output checked
  ref_s        time of reference(), a fixed computation without exacthom,
               timed by this process just before and just after the sample
               (the mean of the two)
and prints the medians of wall_s and ref_s and fail_ratio = failed /
attempted operations next to them.  On a shared machine the speed of a
whole run drifts by a quarter or more within minutes, alike for the
workload and the reference; wall_rel cancels that drift, wall_s does not.

--trace 1 alternates untraced and traced samples on the same inputs and
reports the per-layer table of tracing.py (medians over traced samples)
plus trace.overhead_s = traced wall_s - untraced wall_s.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit status is 1 when any
operation failed and 2 when the tree holds no exacthom source.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")
OUT_DIR = ".perfbench_out"

MEM_CAP_MB = 2048      # address-space cap of every sample process
SAMPLE_TIMEOUT_S = 120
RUN_LIMIT_S = 170      # no sample outlives this, counted from the run start


def reference(n=60):
    """Seconds taken by a fixed computation of the kind exacthom spends
    most of its time on, written without exacthom: exact elimination of a
    seeded sparse n x n matrix over Fractions, rows as dicts."""
    start = time.perf_counter()
    rng = random.Random(0)
    pivots = {}
    for _ in range(n):
        row = {j: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
               for j in rng.sample(range(n), 8)}
        while row:
            col = min(row)
            if col not in pivots:
                inv = 1 / row[col]
                pivots[col] = {k: v * inv for k, v in row.items()}
                break
            factor = row[col]
            for k, v in pivots[col].items():
                x = row.get(k, 0) - factor * v
                if x:
                    row[k] = x
                else:
                    del row[k]
    return time.perf_counter() - start


def run_guarded(cmd, env, timeout, mem_mb):
    """Run cmd with an address-space cap on the child only and a wall
    timeout.  Returns (exit status or None after a timeout, stdout, stderr);
    a timed-out child is killed and waited for."""
    cap = mem_mb * 2**20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout, preexec_fn=limit)
    except subprocess.TimeoutExpired as exc:
        return None, exc.stdout or "", exc.stderr or ""
    return proc.returncode, proc.stdout, proc.stderr


class Sample:
    """One finished sample: its timings, memory and golden check."""

    def __init__(self, traced, launch, code, stdout, stderr, n_ops):
        self.traced = traced
        self.duration = time.monotonic() - launch
        self.ref_s = None       # set by measure() once the sample has ended
        self.ok = False
        self.attempted, self.failed = n_ops, n_ops
        self.mismatches = []
        self.layers = None
        self.backend = None
        if code is None:
            self.error = "timed out"
            return
        lines = stdout.strip().splitlines()
        if code != 0 or not lines:
            tail = stderr.strip().splitlines()[-1:] or [f"exit status {code}"]
            self.error = tail[0]
            return
        try:
            res = json.loads(lines[-1])
        except ValueError:
            self.error = f"unreadable result line: {lines[-1][:80]}"
            return
        self.error = None
        self.setup_s = res["ready"] - launch
        self.wall_s = res["done"] - res["ready"]
        self.rss_mb = res["rss_mb"]
        self.attempted, self.failed = res["attempted"], res["failed"]
        self.mismatches = res["mismatches"]
        self.layers = res["layers"]
        self.backend = res["backend"]
        self.ok = self.failed == 0


def measure(root, name, seed, seconds, trace, n_ops):
    """Samples of one workload until the next would end after --seconds."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONHASHSEED="0")
    spans = os.path.join(root, OUT_DIR, f"spans-{name}.tsv")
    kinds = (False, True) if trace else (False,)
    start = time.monotonic()
    deadline = start + seconds
    samples = []
    ref_before = reference()
    while True:
        traced = kinds[len(samples) % len(kinds)]
        timeout = min(SAMPLE_TIMEOUT_S, start + RUN_LIMIT_S - time.monotonic())
        if timeout <= 0:
            break
        # paired untraced and traced samples share their input algebras
        index = len(samples) // len(kinds)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), name,
               str(seed), str(index), "1" if traced else "0"]
        if traced:
            cmd.append(spans)
        launch = time.monotonic()
        code, out, err = run_guarded(cmd, env, timeout, MEM_CAP_MB)
        samples.append(Sample(traced, launch, code, out, err, n_ops))
        ref_after = reference()
        samples[-1].ref_s = (ref_before + ref_after) / 2
        ref_before = ref_after
        upcoming = kinds[len(samples) % len(kinds)]
        past = [s.duration for s in samples if s.traced == upcoming]
        if past and time.monotonic() + statistics.median(past) > deadline:
            break
    return samples


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(samples):
    ok = [s for s in samples if s.ok]
    return {
        "wall_rel": _median([s.wall_s / s.ref_s for s in ok]),
        "setup_s": _median([s.setup_s for s in ok]),
        "peak_rss_mb": _median([s.rss_mb for s in ok]),
    }


def per_layer(samples):
    traced = [s for s in samples if s.ok and s.traced]
    plain = [s.wall_s for s in samples if s.ok and not s.traced]
    out = {}
    for key in (traced[0].layers if traced else {}):
        out[key] = _median([s.layers[key] for s in traced])
    out["trace.overhead_s"] = (_median([s.wall_s for s in traced])
                               - _median(plain)) if traced and plain else 0.0
    return out


def _read(path, prefix):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(root, seed, backend):
    """The machine, interpreter and source a result was measured on."""
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "exacthom")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            digest.update(fname.encode())
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fh.read())
    mem_kb = _read("/proc/meminfo", "MemTotal")
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _read("/proc/cpuinfo", "model name") or platform.processor(),
        "ram_gb": round(int(mem_kb.split()[0]) / 2**20, 1) if mem_kb else None,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "rational_backend": backend,
    }


def run_workload(root, name, seed, seconds, trace, golden):
    n_ops = len(golden[name]["outputs"])
    samples = measure(root, name, seed, seconds, trace, n_ops)
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    values = per_layer(samples) if trace else end_to_end(samples)
    metrics = {k: {"value": v, "unit": unit(k)} for k, v in values.items()}
    ok = [s for s in samples if s.ok]
    n_ok = len([s for s in ok if s.traced == bool(trace)])
    print(f"{name}  seed={seed}  trace={trace}  samples={len(samples)} "
          f"(ok {len(ok)})")
    for key, m in metrics.items():
        print(f"  {key:32s} {m['value']:14.6f} {m['unit']:6s} "
              f"median of {n_ok}")
    if not trace:
        for key in ("wall_s", "ref_s"):
            value = _median([getattr(s, key) for s in ok])
            print(f"  {key:32s} {value:14.6f} {'s':6s} median of {n_ok} "
                  f"(unbounded: drifts with the machine)")
    print(f"  {'fail_ratio':32s} {failed / attempted:14.6f} {'ratio':6s} "
          f"{failed}/{attempted} operations")
    for s in samples:
        if s.error or s.mismatches:
            print(f"  failed sample: {s.error or s.mismatches}")
    backend = next((s.backend for s in samples if s.backend), None)
    env = environment(root, seed, backend)
    print("  env " + json.dumps(env, sort_keys=True))
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "env": env, "metrics": metrics,
              "attempted": attempted, "failed": failed,
              "samples": [vars(s) for s in samples]}
    out = os.path.join(root, OUT_DIR, f"{name}-seed{seed}-trace{trace}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    return {"correct": failed == 0 and bool(ok), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def unit(metric):
    if metric == "peak_rss_mb":
        return "MB"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_rel")):
        return "ratio"
    return "count"


def main(argv=None):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(golden) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "exacthom", "__init__.py")):
        print("perfbench: no exacthom source under ./src; run from the root "
              "of an exacthom tree", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    names = sorted(golden) if args.workload == "all" else [args.workload]
    results = {name: run_workload(root, name, args.seed, args.seconds,
                                  args.trace, golden) for name in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": m for name, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
