"""One benchmark sample, run in a fresh process by run.py.

usage: python3 child.py WORKLOAD SEED SAMPLE TRACE [SPANS_PATH]

Imports exacthom (found on PYTHONPATH), builds and validates the sample's
algebras, runs the workload, checks every output against the golden record
and prints one JSON line:

  ready, done   time.monotonic() after set-up and after the last check
  rss_mb        peak resident memory of this process
  attempted, failed, mismatches   the golden check
  backend       the rational type exacthom computes with
  layers        the per-layer table (traced samples only)

time.monotonic() is the system-wide monotonic clock on Linux, so the parent
can subtract its own launch time from `ready` to get the set-up time.
"""

import json
import resource
import sys
import time


def main(argv):
    name, seed, sample, trace = argv[0], int(argv[1]), int(argv[2]), argv[3]
    import exacthom.fields
    import workloads
    tracer = None
    if trace == "1":
        import tracing
        tracer = tracing.Tracer(run_id=sample)
        tracing.install(tracer)
    workload = workloads.WORKLOADS[name]
    golden = workloads.golden_for(workload)
    algs = workload.algebras(seed, sample)
    ready = time.monotonic()
    if tracer is None:
        outputs = workload.outputs(algs)
    else:
        outputs = tracer.root(lambda: workload.outputs(algs))
    attempted, failed, mismatches = workloads.compare(outputs, golden)
    done = time.monotonic()
    result = {
        "ready": ready,
        "done": done,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
        "backend": exacthom.fields._rat.__name__,
        "layers": None,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.table()
        if len(argv) > 4:
            tracer.write_spans(argv[4])
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
