"""Record the golden outputs of every workload from the current source.

usage: PYTHONPATH=src python3 perfbench/golden.py

Runs each workload once on the shipped presets (seed 0) and writes
golden.json next to this file.  Only re-record when the workload sizes
change; a source change must never be allowed to rewrite the answers.
"""

import json

import workloads


def main():
    record = {}
    for name, workload in workloads.WORKLOADS.items():
        outputs = workload.outputs(workload.algebras(0, 0))
        outputs = json.loads(json.dumps(outputs))
        record[name] = {"sizes": workload.sizes, "outputs": outputs}
        print(f"{name}: {len(outputs)} operations")
    with open(workloads.GOLDEN_PATH, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
