"""Fast self-test of the benchmark harness at tiny sizes.

usage: python3 perfbench/selftest.py     (from the root of the tree)

Covers the golden check, the seeded rescaling, the guards on sample
processes and the per-layer accounting of the tracer.
"""

import json
import os
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from exacthom import groupalg, hochschild, sparse  # noqa: E402

TINY = {"hochschild-les": [(2, 3), (2, 2)],
        "harrison-pruning": [(2, 3), (2, 2)]}


class SeededInputs(unittest.TestCase):

    def test_seed_zero_is_the_shipped_preset(self):
        alg = workloads.algebra("trunc4", 0, 3)
        self.assertEqual(alg.name, "trunc4")

    def test_rescaling_is_seeded_and_leaves_plus_minus_one(self):
        a = workloads.algebra("trunc4", 7, 1)
        b = workloads.algebra("trunc4", 7, 1)
        c = workloads.algebra("trunc4", 7, 2)
        def table(alg):
            return {k: (e.scalar, e.ideal) for k, e in alg._table.items()}
        self.assertEqual(table(a), table(b))
        self.assertNotEqual(table(a), table(c))
        self.assertEqual(a.validate(), [])
        constants = {v for e in a._table.values() for v in e.ideal if v}
        self.assertTrue(any(abs(v) != 1 for v in constants))

    def test_rescaled_outputs_match_the_preset(self):
        for name, sizes in TINY.items():
            wl = workloads.WORKLOADS[name]
            expected = wl.outputs(wl.algebras(0, 0), sizes)
            for seed in (1, 2):
                got = wl.outputs(wl.algebras(seed, 0), sizes)
                self.assertEqual(got, expected, (name, seed))


class GoldenCheck(unittest.TestCase):

    golden = {"n=0,w=0": 1, "n=1,w=1": 0, "w=0:H_0(total)": [1, 1]}

    def test_exact_outputs_pass(self):
        self.assertEqual(workloads.compare(dict(self.golden), self.golden),
                         (3, 0, []))

    def test_changed_missing_and_extra_operations_fail(self):
        out = dict(self.golden, **{"n=1,w=1": 2, "n=9,w=9": 0})
        del out["n=0,w=0"]
        attempted, failed, _ = workloads.compare(out, self.golden)
        self.assertEqual((attempted, failed), (4, 3))

    def test_inexact_les_node_fails(self):
        golden = {"w=0:H_0(total)": [1, 0]}
        self.assertEqual(workloads.compare(dict(golden), golden)[1], 1)

    def test_golden_record_matches_the_workload_sizes(self):
        golden = workloads.load_golden()
        self.assertEqual(set(golden), set(workloads.WORKLOADS))
        for wl in workloads.WORKLOADS.values():
            self.assertTrue(workloads.golden_for(wl, golden))

    def test_failed_sample_counts_all_its_operations(self):
        sample = run.Sample(False, time.monotonic(), None, "", "", 7)
        self.assertEqual((sample.ok, sample.attempted, sample.failed),
                         (False, 7, 7))


class EndToEnd(unittest.TestCase):

    def test_wall_rel_is_the_median_of_wall_over_reference(self):
        samples = []
        for wall, ref in ((2.0, 0.5), (3.0, 1.0), (9.0, 1.0)):
            line = json.dumps({"ready": 1.0, "done": 1.0 + wall,
                               "rss_mb": 20.0, "attempted": 1, "failed": 0,
                               "mismatches": [], "layers": None,
                               "backend": "Fraction"})
            sample = run.Sample(False, 0.5, 0, line, "", 1)
            sample.ref_s = ref
            samples.append(sample)
        values = run.end_to_end(samples)
        self.assertAlmostEqual(values["wall_rel"], 4.0)
        self.assertAlmostEqual(values["setup_s"], 0.5)

    def test_reference_is_a_positive_time(self):
        self.assertGreater(run.reference(10), 0)


class Guards(unittest.TestCase):

    def test_memory_cap_stops_the_child(self):
        code, _, err = run.run_guarded(
            [sys.executable, "-c", "b = bytearray(600 * 2**20)"],
            None, 60, 300)
        self.assertNotEqual(code, 0)
        self.assertIn("MemoryError", err)

    def test_timeout_kills_the_child(self):
        t0 = time.monotonic()
        code, _, _ = run.run_guarded(
            [sys.executable, "-c", "import time; time.sleep(60)"],
            None, 1, 300)
        self.assertIsNone(code)
        self.assertLess(time.monotonic() - t0, 30)

    def test_tree_without_source_exits_nonzero_without_result(self):
        os.makedirs(os.path.join(ROOT, run.OUT_DIR), exist_ok=True)
        with tempfile.TemporaryDirectory(
                dir=os.path.join(ROOT, run.OUT_DIR)) as empty:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", "hochschild-les", "--seconds", "1"],
                cwd=empty, capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")


class Tracing(unittest.TestCase):

    def test_layers_and_other_add_up_to_the_traced_wall(self):
        original = hochschild.HochschildComplex.basis
        # Eulerian idempotents are cached per process; make this run
        # compute them so that groupalg shows up
        groupalg._rational_idempotents.clear()
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            def everything():
                for name, sizes in TINY.items():
                    wl = workloads.WORKLOADS[name]
                    wl.outputs(wl.algebras(1, 0), sizes)
            tracer.root(everything)
        finally:
            tracer.uninstall()
        self.assertIs(hochschild.HochschildComplex.basis, original)
        self.assertFalse(hasattr(sparse.Echelon.__init__, "__wrapped__"))
        table = tracer.table()
        parts = sum(v for k, v in table.items()
                    if k.endswith(".self_s"))
        self.assertAlmostEqual(parts, table["trace.wall_s"], delta=1e-6)
        for layer in tracing.LAYERS:
            self.assertGreater(table[f"{layer}.self_s"], 0, layer)
        self.assertGreater(table["sparse.elim.calls"], 0)
        self.assertGreater(table["gamma.prune.calls"], 0)

    def test_span_of_a_raising_call_is_closed(self):
        tracer = tracing.Tracer()

        def fails():
            raise ValueError("caught by the caller")

        traced = tracer.wrap("sparse.elim", fails)

        def body():
            with self.assertRaises(ValueError):
                traced()

        tracer.root(body)
        table = tracer.table()
        self.assertGreaterEqual(table["sparse.elim.self_s"], 0)
        self.assertGreaterEqual(table["other.self_s"], 0)
        parts = sum(v for k, v in table.items() if k.endswith(".self_s"))
        self.assertAlmostEqual(parts, table["trace.wall_s"], delta=1e-6)

    def test_benchmark_file_lists_every_reported_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        tracer = tracing.Tracer()
        tracer.root(lambda: None)
        reported = set(tracer.table()) | {"trace.overhead_s"}
        self.assertEqual({m["name"] for m in bench["per_layer"]}, reported)
        for m in bench["per_layer"] + bench["end_to_end"]:
            self.assertEqual(m["unit"], run.unit(m["name"]), m["name"])
        self.assertEqual({w["name"] for w in bench["workloads"]},
                         set(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
