"""Acceptance suite: every criterion is checked exactly (no tolerances)
and prints one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

The stated time budgets are targets, printed for inspection; correctness
is asserted, wall-clock time is not.
"""

import time

from exacthom.algebras import Coefficients, preset
from exacthom.chains import long_exact_sequence_nodes
from exacthom.cli import main as cli_main
from exacthom.gamma import gamma_homology, prune_split_certificates
from exacthom.hochschild import harrison_homology
from exacthom.symhom import ComparisonData, hs0_consistency
from exacthom.verify import run_suite


def _report(num, label, ok, elapsed, budget=None):
    status = "PASS" if ok else "FAIL"
    extra = f" (target {budget})" if budget else ""
    print(f"ACCEPTANCE {num:2d} [{status}] {label}: {elapsed:.1f}s{extra}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_01_eulerian_certificates():
    t0 = time.time()
    checks, _ = run_suite("eulerian", {"max_n": 6})
    _report(1, "Eulerian idempotent certificates n <= 6 over Q",
            all(c.ok for c in checks), time.time() - t0, "< 60 s")


def test_criterion_02_hodge_splitting():
    t0 = time.time()
    checks, _ = run_suite("hodge", {"max_degree": 5, "max_weight": 5})
    _report(2, "Hodge splitting: boundary commutes with Eulerian actions, "
            "slice dims complete (both presets, M in {k, A}, n <= 5, w <= 5)",
            all(c.ok for c in checks), time.time() - t0, "< 2 min")


def test_criterion_03_normalization():
    t0 = time.time()
    checks, _ = run_suite("augsplit", {"max_degree": 5, "max_weight": 5})
    _report(3, "normalized complex canonically isomorphic to the ideal-only "
            "complex on the same range",
            all(c.ok for c in checks), time.time() - t0)


def test_criterion_04_normalized_harrison():
    t0 = time.time()
    checks, _ = run_suite("harrison", {"max_degree": 4, "max_weight": 4})
    _report(4, "normalized Harrison: composite identity, kernel accounting, "
            "pipeline homology agreement (n <= 4, w <= 4)",
            all(c.ok for c in checks), time.time() - t0)


def test_criterion_05_barr_agreement():
    t0 = time.time()
    checks, _ = run_suite("barr", {"max_degree": 4, "max_weight": 4})
    _report(5, "Eulerian e^(1) slice matches the shuffle-quotient slice with "
            "full-rank induced map (n <= 4, w <= 4)",
            all(c.ok for c in checks), time.time() - t0)


def test_criterion_06_pruning():
    t0 = time.time()
    ok = True
    for name in ("dual-numbers", "trunc3"):
        alg = preset(name)
        co = Coefficients(alg, "k")
        for w in range(5):
            res = prune_split_certificates(alg, co, w, 4)
            ok = ok and res["retraction_identity"] and res["chain_map"] \
                and res["surjective"]
    _report(6, "pruning: chain-map certificate, retraction identity and "
            "splitting dims (n <= 4, w <= 4, both presets)",
            ok, time.time() - t0, "< 5 min")


def test_criterion_07_gamma_iso():
    t0 = time.time()
    alg = preset("dual-numbers")
    co = Coefficients(alg, "k")
    gi = gamma_homology(alg, co, "I", 3, 3)
    ga = gamma_homology(alg, co, "A", 3, 3)
    _report(7, "gamma homology of the ideal equals gamma homology of the "
            "algebra (dual numbers, n <= 3, w <= 3)",
            gi == ga, time.time() - t0, "< 10 min")


def test_criterion_08_degree_shift():
    t0 = time.time()
    alg = preset("dual-numbers")
    co = Coefficients(alg, "k")
    ga = gamma_homology(alg, co, "A", 3, 3)
    harr = harrison_homology(alg, co, 4, 3)
    ok = all(ga[(n - 1, w)] == harr[(n, w)]
             for n in range(1, 5) for w in range(4))
    # the same shift through the ideal-variant complex, second preset
    alg2 = preset("trunc3")
    co2 = Coefficients(alg2, "k")
    gi2 = gamma_homology(alg2, co2, "I", 3, 3)
    harr2 = harrison_homology(alg2, co2, 4, 3)
    ok = ok and all(gi2[(n - 1, w)] == harr2[(n, w)]
                    for n in range(1, 5) for w in range(4))
    _report(8, "gamma homology in degree n-1 equals Harrison homology in "
            "degree n (n <= 4, w <= 3)", ok, time.time() - t0)


def test_criterion_09_comparison_map():
    t0 = time.time()
    ok = True
    for name in ("dual-numbers", "trunc3"):
        alg = preset(name)
        for w in range(4):
            cd = ComparisonData(alg, w, 3)
            ok = ok and cd.q_is_chain_map() and cd.phi_is_chain_map() \
                and cd.surjective()
    _report(9, "comparison map is a chain map and surjective per slice "
            "(n <= 3, w <= 3, both presets)", ok, time.time() - t0)


def test_criterion_10_long_exact_sequence():
    t0 = time.time()
    ok = True
    for name in ("dual-numbers", "trunc3"):
        alg = preset(name)
        for w in range(4):
            cd = ComparisonData(alg, w, 4)
            nodes = long_exact_sequence_nodes(*cd.ses(), 3)
            ok = ok and all(rin == kout for _, rin, kout in nodes)
    _report(10, "long exact sequence exact at every node (w <= 3, "
            "degrees <= 3, both presets)", ok, time.time() - t0, "< 15 min")


def test_criterion_11_hs0_consistency():
    t0 = time.time()
    ok = True
    for name in ("dual-numbers", "trunc3"):
        alg = preset(name)
        ok = ok and all(got == expected
                        for _, got, expected in hs0_consistency(alg, 3))
    _report(11, "reduced symmetric homology in degree 0 matches the algebra "
            "dimensions (both presets)", ok, time.time() - t0)


def test_criterion_12_determinism(tmp_path):
    t0 = time.time()
    outs = []
    for tag in ("a", "b"):
        path = tmp_path / f"{tag}.json"
        code = cli_main([
            "compute", "--preset", "trunc3", "--theory", "symmetric",
            "--max-degree", "2", "--max-weight", "2", "--output", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    same = outs[0] == outs[1]
    # a second theory through a different pipeline, same requirement
    for tag in ("c", "d"):
        path = tmp_path / f"{tag}.json"
        code = cli_main([
            "compute", "--preset", "dual-numbers", "--theory", "comparison",
            "--max-degree", "2", "--max-weight", "2", "--output", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    same = same and outs[2] == outs[3]
    _report(12, "repeated compute runs are byte-identical", same,
            time.time() - t0)
