import json

import pytest

from exacthom.cli import main, worker_count


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_presets_listing(capsys):
    code, out = run(capsys, "presets")
    assert code == 0
    names = [p["name"] for p in json.loads(out)["presets"]]
    assert "dual-numbers" in names and "trunc3" in names


def test_compute_harrison_table(capsys):
    code, out = run(capsys, "compute", "--preset", "dual-numbers",
                    "--theory", "harrison",
                    "--max-degree", "4", "--max-weight", "4")
    assert code == 0
    report = json.loads(out)
    table = {(r["n"], r["w"]): r["dim"] for r in report["tables"]}
    assert table[(1, 1)] == 1
    assert all(c["status"] == "pass" for c in report["certifications"])


def test_compute_gamma_weight_zero_empty(capsys):
    code, out = run(capsys, "compute", "--preset", "dual-numbers",
                    "--theory", "gamma", "--max-degree", "3",
                    "--max-weight", "0")
    assert code == 0
    report = json.loads(out)
    assert all(r["dim"] == 0 for r in report["tables"] if r["n"] > 0)


def test_compute_deterministic_bytes(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code = main(["compute", "--preset", "trunc3", "--theory", "symmetric",
                     "--max-degree", "2", "--max-weight", "2",
                     "--output", str(p)])
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_compute_csv_format(capsys):
    code, out = run(capsys, "compute", "--preset", "dual-numbers",
                    "--theory", "hochschild", "--max-degree", "2",
                    "--max-weight", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theory,variant,n,w,dim"
    assert len(lines) == 1 + 9


def test_compute_timings_flag(capsys):
    code, out = run(capsys, "compute", "--preset", "dual-numbers",
                    "--theory", "hochschild", "--max-degree", "1",
                    "--max-weight", "1", "--timings")
    assert code == 0
    assert "timings" in json.loads(out)


def test_comparison_timings_label_every_phase(capsys):
    # the chain-map certificates and the short exact sequence are timed
    # apart from the build and the long exact sequence
    code, out = run(capsys, "compute", "--preset", "trunc3",
                    "--theory", "comparison", "--max-degree", "2",
                    "--max-weight", "2", "--timings")
    assert code == 0
    timings = json.loads(out)["timings"]
    assert set(timings) == {f"{phase} w={w}" for w in range(3)
                            for phase in ("build", "certify", "ses", "les")}


def test_compute_basis_ceiling_guard(capsys):
    code = main(["compute", "--preset", "trunc3", "--theory", "symmetric",
                 "--max-degree", "3", "--max-weight", "3",
                 "--max-basis", "10"])
    assert code == 2


def test_compute_gamma_lists_only_its_checks(capsys):
    code, out = run(capsys, "compute", "--preset", "trunc3",
                    "--theory", "gamma", "--max-degree", "2",
                    "--max-weight", "2")
    assert code == 0
    assert json.loads(out)["certifications"] == [
        {"name": "boundary squares to zero", "status": "pass"}]


def test_compute_field_override(capsys):
    code, out = run(capsys, "compute", "--preset", "dual-numbers",
                    "--field", "Fp:7", "--theory", "harrison",
                    "--max-degree", "2", "--max-weight", "2")
    assert code == 0
    assert json.loads(out)["config"]["field"] == "F7"


def test_verify_eulerian(capsys):
    code, out = run(capsys, "verify", "--suite", "eulerian", "--max-n", "4")
    assert code == 0
    report = json.loads(out)
    assert all(c["status"] == "pass" for c in report["certifications"])


def test_verify_pruning_small(capsys):
    code, out = run(capsys, "verify", "--suite", "pruning",
                    "--preset", "trunc3",
                    "--max-degree", "2", "--max-weight", "2")
    assert code == 0


def test_verify_pruning_reports_no_vacuous_pass(capsys):
    # weight 0 has no generator at all, and weight 1 has none with a unit
    # slot in degrees >= 1, so they report no check that compared nothing
    code, out = run(capsys, "verify", "--suite", "pruning",
                    "--max-degree", "2", "--max-weight", "2")
    assert code == 0
    names = [c["name"] for c in json.loads(out)["certifications"]]
    assert not [n for n in names if n.endswith("w=0")]
    assert [n for n in names if n.endswith("w=1")] == [
        f"pruning {key} {name} w=1" for name in ("dual-numbers", "trunc3")
        for key in ("retraction_identity", "surjective")]
    assert "pruning chain_map trunc3 w=2" in names


@pytest.mark.parametrize("bounds", [("--max-weight", "1"),
                                    ("--max-weight", "0"),
                                    ("--max-degree", "1", "--max-weight",
                                     "2", "--preset", "dual-numbers")])
def test_verify_pruning_without_a_chain_map_comparison_rejected(capsys,
                                                                bounds):
    line = run_error(capsys, "verify", "--suite", "pruning", *bounds)
    assert "pruning" in line and "unit-carrying" in line


def test_verify_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "nonsense"])


def test_validate_good_and_bad(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "name": "z2", "field": "Q",
        "generators": [{"symbol": "z", "weight": 2}],
        "products": [],
    }))
    code, out = run(capsys, "validate", "--algebra-file", str(good))
    assert code == 0 and json.loads(out)["valid"]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "broken", "field": "Q",
        "generators": [{"symbol": "x", "weight": 1}],
        "products": [{"left": "x", "right": "x", "result": {"1": "1"}}],
    }))
    code, out = run(capsys, "validate", "--algebra-file", str(bad))
    assert code == 1
    assert json.loads(out)["violations"]


def test_compute_rejects_bad_algebra_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "broken", "field": "Q",
        "generators": [{"symbol": "x", "weight": 1}],
        "products": [{"left": "x", "right": "x", "result": {"1": "1"}}],
    }))
    code = main(["compute", "--algebra-file", str(bad),
                 "--theory", "harrison"])
    assert code == 2


def test_compute_refuses_an_unwritable_output_first(capsys, monkeypatch,
                                                   tmp_path):
    import exacthom.cli as cli

    def no_weight(*args):
        raise AssertionError("a weight was computed")

    monkeypatch.setattr(cli, "compute_weight", no_weight)
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code = main(["compute", "--theory", "hochschild", "--max-degree",
                     "1", "--max-weight", "1", "--output", str(target)])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1, err
        assert err.startswith(f"error: --output {target}")


def test_verify_refuses_an_unwritable_output_first(capsys, monkeypatch,
                                                  tmp_path):
    import exacthom.cli as cli

    def no_suite(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "run_suite", no_suite)
    target = tmp_path / "missing" / "x.json"
    code = main(["verify", "--suite", "les", "--max-degree", "1",
                 "--max-weight", "1", "--output", str(target)])
    err = capsys.readouterr().err
    assert code == 2 and err.count("\n") == 1, err
    assert err.startswith(f"error: --output {target}")


def test_compute_comparison_rows(capsys):
    code, out = run(capsys, "compute", "--preset", "dual-numbers",
                    "--theory", "comparison", "--max-degree", "1",
                    "--max-weight", "1")
    assert code == 0
    report = json.loads(out)
    theories = {r["theory"] for r in report["tables"]}
    assert theories == {"comparison/kernel", "comparison/symmetric",
                        "comparison/gamma"}
    assert all(c["status"] == "pass" for c in report["certifications"])


def test_comparison_ranks_each_boundary_once(capsys, monkeypatch):
    # the long exact sequence reads the rank of every boundary d_1..d_{N+1}
    # of the kernel, symmetric and gamma slices off its low pivots, so the
    # table rows' homology() ranks none of them again
    from exacthom import chains
    from exacthom.symhom import ComparisonData

    ranked, built = [], []
    rank, init = chains.rank, ComparisonData.__init__

    def recording_rank(matrix):
        ranked.append(matrix)  # kept alive, so no id is reused
        return rank(matrix)

    def recording_init(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(chains, "rank", recording_rank)
    monkeypatch.setattr(ComparisonData, "__init__", recording_init)
    code, _ = run(capsys, "compute", "--preset", "dual-numbers",
                  "--theory", "comparison", "--max-degree", "3",
                  "--max-weight", "3")
    assert code == 0 and len(built) == 4 and ranked  # the counter is live
    ranked_ids = set(map(id, ranked))
    for cd in built:
        _, _, sub, total, quot = cd.ses()
        for chain in (sub, total, quot):
            assert chain.top == 4
            for n in range(1, chain.top + 1):
                assert id(chain.boundary(n)) not in ranked_ids, (cd.w, n)


def test_jobs_parallel_matches_sequential(tmp_path):
    for theory in ("hochschild", "harrison", "gamma", "symmetric",
                   "comparison"):
        seq = tmp_path / f"{theory}-seq.json"
        par = tmp_path / f"{theory}-par.json"
        base = ["compute", "--preset", "dual-numbers", "--theory", theory,
                "--max-degree", "2", "--max-weight", "2"]
        assert main(base + ["--output", str(seq)]) == 0
        assert main(base + ["--jobs", "2", "--output", str(par)]) == 0
        a = json.loads(seq.read_text())
        b = json.loads(par.read_text())
        assert a["tables"] == b["tables"], theory
        assert a["certifications"] == b["certifications"], theory


def test_jobs_gamma_trunc3_byte_identical(tmp_path):
    # workers rebuild the interned surjections from pickles; the tables and
    # certificates must not depend on which process built them
    reports = []
    for jobs in ("1", "2"):
        path = tmp_path / f"jobs{jobs}.json"
        assert main(["compute", "--preset", "trunc3", "--theory", "gamma",
                     "--max-degree", "3", "--max-weight", "3",
                     "--jobs", jobs, "--output", str(path)]) == 0
        reports.append(json.loads(path.read_text()))
    for key in ("tables", "certifications"):
        assert json.dumps(reports[0][key]) == json.dumps(reports[1][key])


def test_worker_count_is_capped():
    # requested jobs, weight slices and CPUs each bound the pool
    assert worker_count(1, 9, 8) == 1
    assert worker_count(64, 9, 8) == 8
    assert worker_count(64, 2, 8) == 3
    assert worker_count(10_000, 9, 2) == 2
    assert worker_count(4, 9, None) == 1


def run_error(capsys, *argv):
    """Run a command that must be refused: exit 2 and one error line."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


def test_algebra_file_with_unknown_symbol_rejected(tmp_path, capsys):
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps({
        "name": "typo", "field": "Q",
        "generators": [{"symbol": "x", "weight": 1}],
        "products": [{"left": "x", "right": "z", "result": {}}],
    }))
    line = run_error(capsys, "compute", "--algebra-file", str(path),
                     "--theory", "hochschild")
    assert "'z'" in line


def test_algebra_file_with_invalid_json_rejected(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{\"name\": ")
    run_error(capsys, "compute", "--algebra-file", str(path),
              "--theory", "hochschild")
    run_error(capsys, "validate", "--algebra-file", str(path))


def test_non_prime_field_rejected(capsys):
    line = run_error(capsys, "compute", "--field", "Fp:4",
                     "--theory", "hochschild")
    assert "not prime" in line


@pytest.mark.parametrize("p", ["100000000000000000039", "1" + "0" * 320 + "7"])
def test_field_past_the_word_size_rejected_at_once(capsys, p):
    # trial division ran for minutes on the first and overflowed on the
    # second; both are refused before any primality test
    line = run_error(capsys, "compute", "--field", f"Fp:{p}",
                     "--theory", "hochschild")
    assert "p < 2^64" in line


def test_harrison_over_too_small_characteristic_rejected(capsys):
    line = run_error(capsys, "compute", "--theory", "harrison",
                     "--field", "Fp:2", "--max-degree", "2",
                     "--max-weight", "2")
    assert "characteristic" in line


def test_harrison_where_the_shuffle_misses_an_eulerian_piece_refused(
        tmp_path, capsys):
    # over F_7 the total shuffle acts on e^(4) by 2^4 - 2 = 14 = 0, as on
    # e^(1), so C/im(sh) is larger than e^(1) C in degree 4: on four square-
    # zero generators at w = 4 the two pipelines read 61 and 60
    path = tmp_path / "square-zero-4.json"
    path.write_text(json.dumps({
        "name": "square-zero-4", "field": "Q",
        "generators": [{"symbol": s, "weight": 1} for s in "abcd"],
        "products": []}))
    bounds = ("compute", "--algebra-file", str(path), "--field", "Fp:7",
              "--theory", "harrison", "--max-weight", "4")
    line = run_error(capsys, *bounds, "--max-degree", "4")
    assert "harrison" in line and "2^i - 2" in line and "i = 4" in line
    code, out = run(capsys, *bounds, "--max-degree", "3")
    assert code == 0
    certs = json.loads(out)["certifications"]
    assert certs and all(c["status"] == "pass" for c in certs)


@pytest.mark.parametrize("suite", ["harrison", "barr", "gamma-iso"])
def test_verify_where_the_shuffle_misses_an_eulerian_piece_refused(capsys,
                                                                   suite):
    # gamma-iso reads Harrison homology one degree past --max-degree, so
    # at --max-degree 2 it reads degree 3, where 2^3 - 2 = 6 is not 0 mod 7
    bounds = ("verify", "--suite", suite, "--field", "Fp:7")
    line = run_error(capsys, *bounds, "--max-degree", "4")
    assert suite in line and "i = 4" in line
    code, out = run(capsys, *bounds, "--max-degree", "2")
    assert code == 0
    certs = json.loads(out)["certifications"]
    assert certs and all(c["status"] == "pass" for c in certs)


@pytest.mark.parametrize("flag", ["--max-degree", "--max-weight",
                                  "--max-basis"])
def test_negative_bounds_rejected(capsys, flag):
    line = run_error(capsys, "compute", "--theory", "hochschild", flag, "-1")
    assert flag in line


def test_jobs_below_one_rejected(capsys):
    line = run_error(capsys, "compute", "--theory", "hochschild",
                     "--jobs", "0")
    assert "--jobs" in line


def test_hochschild_ceiling_counts_the_normalized_slices(capsys):
    # the full trunc4 complex has 120 basis elements at w = 3; the unit-free
    # slices that hochschild builds have at most 17, at w = 6
    bounds = ("compute", "--preset", "trunc4", "--theory", "hochschild",
              "--coefficients", "A", "--max-degree", "6", "--max-weight", "6")
    code, _ = run(capsys, *bounds, "--max-basis", "100")
    assert code == 0
    line = run_error(capsys, *bounds, "--max-basis", "10")
    assert "hochschild slice w=6 has 17 basis elements" in line


def test_harrison_basis_ceiling_refused(capsys):
    # harrison's unit-free trunc3 slices have at most 2 basis elements
    line = run_error(capsys, "compute", "--preset", "trunc3",
                     "--theory", "harrison", "--max-degree", "3",
                     "--max-weight", "3", "--max-basis", "1")
    assert "--max-basis" in line


def test_harrison_ceiling_counts_the_normalized_slices(capsys):
    # the full trunc3 complex has 393 basis elements at w = 7; the unit-free
    # slices that harrison builds have at most 16, and 11 at w = 6
    bounds = ("compute", "--preset", "trunc3", "--theory", "harrison",
              "--coefficients", "A", "--max-degree", "5", "--max-weight", "7")
    code, _ = run(capsys, *bounds, "--max-basis", "100")
    assert code == 0
    line = run_error(capsys, *bounds, "--max-basis", "10")
    assert "harrison slice w=6 has 11 basis elements" in line


def test_comparison_basis_ceiling_refused_before_building(capsys,
                                                         monkeypatch):
    from exacthom.symhom import ComparisonData

    build = ComparisonData.__init__

    def guarded(self, alg, w, top):
        # trunc3's symmetric slices have at most one basis element below
        # weight 2, so a ceiling of 1 refuses weight 2
        if w >= 2:
            raise AssertionError("ComparisonData built before the size guard")
        build(self, alg, w, top)

    monkeypatch.setattr(ComparisonData, "__init__", guarded)
    line = run_error(capsys, "compute", "--preset", "trunc3",
                     "--theory", "comparison", "--max-degree", "3",
                     "--max-weight", "3", "--max-basis", "1")
    assert "symmetric slice w=2" in line


def test_verify_rejects_algebra_file(tmp_path, capsys):
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({
        "name": "z2", "field": "Q",
        "generators": [{"symbol": "z", "weight": 2}], "products": [],
    }))
    line = run_error(capsys, "verify", "--suite", "comparison",
                     "--algebra-file", str(path))
    assert "--algebra-file" in line


def test_verify_uses_suite_presets_by_default(capsys):
    code, out = run(capsys, "verify", "--suite", "comparison",
                    "--max-degree", "1", "--max-weight", "1")
    assert code == 0
    report = json.loads(out)
    assert "presets" not in report["config"]
    names = " ".join(c["name"] for c in report["certifications"])
    assert "dual-numbers" in names and "trunc3" in names
    code, out = run(capsys, "verify", "--suite", "comparison",
                    "--preset", "trunc3",
                    "--max-degree", "1", "--max-weight", "1")
    assert code == 0
    names = " ".join(c["name"] for c in json.loads(out)["certifications"])
    assert "trunc3" in names and "dual-numbers" not in names


@pytest.mark.parametrize("suite", ["harrison", "hodge", "barr", "eulerian",
                                   "gamma-iso"])
def test_verify_over_too_small_characteristic_rejected(capsys, suite):
    line = run_error(capsys, "verify", "--suite", suite, "--field", "Fp:2",
                     "--preset", "dual-numbers", "--max-degree", "2",
                     "--max-weight", "2", "--max-n", "3")
    assert "characteristic" in line and suite in line


@pytest.mark.parametrize("suite", ["hodge", "augsplit", "harrison",
                                   "pruning", "comparison"])
def test_verify_below_degree_one_rejected(capsys, suite):
    # every check of these suites compares boundaries, which start at
    # degree 1: at degree 0 they would pass having compared nothing
    line = run_error(capsys, "verify", "--suite", suite, "--max-degree", "0",
                     "--max-weight", "1", "--preset", "dual-numbers")
    assert "degree" in line and suite in line


def test_verify_with_nothing_to_check_rejected(capsys):
    line = run_error(capsys, "verify", "--suite", "eulerian", "--max-n", "0")
    assert "nothing to check" in line


def _double_first_face(monkeypatch, cls):
    """Double face 1 of cls, so that d o d != 0 in the slices that use
    that face twice."""
    faces = cls.faces

    def doubled(self, key):
        out = faces(self, key)
        out[1] = [(k, self.field.mul(2, c)) for k, c in out[1]]
        return out

    monkeypatch.setattr(cls, "faces", doubled)


@pytest.fixture
def broken_boundaries(monkeypatch):
    """Double the first face of every Hochschild and every symmetric
    boundary, so that d o d != 0 in the slices that use that face twice."""
    from exacthom.hochschild import HochschildComplex
    from exacthom.symhom import SymmetricComplex

    for cls in (HochschildComplex, SymmetricComplex):
        _double_first_face(monkeypatch, cls)


@pytest.fixture
def broken_gamma_faces(monkeypatch):
    """Double the first face of every gamma boundary."""
    from exacthom.gamma import GammaComplex

    _double_first_face(monkeypatch, GammaComplex)


# the comparison at weights 0 and 1 passes its four certifications each;
# weight 2 is the first whose symmetric slice uses face 1 twice
COMPARISON_PASSED = [
    f"{label} (w={w})" for w in (0, 1) for label in (
        "quotient map is a chain map", "comparison map is a chain map",
        "comparison map surjective", "long exact sequence exact")]


DUAL_NUMBERS_2_2 = ("--preset", "dual-numbers", "--max-degree", "2",
                    "--max-weight", "2")
TRUNC4_2_5 = ("--preset", "trunc4", "--max-degree", "2", "--max-weight", "5")


@pytest.mark.parametrize("theory,name,passed,bounds", [
    # hochschild computes from the unit-free slices, which on dual-numbers
    # at n, w <= 2 never use face 1 twice; trunc4's weight 3 does
    pytest.param("hochschild", "boundary squares to zero", [],
                 ("--preset", "trunc4", "--max-degree", "2",
                  "--max-weight", "3"),
                 id="hochschild-boundary squares to zero"),
    # and so does harrison: on dual-numbers x.x = 0, so the doubled face 1
    # is zero on the unit-free slices; on trunc4 it breaks weights 4 and 5
    pytest.param("harrison", "quotient and eulerian pipelines agree", [],
                 TRUNC4_2_5,
                 id="harrison-quotient and eulerian pipelines agree"),
    pytest.param("comparison", "comparison slices certified (w=2)",
                 COMPARISON_PASSED, DUAL_NUMBERS_2_2, id="comparison")])
def test_compute_reports_a_failing_check(capsys, broken_boundaries, theory,
                                         name, passed, bounds):
    code, out = run(capsys, "compute", "--theory", theory, *bounds)
    assert code == 1
    report = json.loads(out)
    certs = report["certifications"]
    assert [c["name"] for c in certs] == passed + [name]
    assert all(c["status"] == "pass" for c in certs[:-1])
    assert certs[-1]["status"] == "fail" and certs[-1]["witness"]
    if theory == "comparison":
        # the failing weight gets no rows
        assert {r["w"] for r in report["tables"]} == {0, 1}


def test_a_broken_quotient_fails_the_comparison_slices(capsys, monkeypatch):
    # the quotient slice is built on first use, by the chain-map checks;
    # when only the quotient has d o d != 0, compute and verify must still
    # fail "comparison slices certified" at the weight it breaks
    from exacthom.symhom import SymmetricComplex

    faces = SymmetricComplex.faces

    def doubled(self, key):
        out = faces(self, key)
        if self.variant == "quotient":
            out[1] = [(k, self.field.mul(2, c)) for k, c in out[1]]
        return out

    monkeypatch.setattr(SymmetricComplex, "faces", doubled)
    code, out = run(capsys, "compute", "--theory", "comparison",
                    *DUAL_NUMBERS_2_2)
    assert code == 1
    certs = json.loads(out)["certifications"]
    assert [c["name"] for c in certs] == COMPARISON_PASSED + [
        "comparison slices certified (w=2)"]
    assert "not a chain complex" in certs[-1]["witness"]
    code, out = run(capsys, "verify", "--suite", "comparison", "--preset",
                    "dual-numbers", "--max-degree", "3", "--max-weight", "2")
    assert code == 1
    failed = [c for c in json.loads(out)["certifications"]
              if c["status"] == "fail"]
    assert [c["name"] for c in failed] == [
        "comparison slices certified dual-numbers w=2"]
    assert "not a chain complex" in failed[0]["witness"]


@pytest.mark.parametrize("argv,passed,name", [
    (("compute", "--theory", "comparison"), COMPARISON_PASSED,
     "comparison slices certified (w=2)"),
    (("verify", "--suite", "les"),
     [f"long exact sequence dual-numbers w={w} (degrees <= 2)"
      for w in (0, 1)],
     "long exact sequence dual-numbers w=2 (degrees <= 2)")],
    ids=["compute", "verify"])
def test_a_refused_short_exact_sequence_fails_a_check(capsys, monkeypatch,
                                                      argv, passed, name):
    # doubling every gamma boundary keeps d o d = 0, so every slice is
    # built, but phi o q is then no chain map from weight 2 on: check_ses
    # refuses the sequence, and the weight fails one check with its message
    from exacthom.gamma import GammaComplex

    terms = GammaComplex.boundary_terms
    monkeypatch.setattr(GammaComplex, "boundary_terms", lambda self, key: {
        k: self.field.mul(2, c) for k, c in terms(self, key).items()})
    code = main([*argv, *DUAL_NUMBERS_2_2])
    captured = capsys.readouterr()
    assert code == 1 and not captured.err
    report = json.loads(captured.out)
    certs = report["certifications"]
    assert [c["name"] for c in certs] == passed + [name]
    assert all(c["status"] == "pass" for c in certs[:-1])
    assert certs[-1]["status"] == "fail"
    assert certs[-1]["witness"] == "projection is not a chain map"
    if argv[0] == "compute":
        assert {r["w"] for r in report["tables"]} == {0, 1}


def test_harrison_witness_names_every_failing_weight(capsys,
                                                     broken_boundaries):
    code, out = run(capsys, "compute", "--theory", "harrison", *TRUNC4_2_5)
    assert code == 1
    report = json.loads(out)
    [cert] = [c for c in report["certifications"]
              if c["name"] == "quotient and eulerian pipelines agree"]
    assert cert["status"] == "fail"
    # a failing weight loses its rows; the merged witness names each one
    failed = set(range(6)) - {r["w"] for r in report["tables"]}
    assert failed
    named = {w for w in range(6) if f"harrison w={w}: " in cert["witness"]}
    assert named == failed


@pytest.mark.parametrize("suite,broken", [
    ("les", "broken_boundaries"), ("comparison", "broken_boundaries"),
    ("harrison", "broken_boundaries"), ("barr", "broken_boundaries"),
    ("augsplit", "broken_boundaries"), ("gamma-iso", "broken_gamma_faces")])
def test_verify_reports_a_failing_certificate(capsys, request, suite,
                                              broken):
    # a certificate that raises (d o d != 0, a boundary leaving its
    # subcomplex) fails its check with the message as the witness
    request.getfixturevalue(broken)
    # augsplit compares two slices that the broken face changes alike, so
    # only d o d != 0 fails it, first on trunc3 at weight 3
    name, w = ("trunc3", "3") if suite == "augsplit" else ("dual-numbers", "2")
    code, out = run(capsys, "verify", "--suite", suite, "--preset", name,
                    "--max-degree", "3", "--max-weight", w)
    assert code == 1
    failed = [c for c in json.loads(out)["certifications"]
              if c["status"] == "fail"]
    assert failed
    assert any("not a chain complex" in c["witness"]
               or "leaves the subcomplex" in c["witness"] for c in failed)


def test_symmetric_basis_ceiling_refused_without_enumerating(capsys,
                                                            monkeypatch):
    from exacthom import symhom

    def enumerate_basis(*args):
        raise AssertionError("a basis was enumerated by the size guard")

    monkeypatch.setattr(symhom, "epi_strings", enumerate_basis)
    monkeypatch.setattr(symhom.SymmetricComplex, "iter_basis",
                        enumerate_basis)
    line = run_error(capsys, "compute", "--preset", "trunc4",
                     "--theory", "symmetric", "--max-degree", "3",
                     "--max-weight", "4", "--max-basis", "100000")
    assert "symmetric slice w=4 has 3638359 basis elements" in line
