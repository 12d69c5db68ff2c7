import random
from collections import Counter
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exacthom.algebras import PRESETS, Coefficients, preset
from exacthom.chains import (ChainSlice, KernelSlice, check_ses,
                             connecting_homomorphism,
                             long_exact_sequence_nodes)
from exacthom.fields import GF, QQ
from exacthom.gamma import GammaComplex
from exacthom.symhom import (ComparisonData, FiberOrderedMap,
                             SymmetricComplex, epi_maps, epi_strings,
                             hs0_consistency, phi_matrix,
                             reduced_symmetric_homology)
import reference
from reference import b_sym_words, columns


def test_fibers_partition_guard():
    with pytest.raises(ValueError):
        FiberOrderedMap(2, [(1,), (1,)])
    with pytest.raises(ValueError):
        FiberOrderedMap(2, [(1, 2)])


def test_identity_and_epi_flags():
    ident = FiberOrderedMap.identity(3)
    assert ident.is_identity() and ident.is_epi()
    face = FiberOrderedMap(3, [(), (1,), (2,)])  # the face missing 1
    assert not face.is_epi()
    swap = FiberOrderedMap(2, [(2,), (1,)])
    assert swap.is_epi() and not swap.is_identity()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_composition_associative(data):
    x = data.draw(st.integers(1, 4))
    y = data.draw(st.integers(1, x))
    z = data.draw(st.integers(1, y))
    u = data.draw(st.integers(1, z))
    f = data.draw(st.sampled_from(epi_maps(x, y)))
    g = data.draw(st.sampled_from(epi_maps(y, z)))
    h = data.draw(st.sampled_from(epi_maps(z, u)))
    assert h.after(g.after(f)) == h.after(g).after(f)


def test_epi_counts():
    for x in range(1, 6):
        for y in range(1, x + 1):
            assert len(epi_maps(x, y)) == factorial(x) * comb(x - 1, y - 1)


def test_epi_maps_match_the_pair_form_construction():
    for x in range(1, 6):
        for y in range(1, x + 1):
            assert epi_maps(x, y) == reference.epi_maps(x, y), (x, y)


def test_epi_criterion_matches_pair_form():
    for x in range(1, 5):
        for y in range(1, x + 1):
            assert all(f.is_epi() for f in reference.epi_maps(x, y))
    # the face {1, 2} -> {1, 2, 3} missing 1 has an empty fiber
    assert not FiberOrderedMap(3, [(), (1,), (2,)]).is_epi()


# -- the bar construction --------------------------------------------------------

def test_bar_words_order_sensitivity():
    f = FiberOrderedMap(1, [(2, 1)])
    assert b_sym_words(f, (("x",), ("y",))) == (("y", "x"),)
    g = FiberOrderedMap(1, [(1, 2)])
    assert b_sym_words(g, (("x",), ("y",))) == (("x", "y"),)


def test_bar_words_functorial():
    rng = random.Random(1)
    for _ in range(80):
        x = rng.randint(1, 4)
        y = rng.randint(1, x)
        z = rng.randint(1, y)
        f = rng.choice(epi_maps(x, y))
        g = rng.choice(epi_maps(y, z))
        words = tuple((f"a{i}",) for i in range(x))
        assert b_sym_words(g.after(f), words) \
            == b_sym_words(g, b_sym_words(f, words))


def test_bar_apply_identity_and_products():
    B = preset("trunc3")
    ident = FiberOrderedMap.identity(2)
    assert B.map_tensor(ident, (1, 2)) == [((1, 2), QQ.one)]
    collapse = FiberOrderedMap(1, [(2, 1)])
    # yx evaluated in a commutative algebra equals xy
    assert B.map_tensor(collapse, (1, 1)) == [((2,), QQ.one)]


# -- complexes -------------------------------------------------------------------

def test_epi_strings_counts():
    assert epi_strings(1, 0) == ((),)
    assert epi_strings(2, 0, to_point=True) == ()
    assert len(epi_strings(2, 1)) == 3      # theta and the two collapses
    assert len(epi_strings(2, 1, to_point=True)) == 2
    assert len(epi_strings(3, 1)) == 23


def test_symmetric_complex_squares_to_zero():
    for name in ("dual-numbers", "trunc3"):
        alg = preset(name)
        for variant in ("full", "quotient"):
            sym = SymmetricComplex(alg, variant)
            for w in range(4):
                sym.slice(w, 3)


def test_degree_zero_of_quotient_is_object_one():
    alg = preset("trunc3")
    quot = SymmetricComplex(alg, "quotient")
    # only the one-point object survives in degree zero
    assert quot.dim(0, 2) == 1   # the tensor x2 on one slot
    full = SymmetricComplex(alg, "full")
    assert full.dim(0, 2) == 2   # x2 and x (x) x


def test_degree_one_collapse_example():
    # d_0 of (f: 2 -> 1, x (x) x) is the product x^2 on the point
    alg = preset("trunc3")
    sym = SymmetricComplex(alg, "full")
    key = ((FiberOrderedMap(1, [(1, 2)]),), (1, 1))
    terms = sym.boundary_terms(key)
    assert terms == {((), (2,)): QQ.one, ((), (1, 1)): QQ.of(-1)}


def test_quotient_and_phi_are_chain_maps():
    for name in ("dual-numbers", "trunc3"):
        alg = preset(name)
        for w in range(3):
            cd = ComparisonData(alg, w, 3)
            assert cd.q_is_chain_map()
            assert cd.phi_is_chain_map()
            assert cd.surjective()


def test_phi_collapses_fiber_orders():
    alg = preset("dual-numbers")
    quot = SymmetricComplex(alg, "quotient")
    gamma = GammaComplex(alg, Coefficients(alg, "k"), "I")
    n, w = 1, 2
    phi = phi_matrix(quot, gamma, n, w)
    idx = quot.index(n, w)
    a = ((FiberOrderedMap(1, [(1, 2)]),), (1, 1))
    b = ((FiberOrderedMap(1, [(2, 1)]),), (1, 1))
    cols = columns(phi)
    assert cols[idx[a]] == cols[idx[b]]
    # canonical fiber orders map to the underlying surjection, coefficient 1
    col = cols[idx[a]]
    assert list(col.values()) == [QQ.one]


def test_kernel_of_comparison_boundary_stable():
    alg = preset("dual-numbers")
    cd = ComparisonData(alg, 2, 3)
    reps, kchain = cd.kernel()
    for n in range(1, 4):
        assert cd.sym_chain.dims[n] \
            == cd.gamma_chain.dims[n] + kchain.dims[n]


def test_les_exactness_small():
    alg = preset("trunc3")
    for w in range(3):
        cd = ComparisonData(alg, w, 3)
        nodes = long_exact_sequence_nodes(*cd.ses(), 2)
        for name, rin, kout in nodes:
            assert rin == kout, (w, name, rin, kout)


def test_reduced_symmetric_homology_values():
    alg = preset("dual-numbers")
    table = reduced_symmetric_homology(alg, 2, 2)
    # the degree-zero law pins these: dim A_1 = 1, dim A_2 = 0
    assert table[(0, 1)] == 1
    assert table[(0, 2)] == 0
    table3 = reduced_symmetric_homology(preset("trunc3"), 1, 2)
    assert table3[(0, 1)] == 1
    assert table3[(0, 2)] == 1


def test_hs0_consistency_both_presets():
    for name in ("dual-numbers", "trunc3"):
        alg = preset(name)
        for w, got, expected in hs0_consistency(alg, 3):
            assert got == expected, (name, w)


def test_normalized_matches_unnormalized():
    alg = preset("dual-numbers")
    for w in range(3):
        norm = SymmetricComplex(alg, "full", normalized=True)
        raw = SymmetricComplex(alg, "full", normalized=False)
        hn = norm.slice(w, 3).homology()
        hr = raw.slice(w, 3).homology()
        assert hn[:-1] == hr[:-1], (w, hn, hr)


def test_determinism_of_bases():
    alg = preset("trunc3")
    a = SymmetricComplex(alg, "full")
    b = SymmetricComplex(alg, "full")
    for w in range(3):
        for n in range(3):
            assert a.basis(n, w) == b.basis(n, w)
            assert a.boundary(n + 1, w).entries == b.boundary(n + 1, w).entries


def test_quotient_basis_is_point_ended_strings():
    alg = preset("trunc3")
    full = SymmetricComplex(alg, "full")
    quot = SymmetricComplex(alg, "quotient")
    for n in range(3):
        for w in range(3):
            expected = tuple(
                key for key in full.basis(n, w)
                if (key[0][-1].cod if key[0] else len(key[1])) == 1)
            assert quot.basis(n, w) == expected


def test_comparison_over_prime_field():
    alg = preset("dual-numbers", GF(5))
    cd = ComparisonData(alg, 2, 3)
    assert cd.q_is_chain_map() and cd.phi_is_chain_map() and cd.surjective()
    for w, got, expected in hs0_consistency(alg, 2):
        assert got == expected


def _identical(a, b):
    """Equal matrices whose entries also have the same normal form."""
    return a == b and all(type(v) is type(b.entries[k])
                          for k, v in a.entries.items())


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF(5)"])
@pytest.mark.parametrize("name", ["dual-numbers", "trunc3"])
def test_closed_form_kernel_matches_elimination(name, field):
    # the fiber kernel of phi o q against kernel_basis, and the boundaries
    # read off at the free rows against span_slice's solves
    alg = preset(name, field)
    for w in range(4):
        cd = ComparisonData(alg, w, 3)
        reps, kchain = cd.kernel()
        oracle_reps, oracle_chain = reference.comparison_kernel(cd)
        assert len(reps) == len(oracle_reps)
        for n, (got, expected) in enumerate(zip(reps, oracle_reps)):
            assert _identical(got, expected), (w, n)
        assert kchain.dims == oracle_chain.dims
        for n in range(1, 4):
            assert _identical(kchain.boundary(n), oracle_chain.boundary(n))


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF(5)"])
@pytest.mark.parametrize("name", ["dual-numbers", "trunc3"])
def test_connecting_map_matches_the_solves(name, field):
    # lifting through the first column of each fiber and pulling back at
    # the free rows gives the connecting map that two solves give
    alg = preset(name, field)
    for w in range(4):
        ses = ComparisonData(alg, w, 3).ses()
        for n in range(1, 4):
            assert connecting_homomorphism(*ses, n) \
                == reference.connecting_by_solves(*ses, n), (w, n)


def test_les_builds_no_augmented_echelon(monkeypatch):
    # the long exact sequence solves nothing: every Echelon it builds (the
    # cycles of a degree) pivots in all of its columns
    from exacthom import sparse
    built = []
    init = sparse.Echelon.__init__

    def recorded_init(self, matrix, pivot_limit=None):
        init(self, matrix, pivot_limit)
        built.append((self.pivot_limit, self.ncols))

    monkeypatch.setattr(sparse.Echelon, "__init__", recorded_init)
    alg = preset("dual-numbers")
    for w in range(4):
        long_exact_sequence_nodes(*ComparisonData(alg, w, 3).ses(), 2)
    assert built and all(limit == ncols for limit, ncols in built)


def _leave_the_kernel(cd, n=2):
    """Perturb d_n of cd's symmetric slice, after its d o d = 0 check, so
    that it sends a degree-n kernel column out of the kernel: add to that
    column's boundary a degree-(n-1) basis element that phi o q does not
    kill."""
    from exacthom.sparse import SparseMatrix, kernel_with_free
    field = cd.sym_chain.field
    target = min(j for _, j in cd.proj[n - 1].entries)
    free = kernel_with_free(cd.proj[n])[1][0]
    bnd = cd.sym_chain.boundaries[n]
    entries = dict(bnd.entries)
    entries[(target, free)] = field.add(entries.get((target, free), 0),
                                        field.one)
    cd.sym_chain.boundaries[n] = SparseMatrix(field, *bnd.shape, entries)


def test_a_boundary_leaving_the_kernel_is_refused(monkeypatch, capsys):
    # kernel() reads d^K off d K without certifying it; check_ses refuses
    # the sequence, because p d K = d p K = 0 cannot hold, and so does
    # every consumer of ses(): the long exact sequence, compute and verify
    import json
    from exacthom.chains import CertificationError
    from exacthom.cli import main
    cd = ComparisonData(preset("trunc3"), 3, 3)
    _leave_the_kernel(cd)
    with pytest.raises(CertificationError,
                       match="projection is not a chain map"):
        long_exact_sequence_nodes(*cd.ses(), 2)

    init = ComparisonData.__init__

    def perturbed(self, alg, w, top):
        init(self, alg, w, top)
        if w == 3:
            _leave_the_kernel(self)

    monkeypatch.setattr(ComparisonData, "__init__", perturbed)
    for argv, name in (
            (("compute", "--theory", "comparison"),
             "comparison slices certified (w=3)"),
            (("verify", "--suite", "les"),
             "long exact sequence trunc3 w=3 (degrees <= 2)")):
        assert main([*argv, "--preset", "trunc3", "--max-degree", "2",
                     "--max-weight", "3"]) == 1
        report = json.loads(capsys.readouterr().out)
        failed = [(c["name"], c["witness"]) for c in report[
            "certifications"] if c["status"] == "fail"]
        assert failed == [(name, "projection is not a chain map")]
        if argv[0] == "compute":
            assert {r["w"] for r in report["tables"]} == {0, 1, 2}


def test_kernel_forms_one_product_per_degree(monkeypatch):
    # d^K_n is the rows free[n-1] of d_n K_n, and no K_{n-1} d^K_n is
    # formed: check_ses certifies the kernel's closure.  The other products
    # are the kernel slice's own d o d = 0 check, d^K_{n-1} d^K_n
    from exacthom.sparse import SparseMatrix
    lefts = []
    mul = SparseMatrix.mul

    def recorded(self, other):
        lefts.append(self)
        return mul(self, other)

    monkeypatch.setattr(SparseMatrix, "mul", recorded)
    for name in sorted(PRESETS):
        for w in range(4):
            cd = ComparisonData(preset(name), w, 3)
            lefts.clear()
            _, kchain = cd.kernel()
            own = [m for m in lefts if all(
                m is not d for d in kchain.boundaries.values())]
            assert len(own) == 3 and all(
                m is cd.sym_chain.boundary(n) for n, m in enumerate(own, 1)
            ), (name, w)
            assert len(lefts) == 5, (name, w)


def test_kernel_and_homology_coords_build_no_echelon(monkeypatch):
    # kernel() is closed-form; a degree's homology costs one Echelon (the
    # cycles) and one low_pivots on first use, and coords builds neither
    from exacthom import chains, sparse
    built = Counter()
    init, low_pivots = sparse.Echelon.__init__, chains.low_pivots
    degree, coords = chains.ChainSlice._degree, chains.ChainSlice.coords

    def counted_init(self, *args, **kwargs):
        built["echelon"] += 1
        init(self, *args, **kwargs)

    def counted_low_pivots(*args):
        built["low_pivots"] += 1
        return low_pivots(*args)

    def checked_degree(self, n):
        fresh = n not in self._homology
        before = built.copy()
        out = degree(self, n)
        if fresh:
            assert built - before == Counter(echelon=1, low_pivots=1), n
        return out

    def checked_coords(self, n, vectors):
        self._degree(n)  # the degree's own eliminations, on first use
        before = built.copy()
        out = coords(self, n, vectors)
        assert built == before, f"coords({n}) eliminated"
        return out

    monkeypatch.setattr(sparse.Echelon, "__init__", counted_init)
    monkeypatch.setattr(chains, "low_pivots", counted_low_pivots)
    monkeypatch.setattr(chains.ChainSlice, "_degree", checked_degree)
    monkeypatch.setattr(chains.ChainSlice, "coords", checked_coords)
    alg = preset("trunc4")
    for w in range(4):
        cd = ComparisonData(alg, w, 3)
        before = built.copy()
        cd.kernel()
        assert built == before, f"kernel() eliminated at w={w}"
        long_exact_sequence_nodes(*cd.ses(), 2)
    assert built["low_pivots"] > 0  # the counter is live


def test_les_ranks_each_map_once(monkeypatch):
    from exacthom import chains
    ranked = []
    rank = chains.rank

    def counted_rank(matrix):
        ranked.append(matrix)  # kept alive, so ids stay distinct
        return rank(matrix)

    monkeypatch.setattr(chains, "rank", counted_rank)
    alg = preset("dual-numbers")
    for w in range(4):
        ses = ComparisonData(alg, w, 3).ses()
        ranked.clear()
        nodes = long_exact_sequence_nodes(*ses, 2)
        assert ranked and all(rin == kout for _, rin, kout in nodes)
        assert len({id(m) for m in ranked}) == len(ranked), w


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF(5)"])
@pytest.mark.parametrize("name", ["dual-numbers", "trunc3", "trunc4",
                                  "square-zero-xy"])
def test_one_product_inclusion_law_on_the_comparison(name, field):
    # the kernel's d^K is read off d K at the free rows, and check_ses
    # forms no product with K; the inclusion must still be exact and a
    # chain map by both products
    alg = preset(name, field)
    for w in range(4):
        reference.assert_exact_inclusion(*ComparisonData(alg, w, 3).ses())


def test_ses_and_les_form_each_kernel_boundary_product_once(monkeypatch):
    # d_n K_n, the one product behind the kernel's d^K_n, is formed once
    # per degree: by KernelSlice, and not again by check_ses
    from exacthom.sparse import SparseMatrix
    products = []
    mul = SparseMatrix.mul

    def recorded(self, other):
        products.append((self, other))  # kept alive, so ids stay distinct
        return mul(self, other)

    monkeypatch.setattr(SparseMatrix, "mul", recorded)
    for name in ("dual-numbers", "trunc3"):
        for w in range(1, 4):
            cd = ComparisonData(preset(name), w, 3)
            products.clear()
            sub, quot = cd.ses()
            long_exact_sequence_nodes(sub, quot, 2)
            formed = [n for n in range(1, 4) for left, right in products
                      if left is cd.sym_chain.boundary(n)
                      and right is sub.inc[n]]
            assert formed == [1, 2, 3], (name, w)


def test_comparison_and_les_suites_compare_no_zero_slice(capsys):
    # on both presets every comparison slice is zero at w = 0 and has no
    # generator above degree 0 at w = 1: no chain-map check compares a
    # nonempty product there, and at w = 0 neither surjectivity nor the long
    # exact sequence compares anything
    from exacthom.cli import main
    from exacthom.verify import run_suite
    checks, _ = run_suite("comparison", {"max_weight": 3})
    names = [c.name for c in checks]
    assert all(c.ok for c in checks)
    for name in ("dual-numbers", "trunc3"):
        for w in range(4):
            cd = ComparisonData(preset(name), w, 3)
            for label, src, dst in (
                    ("quotient map", cd.sym_chain, cd.quot_chain),
                    ("comparison map", cd.quot_chain, cd.gamma_chain)):
                compares = any(src.dims[n] and dst.dims[n - 1]
                               for n in range(1, 4))
                assert compares == (w >= 2), (name, w, label)
                assert (f"{label} chain map {name} w={w}" in names) \
                    == compares
            assert (f"comparison map surjective {name} w={w}"
                    in names) == (w >= 1)
    checks, _ = run_suite("les", {"presets": ["dual-numbers", "trunc3"],
                                  "max_weight": 1})
    assert [c.name for c in checks] == [
        f"long exact sequence {name} w=1 (degrees <= 3)"
        for name in ("dual-numbers", "trunc3")]
    assert all(c.ok for c in checks)
    assert main(["verify", "--suite", "les", "--max-weight", "0"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "nothing to check" in err, err


@pytest.fixture(scope="module")
def dual_numbers_ses():
    return ComparisonData(preset("dual-numbers"), 2, 3).ses()


@pytest.mark.parametrize("call,message", [
    (lambda s, q: KernelSlice(s.proj[:2], s.total),
     r"does not map from the degrees 0\.\.3 of total"),
    (lambda s, q: check_ses(s, ChainSlice(
        q.field, q.dims[:3], {n: q.boundary(n) for n in (1, 2)})),
     r"projection onto dims \[\d+, \d+, \d+, \d+\], quotient of dims "
     r"\[\d+, \d+, \d+\]"),
    (lambda *ses: long_exact_sequence_nodes(*ses, 5),
     "through degree 5, slices through degree 3"),
    (lambda *ses: connecting_homomorphism(*ses, 0),
     r"degree 0, outside 1\.\.3"),
    (lambda *ses: connecting_homomorphism(*ses, 4),
     r"degree 4, outside 1\.\.3"),
], ids=["short-proj", "unequal-tops", "les-above-top", "delta-0",
        "delta-above-top"])
def test_ses_functions_refuse_out_of_range_input_in_one_line(
        dual_numbers_ses, call, message):
    with pytest.raises(ValueError, match=message) as exc:
        call(*dual_numbers_ses)
    assert "\n" not in str(exc.value)


def test_les_builds_no_quotient_slice(monkeypatch):
    # ses() and the long exact sequence need the quotient's basis only;
    # its boundaries are built, and certified, by q_is_chain_map alone
    built = Counter()
    boundary = SymmetricComplex.boundary

    def counted(self, n, w):
        if (n, w) not in self._boundary:
            built[self.variant] += 1
        return boundary(self, n, w)

    monkeypatch.setattr(SymmetricComplex, "boundary", counted)
    alg = preset("trunc4")
    for w in range(4):
        cd = ComparisonData(alg, w, 3)
        long_exact_sequence_nodes(*cd.ses(), 2)
        assert built == Counter(full=3), w
        assert cd.q_is_chain_map() and cd.phi_is_chain_map()
        assert built == Counter(full=3, quotient=3), w
        built.clear()


@pytest.mark.slow
@pytest.mark.parametrize("name,field,kernel,hs,hgamma", [
    ("dual-numbers", QQ, [0, 0, 0], [0, 0, 0], [0, 0, 0]),
    ("dual-numbers", GF(2), [0, 0, 2], [0, 0, 1], [0, 0, 0]),
    ("trunc3", QQ, [0, 0, 1], [0, 0, 1], [0, 0, 0]),
], ids=["dual-numbers-Q", "dual-numbers-F2", "trunc3-Q"])
def test_weight_four_comparison_tables(name, field, kernel, hs, hgamma):
    # the w = 4 slices through degree 3 (about 10 s and 400 MB each);
    # over F_2, d_3 loses rank and H_2 has 2-torsion in the integral slices
    ses = ComparisonData(preset(name, field), 4, 3).ses()
    nodes = long_exact_sequence_nodes(*ses, 2)
    assert all(rin == kout for _, rin, kout in nodes), nodes
    sub, quot = ses
    assert [c.homology()[:3] for c in (sub, sub.total, quot)] \
        == [kernel, hs, hgamma]
