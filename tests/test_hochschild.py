import json

import pytest

from exacthom import groupalg, hochschild, sparse
from exacthom.algebras import Coefficients, preset
from exacthom.chains import CertificationError
from exacthom.cli import main
from exacthom.fields import GF, QQ
from exacthom.groupalg import (GroupAlgebraElement, eulerian_idempotent,
                               eulerian_idempotents, total_shuffle)
from exacthom.hochschild import (HarrisonQuotient, HochschildComplex,
                                 NormalizedHarrison, aug_split_iso, barr_map,
                                 harrison_homology, harrison_weight,
                                 hochschild_homology, hodge_checks,
                                 idempotent_slice,
                                 is_degenerate, is_ideal_only,
                                 normalized_slice)
from exacthom.sparse import Echelon, SparseMatrix, kernel_basis
from exacthom.verify import BoundsError, run_suite
from reference import (columns, extend_basis_columns, fractional_trunc4,
                       hstack, image_pivot_columns, non_monomial,
                       permute_slots, shuffle_slice, solve_batch)


@pytest.fixture(scope="module")
def dual_k():
    alg = preset("dual-numbers")
    return HochschildComplex(alg, Coefficients(alg, "k"))


@pytest.fixture(scope="module")
def trunc3_A():
    alg = preset("trunc3")
    return HochschildComplex(alg, Coefficients(alg, "A"))


def test_degree_one_boundary_vanishes_for_symmetric_modules(trunc3_A):
    # b(m x a) = ma - am = 0
    for w in range(4):
        assert trunc3_A.boundary(1, w).is_zero()


def test_square_of_generator_is_a_cycle(dual_k):
    keys = dual_k.basis(2, 2)
    assert keys == ((0, (1, 1)),)
    assert dual_k.boundary(2, 2).is_zero()


def test_boundary_squares_to_zero_small(trunc3_A):
    for w in range(5):
        trunc3_A.slice(w, 5)  # constructor checks d o d = 0


def test_degenerate_slice_degree_one(dual_k):
    # D(A, M) is spanned by the degenerate basis elements, and the
    # normalized quotient keeps the others
    def degenerate_dims(w, top):
        return [sum(map(is_degenerate, dual_k.basis(n, w)))
                for n in range(top + 1)]

    assert degenerate_dims(1, 1) == [0, 0]
    # at weight 0 the one degenerate element is the inserted unit
    assert degenerate_dims(0, 2) == [0, 1, 1]
    for w, top in ((1, 1), (0, 2)):
        assert [a + b for a, b in zip(
            normalized_slice(dual_k, w, top).dims, degenerate_dims(w, top))
        ] == [dual_k.dim(n, w) for n in range(top + 1)]


def test_shuffle_slice_degree_two_antisymmetrizers(trunc3_A):
    sl, reps = shuffle_slice(trunc3_A, 2, 2)
    # sh_2 = e - theta: the image is spanned by differences a x b - b x a
    for col in columns(reps[2]):
        assert sorted(col.values()) in ([QQ.of(-1), QQ.one],)
    # closed under the boundary by construction; dims split with the quotient
    quot = HarrisonQuotient(trunc3_A, 2, 2)
    for n in range(3):
        assert sl.dims[n] + quot.chain.dims[n] == trunc3_A.dim(n, 2)


def test_idempotent_slices_sum_to_full(dual_k, trunc3_A):
    for hc in (dual_k, trunc3_A):
        for w in range(4):
            assert hodge_checks(hc, w, 4)[1]


def test_hodge_commutation(dual_k, trunc3_A):
    for hc in (dual_k, trunc3_A):
        for w in range(4):
            assert hodge_checks(hc, w, 4)[0]


def test_aug_split_identity_matrices(dual_k):
    # the identity matrices are inverse chain isomorphisms: both slices
    # have the same dimensions and the same boundaries
    norm, ideal = aug_split_iso(dual_k, 2, 4)
    assert norm.dims == ideal.dims
    assert norm.boundaries == ideal.boundaries


def test_normalized_equals_ideal_boundaries(trunc3_A):
    for w in range(4):
        aug_split_iso(trunc3_A, w, 4)


def test_ideal_slice_is_boundary_closed(trunc3_A):
    # building C(I, M) must not raise: no face of a unit-free tensor leaves
    unit_free = HochschildComplex(trunc3_A.alg, trunc3_A.coeffs, "I")
    for w in range(4):
        unit_free.slice(w, 4)
        normalized_slice(trunc3_A, w, 4)


def test_idempotent_slice_boundaries_solve(dual_k):
    for i in (1, 2):
        sl, reps = idempotent_slice(dual_k, 2, 3, i)
        assert len(sl.dims) == 4


def test_normalized_harrison_certificates(trunc3_A):
    for w in range(3):
        for i in (1, 2):
            nh = NormalizedHarrison(trunc3_A, w, 3, i)
            assert nh.composite_is_identity()
            assert nh.kernel_dims_match_degenerate()
            assert nh.maps_are_chain_maps()


def test_normalized_harrison_degree_one_identity(dual_k):
    nh = NormalizedHarrison(dual_k, 1, 1, 1)
    # e^(1) acts as the identity in degree 1: both maps are 1x1 units
    assert nh.inclusion[1] == SparseMatrix.identity(QQ, 1)
    assert nh.quotient[1] == SparseMatrix.identity(QQ, 1)


def test_harrison_homology_dual_numbers():
    alg = preset("dual-numbers")
    table = harrison_homology(alg, Coefficients(alg, "k"), 3, 3)
    nonzero = {k: v for k, v in table.items() if v}
    assert nonzero == {(0, 0): 1, (1, 1): 1, (2, 2): 1}


def test_harrison_homology_trunc3_conormal():
    # complete intersection x^3: Harr_1 in weight 1, Harr_2 in weight 3
    alg = preset("trunc3")
    table = harrison_homology(alg, Coefficients(alg, "k"), 3, 3)
    nonzero = {k: v for k, v in table.items() if v}
    assert nonzero == {(0, 0): 1, (1, 1): 1, (2, 3): 1}


def test_harrison_zero_weight_vanishes_positively():
    alg = preset("dual-numbers")
    table = harrison_homology(alg, Coefficients(alg, "k"), 3, 0)
    assert all(v == 0 for (n, w), v in table.items() if n > 0)


def test_hochschild_homology_dual_numbers_diagonal():
    # HH_n(k[x]/(x^2), k) is one-dimensional, concentrated in weight n
    alg = preset("dual-numbers")
    table = hochschild_homology(alg, Coefficients(alg, "k"), 4, 4)
    for n in range(5):
        for w in range(5):
            assert table[(n, w)] == (1 if n == w else 0), (n, w)


# every preset and the fractional trunc4, which has no reduction mod 2
NORMALIZED_ORACLE_CASES = [
    pytest.param(name, field, id=f"{name} {fid}")
    for field, fid in ((QQ, "QQ"), (GF(2), "GF(2)"), (GF(7), "GF(7)"))
    for name in ("dual-numbers", "trunc3", "trunc4", "square-zero-xy",
                 "fractional trunc4")
    if name != "fractional trunc4" or field.characteristic != 2]


def _oracle_complexes(name, field, kind):
    """The full complex C(A, M) and its unit-free subcomplex C(I, M)."""
    alg = fractional_trunc4(field) if name == "fractional trunc4" \
        else preset(name, field)
    co = Coefficients(alg, kind)
    return HochschildComplex(alg, co), HochschildComplex(alg, co, "I")


@pytest.mark.parametrize("name,field", NORMALIZED_ORACLE_CASES)
@pytest.mark.parametrize("kind", ["k", "A"])
def test_normalized_table_matches_the_full_complex(name, field, kind):
    # C(I, M), which hochschild_homology computes from, is
    # quasi-isomorphic to C(A, M)
    full, unit_free = _oracle_complexes(name, field, kind)
    assert unit_free.homology_table(5, 6) == full.homology_table(5, 6)


@pytest.mark.parametrize("name,field", NORMALIZED_ORACLE_CASES)
@pytest.mark.parametrize("kind", ["k", "A"])
def test_normalized_complex_is_the_ideal_slice(name, field, kind):
    # the "I" variant builds, from the unit-free tensors alone, the
    # normalized quotient that the augmentation-splitting certificate
    # compares it with
    full, unit_free = _oracle_complexes(name, field, kind)
    for w in range(5):
        quotient = normalized_slice(full, w, 4)
        normalized = unit_free.slice(w, 4)
        assert quotient.dims == normalized.dims
        for n in range(1, 5):
            assert quotient.boundary(n) == normalized.boundary(n), (w, n)


HARRISON_ORACLE_CASES = [
    pytest.param(name, field, max_n, id=f"{name} {fid}")
    for field, fid, max_n in ((QQ, "QQ", 4), (GF(5), "GF(5)", 3),
                              (GF(7), "GF(7)", 3))
    for name in ("dual-numbers", "trunc3", "trunc4", "square-zero-xy")]


@pytest.mark.parametrize("name,field,max_n", HARRISON_ORACLE_CASES)
@pytest.mark.parametrize("kind", ["k", "A"])
def test_harrison_table_matches_the_full_shuffle_quotient(name, field, max_n,
                                                          kind):
    # harrison_homology reads both pipelines off C(I, M); the shuffle
    # quotient of the full complex C(A, M) is the route it replaced
    alg = preset(name, field)
    co = Coefficients(alg, kind)
    full = HochschildComplex(alg, co)
    table = harrison_homology(alg, co, max_n, 5)
    for w in range(6):
        dims = HarrisonQuotient(full, w, max_n + 1).chain.homology()
        assert [table[(n, w)] for n in range(max_n + 1)] == \
            dims[:max_n + 1], w


def test_unknown_variant_rejected():
    alg = preset("dual-numbers")
    with pytest.raises(ValueError, match="variant"):
        HochschildComplex(alg, Coefficients(alg, "k"), "B")


def test_harrison_over_prime_field():
    alg = preset("dual-numbers", GF(7))
    table = harrison_homology(alg, Coefficients(alg, "k"), 3, 3)
    nonzero = {k: v for k, v in table.items() if v}
    assert nonzero == {(0, 0): 1, (1, 1): 1, (2, 2): 1}


def test_barr_rank_full(dual_k):
    for w in range(3):
        mats, e1_chain, quot = barr_map(dual_k, w, 3)
        for n in range(4):
            assert e1_chain.dims[n] == quot.chain.dims[n]
            assert Echelon(mats[n]).rank == e1_chain.dims[n]


def test_quotient_pipeline_certification_error_detectable(monkeypatch,
                                                          capsys):
    # harrison_homology certifies the two pipelines against each other; on
    # valid input it must simply succeed
    alg = preset("square-zero-xy")
    harrison_homology(alg, Coefficients(alg, "k"), 2, 2)
    # e^(2) in place of e^(1) makes the e^(1) ideal pipeline wrong (in
    # degree 1, where e^(2) vanishes); the quotient pipeline is untouched
    idempotent_matrix = HochschildComplex.idempotent_matrix
    monkeypatch.setattr(
        HochschildComplex, "idempotent_matrix",
        lambda self, n, w, i: idempotent_matrix(self, n, w,
                                                2 if i == 1 else i))
    alg = preset("dual-numbers")
    with pytest.raises(CertificationError,
                       match="Harrison pipelines disagree"):
        harrison_weight(alg, Coefficients(alg, "k"), 1, 2)
    code = main(["compute", "--preset", "dual-numbers", "--theory",
                 "harrison", "--max-degree", "2", "--max-weight", "2"])
    assert code == 1
    [cert] = json.loads(capsys.readouterr().out)["certifications"]
    assert cert["name"] == "quotient and eulerian pipelines agree"
    assert cert["status"] == "fail"
    assert "Harrison pipelines disagree" in cert["witness"]


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF(7)"])
@pytest.mark.parametrize("kind", ["k", "A"])
def test_harrison_weight_slice_is_the_normalized_ideal_chain(monkeypatch,
                                                             kind, field):
    # the e^(1) C(I, M) slice that harrison_weight builds on the "I"
    # complex is the i_chain of the full normalized Harrison splitting,
    # boundary for boundary; its representatives are i_reps on the
    # unit-free rows, where i_reps has all its entries
    built = []

    def recorded(*args, **kwargs):
        built.append(idempotent_slice(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(hochschild, "idempotent_slice", recorded)
    alg = preset("trunc3", field)
    hc = HochschildComplex(alg, Coefficients(alg, kind))
    max_n = 3
    for w in range(5):
        built.clear()
        harrison_weight(alg, hc.coeffs, w, max_n)
        [(chain, reps)] = built
        nh = NormalizedHarrison(hc, w, max_n + 1, 1)
        assert reps == [nh.i_reps[n].select_rows(
            [j for j, k in enumerate(hc.basis(n, w)) if is_ideal_only(k)])
            for n in range(max_n + 2)]
        assert all(r.nnz == f.nnz for r, f in zip(reps, nh.i_reps))
        assert chain.dims == nh.i_chain.dims
        for n in range(1, max_n + 2):
            assert chain.boundary(n) == nh.i_chain.boundary(n)


def test_action_matrix_calls_do_not_grow(monkeypatch):
    # the e^(i) pieces share one e^(i) matrix per degree, and
    # harrison_homology needs one shuffle and one e^(1) matrix per degree
    # and weight
    calls = []
    action_matrix = HochschildComplex.action_matrix

    def counted(self, elem, n, w):
        calls.append((n, w))
        return action_matrix(self, elem, n, w)

    monkeypatch.setattr(HochschildComplex, "action_matrix", counted)
    alg = preset("trunc3")
    co = Coefficients(alg, "A")
    for i, most in ((1, 4), (2, 3)):
        calls.clear()
        NormalizedHarrison(HochschildComplex(alg, co), 3, 4, i)
        assert len(calls) <= most
    calls.clear()
    harrison_homology(alg, co, 3, 3)
    assert len(calls) <= 28


def test_action_matrix_examples(trunc3_A):
    from exacthom.groupalg import (GroupAlgebraElement, Permutation,
                                   eulerian_idempotent)
    # identity acts as the identity matrix
    ident = GroupAlgebraElement.unit(QQ, 2)
    d = trunc3_A.dim(2, 2)
    assert trunc3_A.action_matrix(ident, 2, 2) == SparseMatrix.identity(QQ, d)
    # a transposition swaps the two slots, fixing the module slot
    theta = GroupAlgebraElement(QQ, 2, {Permutation((2, 1)): QQ.one})
    cols = columns(trunc3_A.action_matrix(theta, 2, 2))
    idx = trunc3_A.index(2, 2)
    col = cols[idx[(0, (1, 1))]]      # 1 (x) x (x) x is symmetric
    assert col == {idx[(0, (1, 1))]: QQ.one}
    col = cols[idx[(0, (2, 0))]]      # 1 (x) x2 (x) 1 swaps
    assert col == {idx[(0, (0, 2))]: QQ.one}
    # e_2^(1) averages a tensor with its swap
    e1 = trunc3_A.action_matrix(eulerian_idempotent(QQ, 2, 1), 2, 2)
    col = columns(e1)[idx[(0, (2, 0))]]
    half = QQ.of(1, 2)
    assert col == {idx[(0, (2, 0))]: half, idx[(0, (0, 2))]: half}


def test_whole_slice_quotients_build_no_echelon(monkeypatch, trunc3_A):
    # the Harrison quotient and the Eulerian pieces, C/im(1 - e^(i)), read
    # their bases and coordinates off low pivots, and the normalized
    # quotient selects rows and columns
    built = []
    init = sparse.Echelon.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sparse.Echelon, "__init__", counted)
    for w in range(4):
        HarrisonQuotient(trunc3_A, w, 4).chain.dims
        normalized_slice(trunc3_A, w, 4)
        for i in (1, 2):
            NormalizedHarrison(trunc3_A, w, 4, i)
        idempotent_slice(trunc3_A, w, 4, 2)
        barr_map(trunc3_A, w, 4)
        harrison_weight(trunc3_A.alg, trunc3_A.coeffs, w, 3)
    assert built == []


@pytest.mark.parametrize("suite", ["harrison", "barr"])
def test_suites_refuse_an_eulerian_element_that_is_not_idempotent(
        monkeypatch, suite):
    # the Eulerian pieces are read off the low pivots of im(1 - e^(i)),
    # which is the kernel of e^(i) only when e^(i) is idempotent
    def broken(field, n, i):
        third = GroupAlgebraElement.unit(field, n).scale(field.of(1, 3))
        return eulerian_idempotent(field, n, i).add(third)

    monkeypatch.setattr(hochschild, "eulerian_idempotent", broken)
    checks, _ = run_suite(suite)
    # the trace guard refuses every piece, so every normalized harrison
    # (and every barr) slice fails with its witness
    assert checks and not any(c.ok for c in checks)
    assert all("not idempotent" in str(c.witness) for c in checks)


def test_harrison_suite_computes_each_action_matrix_once(monkeypatch):
    # NormalizedHarrison's e^(i) on C(A, M) and harrison_weight's shuffles
    # and e^(1) on C(I, M) are all different matrices
    seen = {}
    action_matrix = HochschildComplex.action_matrix

    def counted(self, elem, n, w):
        key = (id(self), frozenset(elem.coeffs.items()), n, w)
        seen.setdefault(key, []).append(self)  # keeps id(self) unique
        return action_matrix(self, elem, n, w)

    monkeypatch.setattr(HochschildComplex, "action_matrix", counted)
    checks, _ = run_suite("harrison", {})
    assert checks and all(c.ok for c in checks)
    assert seen and all(len(v) == 1 for v in seen.values())


def test_harrison_suite_reports_no_vacuous_pass():
    # at weight 0, every piece of e^(3) is zero through degree 4, so the
    # five checks of (w=0, i=3) would compare nothing; e^(3) vanishes below
    # degree 3, so through degree 2 no i = 3 piece is left to check
    checks, _ = run_suite("harrison", {"presets": ["dual-numbers"],
                                       "max_weight": 1})
    names = [c.name for c in checks]
    assert all(c.ok for c in checks)
    assert not [n for n in names if "w=0 i=3" in n]
    for kind in ("k", "A"):
        assert f"composite identity dual-numbers M={kind} w=0 i=1" in names
        assert f"kernel dim accounting dual-numbers M={kind} w=1 i=3" in names
    with pytest.raises(BoundsError, match=r"suite harrison .* e\^\(i\)"):
        run_suite("harrison", {"presets": ["dual-numbers"], "max_degree": 2,
                               "idempotents": (3,)})


def test_harrison_suite_compares_no_zero_piece():
    # the unit-free piece e^(i)C(I, M) can be zero where e^(i)C(A, M) is
    # not; then the comparison maps pass through a zero space, and where
    # both complexes also vanish below the top degree the homologies
    # compare nothing.  Every map check must see a nonzero unit-free
    # piece, and every quasi-iso check a nonzero chain group below the top
    checks, _ = run_suite("harrison", {"presets": ["dual-numbers"],
                                       "max_weight": 3})
    assert all(c.ok for c in checks)
    names = {c.name for c in checks}
    alg = preset("dual-numbers")
    for kind in ("k", "A"):
        hc = HochschildComplex(alg, Coefficients(alg, kind))
        for w in range(4):
            for i in (1, 2, 3):
                label = f"dual-numbers M={kind} w={w} i={i}"
                nh = NormalizedHarrison(hc, w, 4, i)
                if not any(nh.c_chain.dims):
                    continue
                unit_free = any(r.ncols for r in nh.i_reps)
                below_top = any(nh.c_chain.dims[:-1] + nh.i_chain.dims[:-1])
                assert (f"composite identity {label}" in names) == unit_free
                assert (f"comparison maps are chain maps {label}"
                        in names) == unit_free
                assert (f"quotient map quasi-iso {label}"
                        in names) == below_top
                assert f"kernel dim accounting {label}" in names
    # among them: the i = 2 pieces at w <= 2, and (M = k, w = 3, i = 1),
    # whose only nonzero group is e^(1)D(A, k) in degree 4
    for w in range(3):
        assert f"kernel dim accounting dual-numbers M=A w={w} i=2" in names
        assert f"composite identity dual-numbers M=A w={w} i=2" not in names
    assert not [n for n in names if n.endswith("M=k w=3 i=1")
                and not n.startswith(("kernel dim", "degenerate"))]


def test_hodge_suite_builds_each_idempotent_matrix_once(monkeypatch):
    # over F_7: 4 complexes x 6 weights x the 15 (n, i) with i <= n <= 5,
    # one action matrix each, and each reduces only its own idempotent
    for n in range(1, 6):
        groupalg._eulerian_over_q(n)  # the rational idempotents, built once
    seen, reduced = {}, []
    action_matrix = HochschildComplex.action_matrix

    def counted(self, elem, n, w):
        key = (id(self), frozenset(elem.coeffs.items()), n, w)
        seen.setdefault(key, []).append(self)  # keeps id(self) unique
        return action_matrix(self, elem, n, w)

    class Counted(GroupAlgebraElement):
        __slots__ = ()

        def __init__(self, field, n, coeffs=None):
            if field != QQ:
                reduced.append(n)
            super().__init__(field, n, coeffs)

    monkeypatch.setattr(HochschildComplex, "action_matrix", counted)
    monkeypatch.setattr(groupalg, "GroupAlgebraElement", Counted)
    checks, _ = run_suite("hodge", {"field": GF(7)})
    assert checks and all(c.ok for c in checks)
    assert len(seen) == 360 and all(len(v) == 1 for v in seen.values())
    assert len(reduced) == 360


def test_shuffle_plus_quotient_dims_match_full(trunc3_A):
    for w in range(4):
        ssl, _ = shuffle_slice(trunc3_A, w, 4)
        quot = HarrisonQuotient(trunc3_A, w, 4)
        for n in range(5):
            assert ssl.dims[n] + quot.chain.dims[n] == trunc3_A.dim(n, w)


def action_matrix_per_term(hc, elem, n, w):
    """Reference action: one field.add per (permutation, basis element)."""
    f = hc.field
    idx = hc.index(n, w)
    entries = {}
    for j, (m, slots) in enumerate(hc.basis(n, w)):
        for perm, c in elem.coeffs.items():
            r = idx[(m, permute_slots(perm, slots))]
            s = f.add(entries.get((r, j), f.zero), c)
            if s == f.zero:
                entries.pop((r, j), None)
            else:
                entries[(r, j)] = s
    return SparseMatrix(f, len(idx), len(idx), entries)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF(7)"])
@pytest.mark.parametrize("name", ["trunc3", "fractional trunc4"])
def test_action_matrix_matches_the_per_term_sum(name, field):
    alg = preset("trunc3", field) if name == "trunc3" \
        else fractional_trunc4(field)
    hc = HochschildComplex(alg, Coefficients(alg, "A"))
    for n in range(1, 5):
        elems = list(eulerian_idempotents(field, n))
        if n >= 2:
            elems.append(total_shuffle(field, n))
        for w in range(n + 3):
            for elem in elems:
                mat = hc.action_matrix(elem, n, w)
                assert mat == action_matrix_per_term(hc, elem, n, w)
                for v in mat.entries.values():
                    if field.characteristic:
                        assert type(v) is int and 0 < v < field.p
                    else:
                        assert type(v) is int or v.denominator != 1


# -- reference subquotients: the hand-written restrictions and solves that
# preceded chains.coords and the modulo argument of chains.span_slice

def restricted_boundary_reference(hc, n, w, keep):
    """The full boundary on the basis elements selected by keep, its rows
    outside them dropped."""
    rows = [j for j, k in enumerate(hc.basis(n - 1, w)) if keep(k)]
    cols = [j for j, k in enumerate(hc.basis(n, w)) if keep(k)]
    rowpos = {r: t for t, r in enumerate(rows)}
    colpos = {c: t for t, c in enumerate(cols)}
    entries = {}
    for (r, c), v in hc.boundary(n, w).entries.items():
        if c in colpos and r in rowpos:
            entries[(rowpos[r], colpos[c])] = v
    return SparseMatrix(hc.field, len(rows), len(cols), entries)


def lower_block(a, b, vectors):
    """Solve [a | b] x = vectors and keep the rows of b."""
    sol, _ = solve_batch(hstack(a, b), vectors)
    return sol.select_rows(range(a.ncols, sol.nrows))


def upper_block(a, b, vectors):
    """Solve [a | b] x = vectors and keep the rows of a."""
    sol, _ = solve_batch(hstack(a, b), vectors)
    return sol.select_rows(range(a.ncols))


def image_reps(mat):
    return mat.select_columns(image_pivot_columns(mat))


def harrison_quotient_reference(hc, w, top):
    """Boundaries of C(A, M)/Sh and its projection, which solves against
    [shuffle reps | complement identity columns] on every call."""
    field = hc.field
    sreps, classes = [], []
    for n in range(top + 1):
        sr = image_reps(hc.shuffle_matrix(n, w))
        full_id = SparseMatrix.identity(field, hc.dim(n, w))
        sreps.append(sr)
        classes.append(extend_basis_columns(sr, full_id))

    def project(n, vectors):
        ident = SparseMatrix(field, hc.dim(n, w), len(classes[n]),
                             {(r, t): field.one
                              for t, r in enumerate(classes[n])})
        return lower_block(sreps[n], ident, vectors)

    bounds = {n: project(n - 1,
                         hc.boundary(n, w).select_columns(classes[n]))
              for n in range(1, top + 1)}
    return bounds, project


def normalized_harrison_reference(hc, w, top, i):
    """The c, i and d representatives, quotient, collapse and the quotient
    boundaries quotient[n-1] . d_n . section, with each map solved by
    hand."""
    field = hc.field
    reps = {"c": [], "i": [], "d": []}
    quotient, collapse, sections = [], [], []
    for n in range(top + 1):
        pmat = hc.idempotent_matrix(n, w, i)
        keys = hc.basis(n, w)
        c_reps = image_reps(pmat)
        i_reps = image_reps(pmat.select_columns(
            [j for j, k in enumerate(keys) if is_ideal_only(k)]))
        d_reps = image_reps(pmat.select_columns(
            [j for j, k in enumerate(keys) if is_degenerate(k)]))
        for tag, mat in (("c", c_reps), ("i", i_reps), ("d", d_reps)):
            reps[tag].append(mat)
        ext = extend_basis_columns(d_reps, c_reps)
        sections.append(SparseMatrix(
            field, c_reps.ncols, len(ext),
            {(r, t): field.one for t, r in enumerate(ext)}))
        quotient.append(lower_block(d_reps, c_reps.select_columns(ext),
                                    c_reps))
        collapse.append(upper_block(i_reps, d_reps,
                                    c_reps.select_columns(ext)))
    c_chain = idempotent_slice(hc, w, top, i)[0]
    bounds = {n: quotient[n - 1].mul(c_chain.boundary(n).mul(sections[n]))
              for n in range(1, top + 1)}
    return reps, quotient, collapse, bounds


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF(7)"])
@pytest.mark.parametrize("kind", ["k", "A"])
@pytest.mark.parametrize("name", ["dual-numbers", "trunc3", "non-monomial"])
def test_subquotients_match_the_hand_written_reference(name, kind, field):
    alg = non_monomial(field) if name == "non-monomial" \
        else preset(name, field)
    hc = HochschildComplex(alg, Coefficients(alg, kind))
    unit_free = HochschildComplex(alg, hc.coeffs, "I")
    top = 4
    for w in range(5):
        for sl in (normalized_slice(hc, w, top), unit_free.slice(w, top)):
            for n in range(1, top + 1):
                assert sl.boundary(n) == \
                    restricted_boundary_reference(hc, n, w, is_ideal_only)
        chain = HarrisonQuotient(hc, w, top).chain
        bounds, project = harrison_quotient_reference(hc, w, top)
        for n, mat in bounds.items():
            assert chain.boundary(n) == mat
        mats, _, _ = barr_map(hc, w, top)
        e1_reps = idempotent_slice(hc, w, top, 1)[1]
        for n, mat in enumerate(mats):
            assert mat == project(n, e1_reps[n])
        for i in (1, 2):
            nh = NormalizedHarrison(hc, w, top, i)
            reps, quotient, collapse, bounds = \
                normalized_harrison_reference(hc, w, top, i)
            assert nh.c_reps == reps["c"]
            assert nh.i_reps == reps["i"]
            assert nh.d_reps == reps["d"]
            assert nh.quotient == quotient
            # the hand-solved collapse onto e^(i)C(I,M) is the identity,
            # so the quotient complex is i_chain itself
            assert collapse == [SparseMatrix.identity(field, r.ncols)
                                for r in nh.i_reps]
            for n, mat in bounds.items():
                assert nh.i_chain.boundary(n) == mat
        sl = hc.slice(w, top)
        for n in range(1, top):
            cycles = kernel_basis(sl.boundary(n))
            assert sl.coords(n, cycles) == upper_block(
                sl.reps(n), sl.boundary(n + 1), cycles)
