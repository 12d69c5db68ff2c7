import random

import pytest

from exacthom.chains import (CertificationError, ChainSlice, check_chain_map,
                             check_ses, complement_slice,
                             connecting_homomorphism,
                             induced_map_on_homology,
                             long_exact_sequence_nodes)
from exacthom.fields import GF, QQ
from exacthom.sparse import SparseMatrix, kernel_basis, low_pivots
import reference
from reference import mat


def test_homology_of_identity_map():
    sl = ChainSlice(QQ, [1, 1], {1: SparseMatrix.identity(QQ, 1)})
    assert sl.homology() == [0, 0]


def test_homology_of_zero_map():
    sl = ChainSlice(QQ, [1, 1], {1: SparseMatrix.zeros(QQ, 1, 1)})
    assert sl.homology() == [1, 1]


def test_homology_exact_three_term():
    sl = ChainSlice(QQ, [1, 2, 1],
                    {1: mat([[1, 0]]), 2: mat([[0], [1]])})
    assert sl.homology() == [0, 0, 0]


def test_chain_slice_rejects_non_complex():
    with pytest.raises(ValueError):
        ChainSlice(QQ, [1, 1, 1], {1: mat([[1]]), 2: mat([[1]])})


def test_representatives_are_cycles_off_boundaries():
    # circle-like: d_1 = 0, d_2 = 0 with dims [1, 2, 1]
    sl = ChainSlice(QQ, [1, 2, 1],
                    {1: SparseMatrix.zeros(QQ, 1, 2),
                     2: SparseMatrix.zeros(QQ, 2, 1)})
    assert sl.reps(1).ncols == 2


def test_induced_identity_and_zero():
    sl = ChainSlice(QQ, [1, 2], {1: SparseMatrix.zeros(QQ, 1, 2)})
    ident = [SparseMatrix.identity(QQ, 1), SparseMatrix.identity(QQ, 2)]
    zero = [SparseMatrix.zeros(QQ, 1, 1), SparseMatrix.zeros(QQ, 2, 2)]
    assert induced_map_on_homology(ident, sl, sl, 1) \
        == SparseMatrix.identity(QQ, 2)
    assert induced_map_on_homology(zero, sl, sl, 1).is_zero()


def test_induced_map_rejects_non_chain_map():
    src = ChainSlice(QQ, [1, 1], {1: SparseMatrix.identity(QQ, 1)})
    dst = ChainSlice(QQ, [1, 1], {1: SparseMatrix.zeros(QQ, 1, 1)})
    f = [SparseMatrix.identity(QQ, 1), SparseMatrix.identity(QQ, 1)]
    assert not check_chain_map(f, src, dst)
    with pytest.raises(ValueError):
        induced_map_on_homology(f, src, dst, 0)


def test_induced_map_independent_of_representatives():
    # complex with homology in degree 1 and a nontrivial boundary space
    d1 = SparseMatrix.zeros(QQ, 1, 3)
    d2 = mat([[1], [1], [0]])
    sl = ChainSlice(QQ, [1, 3, 1], {1: d1, 2: d2})
    f = [SparseMatrix.identity(QQ, 1),
         mat([[2, 0, 0], [0, 2, 0], [0, 0, 2]]), mat([[2]])]
    base = induced_map_on_homology(f, sl, sl, 1)
    # perturb the chosen representatives by boundaries, [reps | d2] times
    # [1 0; 0 1; 3 -1]; classes are unchanged
    perturbed = sl.reps(1).hstack(d2).mul(mat([[1, 0], [0, 1], [3, -1]]))
    assert sl.coords(1, f[1].mul(perturbed)) == base


def test_connecting_homomorphism_iso_example():
    sub = ChainSlice(QQ, [1, 0], {})
    total = ChainSlice(QQ, [1, 1], {1: SparseMatrix.identity(QQ, 1)})
    quot = ChainSlice(QQ, [0, 1], {})
    inc = [SparseMatrix.identity(QQ, 1), SparseMatrix.zeros(QQ, 1, 0)]
    proj = [SparseMatrix.zeros(QQ, 0, 1), SparseMatrix.identity(QQ, 1)]
    delta = connecting_homomorphism(inc, proj, sub, total, quot, 1)
    assert delta.shape == (1, 1)
    assert delta.nnz == 1


def test_connecting_zero_when_lifts_are_cycles():
    # total = sub + quot with untwisted differential: delta = 0
    sub = ChainSlice(QQ, [1, 1], {1: SparseMatrix.zeros(QQ, 1, 1)})
    quot = ChainSlice(QQ, [1, 1], {1: SparseMatrix.zeros(QQ, 1, 1)})
    total = ChainSlice(QQ, [2, 2], {1: SparseMatrix.zeros(QQ, 2, 2)})
    inc = [mat([[1], [0]]), mat([[1], [0]])]
    proj = [mat([[0, 1]]), mat([[0, 1]])]
    delta = connecting_homomorphism(inc, proj, sub, total, quot, 1)
    assert delta.is_zero()


def _random_complex(rng, field, dims):
    """Random bounded complex with the given dimensions."""
    bounds = {}
    prev = None
    for n in range(1, len(dims)):
        lo, hi = dims[n - 1], dims[n]
        if prev is None:
            m = SparseMatrix(field, lo, hi, {
                (i, j): field.of(rng.randint(-2, 2))
                for i in range(lo) for j in range(hi)
                if rng.random() < 0.7})
        else:
            # factor through the kernel of the previous boundary
            k = kernel_basis(prev)
            coeffs = SparseMatrix(field, k.ncols, hi, {
                (i, j): field.of(rng.randint(-2, 2))
                for i in range(k.ncols) for j in range(hi)
                if rng.random() < 0.7})
            m = k.mul(coeffs)
        bounds[n] = m
        prev = m
    return ChainSlice(field, dims, bounds)


def _twisted_ses(rng, field, dims_sub, dims_quot):
    """A short exact sequence total = sub (+) quot with a twisted
    differential, exercising a generically nonzero connecting map."""
    sub = _random_complex(rng, field, dims_sub)
    quot = _random_complex(rng, field, dims_quot)
    top = len(dims_sub) - 1
    hprime = {n: SparseMatrix(field, dims_sub[n], dims_quot[n], {
        (i, j): field.of(rng.randint(-2, 2))
        for i in range(dims_sub[n]) for j in range(dims_quot[n])
        if rng.random() < 0.5}) for n in range(top + 1)}
    bounds = {}
    inc, proj = [], []
    for n in range(top + 1):
        inc.append(SparseMatrix(field, dims_sub[n] + dims_quot[n],
                                dims_sub[n],
                                {(i, i): field.one
                                 for i in range(dims_sub[n])}))
        proj.append(SparseMatrix(field, dims_quot[n],
                                 dims_sub[n] + dims_quot[n],
                                 {(i, dims_sub[n] + i): field.one
                                  for i in range(dims_quot[n])}))
    for n in range(1, top + 1):
        # twist h = d_sub h' - h' d_quot satisfies d_sub h + h d_quot = 0
        ents = {}
        for (i, j), v in sub.boundary(n).entries.items():
            ents[(i, j)] = v
        for sign, part in ((field.one, sub.boundary(n).mul(hprime[n])),
                           (field.neg(field.one),
                            hprime[n - 1].mul(quot.boundary(n)))):
            for (i, j), v in part.entries.items():
                key = (i, dims_sub[n] + j)
                ents[key] = field.add(ents.get(key, field.zero),
                                      field.mul(sign, v))
        for (i, j), v in quot.boundary(n).entries.items():
            ents[(dims_sub[n - 1] + i, dims_sub[n] + j)] = v
        bounds[n] = SparseMatrix(
            field, dims_sub[n - 1] + dims_quot[n - 1],
            dims_sub[n] + dims_quot[n], ents)
    total = ChainSlice(field, [a + b for a, b in zip(dims_sub, dims_quot)],
                       bounds)
    return inc, proj, sub, total, quot


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_random_ses_long_exact(field):
    rng = random.Random(11)
    for _ in range(6):
        top = rng.randint(2, 3)
        dims_sub = [rng.randint(1, 3) for _ in range(top + 1)]
        dims_quot = [rng.randint(1, 3) for _ in range(top + 1)]
        inc, proj, sub, total, quot = _twisted_ses(rng, field,
                                                   dims_sub, dims_quot)
        check_ses(inc, proj, sub, total, quot)
        nodes = long_exact_sequence_nodes(inc, proj, sub, total, quot, top)
        for name, rank_in, ker_out in nodes:
            assert rank_in == ker_out, (name, rank_in, ker_out)
        ses = inc, proj, sub, total, quot
        for n in range(1, top + 1):
            assert connecting_homomorphism(*ses, n) \
                == reference.connecting_by_solves(*ses, n)


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_one_product_inclusion_law_matches_the_two_products(field):
    # check_ses reads inc's chain-map law off one product, d i at the free
    # rows; on random sequences and boundary changes it must accept exactly
    # what check_chain_map(inc, sub, total) accepts
    rng = random.Random(f"law:{field}")
    accepted = refused = 0
    for _ in range(12):
        top = rng.randint(2, 3)
        ses = _twisted_ses(rng, field, [rng.randint(1, 3) for _ in range(
            top + 1)], [rng.randint(1, 3) for _ in range(top + 1)])
        ok, bad, mismatches = reference.inclusion_law_by_two_products(rng,
                                                                     ses)
        assert not mismatches
        accepted, refused = accepted + ok, refused + bad
    assert accepted and refused


def test_connecting_independent_of_lift_choice():
    # the comparison's projection hits some gamma generators from several
    # symmetric ones, so lifting through the last column hitting each row
    # instead of the first is a second lift, and the map must not change
    from exacthom.algebras import preset
    from exacthom.chains import _connecting, basis_map_section
    from exacthom.symhom import ComparisonData

    for name, w in (("dual-numbers", 2), ("trunc3", 3)):
        ses = ComparisonData(preset(name), w, 3).ses()
        inc, proj, sub, total, quot = ses
        _, free = check_ses(*ses)
        target, first = basis_map_section(proj[1])
        last = [None] * proj[1].nrows
        for j, i in enumerate(target):
            if i is not None:
                last[i] = j
        assert None not in last and last != first, name
        connecting = connecting_homomorphism(*ses, 1)
        assert not connecting.is_zero(), name
        for section in (first, last):
            assert _connecting(inc, sub, total, quot, 1, section,
                               free[0]) == connecting, name
        assert connecting == reference.connecting_by_solves(*ses, 1), name


def test_representatives_span_meets_boundaries_trivially():
    rng = random.Random(9)
    sl = _random_complex(rng, QQ, [3, 4, 3])
    for n in (0, 1):
        reps = sl.reps(n)
        bnd = sl.boundary(n + 1)
        from exacthom.sparse import Echelon
        joint = Echelon(bnd.hstack(reps)).rank
        assert joint == Echelon(bnd).rank + reps.ncols


def test_check_ses_rejects_non_exact_input():
    sub = ChainSlice(QQ, [1, 1], {1: SparseMatrix.zeros(QQ, 1, 1)})
    total = ChainSlice(QQ, [2, 2], {1: SparseMatrix.zeros(QQ, 2, 2)})
    quot = ChainSlice(QQ, [2, 2], {1: SparseMatrix.zeros(QQ, 2, 2)})
    inc = [mat([[1], [0]]), mat([[1], [0]])]
    proj = [SparseMatrix.identity(QQ, 2), SparseMatrix.identity(QQ, 2)]
    # im(inc) is one-dimensional but ker(proj) is zero: not exact
    with pytest.raises(ValueError):
        check_ses(inc, proj, sub, total, quot)


@pytest.mark.parametrize("change,message", [
    ({"proj": [[2, 0, 0], [0, 1, 1]]},
     "not a basis map in degree 0: column 0 is not a basis vector"),
    ({"proj": [[1, 0, 1], [0, 1, 1]]},
     "not a basis map in degree 0: column 2 is not a basis vector"),
    ({"proj": [[1, 0, 0], [0, 1, 1], [0, 0, 0]], "quot": 3},
     "not surjective in degree 0: no column hits row 2"),
    ({"inc": [[0], [-2], [2]]},
     "inclusion is not the identity on its free rows in degree 0"),
    ({"proj": [[0, 1, 1]], "quot": 1}, r"im\(i\) != ker\(p\) in degree 0"),
    ({"d_sub": [[1]]}, "inclusion is not a chain map"),
], ids=["entry-2", "two-entries", "misses-a-row", "inc-times-2", "too-small",
        "sub-boundary"])
def test_check_ses_refuses_a_sequence_not_in_basis_map_form(change, message):
    # in degrees 0 and 1, proj sends e_0 -> e_0 and e_1, e_2 -> e_1, and
    # inc spans e_2 - e_1, 1 at its free row 2: exact, with zero boundaries;
    # each change breaks one condition (in degree 0, or sub's d_1)
    def sequence(inc=((0,), (-1,), (1,)), proj=((1, 0, 0), (0, 1, 1)),
                 quot=2, d_sub=((0,),)):
        return ([mat(inc), mat(((0,), (-1,), (1,)))],
                [mat(proj), mat(((1, 0, 0), (0, 1, 1)))],
                ChainSlice(QQ, [1, 1], {1: mat(d_sub)}),
                ChainSlice(QQ, [3, 3], {}), ChainSlice(QQ, [quot, 2], {}))

    check_ses(*sequence())
    with pytest.raises(ValueError, match=message) as exc:
        check_ses(*sequence(**change))
    assert "\n" not in str(exc.value)


def test_restricted_slice_restricts_the_boundary():
    # C_1 = <a, b>, C_0 = <c>, d(a) = d(b) = c; the span of a - b and 0,
    # as the image of the idempotent a -> a - b, b -> 0, whose kernel is
    # spanned by b
    d1 = mat([[1, 1]])
    reps = [SparseMatrix.zeros(QQ, 1, 0), mat([[1], [-1]])]
    low = [low_pivots(QQ, [{0: 1}]), low_pivots(QQ, [{1: 1}])]
    sl = complement_slice(lambda n: d1, reps, low, [[], [0]])
    assert sl.dims == [0, 1]
    assert sl.boundary(1).shape == (0, 1)


def test_restricted_slice_rejects_a_span_not_closed_under_the_boundary():
    from exacthom import hochschild
    d1 = mat([[1, 1]])
    reps = [SparseMatrix.zeros(QQ, 1, 0), mat([[1], [0]])]
    low = [low_pivots(QQ, [{0: 1}]), low_pivots(QQ, [{1: 1}])]
    with pytest.raises(CertificationError, match="degree 1: column 0"):
        complement_slice(lambda n: d1, reps, low, [[], [0]])
    with pytest.raises(CertificationError, match="degree 1"):
        reference.span_slice(lambda n: d1, reps)
    # C_1 = <a>, C_0 = <c, e, f>, d(a) = c + f: the image of the
    # projection onto c along e and f is not closed, that of the
    # projection onto c + f along them is
    d1 = mat([[1], [0], [1]])
    low = [low_pivots(QQ, [{1: 1}, {2: 1}]), {}]
    with pytest.raises(CertificationError, match="degree 1"):
        complement_slice(lambda n: d1, [mat([[1], [0], [0]]), mat([[1]])],
                         low, [[0], [0]])
    sl = complement_slice(lambda n: d1, [mat([[1], [0], [1]]), mat([[1]])],
                          low, [[0], [0]])
    assert sl.boundary(1) == mat([[1]])
    # the solve oracle: the span of c modulo the span of e is not closed,
    # modulo the span of f it is
    reps = [mat([[1], [0], [0]]), mat([[1]])]
    with pytest.raises(CertificationError, match="degree 1"):
        reference.span_slice(lambda n: d1, reps, [mat([[0], [1], [0]]), None])
    sl = reference.span_slice(lambda n: d1, reps,
                              [mat([[0], [0], [1]]), None])
    assert sl.boundary(1) == mat([[1]])
    # the error class is still reachable from the Hochschild module
    assert hochschild.CertificationError is CertificationError


def _complexes():
    """name -> (complex, top degree reported, max weight)"""
    from exacthom.algebras import Coefficients, preset
    from exacthom.gamma import GammaComplex
    from exacthom.hochschild import HochschildComplex
    from exacthom.symhom import SymmetricComplex
    trunc3 = preset("trunc3")
    fractional = reference.fractional_trunc4()
    return {
        "hochschild trunc3 A": (HochschildComplex(
            trunc3, Coefficients(trunc3, "A")), 4, 6),
        "gamma trunc3 k I": (GammaComplex(
            trunc3, Coefficients(trunc3, "k")), 3, 3),
        "gamma trunc3 k A": (GammaComplex(
            trunc3, Coefficients(trunc3, "k"), "A"), 3, 3),
        "symmetric trunc3": (SymmetricComplex(trunc3), 2, 3),
        "hochschild fractional A": (HochschildComplex(
            fractional, Coefficients(fractional, "A")), 4, 6),
    }


@pytest.mark.parametrize("name", sorted(_complexes()))
def test_rank_only_homology_matches_representatives(name):
    # the rank-only report on one slice, the representatives on another
    cx, top, max_w = _complexes()[name]
    for w in range(max_w + 1):
        sl = cx.slice(w, top + 1)
        bases = cx.slice(w, top + 1)
        assert sl.homology() == [bases.reps(n).ncols for n in range(top + 2)]


def _every_variant(alg):
    """Every complex on alg, in every variant."""
    from exacthom.algebras import Coefficients
    from exacthom.gamma import GammaComplex
    from exacthom.hochschild import HochschildComplex
    from exacthom.symhom import SymmetricComplex

    for kind in ("k", "A"):
        co = Coefficients(alg, kind)
        for variant in ("I", "A"):
            yield HochschildComplex(alg, co, variant)
            for normalized in (True, False):
                yield GammaComplex(alg, co, variant, normalized)
    for variant in ("full", "quotient"):
        for normalized in (True, False):
            yield SymmetricComplex(alg, variant, normalized)


@pytest.mark.parametrize("name", ["dual-numbers", "trunc3"])
def test_closed_form_counts_match_the_bases(name):
    from exacthom.algebras import preset
    from exacthom.cli import DEFAULT_BASIS_CEILING

    for cx in _every_variant(preset(name)):
        for n in range(5):
            for w in range(5):
                count = cx.count(n, w)
                if count <= DEFAULT_BASIS_CEILING:
                    assert count == cx.dim(n, w), (cx, n, w)
                else:
                    # only some top slices are past the default ceiling (up
                    # to 4.3 million elements); they are what the guard
                    # refuses to build
                    assert (n, w) == (4, 4), (cx, n, w, count)


def boundary_terms_per_term(cx, key):
    """Reference alternating sum: every face term multiplied by its sign
    and added with field.add, one term at a time."""
    field = cx.field
    out = {}
    sign = field.one
    for terms in cx.faces(key):
        for tkey, c in terms:
            s = field.add(out.get(tkey, field.zero), field.mul(sign, c))
            if s == field.zero:
                out.pop(tkey, None)
            else:
                out[tkey] = s
        sign = field.neg(sign)
    return out


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF(7)"])
def test_boundary_terms_match_the_per_term_sum(field):
    fractions = 0
    for cx in _every_variant(reference.fractional_trunc4(field)):
        for n in range(1, 4):
            for w in range(4):
                for key in cx.basis(n, w):
                    assert len(cx.faces(key)) == n + 1, key
                    terms = cx.boundary_terms(key)
                    assert terms == boundary_terms_per_term(cx, key)
                    for v in terms.values():
                        if field.characteristic:
                            assert type(v) is int and 0 < v < field.p
                        else:
                            assert type(v) is int or v.denominator != 1
                            fractions += type(v) is not int
    assert fractions or field.characteristic


def _bases_slices(field):
    """name -> slice: every sub, total and quot slice of ComparisonData on
    both presets for w <= 3, and the fractional trunc4 Hochschild slices
    (M = A) for w <= 4."""
    from exacthom.algebras import Coefficients, preset
    from exacthom.hochschild import HochschildComplex
    from exacthom.symhom import ComparisonData
    out = {}
    for name in ("dual-numbers", "trunc3"):
        alg = preset(name, field)
        for w in range(4):
            _, _, sub, total, quot = ComparisonData(alg, w, 3).ses()
            for tag, sl in (("sub", sub), ("total", total), ("quot", quot)):
                out[f"{name} w={w} {tag}"] = sl
    alg = reference.fractional_trunc4(field)
    hc = HochschildComplex(alg, Coefficients(alg, "A"))
    for w in range(5):
        out[f"fractional hochschild w={w}"] = hc.slice(w, 4)
    return out


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF(7)"])
def test_homology_bases_match_the_solve_oracle(field):
    # the low pivots of each degree against kernel_basis,
    # extend_basis_columns and one solve per coordinate call
    for name, sl in _bases_slices(field).items():
        oracle = reference.HomologyBases(sl)
        for n in range(sl.top + 1):
            assert sl.reps(n) == oracle.reps(n), (name, n)
            assert sl.reps(n).ncols == oracle.dim(n), (name, n)
            # the cycles and the boundaries, which have coordinates 0
            vectors = oracle.cycles(n).hstack(sl.boundary(n + 1))
            assert sl.coords(n, vectors) == oracle.coords(n, vectors), (
                name, n)


def test_homology_coords_reject_a_non_cycle():
    # C_1 = <a, b>, C_0 = <c>, d(a) = c, d(b) = 0: b is a cycle, a is not
    sl = ChainSlice(QQ, [1, 2], {1: mat([[1, 0]])})
    assert sl.coords(1, mat([[0], [3]])) == mat([[3]])
    with pytest.raises(ValueError, match="column 1"):
        sl.coords(1, mat([[0, 1], [1, 1]]))


def test_kernel_coords_are_the_free_rows():
    from exacthom.chains import kernel_coords
    from exacthom.sparse import kernel_with_free
    d = mat([[1, 2, 0, 1], [0, 0, 1, 1]])
    k, free = kernel_with_free(d)
    assert free == [1, 3]
    v = k.mul(mat([[2, 0], [QQ.of(1, 3), 1]]))
    assert kernel_coords(k, free, v) == mat([[2, 0], [QQ.of(1, 3), 1]])
    with pytest.raises(ValueError, match="column 0"):
        kernel_coords(k, free, mat([[1], [0], [0], [0]]))


def _degree_vectors(field):
    """(name, dim, vectors) of every degree's elimination in ChainSlice.
    _degree: the columns of d_{n+1} at the free rows F_n of d_n, which lie
    in dim = |F_n| positions.  The slices are the symmetric complex and
    the kernel of the comparison map on every preset through w = 3, and
    the Hochschild complex (M = A) of reference.fractional_trunc4 and
    reference.non_monomial."""
    from exacthom.algebras import PRESETS, Coefficients, preset
    from exacthom.hochschild import HochschildComplex
    from exacthom.sparse import kernel_with_free
    from exacthom.symhom import ComparisonData

    slices = []
    for name in sorted(PRESETS):
        for w in range(4):
            _, _, sub, total, _ = ComparisonData(preset(name, field), w,
                                                 3).ses()
            slices += [(f"{name} w={w} sub", sub),
                       (f"{name} w={w} total", total)]
    for alg in (reference.fractional_trunc4(field),
                reference.non_monomial(field)):
        hc = HochschildComplex(alg, Coefficients(alg, "A"))
        slices += [(f"{alg.name} w={w}", hc.slice(w, 4)) for w in range(4)]
    for name, sl in slices:
        for n in range(sl.top):
            _, free = kernel_with_free(sl.boundary(n))
            bnd = sl.boundary(n + 1).select_rows(free)
            yield f"{name} n={n}", len(free), bnd.columns_as_dicts()


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF(7)"])
def test_bounded_degree_elimination_matches_the_unbounded_one(
        monkeypatch, field):
    # the stop at |F_n| pivots and the annihilator certificate, as shipped
    # and built before the first column, against no bound at all
    from exacthom import sparse
    shipped = sparse._CERTIFY_GAP, sparse._CERTIFY_RATIO
    for name, dim, vectors in _degree_vectors(field):
        plain = low_pivots(field, vectors)
        for gap, ratio in (shipped, (10**9, 0)):
            monkeypatch.setattr(sparse, "_CERTIFY_GAP", gap)
            monkeypatch.setattr(sparse, "_CERTIFY_RATIO", ratio)
            assert low_pivots(field, vectors, dim) == plain, (name, gap)


def _counting(monkeypatch, field, vectors, dim=None, certify=None):
    """(pivots, reductions, skipped): low_pivots with the elimination step
    and the certificate's check counted."""
    from exacthom import sparse
    counts = {"reductions": 0, "skipped": 0}
    eliminate, kills = sparse._eliminate, sparse._Annihilator.kills

    def counted_eliminate(*args):
        counts["reductions"] += 1
        return eliminate(*args)

    def counted_kills(self, vec):
        killed = kills(self, vec)
        counts["skipped"] += killed
        return killed

    with monkeypatch.context() as m:
        m.setattr(sparse, "_eliminate", counted_eliminate)
        m.setattr(sparse._Annihilator, "kills", counted_kills)
        if certify is not None:
            m.setattr(sparse, "_CERTIFY_GAP", certify[0])
            m.setattr(sparse, "_CERTIFY_RATIO", certify[1])
        pivots = low_pivots(field, vectors, dim)
    return pivots, counts["reductions"], counts["skipped"]


def _slice_vectors(name, w, tag, n):
    from exacthom.algebras import preset
    from exacthom.sparse import kernel_with_free
    from exacthom.symhom import ComparisonData
    _, _, sub, total, _ = ComparisonData(preset(name), w, 3).ses()
    sl = {"sub": sub, "total": total}[tag]
    _, free = kernel_with_free(sl.boundary(n))
    return len(free), sl.boundary(n + 1).select_rows(free).columns_as_dicts()


def test_the_stop_fires_only_at_full_rank(monkeypatch):
    off = (-1, 0)
    # dual-numbers, symmetric, w = 3, n = 1: H_1 = 0, so the rank is |F_1|
    dim, vectors = _slice_vectors("dual-numbers", 3, "total", 1)
    plain, all_reductions, _ = _counting(monkeypatch, QQ, vectors)
    pivots, reductions, skipped = _counting(monkeypatch, QQ, vectors, dim,
                                            off)
    assert pivots == plain and len(pivots) == dim == 22
    assert skipped == 0 and reductions < all_reductions
    # trunc3, kernel slice, w = 3, n = 0: H_0 = 1, so every column is read
    dim, vectors = _slice_vectors("trunc3", 3, "sub", 0)
    plain, all_reductions, _ = _counting(monkeypatch, QQ, vectors)
    assert _counting(monkeypatch, QQ, vectors, dim, off) == (
        plain, all_reductions, 0)
    assert len(plain) == dim - 1


def test_the_certificate_skips_the_span_when_homology_is_nonzero(
        monkeypatch):
    # dual-numbers, symmetric, w = 3, n = 2: H_2 = 1, rank 128 of 129; the
    # stop cannot fire, and the annihilator (one vector) skips what is left
    dim, vectors = _slice_vectors("dual-numbers", 3, "total", 2)
    plain, all_reductions, _ = _counting(monkeypatch, QQ, vectors)
    assert len(plain) == dim - 1 == 128
    assert _counting(monkeypatch, QQ, vectors, dim, (-1, 0)) == (
        plain, all_reductions, 0)
    pivots, reductions, skipped = _counting(monkeypatch, QQ, vectors, dim)
    assert pivots == plain
    assert skipped > 0 and reductions < all_reductions


@pytest.mark.parametrize("mutation", ["solve", "add"])
def test_a_wrong_annihilator_is_rejected(monkeypatch, mutation):
    # a perturbed y (one more entry at a key) fails the check at build; an
    # update that forgets the new pivot fails it at the next pivot.  Either
    # way the certificate is dropped, elimination goes on over every
    # column, and the homology tables stay the same
    from exacthom import sparse
    from exacthom.algebras import preset
    from exacthom.symhom import SymmetricComplex

    if mutation == "solve":
        solve = sparse._Annihilator._solve

        def perturbed(self, c, pivots, above):
            y = solve(self, c, pivots, above)
            y[max(pivots)] = y.get(max(pivots), 0) + 1
            return y
        monkeypatch.setattr(sparse._Annihilator, "_solve", perturbed)
    else:
        def forgetful(self, k, piv):
            self._pop(k)
            self.holds = self._orthogonal(piv)
            return self.holds
        monkeypatch.setattr(sparse._Annihilator, "add", forgetful)
    built = []
    init = sparse._Annihilator.__init__

    def recorded(self, *args):
        init(self, *args)
        built.append(self)
    monkeypatch.setattr(sparse._Annihilator, "__init__", recorded)

    # the shipped schedule builds the annihilator at 121 of 129 pivots
    dim, vectors = _slice_vectors("dual-numbers", 3, "total", 2)
    plain, all_reductions, _ = _counting(monkeypatch, QQ, vectors)
    pivots, reductions, skipped = _counting(monkeypatch, QQ, vectors, dim)
    assert pivots == plain and len(built) == 1 and not built[0].holds
    if mutation == "solve":
        assert (reductions, skipped) == (all_reductions, 0)
    # the tables and representatives read off the bounded elimination
    sl = SymmetricComplex(preset("dual-numbers")).slice(3, 3)
    assert [sl.reps(n).ncols for n in range(3)] == [0, 0, 1]
    assert sl.homology()[:3] == [0, 0, 1]
