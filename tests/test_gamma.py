import copy
import json
import pickle
import random
from itertools import combinations
from math import comb, factorial

import pytest

from exacthom.algebras import Coefficients, preset
from exacthom.chains import basis_map_matrix, check_chain_map
from exacthom.cli import main
from exacthom.fields import GF, QQ
from exacthom import chains, gamma
from exacthom.groupalg import Permutation
from exacthom.gamma import (GammaComplex, Surjection, gamma_homology,
                            prune_generator, prune_normalized,
                            prune_split_certificates, strings_to_point,
                            surjections)
from exacthom.sparse import SparseMatrix, kernel_basis, rank
from exacthom.symhom import FiberOrderedMap
from exacthom.verify import run_suite
from reference import span_slice


def stirling2(x, y):
    return sum((-1)**j * comb(y, j) * (y - j)**x for j in range(y + 1)) \
        // factorial(y)


@pytest.mark.parametrize("x,y", [(2, 1), (2, 2), (3, 2), (4, 2), (4, 3),
                                 (5, 3)])
def test_surjection_counts(x, y):
    assert len(surjections(x, y)) == factorial(y) * stirling2(x, y)


def test_surjection_counts_small():
    assert len(surjections(2, 1)) == 1
    assert len(surjections(2, 2)) == 2
    assert len(surjections(3, 2)) == 6


def test_surjection_guard():
    with pytest.raises(ValueError):
        surjections(2, 3)


def test_induced_tensor_map_examples():
    A = preset("trunc3")
    ident = Surjection(2, (1, 2))
    assert A.map_tensor(ident, (1, 2)) == [(((1, 2)), QQ.one)]
    collapse = Surjection(1, (1, 1))
    assert A.map_tensor(collapse, (1, 1)) == [((2,), QQ.one)]
    # x * x2 = 0 in trunc3: the term disappears
    assert A.map_tensor(collapse, (1, 2)) == []


def test_induced_tensor_map_functorial():
    A = preset("trunc4")
    rng = random.Random(2)
    for _ in range(50):
        x = rng.randint(1, 4)
        y = rng.randint(1, x)
        z = rng.randint(1, y)
        f = rng.choice(surjections(x, y))
        g = rng.choice(surjections(y, z))
        slots = tuple(rng.randint(0, 3) for _ in range(x))
        direct = dict(A.map_tensor(g.after(f), slots))
        staged = {}
        for mid, c1 in A.map_tensor(f, slots):
            for out, c2 in A.map_tensor(g, mid):
                staged[out] = QQ.add(staged.get(out, QQ.zero),
                                     QQ.mul(c1, c2))
        staged = {k: v for k, v in staged.items() if v != QQ.zero}
        assert direct == staged


def test_ith_component_examples():
    # the last face's components of a string are read off its face plan
    f1 = Surjection(2, (1, 1, 2))
    f2 = Surjection(1, (1, 1))
    (comp, pre, _), (comp2, pre2, _) = gamma._face_plan((f1, f2), False)[1]
    assert pre == (1, 2)
    assert comp == (Surjection(1, (1, 1)),)
    assert pre2 == (3,)
    assert comp2 == (Surjection(1, (1,)),)
    # normalized, the second component's string is an identity and drops
    assert gamma._face_plan((f1, f2), True)[1] == ((comp, pre, (3,)),)


def test_ith_component_length_one_string():
    comp, pre, _ = gamma._face_plan((Surjection(1, (1, 1, 1)),), True)[1][1]
    assert comp == () and pre == (2,)


def test_degree_one_boundary_formula():
    # f: 2 -> 1 on (x tensor x) with k coefficients over the dual numbers:
    # the multiplication face dies (x^2 = 0) and the component face dies
    # (eps(x) = 0), so the generator is a cycle
    A = preset("dual-numbers")
    gc = GammaComplex(A, Coefficients(A, "k"), "I")
    assert gc.boundary(1, 2).is_zero()
    # with A coefficients the component face survives into the module slot
    gca = GammaComplex(A, Coefficients(A, "A"), "I")
    b = gca.boundary(1, 2)
    assert not b.is_zero()


def test_boundary_squares_to_zero():
    for name in ("dual-numbers", "trunc3"):
        alg = preset(name)
        for kind in ("k", "A"):
            co = Coefficients(alg, kind)
            for variant in ("I", "A"):
                gc = GammaComplex(alg, co, variant)
                for w in range(4):
                    gc.slice(w, 3)


def test_degree_zero_is_tensor_algebra_piece():
    A = preset("dual-numbers")
    gc = GammaComplex(A, Coefficients(A, "A"), "A")
    # degree 0 carries single-slot tensors against the module
    assert gc.dim(0, 1) == 2  # x (x) 1  and  1 (x) x
    assert gc.dim(0, 0) == 0  # truncation: no strings with x <= 0


def test_prune_examples():
    key = ((Surjection(2, (1, 1, 2)), Surjection(1, (1, 1))), (1, 0, 2), 0)
    string, slots, m = prune_generator(key)
    assert slots == (1, 2) and m == 0
    assert string[0] == Surjection(2, (1, 2))   # identity on two points
    assert string[1] == Surjection(1, (1, 1))
    # in the normalized complex that identity kills the class
    assert prune_normalized(key) is None
    # unit-free generators are fixed
    ideal_key = ((Surjection(1, (1, 1)),), (1, 1), 0)
    assert prune_generator(ideal_key) == ideal_key
    # all-trivial tensors are sent to zero
    assert prune_generator(((Surjection(1, (1, 1)),), (0, 0), 0)) is None


# The matrix oracle of the streamed pruning check: the pruning map and the
# inclusion of the ideal complex as matrices, from the production primitives.

def _pruning_matrices(alg, co, w, top, normalized=True):
    full = GammaComplex(alg, co, "A", normalized)
    ideal = GammaComplex(alg, co, "I", normalized)
    pruner = prune_normalized if normalized else prune_generator
    prune = [basis_map_matrix(full, ideal, n, w, pruner)
             for n in range(top + 1)]
    include = [basis_map_matrix(ideal, full, n, w, lambda key: key)
               for n in range(top + 1)]
    return full, ideal, prune, include


def _retraction_is_identity(prune, include):
    return all(p.mul(i) == SparseMatrix.identity(p.field, p.nrows)
               for p, i in zip(prune, include))


def test_pruning_data_certificates():
    for name in ("dual-numbers", "trunc3"):
        alg = preset(name)
        for kind in ("k", "A"):
            co = Coefficients(alg, kind)
            for w in range(3):
                full, ideal, prune, include = _pruning_matrices(alg, co, w, 3)
                full_chain, ideal_chain = full.slice(w, 3), ideal.slice(w, 3)
                assert check_chain_map(prune, full_chain, ideal_chain)
                assert _retraction_is_identity(prune, include)
                reps = [kernel_basis(p) for p in prune]
                kchain = span_slice(full_chain.boundary, reps)
                for n in range(4):
                    assert rank(prune[n]) == ideal_chain.dims[n]
                    assert (full_chain.dims[n]
                            == ideal_chain.dims[n] + kchain.dims[n])


def test_pruning_homology_additivity():
    alg = preset("trunc3")
    co = Coefficients(alg, "k")
    for w in range(3):
        full, ideal, prune, _ = _pruning_matrices(alg, co, w, 4)
        full_chain = full.slice(w, 4)
        kchain = span_slice(full_chain.boundary,
                            [kernel_basis(p) for p in prune])
        hf = full_chain.homology()
        hi = ideal.slice(w, 4).homology()
        hk = kchain.homology()
        for n in range(4):
            assert hf[n] == hi[n] + hk[n], (w, n)


def test_streamed_certificates_match_matrix_path():
    # both presets, both coefficient modules, normalized or not, w <= 3
    for name in ("dual-numbers", "trunc3"):
        alg = preset(name)
        for kind in ("k", "A"):
            co = Coefficients(alg, kind)
            for normalized in (True, False):
                for w in range(4):
                    case = (name, kind, normalized, w)
                    res = prune_split_certificates(alg, co, w, 3, normalized)
                    full, ideal, prune, include = _pruning_matrices(
                        alg, co, w, 3, normalized)
                    full_chain = full.slice(w, 3)
                    ideal_chain = ideal.slice(w, 3)
                    assert check_chain_map(prune, full_chain,
                                           ideal_chain), case
                    assert _retraction_is_identity(prune, include), case
                    assert all(rank(p) == d for p, d in zip(
                        prune, ideal_chain.dims)), case
                    assert res["retraction_identity"], case
                    assert res["chain_map"] and res["surjective"], case
                    assert res["dims"] == list(zip(full_chain.dims,
                                                   ideal_chain.dims)), case


def test_pruning_check_streams_the_full_faces(monkeypatch):
    # the check sums the faces of each full generator itself: the
    # full-algebra variant's summed boundary is never built
    boundary_terms = GammaComplex.boundary_terms

    def guarded(self, key):
        if self.variant == "A":
            raise AssertionError("summed boundary of a full generator")
        return boundary_terms(self, key)

    monkeypatch.setattr(GammaComplex, "boundary_terms", guarded)
    alg = preset("trunc3")
    for kind in ("k", "A"):
        for normalized in (True, False):
            res = prune_split_certificates(alg, Coefficients(alg, kind), 3,
                                           3, normalized)
            assert res["chain_map"] and res["surjective"]


# Each fault doubles the faces i of degree-n generators of the full-algebra
# variant for which broken(i, n) holds.  It is checked on the smallest
# (preset, weight, top degree) where both the streamed check and the matrix
# oracle see it.  No slice of dual-numbers with w <= 3 and top <= 4 will do:
# there a doubled first or inner face shows only to the oracle, through the
# unit-free generators, and a doubled last face shows to neither.
BROKEN_FACES = {   # name: (broken, preset, w, top)
    "first": (lambda i, n: i == 0, "trunc3", 2, 1),
    "inner": (lambda i, n: i == 1 < n, "trunc3", 3, 2),
    "last": (lambda i, n: i == n, "trunc3", 2, 1),
}


@pytest.fixture(params=list(BROKEN_FACES))
def broken_full_face(request, monkeypatch):
    """Double one face of the full-algebra variant only, so that pruning
    no longer commutes with the boundary; gives the (preset, weight, top
    degree) to check."""
    broken, name, w, top = BROKEN_FACES[request.param]
    faces = GammaComplex.faces

    def doubled(self, key):
        out = faces(self, key)
        if self.variant != "A":
            return out
        n = len(key[0])
        return [[(k, self.field.mul(2, c)) for k, c in terms]
                if broken(i, n) else terms for i, terms in enumerate(out)]

    monkeypatch.setattr(GammaComplex, "faces", doubled)
    return name, w, top


def test_pruning_certificates_catch_a_broken_face(broken_full_face):
    name, w, top = broken_full_face
    alg = preset(name)
    co = Coefficients(alg, "k")
    assert not prune_split_certificates(alg, co, w, top)["chain_map"]
    full, ideal, prune, _ = _pruning_matrices(alg, co, w, top)
    # the doubled face breaks d o d = 0 too, so no ChainSlice of the full
    # variant can be built: compare prune o d with d o prune per degree
    assert any(prune[n - 1].mul(full.boundary(n, w))
               != ideal.boundary(n, w).mul(prune[n])
               for n in range(1, top + 1))


def test_verify_pruning_reports_a_broken_face(capsys, broken_full_face):
    name, w, top = broken_full_face
    code = main(["verify", "--suite", "pruning", "--preset", name,
                 "--max-degree", str(top), "--max-weight", str(w)])
    assert code == 1
    certs = json.loads(capsys.readouterr().out)["certifications"]
    failed = [c["name"] for c in certs if c["status"] == "fail"]
    assert f"pruning chain_map {name} w={w}" in failed


def test_pruning_certificates_catch_a_broken_pruner(monkeypatch):
    prune = gamma.prune_normalized

    def broken(key):
        slots = key[1]
        if 0 not in slots and slots[:1] == (2,):
            return None     # an ideal generator whose first slot is x^2
        return prune(key)

    monkeypatch.setattr(gamma, "prune_normalized", broken)
    alg = preset("trunc3")
    res = prune_split_certificates(alg, Coefficients(alg, "k"), 2, 3)
    assert not res["retraction_identity"]
    # the lost ideal generators are the pruner's images of nothing
    assert not res["surjective"]


def test_pruning_check_prunes_each_boundary_term_once_per_degree(
        monkeypatch):
    prune = gamma.prune_normalized
    calls = []

    def counted(key):
        calls.append(key)
        return prune(key)

    monkeypatch.setattr(gamma, "prune_normalized", counted)
    alg = preset("trunc3")
    co = Coefficients(alg, "k")
    res = prune_split_certificates(alg, co, 3, 4)
    assert res["retraction_identity"] and res["chain_map"]
    assert res["surjective"]
    # one call per ideal generator, per full generator carrying a unit,
    # and per distinct boundary term of those generators in each degree
    full = GammaComplex(alg, co, "A")
    expected = 0
    for n in range(5):
        with_unit = [g for g in full.iter_basis(n, 3) if 0 in g[1]]
        terms = {t for g in with_unit if n for t in full.boundary_terms(g)}
        expected += res["dims"][n][1] + len(with_unit) + len(terms)
    assert len(calls) == expected


def test_pruning_certificates_catch_a_foreign_unit_free_generator(
        monkeypatch):
    # the unit-free full generators stand for their own pruned images only
    # if they are exactly the ideal generators
    enumerate_basis = GammaComplex.iter_basis

    def swapped(self, n, w):
        keys = list(enumerate_basis(self, n, w))
        if self.variant == "A" and n == 1:
            i = next(i for i, k in enumerate(keys) if 0 not in k[1])
            keys[i] = next(k for k in enumerate_basis(self, n, w + 1)
                           if 0 not in k[1])
        return iter(keys)

    monkeypatch.setattr(GammaComplex, "iter_basis", swapped)
    alg = preset("trunc3")
    res = prune_split_certificates(alg, Coefficients(alg, "k"), 2, 3)
    assert res["retraction_identity"] and res["chain_map"]
    assert not res["surjective"]


def test_gamma_iso_suite_assembles_each_boundary_slice_once(monkeypatch):
    boundary = GammaComplex.boundary
    assembled = []

    def counted(self, n, w):
        if (n, w) not in self._boundary:
            assembled.append((self.alg.name, self.variant, n, w))
        return boundary(self, n, w)

    monkeypatch.setattr(GammaComplex, "boundary", counted)
    checks, _ = run_suite("gamma-iso")
    assert all(c.ok for c in checks)
    assert ("dual-numbers", "I", 4, 3) in assembled
    assert len(assembled) == len(set(assembled))


def test_gamma_iso_suite_ranks_each_boundary_once(monkeypatch):
    # both checks read one dual-numbers ideal table
    ranked = []
    rank = chains.rank

    def recording(matrix, limit=None):
        ranked.append(matrix)  # kept alive, so no id is reused
        return rank(matrix, limit)

    monkeypatch.setattr(chains, "rank", recording)
    checks, _ = run_suite("gamma-iso")
    assert all(c.ok for c in checks)
    assert len({id(m) for m in ranked}) == len(ranked)


@pytest.mark.parametrize("name", ["dual-numbers", "trunc3"])
def test_unit_free_generators_have_the_ideal_faces(name):
    # prune_split_certificates compares only the unit-carrying full
    # generators; for the unit-free ones the chain map law follows from
    # retraction_identity because both variants give them the same faces
    alg = preset(name)
    for kind in ("k", "A"):
        co = Coefficients(alg, kind)
        for normalized in (True, False):
            full = GammaComplex(alg, co, "A", normalized)
            ideal = GammaComplex(alg, co, "I", normalized)
            for n in range(1, 4):
                for w in range(4):
                    for key in full.iter_basis(n, w):
                        if 0 in key[1]:
                            continue
                        faces = full.faces(key)
                        assert len(faces) == n + 1, key
                        assert faces == ideal.faces(key), key


def test_gamma_homology_dual_numbers():
    A = preset("dual-numbers")
    co = Coefficients(A, "k")
    ti = gamma_homology(A, co, "I", 2, 2)
    assert ti[(0, 1)] == 1
    assert ti[(1, 2)] == 1
    assert ti[(0, 2)] == 0
    ta = gamma_homology(A, co, "A", 2, 2)
    assert ti == ta


def test_normalized_matches_unnormalized_homology():
    A = preset("trunc3")
    co = Coefficients(A, "k")
    for variant in ("I", "A"):
        for w in range(3):
            norm = GammaComplex(A, co, variant, normalized=True)
            raw = GammaComplex(A, co, variant, normalized=False)
            hn = norm.slice(w, 3).homology()
            hr = raw.slice(w, 3).homology()
            assert hn[:-1] == hr[:-1], (variant, w, hn, hr)


def test_strings_cache_shapes():
    assert strings_to_point(1, 0) == ((),)
    assert strings_to_point(2, 0) == ()
    assert len(strings_to_point(2, 1)) == 1  # only 2 -> 1
    assert len(strings_to_point(3, 1)) == 1
    # length 2 from 3: through 2 (6 surjections) or through 3 (5 non-identity)
    assert len(strings_to_point(3, 2)) == 6 + 5


def test_prune_matrix_on_normalized_slices():
    alg = preset("trunc3")
    full, ideal, prune, _ = _pruning_matrices(alg, Coefficients(alg, "k"),
                                              2, 2)
    assert prune[2].shape == (ideal.dim(2, 2), full.dim(2, 2))


def test_degree_one_boundary_exact_terms_with_algebra_coefficients():
    # f: 2 -> 1 on (x tensor x) over trunc3 with module A:
    # face 0 gives x^2 against the unit module slot, the component face
    # gives x against the module slot x, twice
    B = preset("trunc3")
    gc = GammaComplex(B, Coefficients(B, "A"), "I")
    key = ((Surjection(1, (1, 1)),), (1, 1), 0)
    terms = gc.boundary_terms(key)
    assert terms == {
        ((), (2,), 0): QQ.one,
        ((), (1,), 1): QQ.of(-2),
    }


def test_action_size_mismatch_rejected():
    from exacthom.hochschild import HochschildComplex
    from exacthom.groupalg import GroupAlgebraElement
    A = preset("dual-numbers")
    hc = HochschildComplex(A, Coefficients(A, "k"))
    with pytest.raises(ValueError):
        hc.action_matrix(GroupAlgebraElement.unit(QQ, 3), 2, 2)


def test_string_counts_against_transfer_matrix():
    # independent oracle: the number of length-n strings ending at the
    # point equals a weighted path count with weights = surjection counts
    from math import comb as _comb, factorial as _fact

    def nonid_surj(x, y):
        count = sum((-1)**j * _comb(y, j) * (y - j)**x for j in range(y + 1))
        return count - (1 if x == y else 0)

    maxx = 4
    for x in range(1, maxx + 1):
        paths = {y: (1 if y == x else 0) for y in range(1, maxx + 1)}
        for n in range(0, 5):
            expected = paths.get(1, 0) if n > 0 else (1 if x == 1 else 0)
            if n > 0:
                assert len(strings_to_point(x, n)) == expected, (x, n)
            nxt = {}
            for y, c in paths.items():
                for z in range(1, y + 1):
                    nxt[z] = nxt.get(z, 0) + c * nonid_surj(y, z)
            paths = nxt


def test_gamma_homology_prime_field_matches_rational():
    co_q = Coefficients(preset("dual-numbers"), "k")
    alg5 = preset("dual-numbers", GF(5))
    co_5 = Coefficients(alg5, "k")
    assert gamma_homology(preset("dual-numbers"), co_q, "I", 2, 2) \
        == gamma_homology(alg5, co_5, "I", 2, 2)


# -- interning ---------------------------------------------------------------

# (class, cod, data, is the identity) for the three classes built on the
# interning core; the surjections keep the test ids they had before the
# other classes joined them
VALID = [
    pytest.param(Surjection, 2, (1, 2), True, id="2-images0"),
    pytest.param(Surjection, 1, (1, 1), False, id="1-images1"),
    pytest.param(Surjection, 2, (1, 1, 2), False, id="2-images2"),
    pytest.param(Surjection, 1, (1,), True, id="1-images3"),
    pytest.param(Surjection, 1, (1, 1, 1), False, id="1-images4"),
    pytest.param(FiberOrderedMap, 2, ((1,), (2,)), True, id="fom-identity"),
    pytest.param(FiberOrderedMap, 1, ((2, 1),), False, id="fom-collapse"),
    pytest.param(FiberOrderedMap, 2, ((3, 1), (2,)), False, id="fom-epi"),
    # delta_face(2, 1), which is not an epimorphism
    pytest.param(FiberOrderedMap, 3, ((), (1,), (2,)), False,
                 id="fom-delta_face"),
    pytest.param(Permutation, 1, (1,), True, id="perm-one"),
    pytest.param(Permutation, 3, (1, 2, 3), True, id="perm-identity"),
    pytest.param(Permutation, 3, (2, 3, 1), False, id="perm-cycle"),
    pytest.param(Permutation, 4, (1, 2, 4, 3), False, id="perm-swap"),
]


def _build(cls, cod, data):
    # a permutation is built from its image tuple alone: cod is its length
    return cls(data) if cls is Permutation else cls(cod, data)


@pytest.mark.parametrize("cls,cod,data,is_id", VALID)
def test_surjection_is_interned(cls, cod, data, is_id):
    s = _build(cls, cod, data)
    assert _build(cls, cod, [list(d) if isinstance(d, tuple) else d
                             for d in data]) is s
    assert s.cod == cod and getattr(s, cls._by) == data
    assert s.dom == len(s.images) == sum(map(len, s.fibers))
    assert s.is_identity() == is_id
    assert s.images == tuple(s(i) for i in range(1, s.dom + 1))
    assert cls._interned[(cod, data)] is s


@pytest.mark.parametrize("cls,cod,data", [
    pytest.param(Surjection, 2, (1, 3), id="2-images0"),
    pytest.param(Surjection, 1, (0, 1), id="1-images1"),
    pytest.param(Surjection, 2, (1, 1), id="2-images2"),
    pytest.param(Surjection, 3, (1, 3, 1), id="3-images3"),
    pytest.param(FiberOrderedMap, 2, ((1,), (1,)), id="fom-overlap"),
    pytest.param(FiberOrderedMap, 2, ((1, 2),), id="fom-fiber-count"),
    pytest.param(FiberOrderedMap, 1, ((1, 3),), id="fom-gap"),
    pytest.param(Permutation, 3, (1, 1, 2), id="perm-repeat"),
    pytest.param(Permutation, 2, (0, 1), id="perm-zero"),
    pytest.param(Permutation, 2, (1, 3), id="perm-outside")])
def test_invalid_surjection_rejected_and_not_interned(cls, cod, data):
    with pytest.raises(ValueError):
        _build(cls, cod, data)
    assert (cod, data) not in cls._interned
    with pytest.raises(ValueError):
        _build(cls, cod, data)


@pytest.mark.parametrize("cls,cod,data,is_id", VALID)
def test_pickle_and_copy_return_the_interned_surjection(cls, cod, data,
                                                       is_id):
    s = _build(cls, cod, data)
    assert pickle.loads(pickle.dumps(s)) is s
    assert copy.copy(s) is s
    assert copy.deepcopy(s) is s
    key = ((s,), (1,) * s.dom, 0)
    assert pickle.loads(pickle.dumps(key)) == key


def test_fiber_ordered_map_underlying_is_interned():
    fom = FiberOrderedMap(2, [(3, 1), (2,)])
    assert fom.underlying() is Surjection(2, (1, 2, 1))


# -- the face and prune plans against the definition --------------------------

# Reference implementations that follow the definitions per generator: every
# restriction, composite and component is recomputed, with no plan or cache.

def _ref_prune_string(string, kept):
    new_string = []
    current = kept
    for f in string:
        image = sorted({f(p) for p in current})
        relabel = {v: t for t, v in enumerate(image, start=1)}
        new_string.append(Surjection(len(image), tuple(relabel[f(p)]
                                                       for p in current)))
        current = image
    return tuple(new_string)


def _ref_ith_component(string, i):
    """The part of (f_1, .., f_n) lying over element i of the domain of the
    last morphism: the restricted, order-preservingly re-indexed string of
    f_1 .. f_{n-1}, plus the ordered preimage of i in the initial domain.
    For a length-1 string the component is the empty string at the
    one-point set and the preimage is {i}."""
    preimage = (i,)
    for f in reversed(string[:-1]):
        preimage = tuple(p for p in range(1, f.dom + 1) if f(p) in preimage)
    return _ref_prune_string(string[:-1], preimage), preimage


def _ref_components(string, normalized):
    """(component string, preimage, other positions) of every component
    of the last face that stays in the complex."""
    out = []
    for t in range(1, string[-1].dom + 1):
        comp_string, preimage = _ref_ith_component(string, t)
        if normalized and any(f.is_identity() for f in comp_string):
            continue
        others = tuple(p for p in range(1, string[0].dom + 1)
                       if p not in preimage)
        out.append((comp_string, preimage, others))
    return tuple(out)


def _ref_prune_generator(key):
    string, slots, m = key
    kept = tuple(p for p, v in enumerate(slots, start=1) if v != 0)
    if not kept:
        return None
    if len(kept) == len(slots):
        return key
    return (_ref_prune_string(string, kept),
            tuple(slots[p - 1] for p in kept), m)


def _ref_prune_normalized(key):
    pruned = _ref_prune_generator(key)
    if pruned is None or any(f.is_identity() for f in pruned[0]):
        return None
    return pruned


def _ref_faces(gc, key):
    """Faces 0..n of a generator, each built from its definition."""
    return [_ref_face(gc, key, i) for i in range(len(key[0]) + 1)]


def _ref_face(gc, key, i):
    def is_basis_string(string):
        return not gc.normalized or all(not f.is_identity() for f in string)

    string, slots, m = key
    n = len(string)
    out = []
    if i == 0:
        new_string = string[1:]
        if is_basis_string(new_string):
            for new_slots, c in gc.alg.map_tensor(string[0], slots):
                out.append(((new_string, new_slots, m), c))
    elif i < n:
        comp = Surjection(string[i].cod, tuple(
            string[i](v) for v in string[i - 1].images))
        if not (gc.normalized and comp.is_identity()):
            new_string = string[:i - 1] + (comp,) + string[i + 1:]
            out.append(((new_string, slots, m), gc.field.one))
    else:
        for comp_string, preimage, others in _ref_components(
                string, gc.normalized):
            new_slots = tuple(slots[p - 1] for p in preimage)
            rest = [slots[p - 1] for p in others]
            for m2, c in gc.coeffs.act_all(rest, m):
                out.append(((comp_string, new_slots, m2), c))
    return out


def _assert_key_matches_reference(gc, key):
    assert prune_generator(key) == _ref_prune_generator(key), key
    assert prune_normalized(key) == _ref_prune_normalized(key), key
    assert gc.faces(key) == _ref_faces(gc, key), key


@pytest.mark.parametrize("normalized", [True, False])
def test_plans_match_the_definition_on_every_small_string(normalized):
    alg = preset("trunc3")
    gc = GammaComplex(alg, Coefficients(alg, "A"), "A", normalized)
    for x in range(1, 5):
        subsets = [kept for r in range(1, x + 1)
                   for kept in combinations(range(1, x + 1), r)]
        for n in range(1, 4):
            for string in strings_to_point(x, n, normalized):
                assert gamma._face_plan(string, normalized)[1] \
                    == _ref_components(string, normalized), string
                for kept in subsets:
                    key = (string, tuple(1 if p in kept else 0
                                         for p in range(1, x + 1)), 0)
                    assert prune_generator(key) == _ref_prune_generator(key)
                    assert prune_normalized(key) \
                        == _ref_prune_normalized(key)
                for slots in ((1,) * x, tuple(p % 3 for p in range(x))):
                    for m in (0, 1):
                        _assert_key_matches_reference(gc, (string, slots, m))
                assert prune_generator((string, (0,) * x, 0)) is None
                assert prune_normalized((string, (0,) * x, 0)) is None


@pytest.mark.parametrize("normalized", [True, False])
def test_plans_match_the_definition_on_trunc3_basis_keys(normalized):
    alg = preset("trunc3")
    for kind in ("k", "A"):
        gc = GammaComplex(alg, Coefficients(alg, kind), "A", normalized)
        for w in range(4):
            for n in range(1, 4):
                for key in gc.iter_basis(n, w):
                    _assert_key_matches_reference(gc, key)


def test_plan_caches_are_keyed_by_morphisms_and_strings():
    # pruned strings are not cached per process: the pruning check keeps
    # its own memo of pruned terms for one degree
    assert not hasattr(gamma._prune_string, "cache_info")
    for cache in (gamma._face_plan, gamma._restrict):
        cache.cache_clear()
    alg = preset("trunc3")
    res = prune_split_certificates(alg, Coefficients(alg, "k"), 3, 4)
    assert res["chain_map"] and res["surjective"]
    strings = sum(len(strings_to_point(x, n)) for x in range(1, 4)
                  for n in range(5))
    morphisms = sum(len(surjections(x, y)) for x in range(1, 4)
                    for y in range(1, x + 1))
    assert 0 < gamma._face_plan.cache_info().currsize <= strings
    assert 0 < gamma._restrict.cache_info().currsize <= morphisms * 2 ** 3
