"""The Hochschild complex with coefficients and its subquotients: the
degenerate, normalized, ideal-only and shuffle pieces, the Eulerian
splitting, and the normalized Harrison complex with its comparison maps.

Basis elements of degree n in weight w are pairs (module index, slot tuple)
where slots take basic values (0 = unit, i = generator b_i) and the weights
add up to w.  Bases are ordered lexicographically so all matrices are
reproducible.

Hochschild homology is computed from the normalized complex.  For any
unital A, bimodule M and ground ring, the quotient of C(A, M) by the
degenerate chains D(A, M) (those with a unit slot) is the normalized complex
M (x) (A/k)^{(x)n}, and the projection is a quasi-isomorphism (Loday,
Cyclic Homology, 1.1.14-1.1.15).  Here A = k + I is augmented, so A/k is I
and the quotient has the unit-free tensors as basis.  These span a
subcomplex C(I, M): a face multiplies two slots of I, which stays in I, or
drops a slot.  So C(A, M) = C(I, M) + D(A, M) as complexes, D is acyclic,
and the unit-free slices alone give HH(A, M).
"""

from .chains import (CertificationError, SliceComplex, check_chain_map,
                     coords, span_slice)
from .groupalg import eulerian_idempotent, total_shuffle
from .sparse import (SparseMatrix, extend_basis_columns, image_pivot_columns,
                     rank)


class HochschildComplex(SliceComplex):
    """Slice-by-slice view of C(A, M) for a weight-graded algebra, or with
    variant 'I' of its subcomplex C(I, M) on the unit-free tensors.

    Variant 'A' (the default) is the full complex, with the unit slot 0;
    the Eulerian, shuffle, Barr and augmentation-splitting constructions
    act on it.  Variant 'I' is the normalized complex, quasi-isomorphic to
    C(A, M) (Loday 1.1.15): the faces are the same, and unit-free keys are
    closed under them, so its boundaries are the restriction of the full
    ones.  Bases, boundary matrices and operator actions are computed per
    (degree, weight); everything is exact and deterministic.
    """

    # bound in this class's own namespace so that per-class wrappers
    # (such as tracing spans) can replace them without touching the engine
    basis = SliceComplex.basis
    boundary = SliceComplex.boundary

    def __init__(self, alg, coeffs, variant="A"):
        if variant not in ("I", "A"):
            raise ValueError("variant must be 'I' or 'A'")
        super().__init__(alg.field)
        self.alg = alg
        self.coeffs = coeffs
        self.variant = variant

    def iter_basis(self, n, w):
        unit = self.variant == "A"
        for m in self.coeffs.basis():
            for slots in self.alg.tensors(n, w - self.coeffs.weight(m), unit):
                yield (m, slots)

    def count(self, n, w):
        """dim(n, w) from closed-form counts, without building the basis."""
        unit = self.variant == "A"
        return sum(self.alg.tensor_count(n, w - self.coeffs.weight(m), unit)
                   for m in self.coeffs.basis())

    @staticmethod
    def degree(key):
        return len(key[1])

    def face_terms(self, key, i):
        """The i-th face of a basis element, as [(key, coeff)] terms."""
        m, slots = key
        if i == 0:
            return [((m2, slots[1:]), c)
                    for m2, c in self.coeffs.act(slots[0], m)]
        if i < len(slots):
            return [((m, slots[:i - 1] + (l,) + slots[i + 1:]), c)
                    for l, c in self.alg.slot_product(slots[i - 1], slots[i])]
        return [((m2, slots[:-1]), c)
                for m2, c in self.coeffs.act(slots[-1], m)]

    # -- operator actions -------------------------------------------------------

    def action_matrix(self, elem, n, w):
        """The action of a group algebra element on the n slot positions.

        The coefficients are read as integer numerators over their common
        denominator (it divides n! for e_n^(i), and is 1 for shuffles and
        mod p), summed per entry as ints, and each entry is formed once.
        """
        if elem.n != n:
            raise ValueError("group algebra element size does not match degree")
        f = self.field
        nums, den = f.scaled(elem.coeffs)
        # sigma puts slot t at position sigma(t), so position k of the
        # image reads slot sigma^-1(k)
        moves = [([v - 1 for v in perm.inverse().image], c)
                 for perm, c in nums.items()]
        idx = self.index(n, w)
        sums = {}
        get = sums.get
        for j, (m, slots) in enumerate(self.basis(n, w)):
            for src, c in moves:
                key = (idx[(m, tuple([slots[t] for t in src]))], j)
                sums[key] = get(key, 0) + c
        return SparseMatrix(f, len(idx), len(idx), f.normal_terms(sums, den))

    def idempotent_matrix(self, n, w, i):
        """Matrix of e_n^(i); degree 0 carries the whole module in the i=1
        piece, and e_n^(i) = 0 for i > n."""
        d = self.dim(n, w)
        if n == 0:
            if i == 1:
                return SparseMatrix.identity(self.field, d)
            return SparseMatrix.zeros(self.field, d, d)
        if i > n:
            return SparseMatrix.zeros(self.field, d, d)
        return self.action_matrix(eulerian_idempotent(self.field, n, i), n, w)

    def shuffle_matrix(self, n, w):
        """Matrix of the total shuffle operator (zero for n < 2)."""
        d = self.dim(n, w)
        if n < 2:
            return SparseMatrix.zeros(self.field, d, d)
        return self.action_matrix(total_shuffle(self.field, n), n, w)


# -- structural subcomplexes ---------------------------------------------------

def is_degenerate(key):
    return any(v == 0 for v in key[1])


def is_ideal_only(key):
    return all(v != 0 for v in key[1])


def _every_key(key):
    return True


def _key_columns(hc, n, w, keep):
    """Indices of the basis elements of (n, w) selected by `keep`."""
    return [j for j, k in enumerate(hc.basis(n, w)) if keep(k)]


def _basis_columns(hc, w, top, keep):
    """Per degree, the identity columns of the keys `keep` selects."""
    return [SparseMatrix.identity(hc.field, hc.dim(n, w)).select_columns(
        _key_columns(hc, n, w, keep)) for n in range(top + 1)]


def _span_of_keys(hc, w, top, keep, modulo=None):
    """ChainSlice spanned by the basis elements selected by `keep`
    (modulo those selected by `modulo`), with its representative columns
    in full coordinates."""
    reps = _basis_columns(hc, w, top, keep)
    mod = modulo and _basis_columns(hc, w, top, modulo)
    return span_slice(lambda n: hc.boundary(n, w), reps, mod), reps


def degenerate_slice(hc, w, top):
    return _span_of_keys(hc, w, top, is_degenerate)


def ideal_slice(hc, w, top):
    """The complex C(I, M) sitting inside C(A, M) on unit-free tensors."""
    return _span_of_keys(hc, w, top, is_ideal_only)


def normalized_slice(hc, w, top):
    """The normalized complex: quotient of the full complex by the
    degenerate part, in coordinates of the unit-free basis elements."""
    return _span_of_keys(hc, w, top, is_ideal_only, modulo=is_degenerate)


def aug_split_iso(hc, w, top):
    """The normalized and the ideal-only slices, certified to have the same
    boundaries: the identity is a chain isomorphism between them."""
    norm, _ = normalized_slice(hc, w, top)
    ideal, _ = ideal_slice(hc, w, top)
    for n in range(1, top + 1):
        if norm.boundary(n) != ideal.boundary(n):
            raise CertificationError(
                f"normalized and ideal-only boundaries differ at degree {n}")
    return norm, ideal


# -- image subcomplexes (shuffle, Eulerian) -------------------------------------

def _image_reps(mat):
    """The lex-first columns of a matrix spanning its image."""
    return mat.select_columns(image_pivot_columns(mat))


def shuffle_slice(hc, w, top):
    """The shuffle subcomplex: image of the total shuffle operators."""
    reps = [_image_reps(hc.shuffle_matrix(n, w)) for n in range(top + 1)]
    return span_slice(lambda n: hc.boundary(n, w), reps), reps


def _eulerian_pieces(hc, w, top, i, keeps):
    """For each predicate in keeps, the ChainSlice and representative
    columns (in full coordinates) of the image of e^(i) on the basis
    elements it selects: e^(i)C(A,M) on all of them, e^(i)C(I,M) on the
    unit-free ones and e^(i)D(A,M) on the degenerate ones.  Each degree's
    e^(i) matrix is computed once for all the pieces."""
    reps = [[] for _ in keeps]
    for n in range(top + 1):
        pmat = hc.idempotent_matrix(n, w, i)
        for piece, keep in zip(reps, keeps):
            piece.append(_image_reps(
                pmat.select_columns(_key_columns(hc, n, w, keep))))
    return [(span_slice(lambda n: hc.boundary(n, w), piece), piece)
            for piece in reps]


def idempotent_slice(hc, w, top, i, keep=_every_key):
    """The i-th Eulerian summand e^(i) C(A, M), or with keep=is_ideal_only
    (is_degenerate) its piece e^(i) C(I, M) (e^(i) D(A, M))."""
    [piece] = _eulerian_pieces(hc, w, top, i, [keep])
    return piece


def hodge_commutes(hc, w, top, i):
    """Exact check that the boundary commutes with the e^(i) action."""
    for n in range(1, top + 1):
        b = hc.boundary(n, w)
        lhs = b.mul(hc.idempotent_matrix(n, w, i))
        rhs = hc.idempotent_matrix(n - 1, w, i).mul(b)
        if lhs != rhs:
            return False
    return True


def idempotent_dims_complete(hc, w, top):
    """Exact check that the Eulerian slice dimensions add up to the full
    slice dimension in every degree."""
    for n in range(top + 1):
        total = 0
        for i in range(1, max(n, 1) + 1):
            total += rank(hc.idempotent_matrix(n, w, i))
        if total != hc.dim(n, w):
            return False
    return True


# -- the Harrison quotient -------------------------------------------------------

class HarrisonQuotient:
    """C(A, M) / im(sh), in coordinates given by the standard basis
    elements that complete the shuffle image to a basis."""

    def __init__(self, hc, w, top):
        self.shuffle_reps, self.reps = [], []
        for n in range(top + 1):
            sreps = _image_reps(hc.shuffle_matrix(n, w))
            full_id = SparseMatrix.identity(hc.field, hc.dim(n, w))
            self.shuffle_reps.append(sreps)
            self.reps.append(full_id.select_columns(
                extend_basis_columns(sreps, full_id)))
        self.chain = span_slice(lambda n: hc.boundary(n, w), self.reps,
                                self.shuffle_reps)


def barr_map(hc, w, top):
    """The composite e^(1) C(A,M) -> C(A,M) -> C(A,M)/Sh as per-degree
    matrices, with the slices on both sides.

    Over a field of characteristic 0 (or large enough p) this is an
    isomorphism in every degree; the caller checks the rank identity.
    """
    e1_chain, e1_reps = idempotent_slice(hc, w, top, 1)
    quot = HarrisonQuotient(hc, w, top)
    mats = [coords(quot.reps[n], e1_reps[n], quot.shuffle_reps[n])
            for n in range(top + 1)]
    return mats, e1_chain, quot


# -- normalized Harrison complex ---------------------------------------------------

class NormalizedHarrison:
    """The splitting e^(i) C(A,M) = e^(i) C(I,M) + e^(i) D(A,M) with the
    comparison maps materialized as matrices.

    Per degree: columns of `c_reps`, `i_reps`, `d_reps` are bases (in full
    slice coordinates) of e^(i)C(A,M), e^(i)C(I,M) and e^(i)D(A,M); every
    basis element is unit-free or degenerate, so the last two span the
    first, and independently once i + d = c is checked.  The columns of
    `q_reps` (those of c_reps extending d_reps) span the quotient
    e^(i)C(A,M)/e^(i)D(A,M); the maps inclusion/quotient/collapse are
    coordinates in these bases, and the composite collapse o quotient o
    inclusion is certified to be the identity.
    """

    def __init__(self, hc, w, top, i=1):
        self.hc = hc
        self.top = top
        ((self.c_chain, self.c_reps), (self.i_chain, self.i_reps),
         (self.d_chain, self.d_reps)) = _eulerian_pieces(
            hc, w, top, i, [_every_key, is_ideal_only, is_degenerate])
        self.q_reps, self.inclusion, self.quotient, self.collapse = \
            [], [], [], []
        for n, (c_reps, i_reps, d_reps) in enumerate(
                zip(self.c_reps, self.i_reps, self.d_reps)):
            if i_reps.ncols + d_reps.ncols != c_reps.ncols:
                raise CertificationError(
                    f"e^({i}) splitting dimension mismatch at degree {n}: "
                    f"{i_reps.ncols} + {d_reps.ncols} != {c_reps.ncols}")
            # the quotient by the degenerate part is spanned by the columns
            # of c_reps extending d_reps
            q_reps = c_reps.select_columns(
                extend_basis_columns(d_reps, c_reps))
            self.q_reps.append(q_reps)
            self.inclusion.append(coords(c_reps, i_reps))
            self.quotient.append(coords(q_reps, c_reps, d_reps))
            # collapse of the quotient onto the ideal part
            self.collapse.append(coords(i_reps, q_reps, d_reps))
        self.quot_chain = span_slice(lambda n: hc.boundary(n, w),
                                     self.q_reps, self.d_reps)

    def composite_is_identity(self):
        """The collapse-quotient-inclusion composite on e^(i)C(I,M)."""
        for n in range(self.top + 1):
            comp = self.collapse[n].mul(self.quotient[n]).mul(self.inclusion[n])
            if comp != SparseMatrix.identity(self.hc.field, comp.nrows):
                return False
        return True

    def kernel_dims_match_degenerate(self):
        """dim ker(collapse o quotient) equals the degenerate dimension."""
        for n in range(self.top + 1):
            fq = self.collapse[n].mul(self.quotient[n])
            ker = fq.ncols - rank(fq)
            if ker != self.d_reps[n].ncols:
                return False
        return True

    def maps_are_chain_maps(self):
        """All three comparison maps intertwine the boundaries."""
        c, i, q = self.c_chain, self.i_chain, self.quot_chain
        return (check_chain_map(self.inclusion, i, c)
                and check_chain_map(self.quotient, c, q)
                and check_chain_map(self.collapse, q, i))


def harrison_weight(hc, w, max_n):
    """Harrison homology dimensions of weight w in degrees 0..max_n,
    computed through both pipelines (Hochschild-mod-shuffles and the e^(1)
    ideal complex e^(1) C(I, M)) and certified to agree."""
    top = max_n + 1
    dims_quot = HarrisonQuotient(hc, w, top).chain.homology()
    ideal, _ = idempotent_slice(hc, w, top, 1, is_ideal_only)
    dims_ideal = ideal.homology()
    for n in range(max_n + 1):
        if dims_quot[n] != dims_ideal[n]:
            raise CertificationError(
                f"Harrison pipelines disagree at degree {n}, weight {w}: "
                f"quotient {dims_quot[n]} vs e^(1) ideal {dims_ideal[n]}")
    return dims_quot[:max_n + 1]


def harrison_homology(alg, coeffs, max_n, max_w):
    """Harrison homology dimensions per (degree, weight), each weight
    certified by harrison_weight."""
    hc = HochschildComplex(alg, coeffs)
    table = {}
    for w in range(max_w + 1):
        for n, d in enumerate(harrison_weight(hc, w, max_n)):
            table[(n, w)] = d
    return table


def hochschild_homology(alg, coeffs, max_n, max_w):
    """Hochschild homology dimensions per (degree, weight), from the
    normalized complex C(I, M): A is augmented, so the normalized quotient
    of C(A, M) is its unit-free subcomplex, and the quotient map is a
    quasi-isomorphism (Loday 1.1.15)."""
    return HochschildComplex(alg, coeffs, "I").homology_table(max_n, max_w)
