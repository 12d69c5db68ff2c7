"""The Hochschild complex with coefficients and its subquotients: the
normalized quotient, the Eulerian splitting, the Harrison quotient by
shuffles, and the normalized Harrison complex with its comparison maps.

Basis elements of degree n in weight w are pairs (module index, slot tuple)
where slots take basic values (0 = unit, i = generator b_i) and the weights
add up to w.  Bases are ordered lexicographically so all matrices are
reproducible.

Hochschild and Harrison homology are computed from the normalized
complex.  For any unital A, bimodule M and ground ring, the quotient of
C(A, M) by the degenerate chains D(A, M) (those with a unit slot) is the
normalized complex M (x) (A/k)^{(x)n}, and the projection is a
quasi-isomorphism (Loday, Cyclic Homology, 1.1.14-1.1.15).  Here
A = k + I is augmented, so A/k is I and the quotient has the unit-free
tensors as basis.  These span a subcomplex C(I, M): a face multiplies
two slots of I, which stays in I, or drops a slot.  So C(A, M) =
C(I, M) + D(A, M) as complexes, D is acyclic, and the unit-free slices
alone give HH(A, M).  The shuffles and the Eulerian idempotents permute
slots, so they respect that splitting, and the unit-free slices give
Harrison homology too (harrison_weight).
Every standalone C(I, M) is the "I" variant (hochschild_homology,
harrison_weight, aug_split_iso).

Every subquotient is read off low pivots, with no solve.  A whole slice
modulo a span, C/im(sh) or C(A, M)/D(A, M), has the basis elements
off the keys of the span's low pivots as basis, with complement_coords as
coordinates; D is spanned by basis elements, so for it these are the
unit-free ones and entries.  An Eulerian piece e^(i)C is C modulo
im(1 - e^(i)), represented by the images of those basis elements, and
NormalizedHarrison's e^(i)C(A,M)/e^(i)D(A,M) is C modulo im(1 - e^(i))
and D(A, M).
"""

from .chains import (CertificationError, ChainSlice, SliceComplex,
                     check_chain_map, complement_coords, complement_slice)
from .groupalg import eulerian_idempotent, total_shuffle
from .sparse import SparseMatrix, low_pivots, rank


class HochschildComplex(SliceComplex):
    """Slice-by-slice view of C(A, M) for a weight-graded algebra (variant
    'A', the default, with the unit slot 0), or of its normalized complex
    C(I, M) on the unit-free tensors (variant 'I').  The faces are the
    same, and unit-free keys are closed under them, so the 'I' boundaries
    are the restriction of the full ones.  Bases, boundary matrices and
    operator actions are computed per (degree, weight); everything is
    exact and deterministic.
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

    def faces(self, key):
        """Faces 0..n of a basis element of degree n >= 1."""
        m, slots = key
        act, product = self.coeffs.act, self.alg.slot_product
        return ([[((m2, slots[1:]), c) for m2, c in act(slots[0], m)]]
                + [[((m, slots[:i - 1] + (l,) + slots[i + 1:]), c)
                    for l, c in product(slots[i - 1], slots[i])]
                   for i in range(1, len(slots))]
                + [[((m2, slots[:-1]), c) for m2, c in act(slots[-1], m)]])

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
        # image reads slot sigma^-1(k), the one point of sigma's fiber at k
        moves = [([v - 1 for (v,) in perm.fibers], c)
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


# -- the normalized quotient --------------------------------------------------

def is_degenerate(key):
    return any(v == 0 for v in key[1])


def is_ideal_only(key):
    return all(v != 0 for v in key[1])


def _every_key(key):
    return True


def normalized_slice(hc, w, top):
    """The normalized complex C(A, M)/D(A, M) on the unit-free basis
    elements.  D(A, M) is spanned by the degenerate ones, so the quotient's
    boundary is the full one on the unit-free rows and columns."""
    keep = [[j for j, key in enumerate(hc.basis(n, w)) if is_ideal_only(key)]
            for n in range(top + 1)]
    return ChainSlice(hc.field, [len(k) for k in keep], {
        n: hc.boundary(n, w).select_rows(keep[n - 1]).select_columns(keep[n])
        for n in range(1, top + 1)})


def aug_split_iso(hc, w, top):
    """The normalized quotient of the full complex hc and the unit-free
    complex C(I, M) that hochschild_homology computes from, certified to
    have the same boundaries: the identity is a chain isomorphism."""
    norm = normalized_slice(hc, w, top)
    ideal = HochschildComplex(hc.alg, hc.coeffs, "I").slice(w, top)
    for n in range(1, top + 1):
        if norm.boundary(n) != ideal.boundary(n):
            raise CertificationError(
                f"normalized and ideal-only boundaries differ at degree {n}")
    return norm, ideal


# -- Eulerian summands --------------------------------------------------------

def _eulerian_pieces(hc, w, top, i, keeps):
    """For each predicate in keeps, the image of e^(i) on the basis
    elements it selects: e^(i)C(A,M) on all of them, e^(i)C(I,M) on the
    unit-free ones and e^(i)D(A,M) on the degenerate ones, as (chain,
    reps, low, complement) with reps[n] in full coordinates.

    e^(i) is idempotent, so its kernel is im(1 - e^(i)), and it permutes
    slots, so it keeps the unit-free and the degenerate blocks apart.  So
    low[n] are the low pivots of the columns of 1 - e^(i) on the selected
    elements and of the unit vectors of the others, the indices
    complement[n] off their keys are the lex-first columns whose images
    span the piece, reps[n] are those images, and complement_coords reads
    coordinates in them.  Each degree's e^(i) matrix serves all pieces.

    An idempotent's rank is its trace, so each piece's size must equal the
    trace of e^(i) on the selected block, as field elements; a mismatch
    raises CertificationError, since then e^(i) is not idempotent."""
    field = hc.field
    pieces = [([], [], []) for _ in keeps]
    for n in range(top + 1):
        pmat = hc.idempotent_matrix(n, w, i)
        cols = pmat.columns_as_dicts()
        diag = [col.get(j, field.zero) for j, col in enumerate(cols)]
        for j, col in enumerate(cols):
            col = {r: -v for r, v in col.items()}
            col[j] = col.get(j, 0) + 1
            cols[j] = field.normal_terms(col)
        keys = hc.basis(n, w)
        for (reps, low, complement), keep in zip(pieces, keeps):
            low.append(low_pivots(field, [
                cols[j] if keep(key) else {j: field.one}
                for j, key in enumerate(keys)]))
            complement.append([t for t in range(len(keys))
                               if t not in low[-1]])
            trace = field.zero
            for d, key in zip(diag, keys):
                if keep(key):
                    trace = field.add(trace, d)
            if trace != field.of(len(complement[-1])):
                raise CertificationError(
                    f"e^({i}) is not idempotent at degree {n}, weight {w}: "
                    f"a piece of size {len(complement[-1])} has trace {trace}")
            reps.append(pmat.select_columns(complement[-1]))
    return [(complement_slice(lambda n: hc.boundary(n, w), *piece), *piece)
            for piece in pieces]


def idempotent_slice(hc, w, top, i):
    """The i-th Eulerian summand e^(i) of hc's complex: e^(i) C(A, M) on
    the full complex, e^(i) C(I, M) on the "I" variant."""
    return _eulerian_pieces(hc, w, top, i, [_every_key])[0][:2]


def hodge_checks(hc, w, top):
    """(commutes, complete), both exact: whether the boundary commutes
    with the e^(i) action for every i = 1..top, and whether the Eulerian
    slice dimensions add up to the full slice dimension in every degree
    0..top.  Each e_n^(i) matrix is built once, and only two degrees'
    matrices are held at a time."""
    commutes, complete = True, True
    below = None
    for n in range(top + 1):
        mats = [hc.idempotent_matrix(n, w, i) for i in range(1, top + 1)]
        if sum(map(rank, mats)) != hc.dim(n, w):
            complete = False
        if n and commutes:
            b = hc.boundary(n, w)
            commutes = all(b.mul(m) == m_below.mul(b)
                           for m, m_below in zip(mats, below))
        below = mats
    return commutes, complete


# -- the Harrison quotient ----------------------------------------------------

class HarrisonQuotient:
    """C/im(sh) of hc's complex (C(A, M) or C(I, M)) on the basis elements
    off the keys of low[n], the low pivots of the total shuffle's columns:
    classes[n] are the lex-first standard basis elements completing
    im(sh) to a basis."""

    def __init__(self, hc, w, top):
        self.low = [low_pivots(hc.field,
                               hc.shuffle_matrix(n, w).columns_as_dicts())
                    for n in range(top + 1)]
        self.classes = [[t for t in range(hc.dim(n, w)) if t not in low]
                        for n, low in enumerate(self.low)]
        self.chain = ChainSlice(hc.field, [len(c) for c in self.classes], {
            n: self.coords(n - 1, hc.boundary(n, w).select_columns(
                self.classes[n])) for n in range(1, top + 1)})

    def coords(self, n, vectors):
        """Coordinates modulo im(sh) of columns of degree n."""
        return complement_coords(vectors, self.low[n], self.classes[n])


def barr_map(hc, w, top):
    """The composite e^(1) C(A,M) -> C(A,M) -> C(A,M)/Sh as per-degree
    matrices, with the slices on both sides; the caller checks that it is
    an isomorphism (over F_p, see verify.require_shuffle_separates)."""
    e1_chain, e1_reps = idempotent_slice(hc, w, top, 1)
    quot = HarrisonQuotient(hc, w, top)
    return ([quot.coords(n, e1_reps[n]) for n in range(top + 1)], e1_chain,
            quot)


# -- normalized Harrison complex ---------------------------------------------------

class NormalizedHarrison:
    """The splitting e^(i) C(A,M) = e^(i) C(I,M) + e^(i) D(A,M) with the
    comparison maps materialized as matrices.

    Per degree: columns of `c_reps`, `i_reps`, `d_reps` are bases (in full
    slice coordinates) of e^(i)C(A,M), e^(i)C(I,M) and e^(i)D(A,M).  e^(i)
    keeps the unit-free and the degenerate blocks apart, so the columns of
    c_reps are those of i_reps and d_reps, once i + d = c is checked.  The
    quotient e^(i)C(A,M)/e^(i)D(A,M) is C(A,M)/(im(1 - e^(i)) + D(A,M)),
    whose low pivots are those of the unit-free piece: it is spanned by
    i_reps and its complex is `i_chain`.  `inclusion` (i -> c) and
    `quotient` (c -> i) are coordinates read off low pivots; the checks
    certify quotient o inclusion = 1, ker(quotient) of the degenerate
    dimension, and both maps as chain maps.
    """

    def __init__(self, hc, w, top, i=1):
        self.hc = hc
        self.top = top
        ((self.c_chain, self.c_reps, c_low, c_complement),
         (self.i_chain, self.i_reps, i_low, i_complement),
         (self.d_chain, self.d_reps, _, _)) = _eulerian_pieces(
            hc, w, top, i, [_every_key, is_ideal_only, is_degenerate])
        for n, (c_reps, i_reps, d_reps) in enumerate(
                zip(self.c_reps, self.i_reps, self.d_reps)):
            if i_reps.ncols + d_reps.ncols != c_reps.ncols:
                raise CertificationError(
                    f"e^({i}) splitting dimension mismatch at degree {n}: "
                    f"{i_reps.ncols} + {d_reps.ncols} != {c_reps.ncols}")
        self.inclusion = [complement_coords(*args) for args in zip(
            self.i_reps, c_low, c_complement)]
        self.quotient = [complement_coords(*args) for args in zip(
            self.c_reps, i_low, i_complement)]

    def composite_is_identity(self):
        """The quotient-inclusion composite on e^(i)C(I,M)."""
        for n in range(self.top + 1):
            comp = self.quotient[n].mul(self.inclusion[n])
            if comp != SparseMatrix.identity(self.hc.field, comp.nrows):
                return False
        return True

    def kernel_dims_match_degenerate(self):
        """dim ker(quotient) equals the degenerate dimension."""
        for n in range(self.top + 1):
            q = self.quotient[n]
            if q.ncols - rank(q) != self.d_reps[n].ncols:
                return False
        return True

    def maps_are_chain_maps(self):
        """The inclusion and the quotient intertwine the boundaries."""
        return (check_chain_map(self.inclusion, self.i_chain, self.c_chain)
                and check_chain_map(self.quotient, self.c_chain,
                                    self.i_chain))


def harrison_weight(alg, coeffs, w, max_n):
    """Harrison homology dimensions of weight w in degrees 0..max_n,
    computed through both pipelines on the normalized complex C(I, M)
    (the quotient C(I, M)/im(sh) and e^(1) C(I, M)) and certified to
    agree.  Each call builds its own C(I, M), so no weight's slices
    outlive it.

    sh and every e^(i) permute slots, so they preserve C(I, M) and
    D(A, M).  Where C/im(sh) = e^(1)C (verify.require_characteristic and
    require_shuffle_separates), it holds on both complexes, and e^(1)D(A,
    M) is a summand of the acyclic D(A, M), so both pipelines give the
    homology of C(A, M)/im(sh).  verify's barr and harrison suites
    certify those links on the full complex."""
    top = max_n + 1
    ideal = HochschildComplex(alg, coeffs, "I")
    dims_quot = HarrisonQuotient(ideal, w, top).chain.homology()
    dims_ideal = idempotent_slice(ideal, w, top, 1)[0].homology()
    for n in range(max_n + 1):
        if dims_quot[n] != dims_ideal[n]:
            raise CertificationError(
                f"Harrison pipelines disagree at degree {n}, weight {w}: "
                f"quotient {dims_quot[n]} vs e^(1) ideal {dims_ideal[n]}")
    return dims_quot[:max_n + 1]


def harrison_homology(alg, coeffs, max_n, max_w):
    """Harrison homology dimensions per (degree, weight), each weight
    certified by harrison_weight."""
    table = {}
    for w in range(max_w + 1):
        for n, d in enumerate(harrison_weight(alg, coeffs, w, max_n)):
            table[(n, w)] = d
    return table


def hochschild_homology(alg, coeffs, max_n, max_w):
    """Hochschild homology dimensions per (degree, weight), from the
    normalized complex C(I, M): A is augmented, so the normalized quotient
    of C(A, M) is its unit-free subcomplex, and the quotient map is a
    quasi-isomorphism (Loday 1.1.15)."""
    return HochschildComplex(alg, coeffs, "I").homology_table(max_n, max_w)
