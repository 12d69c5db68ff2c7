"""Bounded chain-complex slices, the slice engine behind every theory's
complex, and exact homology.

A ChainSlice holds the degrees 0..N of a complex in one internal weight.
Degrees above N are treated as zero, so the homology in degree N is only
meaningful when the caller built one degree more than it reports (the
theory-level drivers do exactly that).

Each boundary is eliminated once, by low_pivots, into one memo per
degree that serves the rank-only homology(), the representatives and the
homology coordinates.  It stops once the rank is known, at dim Z_n
pivots (a bound from d o d = 0), and when H_n != 0 an annihilator
certificate skips the columns already in the span.  Every subquotient
is read without a solve, in one of two ways.  A quotient by a span has
the unit vectors off the keys of its low pivots as basis, read by
complement_coords (homology here, the Harrison quotient and the Eulerian
pieces too).  A kernel basis is 1 at its own free row and 0 at the
other free rows, so a vector's coordinates in it are its entries at the
free rows (kernel_coords).  A subcomplex spanned by either kind of
basis reads each boundary that way; complement_slice certifies each
boundary by one product.

A short exact sequence 0 -> ker p -> total -> quot -> 0 is taken in
basis-map form: KernelSlice(p, total) is the kernel of a basis map p in
closed form, and check_ses certifies only p (surjective, a chain map).
The connecting map is read off p's section and the kernel's free rows.
"""

from .sparse import (SparseMatrix, kernel_with_free, low_coords, low_pivots,
                     rank)


class CertificationError(AssertionError):
    """An exact identity asserted by the theory failed on real data."""


class NotAComplexError(CertificationError, ValueError):
    """Consecutive boundaries of a slice do not compose to zero."""


class NotExactError(CertificationError, ValueError):
    """A short exact sequence that check_ses refuses."""


class SliceComplex:
    """A weight-graded complex whose boundary is an alternating sum of
    faces, viewed one (degree, weight) slice at a time.

    A theory supplies iter_basis(n, w) (the basis elements of a slice, in
    any order), faces(key) (every face of a generator of degree n >= 1 in
    one call: faces 0..n, the i-th as [(key, coeff)] terms) and sort_key
    (the canonical basis order; None sorts the keys themselves).  Bases
    and boundary matrices are cached per (n, w), so every matrix is
    reproducible.  The theories also give count(n, w), dim(n, w) from
    closed-form counts, so that a size guard can refuse a slice without
    enumerating it.
    """

    sort_key = None

    def __init__(self, field):
        self.field = field
        self._basis = {}
        self._boundary = {}

    def basis(self, n, w):
        key = (n, w)
        if key not in self._basis:
            self._basis[key] = tuple(sorted(self.iter_basis(n, w),
                                            key=self.sort_key))
        return self._basis[key]

    def index(self, n, w):
        return {k: i for i, k in enumerate(self.basis(n, w))}

    def dim(self, n, w):
        return len(self.basis(n, w))

    def boundary_terms(self, key):
        """All terms of the alternating-sum boundary of one basis element:
        the even faces are added and the odd faces subtracted as they
        come, and each sum is put in the field's normal form once."""
        acc = {}
        get = acc.get
        for i, terms in enumerate(self.faces(key)):
            if i % 2:
                for tkey, c in terms:
                    acc[tkey] = get(tkey, 0) - c
            else:
                for tkey, c in terms:
                    acc[tkey] = get(tkey, 0) + c
        return self.field.normal_terms(acc)

    def boundary(self, n, w):
        key = (n, w)
        if key not in self._boundary:
            idx = self.index(n - 1, w)
            entries = {}
            for j, bkey in enumerate(self.basis(n, w)):
                for tkey, c in self.boundary_terms(bkey).items():
                    entries[(idx[tkey], j)] = c
            self._boundary[key] = SparseMatrix(
                self.field, len(idx), self.dim(n, w), entries)
        return self._boundary[key]

    def slice(self, w, top):
        dims = [self.dim(n, w) for n in range(top + 1)]
        bounds = {n: self.boundary(n, w) for n in range(1, top + 1)}
        return ChainSlice(self.field, dims, bounds)

    def homology_table(self, max_n, max_w):
        """Homology dimensions per (degree, weight), each weight computed
        from its slice through degree max_n + 1."""
        table = {}
        for w in range(max_w + 1):
            dims = self.slice(w, max_n + 1).homology()
            for n in range(max_n + 1):
                table[(n, w)] = dims[n]
        return table


def basis_map_matrix(src, dst, n, w, image):
    """Matrix of the map sending each basis element of src at (n, w) to
    the basis element image(key) of dst, or to zero when image gives None."""
    field = src.field
    idx = dst.index(n, w)
    entries = {}
    for j, key in enumerate(src.basis(n, w)):
        target = image(key)
        if target is not None:
            entries[(idx[target], j)] = field.one
    return SparseMatrix(field, len(idx), src.dim(n, w), entries)


class ChainSlice:
    """Degrees 0..N of a chain complex: basis sizes plus boundary matrices.

    boundaries[n] is the map from degree n to degree n-1, of shape
    dims[n-1] x dims[n].  The composite of consecutive boundaries is
    checked to vanish at construction.  Homology reads one memo per
    degree n: rk d_n, and the cycles and low pivots of _degree(n).
    """

    def __init__(self, field, dims, boundaries):
        self.field = field
        self.dims = list(dims)
        self.boundaries = dict(boundaries)
        self.top = len(self.dims) - 1
        self._ranks = {}
        self._homology = {}
        for n, mat in self.boundaries.items():
            if not 1 <= n <= self.top:
                raise ValueError(f"boundary degree {n} out of range")
            if mat.shape != (self.dims[n - 1], self.dims[n]):
                raise ValueError(
                    f"boundary {n} has shape {mat.shape}, "
                    f"expected {(self.dims[n - 1], self.dims[n])}"
                )
        for n in range(2, self.top + 1):
            prod = self.boundary(n - 1).mul(self.boundary(n))
            if not prod.is_zero():
                raise NotAComplexError(
                    f"d_{n-1} o d_{n} != 0: not a chain complex")

    def boundary(self, n):
        mat = self.boundaries.get(n)
        if mat is None:
            lo = self.dims[n - 1] if 1 <= n <= self.top + 1 else 0
            hi = self.dims[n] if 0 <= n <= self.top else 0
            mat = SparseMatrix.zeros(self.field, lo, hi)
        return mat

    def homology(self):
        """Homology dimensions of degrees 0..N, rank-only: dim H_n =
        dims[n] - rk d_n - rk d_{n+1}, each rank eliminated once unless
        _degree(n - 1) has recorded it (a boundary not given has rank 0).
        The ranks are taken in increasing degree, since d_{n-1} d_n = 0
        (certified at construction) bounds rk d_n by dim Z_{n-1} =
        dims[n-1] - rk d_{n-1}."""
        ranks = self._ranks
        for n in sorted(self.boundaries):
            if n not in ranks:
                ranks[n] = rank(self.boundaries[n],
                                self.dims[n - 1] - ranks.get(n - 1, 0))
        dims = [self.dims[n] - ranks.get(n, 0) - ranks.get(n + 1, 0)
                for n in range(self.top + 1)]
        if any(d < 0 for d in dims):
            # the boundaries do not form a complex
            raise AssertionError("negative homology dimension: broken complex")
        return dims

    def _degree(self, n):
        """(Z_n, F_n, low, reps): the kernel basis of d_n, its free rows,
        the low pivots of the rows F_n of d_{n+1}'s columns, and the
        positions in F_n that are not keys of low.  Keeping the rows F_n
        is injective on cycles and Z_n is the identity there, so len(low)
        = rk d_{n+1}, and reps are the lex-first cycles that extend the
        boundaries."""
        if n not in self._homology:
            cycles, free = kernel_with_free(self.boundary(n))
            bnd = self.boundary(n + 1).select_rows(free)
            low = low_pivots(self.field, bnd.columns_as_dicts(), len(free))
            self._ranks[n + 1] = len(low)
            reps = [t for t in range(len(free)) if t not in low]
            self._homology[n] = cycles, free, low, reps
        return self._homology[n]

    def reps(self, n):
        """The homology representatives of degree n, as columns."""
        cycles, _, _, reps = self._degree(n)
        return cycles.select_columns(reps)

    def coords(self, n, vectors):
        """Homology coordinates of cycle columns: the coefficients of the
        representatives when each column is written as a combination of
        them plus a boundary (dim H_n x ncols).  A column that is not a
        cycle raises ValueError.  In Z_n-coordinates the representatives
        are the unit vectors off the keys of low."""
        cycles, free, low, reps = self._degree(n)
        return complement_coords(kernel_coords(cycles, free, vectors), low,
                                 reps)


def complement_coords(vectors, low, complement):
    """Coordinates of columns modulo the span of the low pivots low, in
    the unit vectors at complement, the indices off the keys of low: the
    lex-first standard columns completing the span (row r: complement[r])."""
    field = vectors.field
    row = {t: r for r, t in enumerate(complement)}
    entries = {}
    for j, col in enumerate(vectors.columns_as_dicts()):
        for t, c in low_coords(field, col, low).items():
            entries[(row[t], j)] = c
    return SparseMatrix(field, len(complement), vectors.ncols, entries)


def kernel_coords(kernel, free, vectors):
    """Coordinates of the columns of vectors in a kernel basis whose column
    t is 1 at row free[t] and 0 at the other free rows: the rows free of
    vectors.  The product kernel x == vectors is checked exactly; a column
    outside the span of kernel raises ValueError."""
    x = vectors.select_rows(free)
    _certify_coords(kernel, x, vectors)
    return x


def _certify_coords(basis, x, vectors):
    """Raise ValueError naming the first column where basis x != vectors."""
    back = basis.mul(x)
    if back != vectors:
        bad = min(j for (_, j), _ in
                  back.entries.items() ^ vectors.entries.items())
        raise ValueError(f"column {bad} is not in the span")


def complement_slice(boundary, reps, low, complement):
    """ChainSlice of the columns of reps[n], when complement_coords(v,
    low[n], complement[n]) are the coordinates in reps[n] of any v in
    their span (as for the image of an idempotent, with low the low pivots
    of its kernel).  Each d_n is read that way off boundary(n) reps[n] and
    certified by one product, reps[n-1] d_n == boundary(n) reps[n]: a span
    not closed under the boundary raises CertificationError."""
    bounds = {}
    for n in range(1, len(reps)):
        image = boundary(n).mul(reps[n])
        bounds[n] = complement_coords(image, low[n - 1], complement[n - 1])
        try:
            _certify_coords(reps[n - 1], bounds[n], image)
        except ValueError as exc:
            raise CertificationError(
                f"boundary leaves the subcomplex at degree {n}: {exc}"
            ) from None
    return ChainSlice(reps[0].field, [r.ncols for r in reps], bounds)


def check_chain_map(f, src, dst):
    """Verify f commutes with the boundaries: f_{n-1} d_n = d_n f_n."""
    return all(f[n - 1].mul(src.boundary(n)) == dst.boundary(n).mul(f[n])
               for n in range(1, min(src.top, dst.top) + 1))


def induced_map_on_homology(f, src, dst, n):
    """Matrix of H_n(f) with respect to the canonical homology bases."""
    if not check_chain_map(f, src, dst):
        raise ValueError("not a chain map")
    return _induced(f, src, dst, n)


def _induced(f, src, dst, n):
    return dst.coords(n, f[n].mul(src.reps(n)))


def basis_map_section(proj):
    """(target, first) of a basis map, whose every column is zero or one
    entry 1 (any other column raises ValueError naming it): target[j] is
    the row column j hits and first[i] the first column hitting row i,
    None where there is none."""
    one = proj.field.one
    target = [None] * proj.ncols
    bad = set()
    for (i, j), v in proj.entries.items():
        if v != one or target[j] is not None:
            bad.add(j)
        target[j] = i
    if bad:
        raise ValueError(f"column {min(bad)} is not a basis vector or zero")
    first = [None] * proj.nrows
    for j, i in enumerate(target):
        if i is not None and first[i] is None:
            first[i] = j
    return target, first


class KernelSlice(ChainSlice):
    """ker proj as a subcomplex of total, in closed form, for a basis map
    proj with one matrix per degree of total (a column that is neither
    zero nor one entry 1 raises NotExactError).  first[n] is proj[n]'s
    section; inc[n] has one column per column j that is not the first of
    its fiber, e_j when j maps to zero and else e_j - e_j0 with j0 the
    first column with j's image, and free[n] lists those j.  Column t is
    1 at row free[n][t] and 0 at the other free rows, so d'_n is the rows
    free[n-1] of d_n inc_n, one product per degree.  check_ses certifies
    that d' is d restricted; here only d' o d' != 0 raises."""

    def __init__(self, proj, total):
        if [p.ncols for p in proj] != total.dims:
            raise ValueError(f"projection does not map from the degrees "
                             f"0..{total.top} of total")
        self.proj, self.total = list(proj), total
        self.inc, self.free, self.first = map(list, zip(*map(
            _basis_map_kernel, self.proj, range(total.top + 1))))
        super().__init__(total.field, [k.ncols for k in self.inc], {
            n: total.boundary(n).mul(self.inc[n]).select_rows(
                self.free[n - 1]) for n in range(1, total.top + 1)})


def _basis_map_kernel(proj, n):
    """(inc, free, first) of KernelSlice in degree n, in a call of its own
    so that its column list is gone before the products d_n inc_n."""
    try:
        target, first = basis_map_section(proj)
    except ValueError as exc:
        raise NotExactError(
            f"projection is not a basis map in degree {n}: {exc}") from None
    one, minus_one = proj.field.one, proj.field.of(-1)
    cols, free = [], []
    for j, i in enumerate(target):
        if i is None:
            cols.append({j: one})
        elif first[i] != j:
            cols.append({j: one, first[i]: minus_one})
        else:
            continue
        free.append(j)
    return SparseMatrix.from_columns(proj.field, proj.ncols, cols), free, first


def check_ses(sub, quot):
    """Verify 0 -> sub -> sub.total -> quot -> 0, sub a KernelSlice of
    proj, is a degreewise-exact sequence of chain maps, ranking nothing and
    forming no product with inc (a one-line NotExactError otherwise; a
    proj that does not map onto quot's degrees raises ValueError).

    By construction p o i = 0, and i is the identity at its free rows, so
    injective, with dim total - (rows hit by p) columns.  So im i = ker p
    once p hits every row, read off sub.first.  And p is a chain map, by
    both products.  Then so is i: p d i = d p i = 0 puts d_n i_n in ker
    p_{n-1} = im i_{n-1}, where a vector is i applied to its free rows,
    and d' is the rows free[n-1] of d_n i_n, so i d' = d i (and d' o d' =
    0, as i is injective; the kernel still checks it when built)."""
    if [p.nrows for p in sub.proj] != quot.dims:
        raise ValueError(f"projection onto dims {[p.nrows for p in sub.proj]}"
                         f", quotient of dims {quot.dims}")
    for n, first in enumerate(sub.first):
        if None in first:
            raise NotExactError(f"projection not surjective in degree {n}: "
                                f"no column hits row {first.index(None)}")
    if not check_chain_map(sub.proj, sub.total, quot):
        raise NotExactError("projection is not a chain map")


def connecting_homomorphism(sub, quot, n):
    """Zig-zag connecting map H_n(quot) -> H_{n-1}(sub) of a short exact
    sequence in basis-map form (check_ses): lift through the section of
    proj, apply the boundary, pull back at the free rows of inc."""
    check_ses(sub, quot)
    if not 1 <= n <= sub.top:
        raise ValueError(f"connecting map in degree {n}, outside "
                         f"1..{sub.top}")
    return _connecting(sub, quot, n, sub.first[n])


def _connecting(sub, quot, n, first):
    """Row i of the representatives lifts to row first[i], so proj lifts =
    reps; the lifts' boundary lies in ker proj = im inc, pulled back at its
    free rows with kernel_coords' certificate.  Any lift gives this map."""
    reps = quot.reps(n)
    total = sub.total
    lifts = SparseMatrix(reps.field, total.dims[n], reps.ncols, {
        (first[i], j): v for (i, j), v in reps.entries.items()})
    pulls = kernel_coords(sub.inc[n - 1], sub.free[n - 1],
                          total.boundary(n).mul(lifts))
    return sub.coords(n - 1, pulls)  # raises ValueError on a non-cycle


def long_exact_sequence_nodes(sub, quot, max_n):
    """Exactness bookkeeping for the long exact sequence of 0 -> sub ->
    sub.total -> quot -> 0 (check_ses), through homological degree max_n.

    Returns a list of (description, incoming_rank, outgoing_kernel_dim)
    for every node whose incoming and outgoing maps are both determined
    by the slices (all complexes must extend to degree max_n + 1 for the
    top-degree homology to be meaningful; max_n above their top degree
    raises ValueError).
    """
    check_ses(sub, quot)
    if max_n > sub.top:
        raise ValueError(f"long exact sequence through degree {max_n}, "
                         f"slices through degree {sub.top}")
    total = sub.total

    # the ranks of H_n(inc), H_n(proj) and the connecting map H_n(quot) ->
    # H_{n-1}(sub), each taken once; the last is 0 for n = 0
    rk_alpha, rk_beta, rk_delta = {}, {}, {0: 0}
    for n in range(max_n + 1):
        rk_alpha[n] = rank(_induced(sub.inc, sub, total, n))
        rk_beta[n] = rank(_induced(sub.proj, total, quot, n))
        if n >= 1:
            rk_delta[n] = rank(_connecting(sub, quot, n, sub.first[n]))

    nodes = []
    for n in range(max_n + 1):
        h_sub, h_total, h_quot = (c.reps(n).ncols for c in (sub, total, quot))
        nodes.append((f"H_{n}(total)", rk_alpha[n], h_total - rk_beta[n]))
        nodes.append((f"H_{n}(quot)", rk_beta[n], h_quot - rk_delta[n]))
        if n < max_n:
            nodes.append((f"H_{n}(sub)", rk_delta[n + 1], h_sub - rk_alpha[n]))
    return nodes
