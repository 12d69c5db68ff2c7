"""Small independent constructions that tests compare the library against.

Each one is the plain definition of something the library computes a
faster or more general way; none of them is used outside the tests.
"""

import copy
from itertools import permutations

from exacthom.algebras import AlgebraElement, algebra_from_dict
from exacthom.chains import (CertificationError, ChainSlice, check_chain_map,
                             check_ses)
from exacthom.fields import QQ
from exacthom.groupalg import GroupAlgebraElement, total_shuffle
from exacthom.sparse import (Echelon, SparseMatrix, _eliminate, _normalize,
                             _primitive, kernel_basis)
from exacthom.symhom import FiberOrderedMap


def mat(rows, field=QQ):
    """A matrix from dense rows of entries given as field.of arguments."""
    ncols = len(rows[0]) if rows else 0
    return SparseMatrix(field, len(rows), ncols, {
        (i, j): field.of(v) for i, row in enumerate(rows)
        for j, v in enumerate(row)})


def hstack(left, right):
    """The matrix [left | right]: right's columns after left's."""
    if left.nrows != right.nrows:
        raise ValueError("row count mismatch in hstack")
    ents = dict(left.entries)
    off = left.ncols
    for (i, j), v in right.entries.items():
        ents[(i, j + off)] = v
    return SparseMatrix(left.field, left.nrows, left.ncols + right.ncols,
                        ents)


def columns(matrix):
    """The columns of a matrix as dicts {row: value}."""
    cols = [{} for _ in range(matrix.ncols)]
    for (i, j), v in matrix.entries.items():
        cols[j][i] = v
    return cols


def image_pivot_columns(matrix):
    """Indices of the lex-first independent column subset spanning the
    image: the pivot columns of the reduced row echelon form."""
    return sorted(Echelon(matrix).rows)


def extend_basis_columns(first, second):
    """Indices j such that column j of second is independent from the
    columns of first and the columns of second selected before it."""
    pivots = image_pivot_columns(hstack(first, second))
    return [c - first.ncols for c in pivots if c >= first.ncols]


def coords(basis, vectors, modulo=None):
    """Coordinates of the columns of vectors in the columns of basis,
    modulo the span of the columns of modulo: solve [modulo | basis] x =
    vectors and keep the basis rows.  A column of vectors outside the
    joint span raises ValueError."""
    if modulo is None:
        return solve_batch(basis, vectors)[0]
    sol, _ = solve_batch(hstack(modulo, basis), vectors)
    return sol.select_rows(range(modulo.ncols, sol.nrows))


def span_slice(boundary, reps, modulo=None):
    """The subcomplex spanned by the columns of reps[n] (the ambient
    boundary being boundary(n)), or its subquotient by the subcomplex
    spanned by the columns of modulo[n], by solving: d_n =
    coords(reps[n-1], boundary(n) reps[n], modulo[n-1]).  A span not
    closed under the boundary raises CertificationError."""
    bounds = {}
    for n in range(1, len(reps)):
        image = boundary(n).mul(reps[n])
        try:
            bounds[n] = coords(reps[n - 1], image,
                               modulo[n - 1] if modulo else None)
        except ValueError as exc:
            raise CertificationError(
                f"boundary leaves the subcomplex at degree {n}: {exc}"
            ) from None
    return ChainSlice(reps[0].field, [r.ncols for r in reps], bounds)


def element(alg, scalar, coeffs=None):
    """The element scalar + sum of c b_i over the items (i, c) of coeffs."""
    coeffs = coeffs or {}
    return AlgebraElement(alg, scalar, tuple(
        coeffs.get(i, alg.field.zero) for i in range(1, alg.dim_ideal + 1)))


def split_product(alg, a, b):
    """(y + s)(y' + s') = yy' + s y' + s' y + s s' over Q, where y and y'
    are the ideal parts, s and s' the scalars and yy' is summed over the
    structure table."""
    scalar = a.scalar * b.scalar
    ideal = [b.scalar * u + a.scalar * v for u, v in zip(a.ideal, b.ideal)]
    for i, u in enumerate(a.ideal, start=1):
        for j, v in enumerate(b.ideal, start=1):
            prod = alg.basis_product(i, j)
            scalar += u * v * prod.scalar
            for l, c in enumerate(prod.ideal):
                ideal[l] += u * v * c
    return AlgebraElement(alg, QQ.of(scalar), tuple(map(QQ.of, ideal)))


def permute_slots(perm, slots):
    """The left action of a permutation on a tuple: the result holds
    slots[i-1] at position perm(i)."""
    out = [None] * perm.n
    for i, v in enumerate(slots, start=1):
        out[perm(i) - 1] = v
    return tuple(out)


def eulerian_by_factors(field, n):
    """The Eulerian idempotents of k[Sigma_n] by Lagrange interpolation at
    the shuffle eigenvalues 2^j - 2, one product per factor: e_n^(i) =
    prod_{j != i} (sh - l_j) / (l_i - l_j), all in field, so each l_i - l_j
    must be invertible there."""
    unit = GroupAlgebraElement.unit(field, n)
    eigen = [2**j - 2 for j in range(1, n + 1)]
    idems = []
    for li in eigen:
        elem, den = unit, 1
        for lj in eigen:
            if lj != li:
                elem = elem.mul(total_shuffle(field, n).sub(
                    unit.scale(field.of(lj))))
                den *= li - lj
        idems.append(elem.scale(field.of(1, den)))
    return idems


def b_sym_words(f, words):
    """The bar construction on formal words: output slot j concatenates the
    input words along the fiber order of j (empty fiber = empty word)."""
    return tuple(tuple(sym for i in fiber for sym in words[i - 1])
                 for fiber in f.fibers)


def _compositions(x, y):
    """The compositions of x into y positive parts."""
    if y == 1:
        yield (x,)
        return
    for first in range(1, x - y + 2):
        for rest in _compositions(x - first, y - 1):
            yield (first,) + rest


def epi_maps(x, y):
    """The fiber-ordered epimorphisms {1..x} -> {1..y} through the pair
    normal form, sorted: every permutation of {1..x}, read as a word and
    cut into y non-empty intervals by a composition of x, gives the fibers
    in order."""
    out = []
    for cuts in _compositions(x, y):
        for word in permutations(range(1, x + 1)):
            fibers, start = [], 0
            for size in cuts:
                fibers.append(word[start:start + size])
                start += size
            out.append(FiberOrderedMap(y, fibers))
    return tuple(sorted(out))


def fractional_trunc4(field=QQ):
    """trunc4 with x*x = (2/3) y and x*y = (5/4) z: genuine fractions in
    every boundary that multiplies."""
    alg = algebra_from_dict({
        "name": "trunc4-fractional", "field": "Q",
        "generators": [{"symbol": "x", "weight": 1},
                       {"symbol": "y", "weight": 2},
                       {"symbol": "z", "weight": 3}],
        "products": [
            {"left": "x", "right": "x", "result": {"y": "2/3"}},
            {"left": "x", "right": "y", "result": {"z": "5/4"}},
            {"left": "y", "right": "x", "result": {"z": "5/4"}}]}, field)
    assert alg.validate() == []
    return alg


def non_monomial(field=QQ):
    """k[x,y]/(x,y)^3 with weight-2 basis a = x^2, b = x^2 + xy, c = y^2,
    so that x*y = b - a hits two basis elements."""
    alg = algebra_from_dict({
        "name": "non-monomial", "field": "Q",
        "generators": [{"symbol": s, "weight": 1} for s in "xy"]
        + [{"symbol": s, "weight": 2} for s in "abc"],
        "products": [
            {"left": "x", "right": "x", "result": {"a": "1"}},
            {"left": "x", "right": "y", "result": {"a": "-1", "b": "1"}},
            {"left": "y", "right": "y", "result": {"c": "1"}}]}, field)
    assert alg.validate() == []
    return alg


def kernel_vectors_scan(ech):
    """Echelon.kernel_vectors by scanning every pivot row for every free
    column."""
    of, one = ech.field.of, ech.field.one
    vecs = []
    for c in ech.free_cols():
        vec = {c: one}
        for pcol, row in ech.rows.items():
            v = row.get(c)
            if v is not None:
                vec[pcol] = of(-v, row[pcol])
        vecs.append(vec)
    return vecs


def solve_augmented_scan(ech, j):
    """A particular solution x of A x = v_j for the augmented column j
    (j >= pivot_limit) of an Echelon, or None if v_j is not in the span
    of the leading block: scan every residual and pivot row for j."""
    if any(j in res for res in ech.residuals):
        return None
    return {pcol: ech.field.of(row[j], row[pcol])
            for pcol, row in ech.rows.items() if j in row}


def solve_batch(a, v, strict=True):
    """Solve a @ x = v column by column, reading each particular solution
    off the echelon form of [a | v] with pivots in a's columns only.

    Returns (x, ok) where x is ncols(a) x ncols(v) and ok[j] says whether
    column j was solvable (unsolvable columns are zero in x).  With
    strict=True an unsolvable column raises ValueError.
    """
    if a.nrows != v.nrows:
        raise ValueError("row count mismatch in solve_batch")
    ech = Echelon(hstack(a, v), pivot_limit=a.ncols)
    cols, ok = [], []
    for j in range(v.ncols):
        x = solve_augmented_scan(ech, a.ncols + j)
        if x is None and strict:
            raise ValueError(f"column {j} is not in the span")
        ok.append(x is not None)
        cols.append(x or {})
    return SparseMatrix.from_columns(a.field, a.ncols, cols), ok


def connecting_by_solves(inc, proj, sub, total, quot, n):
    """chains.connecting_homomorphism by two solves: a lift of quot's
    representatives through proj, and the pull-back of its boundary
    through inc."""
    lifts, _ = solve_batch(proj[n], quot.reps(n))
    pulls, _ = solve_batch(inc[n - 1], total.boundary(n).mul(lifts))
    return sub.coords(n - 1, pulls)


def inclusion_law_by_two_products(rng, ses):
    """(accepted, refused, mismatches) of check_ses against its old
    inclusion law, both products of check_chain_map(inc, sub, total), on
    copies of a short exact sequence with one boundary changed in degree
    n (not checked for d o d = 0).  The maps stay, so the basis-map form
    holds and proj stays a chain map, and the two laws must agree on
    every copy: sub's d_n off in one entry (refused), and total's d_n
    plus inc_{n-1} E for E = F proj_n (accepted, as E inc_n = 0) or a
    random E.
    """
    inc, proj, sub, total, quot = ses
    field = total.field
    check_ses(*ses)
    accepted = refused = 0
    mismatches = []
    for n in range(1, total.top + 1):
        changes = []  # (name, sub, total) with one boundary changed
        if sub.dims[n - 1] and sub.dims[n]:
            i, j = rng.randrange(sub.dims[n - 1]), rng.randrange(sub.dims[n])
            off = SparseMatrix(field, sub.dims[n - 1], sub.dims[n],
                               {(i, j): field.one})
            changes.append(("sub", _with_boundary(
                sub, n, _plus(sub.boundary(n), off)), total))
        for name, e in (
                ("F proj", _random_matrix(rng, field, sub.dims[n - 1],
                                          quot.dims[n]).mul(proj[n])),
                ("random E", _random_matrix(rng, field, sub.dims[n - 1],
                                            total.dims[n]))):
            if not e.is_zero():
                changes.append((name, sub, _with_boundary(
                    total, n, _plus(total.boundary(n), inc[n - 1].mul(e)))))
        for name, sub2, total2 in changes:
            assert check_chain_map(proj, total2, quot), (n, name)
            try:
                check_ses(inc, proj, sub2, total2, quot)
            except ValueError as exc:
                assert str(exc) == "inclusion is not a chain map", exc
                ok = False
            else:
                ok = True
            accepted += ok
            refused += not ok
            if ok != check_chain_map(inc, sub2, total2):
                mismatches.append((n, name))
    return accepted, refused, mismatches


def _with_boundary(chain, n, matrix):
    """A copy of a ChainSlice with d_n replaced, not checked for d o d = 0."""
    out = copy.copy(chain)
    out.boundaries = {**chain.boundaries, n: matrix}
    out._ranks, out._homology = {}, {}
    return out


def _plus(a, b):
    field = a.field
    entries = dict(a.entries)
    for key, v in b.entries.items():
        entries[key] = field.add(entries.get(key, field.zero), v)
    return SparseMatrix(field, a.nrows, a.ncols, entries)


def _random_matrix(rng, field, nrows, ncols):
    """A sparse matrix with a few entries in -2..2."""
    return SparseMatrix(field, nrows, ncols, {
        (rng.randrange(nrows), rng.randrange(ncols)): field.of(
            rng.randint(-2, 2)) for _ in range(3 if nrows and ncols else 0)})


def leading_rank(matrix):
    """sparse.rank with the smallest-index pivot: each row, sparsest
    first, is reduced against the pivot at its leading (minimum) column
    until its lead is new."""
    field = matrix.field
    p = field.characteristic
    pivots = {}  # leading column -> pivot row
    for row in sorted((r for r in matrix.rows_as_dicts() if r), key=len):
        if not p:
            row = _primitive(field.scaled(row)[0])
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = _normalize(row, lead, p)
                break
            row = _eliminate(row, piv, lead, p)
    return len(pivots)


class HomologyBases:
    """ChainSlice.reps and ChainSlice.coords by kernel bases and solves:
    the representatives are the cycles that extend_basis_columns picks
    after the boundaries, and coordinates solve [d_{n+1} | reps] x = v and
    keep the representative rows."""

    def __init__(self, sl):
        self.slice = sl

    def cycles(self, n):
        if n == 0:
            return SparseMatrix.identity(self.slice.field, self.slice.dims[0])
        return kernel_basis(self.slice.boundary(n))

    def dim(self, n):
        return self.cycles(n).ncols - Echelon(self.slice.boundary(n + 1)).rank

    def reps(self, n):
        cyc = self.cycles(n)
        return cyc.select_columns(
            extend_basis_columns(self.slice.boundary(n + 1), cyc))

    def coords(self, n, vectors):
        bnd = self.slice.boundary(n + 1)
        sol, _ = solve_batch(hstack(bnd, self.reps(n)), vectors)
        return sol.select_rows(range(bnd.ncols, sol.nrows))


def comparison_kernel(cd):
    """ComparisonData.kernel by elimination: the kernel basis of each
    projection, and the subcomplex it spans by solving."""
    reps = [kernel_basis(p) for p in cd.proj]
    return reps, span_slice(cd.sym_chain.boundary, reps)


def shuffle_slice(hc, w, top):
    """The shuffle subcomplex im(sh) of a Hochschild complex, spanned by the
    lex-first columns of each total shuffle matrix; its dimensions and the
    Harrison quotient's add up to the full slice's."""
    reps = []
    for n in range(top + 1):
        sh = hc.shuffle_matrix(n, w)
        reps.append(sh.select_columns(image_pivot_columns(sh)))
    return span_slice(lambda n: hc.boundary(n, w), reps), reps
