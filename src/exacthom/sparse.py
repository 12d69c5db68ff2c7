"""Sparse matrices over an exact field, with rank and kernel.

Two elimination engines share one elimination step, ``_eliminate``.  Over
Q both are fraction-free: vectors are primitive integer vectors, an index
is cleared by integer cross-multiplication and the result is divided by
its content, so no rational is formed while eliminating.  Over F_p the
same step runs mod p against monic pivots.

- ``low_pivots`` is forward-only: each vector is reduced against the
  pivot at its largest ("low") index until that index is new, with no
  back-substitution.  ``rank`` counts the low pivots of the rows.  Given
  a proven bound on the rank, it stops at that many pivots; given the
  dimension of the space holding the vectors, it also keeps, once few
  pivots are missing, a checked basis of the annihilator of their span
  (``_Annihilator``) and skips every vector that basis kills.  Only
  vectors that would reduce to zero are left out, so the pivots are the
  same as without bounds.
- ``Echelon`` builds the (unique) reduced row echelon form, up to one
  scale per row, by inserting rows one at a time and back-eliminating each
  new pivot column from all earlier rows, so its pivot columns are the
  lex-first independent ones.  Kernels (``kernel_with_free``) are read
  off it through a column index of the pivot rows, and a rational is
  formed only there: an entry over its row's lead.  In the package it
  serves only the cycles of ``ChainSlice``; no solve is left in the
  package, since every subquotient and the connecting map are read off
  low pivots, free rows or a basis map's section.

Products are fraction-free too: ``SparseMatrix.mul`` multiplies rows and
columns scaled to integers and forms each nonzero entry of the product
once, so a product that vanishes (``d∘d``, ``p∘i``) forms no rational.
When both factors hold only ints (always so mod p) an entry is the int
sum itself, reduced mod p, with no field call.  ``mul``, ``select_rows``
and ``select_columns`` hand their entries, nonzero and in range by
construction, to a private constructor that does not scan them again;
the public constructor and ``from_columns`` validate every entry.
"""

from heapq import heapify, heappop, heappush
from math import gcd


class SparseMatrix:
    """Immutable sparse matrix: a dict from (row, col) to nonzero field elements."""

    __slots__ = ("field", "nrows", "ncols", "entries")

    def __init__(self, field, nrows, ncols, entries=None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        ents = {}
        if entries:
            zero = field.zero
            for (i, j), v in entries.items():
                if v == zero:
                    continue
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise IndexError(f"entry ({i},{j}) outside {nrows}x{ncols}")
                ents[(i, j)] = v
        self.entries = ents

    @classmethod
    def _trusted(cls, field, nrows, ncols, entries):
        """A matrix taking entries as they are: the caller guarantees that
        every value is nonzero and every index in range."""
        m = object.__new__(cls)
        m.field, m.nrows, m.ncols, m.entries = field, nrows, ncols, entries
        return m

    @classmethod
    def zeros(cls, field, nrows, ncols):
        return cls(field, nrows, ncols)

    @classmethod
    def identity(cls, field, n):
        one = field.one
        return cls(field, n, n, {(i, i): one for i in range(n)})

    @classmethod
    def from_columns(cls, field, nrows, cols):
        """Build from a list of column dicts {row: value}."""
        ents = {}
        for j, col in enumerate(cols):
            for i, v in col.items():
                ents[(i, j)] = v
        return cls(field, nrows, len(cols), ents)

    @property
    def nnz(self):
        return len(self.entries)

    def is_zero(self):
        return not self.entries

    def rows_as_dicts(self):
        rows = [{} for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def columns_as_dicts(self):
        cols = [{} for _ in range(self.ncols)]
        for (i, j), v in self.entries.items():
            cols[j][i] = v
        return cols

    def mul(self, other):
        """Matrix product self @ other, fraction-free.

        Over Q each row of self and each column of other is scaled to
        integers by the lcm of its denominators (d_i and e_j; every e_j is
        1 when other holds only ints, and then no column is scaled), the
        products are summed as ints, and entry (i, j) is formed once, as
        s / (d_i e_j); mod p the ints are summed and reduced once.  When
        both factors hold only ints, entry (i, j) is s itself over Q and
        s % p mod p, with no field call.  An entry that cancels to zero
        forms no field element at all.
        """
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        f = self.field
        p = f.characteristic
        right = [{} for _ in range(other.nrows)]
        int_right = all(type(b) is int for b in other.entries.values())
        if int_right:
            # an integer factor (always so mod p) needs no column scaling
            for (k, j), b in other.entries.items():
                right[k][j] = b
            col_dens = [1] * other.ncols
        else:
            cols = [{} for _ in range(other.ncols)]
            for (k, j), b in other.entries.items():
                cols[j][k] = b
            col_dens = []
            for j, col in enumerate(cols):
                col, e = f.scaled(col)
                col_dens.append(e)
                for k, b in col.items():
                    right[k][j] = b
        ints = int_right and all(type(a) is int
                                 for a in self.entries.values())
        of = f.of
        out = {}
        for i, row in enumerate(self.rows_as_dicts()):
            if not row:
                continue
            if not ints:
                row, d = f.scaled(row)
            acc = {}
            get = acc.get
            for k, a in row.items():
                for j, b in right[k].items():
                    acc[j] = get(j, 0) + a * b
            if not ints:
                for j, s in acc.items():
                    if s:
                        v = of(s, d * col_dens[j])
                        if v:
                            out[(i, j)] = v
            elif p:
                for j, s in acc.items():
                    s %= p
                    if s:
                        out[(i, j)] = s
            else:
                for j, s in acc.items():
                    if s:
                        out[(i, j)] = s
        return SparseMatrix._trusted(f, self.nrows, other.ncols, out)

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch in hstack")
        ents = dict(self.entries)
        off = self.ncols
        for (i, j), v in other.entries.items():
            ents[(i, j + off)] = v
        return SparseMatrix(self.field, self.nrows, self.ncols + other.ncols, ents)

    def select_rows(self, rows):
        """Submatrix of the given rows, in the given order."""
        pos = {r: t for t, r in enumerate(rows)}
        ents = {}
        for (i, j), v in self.entries.items():
            t = pos.get(i)
            if t is not None:
                ents[(t, j)] = v
        return SparseMatrix._trusted(self.field, len(rows), self.ncols,
                                     ents)

    def select_columns(self, cols):
        """Submatrix of the given columns, in the given order."""
        colset = {c: t for t, c in enumerate(cols)}
        ents = {}
        for (i, j), v in self.entries.items():
            t = colset.get(j)
            if t is not None:
                ents[(i, t)] = v
        return SparseMatrix._trusted(self.field, self.nrows, len(cols),
                                     ents)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.shape == other.shape
            and self.entries == other.entries
        )

    __hash__ = None  # mutable-by-construction dict inside; keep unhashable

    def __repr__(self):
        return f"SparseMatrix({self.field}, {self.nrows}x{self.ncols}, nnz={self.nnz})"


class Echelon:
    """Reduced row echelon form of a matrix.

    Pivots are only chosen among the first ``pivot_limit`` columns (all
    of them by default); rows whose leading part vanishes are kept as
    residual rows.

    Over Q every stored row is a primitive integer row, a positive
    multiple of the row the rational RREF holds; a pivot row's entries
    are read as fractions of its lead.  Over F_p the pivot rows are monic.
    """

    def __init__(self, matrix, pivot_limit=None):
        field = matrix.field
        p = field.characteristic
        self.field = field
        self.ncols = matrix.ncols
        self.pivot_limit = limit = (matrix.ncols if pivot_limit is None
                                    else pivot_limit)
        self.rows = rows = {}  # pivot col -> row dict
        self.residuals = []    # row dicts with no entry below pivot_limit
        raw = matrix.rows_as_dicts()
        for i in sorted(range(len(raw)), key=lambda i: (len(raw[i]), i)):
            row = raw[i]
            if not row:
                continue
            if not p:
                row = _primitive(field.scaled(row)[0])
            # pivot rows vanish at each other's pivot columns, so clearing
            # one of these columns leaves the others in place
            for c in [c for c in row if c < limit and c in rows]:
                row = _eliminate(row, rows[c], c, p)
            lead = min((c for c in row if c < limit), default=None)
            if lead is None:
                if row:
                    self.residuals.append(row)
                continue
            row = _normalize(row, lead, p)
            # back-eliminate the new pivot column; residual rows have no
            # leading-block entries, so they cannot contain it
            for pcol, other in rows.items():
                if lead in other:
                    rows[pcol] = _eliminate(other, row, lead, p)
            rows[lead] = row

    @property
    def rank(self):
        return len(self.rows)

    def free_cols(self):
        return [c for c in range(self.pivot_limit) if c not in self.rows]

    def kernel_vectors(self):
        """Kernel basis of the leading block, one vector per free column,
        read through a column index of the pivot rows built in one pass."""
        cols = {}
        for pcol, row in self.rows.items():
            lead = row[pcol]
            for c, v in row.items():
                if c != pcol:
                    cols.setdefault(c, []).append((pcol, v, lead))
        of = self.field.of
        one = self.field.one
        vecs = []
        for c in self.free_cols():
            vec = {c: one}
            for pcol, v, lead in cols.get(c, ()):
                vec[pcol] = of(-v, lead)
            vecs.append(vec)
        return vecs


def rank(matrix, limit=None):
    """Exact rank over the matrix's field; limit, when given, is an upper
    bound on it that the caller has proven."""
    if limit is None or matrix.ncols < limit:
        limit = matrix.ncols
    return len(low_pivots(matrix.field, matrix.rows_as_dicts(), limit=limit))


# the annihilator is built once the pivots are within _CERTIFY_GAP of dim
# and at least _CERTIFY_RATIO times as many as the ones still missing: then
# it has few vectors to keep current, and small slices never build one
# (measured on the weight-4 comparison slices and the benchmark, README)
_CERTIFY_GAP = 64
_CERTIFY_RATIO = 16


def low_pivots(field, vectors, dim=None, limit=None):
    """{largest index -> pivot} of the span of vectors (dicts {index:
    value}, left unchanged), reduced sparsest first.  The keys are the
    largest indices of the span's nonzero vectors, whatever the order of
    vectors.  Over Q a pivot is a primitive integer vector, positive at
    its key; mod p it is monic there.

    The caller may pass bounds it has proven: dim on the indices (every
    index is below dim, which bounds the rank), and limit on the rank.
    Reading stops at that many pivots.  Once few pivots are missing from
    dim (see _CERTIFY_GAP), an _Annihilator of their span is kept, and a
    vector it kills lies in the span and is skipped: it would reduce to
    zero.  An annihilator that fails its check is dropped.  So the result
    is the same, pivot for pivot, as without bounds."""
    p = field.characteristic
    if dim is not None and (limit is None or dim < limit):
        limit = dim
    pivots, ann = {}, None
    for vec in sorted((v for v in vectors if v), key=len):
        if len(pivots) == limit:
            break
        if (ann is None and dim is not None
                and dim - len(pivots) <= _CERTIFY_GAP
                and len(pivots) >= _CERTIFY_RATIO * (dim - len(pivots))):
            ann = _Annihilator(pivots, dim, p)
            if not ann.holds:
                ann = dim = None  # a certificate that fails is not used
        if ann is not None and ann.kills(vec):
            continue
        vec = dict(vec)
        if not p:
            vec = _primitive(field.scaled(vec)[0])
        while vec:
            low = max(vec)
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = piv = _normalize(vec, low, p)
                if ann is not None and not ann.add(low, piv):
                    ann = dim = None
                break
            vec = _eliminate(vec, piv, low, p)
    return pivots


class _Annihilator:
    """A basis of the annihilator of the span of low pivots inside the
    space of indices 0..dim-1: for each non-key c < dim, the vector y_c
    that is nonzero at c, zero at the other non-keys and orthogonal to
    every pivot.  y_c·v is, up to the scale of y_c, the entry at c of
    low_coords(v), so v lies in the span exactly when every y_c·v = 0.

    The basis is checked, not trusted: holds says whether every y_c has
    that shape (so the y_c are independent, and there are dim - rank of
    them) and is orthogonal to every pivot, first when it is built and
    then at each pivot add() takes in.  Over Q each y_c is a primitive
    integer vector; mod p it is 1 at c.  ys maps c to y_c, and cols
    indexes them by position (index -> {c: y_c[index]}), so that a check
    reads only the entries of v."""

    def __init__(self, pivots, dim, p):
        self.p = p
        self.keys = pivots  # the caller's dict, which add() follows
        self.ys = {}
        self.cols = {}
        above = {}  # index -> the keys of the pivots with an entry there
        for k, piv in pivots.items():
            for j in piv:
                if j != k:
                    above.setdefault(j, []).append(k)
        for c in range(dim):
            if c not in pivots:
                self._put(c, self._solve(c, pivots, above))
        self.holds = (
            len(self.ys) == dim - len(pivots)
            and all(0 <= c < dim and self._shaped(c, y)
                    for c, y in self.ys.items())
            and all(self._orthogonal(piv) for piv in pivots.values()))

    def _solve(self, c, pivots, above):
        """y_c, solved over the keys in increasing order: a pivot has no
        entry above its key, so y_c·b = 0 fixes y_c at b's key from the
        entries below it.  Only the keys reached from c through above
        can be nonzero, and a heap visits them in order."""
        p = self.p
        y = {c: 1}
        heap = list(above.get(c, ()))
        heapify(heap)
        seen = set(heap)
        while heap:
            k = heappop(heap)
            piv = pivots[k]
            s = _residue(sum(y.get(j, 0) * v for j, v in piv.items()), p)
            if not s:
                continue
            if p:
                y[k] = -s % p
            else:
                # scale y so that its entry at k, -s / piv[k], is an int
                g = gcd(s, piv[k])
                if piv[k] != g:
                    m = piv[k] // g
                    y = {j: m * t for j, t in y.items()}
                y[k] = -s // g
            for k2 in above.get(k, ()):
                if k2 not in seen:
                    seen.add(k2)
                    heappush(heap, k2)
        return y

    def _shaped(self, c, y):
        """Whether y is nonzero at the non-key c and zero at the others."""
        keys = self.keys
        return (c not in keys and _residue(y.get(c, 0), self.p)
                and all(j == c or j in keys for j in y))

    def _put(self, c, y):
        self.ys[c] = y
        cols = self.cols
        for j, t in y.items():
            col = cols.get(j)
            if col is None:
                cols[j] = {c: t}
            else:
                col[c] = t

    def _pop(self, c):
        y = self.ys.pop(c)
        cols = self.cols
        for j in y:
            del cols[j][c]
        return y

    def _dots(self, vec):
        """{c: y_c·vec} over the c where the sum has a term."""
        acc = {}
        get = acc.get
        cols = self.cols
        for i, x in vec.items():
            col = cols.get(i)
            if col:
                for c, t in col.items():
                    acc[c] = get(c, 0) + t * x
        return acc

    def _orthogonal(self, vec):
        """Whether every y_c·vec = 0."""
        p = self.p
        return not any(_residue(s, p) for s in self._dots(vec).values())

    def kills(self, vec):
        """Whether vec lies in the span of the pivots, while holds: the
        question low_pivots asks of every vector it would reduce."""
        return self._orthogonal(vec)

    def add(self, k, piv):
        """Take in a new pivot piv with key k, and return holds: y_k
        leaves, and every other y_c becomes a·y_c - s·y_k with a = y_k·piv
        (the entry of y_k at k times piv[k]) and s = y_c·piv, so that
        y_c·piv = 0.  Both terms are orthogonal to the earlier pivots, and
        y_k is zero at the non-keys other than k, so y_c keeps its shape.
        What is checked: every y_c·piv = 0, and the shape of every y_c
        that changed."""
        p = self.p
        yk = self._pop(k)
        a = yk[k] * piv[k]
        changed = []
        for c, s in self._dots(piv).items():
            s = _residue(s, p)
            if not s:
                continue
            y = self._pop(c)
            b = a
            if not p:
                g = gcd(a, s)
                b, s = a // g, s // g
            new = {j: b * t for j, t in y.items()} if b != 1 else y
            get = new.get
            for j, t in yk.items():
                u = _residue(get(j, 0) - s * t, p)
                if u:
                    new[j] = u
                else:
                    new.pop(j, None)
            self._put(c, new if p else _primitive(new))
            changed.append(c)
        self.holds = bool(_residue(a, p) and self._orthogonal(piv) and all(
            self._shaped(c, self.ys[c]) for c in changed))
        return self.holds


def _residue(s, p):
    """s mod p, or s itself over Z (p = 0)."""
    return s % p if p else s


def low_coords(field, vector, pivots):
    """{index: c} with vector = b + sum of c e_index, b in the span of
    low_pivots' pivots and no index a key: reduce from the largest index
    down, clearing each key with its pivot (in field arithmetic, as few
    vectors are read this way) and keeping any other index's entry."""
    vec, out = dict(vector), {}
    while vec:
        t = max(vec)
        piv = pivots.get(t)
        if piv is None:
            out[t] = vec.pop(t)
            continue
        c = field.neg(field.of(vec[t], piv[t]))
        for j, v in piv.items():
            s = field.add(vec.get(j, field.zero), field.mul(c, v))
            if s == field.zero:
                del vec[j]
            else:
                vec[j] = s
    return out


def _primitive(row):
    """A nonzero integer row divided by its content."""
    g = gcd(*row.values())
    if g != 1:
        row = {j: v // g for j, v in row.items()}
    return row


def _normalize(row, lead, p):
    """A new pivot row: monic mod p, or with a positive lead over Z."""
    a = row[lead]
    if p:
        if a != 1:
            inv = pow(a, p - 2, p)
            row = {j: v * inv % p for j, v in row.items()}
    elif a < 0:
        row = {j: -v for j, v in row.items()}
    return row


def _eliminate(row, piv, c, p):
    """The one elimination step of both engines: clear column c of row
    with the pivot row piv, which may modify row in place.

    Over Z (p = 0) both rows are primitive and the result is
    ``b·row − a·piv`` with a/b = row[c]/piv[c] in lowest terms, divided by
    its content: a nonzero multiple of the rational step, positive when
    piv[c] > 0.  Mod p the pivot is monic and the result is
    ``row − row[c]·piv``.
    """
    a = row[c]
    if p:
        get = row.get
        for j, v in piv.items():
            s = (get(j, 0) - a * v) % p
            if s:
                row[j] = s
            else:
                del row[j]
        return row
    b = piv[c]
    g = gcd(a, b)
    if g != 1:
        a, b = a // g, b // g
    if b != 1:
        row = {j: b * v for j, v in row.items()}
    get = row.get
    for j, v in piv.items():
        s = get(j, 0) - a * v
        if s:
            row[j] = s
        else:
            del row[j]
    return _primitive(row) if row else row


def kernel_basis(matrix):
    """Matrix whose columns are a basis of the kernel (ncols x nullity)."""
    return kernel_with_free(matrix)[0]


def kernel_with_free(matrix):
    """(K, free): the kernel basis of kernel_basis and its free columns in
    order.  Column t of K is 1 at row free[t] and 0 at the other free rows,
    so a kernel vector's coordinates in K are its entries at the free rows
    (chains.kernel_coords)."""
    ech = Echelon(matrix)
    return (SparseMatrix.from_columns(matrix.field, matrix.ncols,
                                      ech.kernel_vectors()),
            ech.free_cols())
