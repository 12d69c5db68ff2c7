"""Sparse matrices over an exact field, with rank and kernel.

Two elimination engines share one elimination step, ``_eliminate``.  Over
Q both are fraction-free: vectors are primitive integer vectors, an index
is cleared by integer cross-multiplication and the result is divided by
its content, so no rational is formed while eliminating.  Over F_p the
same step runs mod p against monic pivots.

- ``low_pivots`` is forward-only: each vector is reduced against the
  pivot at its largest ("low") index until that index is new, with no
  back-substitution.  ``rank`` counts the low pivots of the rows.
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
"""

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
        s / (d_i e_j); mod p the ints are summed and reduced once.  An
        entry that cancels to zero forms no field element at all.
        """
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        f = self.field
        right = [{} for _ in range(other.nrows)]
        if all(type(b) is int for b in other.entries.values()):
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
        of = f.of
        out = {}
        for i, row in enumerate(self.rows_as_dicts()):
            row, d = f.scaled(row)
            acc = {}
            get = acc.get
            for k, a in row.items():
                for j, b in right[k].items():
                    acc[j] = get(j, 0) + a * b
            for j, s in acc.items():
                if s:
                    v = of(s, d * col_dens[j])
                    if v:
                        out[(i, j)] = v
        return SparseMatrix(f, self.nrows, other.ncols, out)

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
        return SparseMatrix(self.field, len(rows), self.ncols, ents)

    def select_columns(self, cols):
        """Submatrix of the given columns, in the given order."""
        colset = {c: t for t, c in enumerate(cols)}
        ents = {}
        for (i, j), v in self.entries.items():
            t = colset.get(j)
            if t is not None:
                ents[(i, t)] = v
        return SparseMatrix(self.field, self.nrows, len(cols), ents)

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


def rank(matrix):
    """Exact rank over the matrix's field."""
    return len(low_pivots(matrix.field, matrix.rows_as_dicts()))


def low_pivots(field, vectors):
    """{largest index -> pivot} of the span of vectors (dicts {index:
    value}, left unchanged), reduced sparsest first.  The keys are the
    largest indices of the span's nonzero vectors, whatever the order of
    vectors.  Over Q a pivot is a primitive integer vector, positive at
    its key; mod p it is monic there."""
    p = field.characteristic
    pivots = {}
    for vec in sorted((v for v in vectors if v), key=len):
        vec = dict(vec)
        if not p:
            vec = _primitive(field.scaled(vec)[0])
        while vec:
            low = max(vec)
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = _normalize(vec, low, p)
                break
            vec = _eliminate(vec, piv, low, p)
    return pivots


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
