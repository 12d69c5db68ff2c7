import random
from fractions import Fraction
from math import gcd

import pytest

from exacthom.fields import GF, QQ
from exacthom.sparse import (Echelon, SparseMatrix, kernel_basis, low_coords,
                             low_pivots, rank)
import reference
from reference import (columns, extend_basis_columns, image_pivot_columns,
                       mat, solve_batch)


def test_rank_identity_and_zero():
    assert rank(SparseMatrix.identity(QQ, 2)) == 2
    assert rank(SparseMatrix.zeros(QQ, 3, 4)) == 0


def test_rank_dependent_rows():
    assert rank(mat([[1, 2], [2, 4]])) == 1
    assert rank(mat([[1, 2], [2, 4]], GF(5))) == 1
    # mod 2 the second row is zero but the matrix still has rank 1
    assert rank(mat([[1, 2], [2, 4]], GF(2))) == 1


def test_kernel_identity_empty():
    assert kernel_basis(SparseMatrix.identity(QQ, 3)).ncols == 0


def test_kernel_zero_map_full():
    k = kernel_basis(SparseMatrix.zeros(QQ, 2, 3))
    assert k.ncols == 3
    assert rank(k) == 3


def test_kernel_one_relation():
    k = kernel_basis(mat([[1, 1]]))
    assert k.ncols == 1
    assert k.entries[(0, 0)] == QQ.neg(k.entries[(1, 0)]) != QQ.zero


def test_rank_nullity_random():
    rng = random.Random(7)
    for field in (QQ, GF(5)):
        for _ in range(25):
            nrows = rng.randint(0, 6)
            ncols = rng.randint(0, 6)
            m = SparseMatrix(field, nrows, ncols, {
                (i, j): field.of(rng.randint(-3, 3))
                for i in range(nrows) for j in range(ncols)
                if rng.random() < 0.6})
            r = rank(m)
            k = kernel_basis(m)
            assert r + k.ncols == ncols
            assert m.mul(k).is_zero()


def test_solve_batch_consistent():
    a = mat([[1, 0], [1, 1], [0, 2]])
    v = mat([[1, 0], [3, 0], [4, 0]])
    x, ok = solve_batch(a, v)
    assert ok == [True, True]
    assert a.mul(x) == v


def test_solve_batch_reports_unsolvable():
    a = mat([[1], [0]])
    v = mat([[0], [1]])
    with pytest.raises(ValueError):
        solve_batch(a, v)
    x, ok = solve_batch(a, v, strict=False)
    assert ok == [False]


def test_pivot_columns_prefer_earlier():
    # second column is a multiple of the first, third is independent
    m = mat([[1, 2, 0], [0, 0, 1]])
    assert image_pivot_columns(m) == [0, 2]


def test_echelon_rank_matches_dense_elimination():
    m = mat([[2, 4, 1], [1, 2, 0], [0, 0, 1], [3, 6, 1]])
    assert Echelon(m).rank == 2


def test_matrix_algebra():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    assert a.mul(b) == mat([[2, 1], [4, 3]])
    assert a.hstack(b).shape == (2, 4)
    assert a.select_columns([1]) == mat([[2], [4]])


def test_entries_bounds_checked():
    with pytest.raises(IndexError):
        SparseMatrix(QQ, 1, 1, {(1, 0): QQ.one})


def test_no_stored_zeros():
    m = SparseMatrix(QQ, 2, 2, {(0, 0): QQ.zero, (1, 1): QQ.one})
    assert m.nnz == 1


def _dense_rank(rows, ncols):
    """Independent oracle: dense fraction elimination, no pivoting tricks."""
    from fractions import Fraction
    m = [[Fraction(v) for v in row] + [Fraction(0)] * (ncols - len(row))
         for row in rows]
    rank_ = 0
    for col in range(ncols):
        piv = None
        for r in range(rank_, len(m)):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank_], m[piv] = m[piv], m[rank_]
        inv = 1 / m[rank_][col]
        m[rank_] = [v * inv for v in m[rank_]]
        for r in range(len(m)):
            if r != rank_ and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank_])]
        rank_ += 1
    return rank_


def test_rank_against_dense_oracle():
    rng = random.Random(13)
    for _ in range(40):
        nrows = rng.randint(1, 7)
        ncols = rng.randint(1, 7)
        rows = [[rng.choice([0, 0, 1, -1, 2, 3]) for _ in range(ncols)]
                for _ in range(nrows)]
        dense = _dense_rank(rows, ncols)
        sparse = rank(mat(rows))
        assert sparse == dense, rows


def _entry(rng, field, kind):
    if field.characteristic:
        return rng.randrange(1, field.p)
    integer = QQ.of(rng.choice([-3, -2, -1, 1, 2, 5, 12]))
    fraction = QQ.of(rng.choice([-7, -2, -1, 1, 3, 4]), rng.choice([2, 3, 9]))
    if kind == "integers":
        return integer
    if kind == "fractions":
        return fraction
    return rng.choice([integer, fraction])


def _structured_matrix(rng, field, kind):
    """A random sparse matrix whose rows include zero rows, duplicates and
    combinations of earlier rows (rank-deficient blocks)."""
    nrows, ncols = rng.randint(0, 10), rng.randint(0, 10)
    rows = []
    for _ in range(nrows):
        roll = rng.random()
        if roll < 0.15 or not ncols:
            row = {}
        elif roll < 0.3 and rows:
            row = dict(rng.choice(rows))
        elif roll < 0.5 and len(rows) >= 2:
            a, b = rng.sample(rows, 2)
            ca, cb = _entry(rng, field, kind), _entry(rng, field, kind)
            row = {j: field.add(field.mul(ca, a.get(j, field.zero)),
                                field.mul(cb, b.get(j, field.zero)))
                   for j in set(a) | set(b)}
        else:
            row = {j: _entry(rng, field, kind)
                   for j in rng.sample(range(ncols), rng.randint(1, ncols))}
        rows.append(row)
    return SparseMatrix(field, nrows, ncols,
                        {(i, j): v for i, row in enumerate(rows)
                         for j, v in row.items()})


@pytest.mark.parametrize("field,kind", [
    (QQ, "fractions"), (QQ, "integers"), (QQ, "mixed"),
    (GF(3), None), (GF(2**31 - 1), None)])
def test_forward_rank_matches_echelon(field, kind):
    # rank() eliminates forward only; Echelon builds the full reduced form
    # (both fraction-free over Q, sharing one elimination step), so they
    # agree only if both loops pick up every pivot
    rng = random.Random(f"rank:{field}:{kind}")
    for _ in range(150):
        m = _structured_matrix(rng, field, kind)
        assert rank(m) == Echelon(m).rank, m.entries


def _dense_product(field, a, b):
    """Reference product: dense rows, one field.add and field.mul per term."""
    rows = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            s = field.zero
            for k in range(a.ncols):
                s = field.add(s, field.mul(a.entries.get((i, k), field.zero),
                                           b.entries.get((k, j), field.zero)))
            row.append(s)
        rows.append(row)
    return rows


def _factor(rng, field, kind, nrows, ncols):
    """A random sparse factor with some all-zero rows and columns."""
    zero_rows = set(rng.sample(range(nrows), nrows // 3))
    zero_cols = set(rng.sample(range(ncols), ncols // 3))
    return SparseMatrix(field, nrows, ncols, {
        (i, j): _entry(rng, field, kind)
        for i in range(nrows) for j in range(ncols)
        if i not in zero_rows and j not in zero_cols and rng.random() < 0.6})


def _check_product(field, a, b):
    prod = a.mul(b)
    assert prod.shape == (a.nrows, b.ncols)
    dense = _dense_product(field, a, b)
    assert prod.entries == {(i, j): v for i, row in enumerate(dense)
                            for j, v in enumerate(row) if v != field.zero}
    for v in prod.entries.values():
        if field.characteristic:
            assert type(v) is int and 0 < v < field.p
        else:
            assert type(v) is int or v.denominator != 1, v
    return prod


@pytest.mark.parametrize("field,kind", [
    (QQ, "fractions"), (QQ, "integers"), (QQ, "mixed"),
    (GF(3), None), (GF(2**31 - 1), None)])
def test_mul_matches_the_dense_product(field, kind):
    rng = random.Random(f"mul:{field}:{kind}")
    minus_one = field.neg(field.one)
    for _ in range(60):
        m, k, n = rng.randint(0, 7), rng.randint(0, 7), rng.randint(0, 7)
        a = _factor(rng, field, kind, m, k)
        b = _factor(rng, field, kind, k, n)
        _check_product(field, a, b)
        # [a | a] @ [b; -b] cancels to zero, [a | c] @ [b; -b] = (a - c) b
        # cancels wherever a and c agree
        c = SparseMatrix(field, m, k, {
            key: v if rng.random() < 0.5 else _entry(rng, field, kind)
            for key, v in a.entries.items()})
        b_minus_b = SparseMatrix(field, 2 * k, n, {
            **b.entries, **{(i + k, j): field.mul(minus_one, v)
                            for (i, j), v in b.entries.items()}})
        assert _check_product(field, a.hstack(a), b_minus_b).is_zero()
        _check_product(field, a.hstack(c), b_minus_b)


@pytest.mark.parametrize("field", [QQ, GF(3), GF(2**31 - 1)])
def test_forward_rank_of_empty_and_degenerate_shapes(field):
    for shape in ((0, 0), (0, 4), (4, 0), (3, 3)):
        assert rank(SparseMatrix.zeros(field, *shape)) == 0
    one = field.one
    twice = SparseMatrix(field, 2, 3, {(0, 1): one, (1, 1): one})
    assert rank(twice) == 1


def test_forward_rank_of_fractional_block():
    # rows 2 and 3 are (1/2) row 0 + (2/3) row 1 and 3 * row 2
    rows = [[QQ.of(1, 3), 0, QQ.of(5, 7)], [0, QQ.of(-4, 9), 1]]
    rows.append([QQ.add(QQ.mul(QQ.of(1, 2), a), QQ.mul(QQ.of(2, 3), b))
                 for a, b in zip(*rows)])
    rows.append([QQ.mul(3, v) for v in rows[2]])
    m = mat(rows)
    assert rank(m) == Echelon(m).rank == 2


LOW_FIELDS = [
    pytest.param(QQ, "fractions", id="QQ-fractions"),
    pytest.param(QQ, "mixed", id="QQ-mixed"),
    pytest.param(GF(2), None, id="GF(2)"),
    pytest.param(GF(7), None, id="GF(7)")]


@pytest.mark.parametrize("field,kind", LOW_FIELDS)
def test_rank_matches_the_leading_pivot_rank_and_dense_oracle(field, kind):
    # rank() takes the largest-index pivot, the reference the smallest;
    # the dense Gauss-Jordan oracle shares no code with either
    rng = random.Random(f"low rank:{field}:{kind}")
    for shape in ((0, 0), (0, 3), (3, 0), (2, 4)):
        assert rank(SparseMatrix.zeros(field, *shape)) == 0
    for _ in range(150):
        m = _structured_matrix(rng, field, kind)
        dense = len(_gauss_jordan(m)[0])
        assert rank(m) == reference.leading_rank(m) == dense, m.entries


@pytest.mark.parametrize("field,kind", LOW_FIELDS)
def test_low_pivot_keys_do_not_depend_on_the_order(field, kind):
    rng = random.Random(f"low order:{field}:{kind}")
    for _ in range(60):
        rows = _structured_matrix(rng, field, kind).rows_as_dicts()
        copies = [dict(v) for v in rows]
        keys = set(low_pivots(field, rows))
        assert rows == copies  # the input vectors are not changed
        for _ in range(3):
            rng.shuffle(rows)
            assert set(low_pivots(field, rows)) == keys


@pytest.mark.parametrize("p", [2, 3])
def test_low_pivot_keys_are_the_largest_indices_of_the_span(p):
    # brute force: every combination of the vectors, over a small field
    from itertools import product
    field = GF(p)
    rng = random.Random(f"low span:{p}")
    for _ in range(40):
        size, count = rng.randint(1, 6), rng.randint(0, 4)
        vectors = [{j: v for j in range(size)
                    if (v := rng.randrange(p)) and rng.random() < 0.6}
                   for _ in range(count)]
        largest = set()
        for coeffs in product(range(p), repeat=count):
            combo = [sum(c * v.get(j, 0) for c, v in zip(coeffs, vectors))
                     % p for j in range(size)]
            nonzero = [j for j, v in enumerate(combo) if v]
            if nonzero:
                largest.add(max(nonzero))
        assert set(low_pivots(field, vectors)) == largest, vectors


@pytest.mark.parametrize("field,kind", LOW_FIELDS)
def test_low_coords_split_off_the_span(field, kind):
    # vector = b + sum c_r e_r with b in the span and no r a key: low_coords
    # returns exactly the c_r
    rng = random.Random(f"low coords:{field}:{kind}")
    for _ in range(60):
        m = _structured_matrix(rng, field, kind)
        pivots = low_pivots(field, m.rows_as_dicts())
        others = [r for r in range(m.ncols) if r not in pivots]
        coeffs = {r: _entry(rng, field, kind) for r in others
                  if rng.random() < 0.5}
        vector = dict(coeffs)
        for row in m.rows_as_dicts():
            c = _entry(rng, field, kind)
            for j, v in row.items():
                vector[j] = field.add(vector.get(j, field.zero),
                                      field.mul(c, v))
        vector = {j: v for j, v in vector.items() if v != field.zero}
        assert low_coords(field, vector, pivots) == coeffs, m.entries


def _gauss_jordan(matrix, pivot_limit=None):
    """Independent oracle: dense Gauss-Jordan elimination in Fraction
    arithmetic (plain ints mod p over F_p), pivoting on the leftmost
    nonzero column of the first pivot_limit columns.

    Returns the pivot columns, the reduced pivot rows (lead 1) and the
    remaining rows, which vanish on the first pivot_limit columns."""
    p = matrix.field.characteristic
    limit = matrix.ncols if pivot_limit is None else pivot_limit
    if p:
        def norm(x):
            return x % p

        def inv(x):
            return pow(x, p - 2, p)
    else:
        norm = Fraction

        def inv(x):
            return 1 / x
    m = [[norm(matrix.entries.get((i, j), 0)) for j in range(matrix.ncols)]
         for i in range(matrix.nrows)]
    pivots = []
    for col in range(limit):
        r = len(pivots)
        piv = next((k for k in range(r, len(m)) if m[k][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        s = inv(m[r][col])
        m[r] = [norm(v * s) for v in m[r]]
        for k in range(len(m)):
            if k != r and m[k][col]:
                f = m[k][col]
                m[k] = [norm(a - f * b) for a, b in zip(m[k], m[r])]
        pivots.append(col)
    return pivots, m[:len(pivots)], m[len(pivots):]


def _reference_kernel(matrix):
    pivots, rows, _ = _gauss_jordan(matrix)
    f = matrix.field
    cols = []
    for c in range(matrix.ncols):
        if c not in pivots:
            vec = {c: 1}
            for pcol, row in zip(pivots, rows):
                vec[pcol] = f.neg(row[c]) if f.characteristic else -row[c]
            cols.append(vec)
    return cols


def _reference_solve(a, v):
    pivots, rows, rest = _gauss_jordan(a.hstack(v), a.ncols)
    cols, ok = [], []
    for j in range(a.ncols, a.ncols + v.ncols):
        solvable = not any(row[j] for row in rest)
        ok.append(solvable)
        cols.append({pcol: row[j] for pcol, row in zip(pivots, rows)}
                    if solvable else {})
    return cols, ok


def _assert_same_columns(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == {i: v for i, v in e.items() if v}
        for v in g.values():
            # exacthom's normal form: integral rationals are ints
            assert type(v) is int or v.denominator != 1


def _random_columns(rng, field, kind, a, ncols):
    """ncols columns of height a.nrows: about half lie in the column span
    of a (combinations of its columns), the rest are random."""
    acols = columns(a)
    cols = []
    for _ in range(ncols):
        if acols and rng.random() < 0.5:
            col = {}
            for src in rng.sample(acols, rng.randint(1, len(acols))):
                c = _entry(rng, field, kind)
                for i, v in src.items():
                    col[i] = field.add(col.get(i, field.zero),
                                       field.mul(c, v))
        elif a.nrows:
            col = {i: _entry(rng, field, kind)
                   for i in rng.sample(range(a.nrows),
                                       rng.randint(1, a.nrows))}
        else:
            col = {}
        cols.append(col)
    return SparseMatrix.from_columns(field, a.nrows, cols)


ECHELON_FIELDS = [
    pytest.param(QQ, "fractions", id="QQ-fractions"),
    pytest.param(QQ, "integers", id="QQ-integers"),
    pytest.param(QQ, "mixed", id="QQ-mixed"),
    pytest.param(GF(3), None, id="GF(3)"),
    pytest.param(GF(2**31 - 1), None, id="GF(2^31-1)")]


@pytest.mark.parametrize("field,kind", ECHELON_FIELDS)
def test_echelon_matches_dense_gauss_jordan(field, kind):
    rng = random.Random(f"echelon:{field}:{kind}")
    for _ in range(120):
        a = _structured_matrix(rng, field, kind)
        pivots, _, _ = _gauss_jordan(a)
        assert image_pivot_columns(a) == pivots, a.entries
        assert rank(a) == len(pivots), a.entries
        _assert_same_columns(columns(kernel_basis(a)), _reference_kernel(a))

        second = _random_columns(rng, field, kind, a, rng.randint(0, 5))
        joint, _, _ = _gauss_jordan(a.hstack(second))
        assert extend_basis_columns(a, second) == [
            c - a.ncols for c in joint if c >= a.ncols]

        x, ok = solve_batch(a, second, strict=False)
        cols, expected_ok = _reference_solve(a, second)
        assert ok == expected_ok
        _assert_same_columns(columns(x), cols)
        solved = [j for j in range(second.ncols) if ok[j]]
        assert a.mul(x.select_columns(solved)) == second.select_columns(solved)


@pytest.mark.parametrize("field,kind", ECHELON_FIELDS)
def test_echelon_stores_primitive_integer_or_monic_rows(field, kind):
    # over Q every stored row is a primitive integer row and a pivot row
    # has a positive lead; over F_p a pivot row is monic
    rng = random.Random(f"stored:{field}:{kind}")
    for _ in range(120):
        a = _structured_matrix(rng, field, kind)
        second = _random_columns(rng, field, kind, a, rng.randint(1, 5))
        ech = Echelon(a.hstack(second), pivot_limit=a.ncols)
        assert ech.pivot_limit == a.ncols
        for row in list(ech.rows.values()) + ech.residuals:
            assert row and all(type(v) is int for v in row.values())
            if field.characteristic:
                assert all(0 < v < field.p for v in row.values())
            else:
                assert gcd(*row.values()) == 1
        for pcol, row in ech.rows.items():
            assert min(row) == pcol
            assert row[pcol] == 1 if field.characteristic else row[pcol] > 0
        for row in ech.residuals:
            assert min(row) >= a.ncols


@pytest.mark.parametrize("field", [QQ, GF(3), GF(2**31 - 1)])
def test_echelon_of_empty_and_degenerate_shapes(field):
    one = field.one
    for shape in ((0, 0), (0, 4), (4, 0), (3, 3)):
        zero = SparseMatrix.zeros(field, *shape)
        assert image_pivot_columns(zero) == []
        k = kernel_basis(zero)
        assert k == SparseMatrix.identity(field, shape[1])
        x, ok = solve_batch(zero, SparseMatrix.zeros(field, shape[0], 2))
        assert ok == [True, True] and x.is_zero()
    # duplicate rows: one pivot, one kernel vector per free column
    twice = SparseMatrix(field, 2, 3, {(0, 1): one, (1, 1): one})
    assert image_pivot_columns(twice) == [1]
    assert kernel_basis(twice) == SparseMatrix.from_columns(
        field, 3, [{0: one}, {2: one}])
    # a right-hand side outside the span of a zero column
    x, ok = solve_batch(SparseMatrix.zeros(field, 2, 1),
                        SparseMatrix(field, 2, 1, {(1, 0): one}),
                        strict=False)
    assert ok == [False] and x.is_zero()
    assert extend_basis_columns(SparseMatrix.zeros(field, 2, 0), twice) == [1]


def test_echelon_reads_fractions_of_the_lead():
    # rows 2 and 3 are (1/2) row 0 + (2/3) row 1 and 3 * row 2
    rows = [[QQ.of(1, 3), 0, QQ.of(5, 7)], [0, QQ.of(-4, 9), 1]]
    rows.append([QQ.add(QQ.mul(QQ.of(1, 2), a), QQ.mul(QQ.of(2, 3), b))
                 for a, b in zip(*rows)])
    rows.append([QQ.mul(3, v) for v in rows[2]])
    m = mat(rows)
    ech = Echelon(m)
    assert ech.rows == {0: {0: 7, 2: 15}, 1: {1: 4, 2: -9}}
    assert ech.residuals == []
    assert kernel_basis(m) == SparseMatrix.from_columns(
        QQ, 3, [{0: QQ.of(-15, 7), 1: QQ.of(9, 4), 2: 1}])


@pytest.mark.parametrize("field,kind", [
    pytest.param(QQ, "mixed", id="QQ"), pytest.param(GF(7), None, id="GF(7)")])
def test_echelon_reads_match_the_per_column_scan(field, kind):
    # the column index against scanning every pivot row per column, with
    # and without augmented columns, so with and without residual rows
    rng = random.Random(f"reads:{field}")
    residuals = 0
    for trial in range(300):
        a = _structured_matrix(rng, field, kind)
        if trial % 2:
            ech = Echelon(a)
            assert ech.residuals == []
        else:
            second = _random_columns(rng, field, kind, a, rng.randint(1, 5))
            ech = Echelon(a.hstack(second), pivot_limit=a.ncols)
            residuals += bool(ech.residuals)
        got, expected = ech.kernel_vectors(), reference.kernel_vectors_scan(ech)
        assert [list(v.items()) for v in got] == [
            list(v.items()) for v in expected]
    assert residuals > 20
