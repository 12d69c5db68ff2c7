"""Small independent constructions that tests compare the library against.

Each one is the plain definition of something the library computes a
faster or more general way; none of them is used outside the tests.
"""

from itertools import permutations

from exacthom.algebras import AlgebraElement
from exacthom.fields import QQ
from exacthom.sparse import SparseMatrix
from exacthom.symhom import FiberOrderedMap


def mat(rows, field=QQ):
    """A matrix from dense rows of entries given as field.of arguments."""
    ncols = len(rows[0]) if rows else 0
    return SparseMatrix(field, len(rows), ncols, {
        (i, j): field.of(v) for i, row in enumerate(rows)
        for j, v in enumerate(row)})


def columns(matrix):
    """The columns of a matrix as dicts {row: value}."""
    cols = [{} for _ in range(matrix.ncols)]
    for (i, j), v in matrix.entries.items():
        cols[j][i] = v
    return cols


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
