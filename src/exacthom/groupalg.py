"""Symmetric groups, their group algebras, shuffles and Eulerian idempotents.

Conventions.  Permutations act on tensor slots on the left: sigma moves the
content of slot i to slot sigma(i), so (sigma tau) . t = sigma . (tau . t)
with (sigma tau)(x) = sigma(tau(x)).  Shuffle elements are signed sums over
the permutations that are increasing on the first i and last n-i positions.

Permutations are interned on gamma's FiniteMap core: one object per image
tuple, validated as a bijection when first built, so group algebra
elements key their coefficients by object.  Products are summed by image
tuple, and each distinct result is interned once per product.

The Eulerian idempotents are the Lagrange interpolation of the total
shuffle at its eigenvalues, e_n^(i) = prod_{j != i} (sh - l_j)/(l_i - l_j),
evaluated as a polynomial in sh: n - 2 products build the powers of sh,
and each e_n^(i) is an integer combination of them over one denominator.
certify_eulerian checks them as two-sided eigenvectors of sh that sum to
the unit; two idempotents are multiplied only where two eigenvalues
coincide in the field.
"""

from itertools import combinations
from math import comb

from .fields import QQ
from .gamma import FiniteMap


class Permutation(FiniteMap):
    """A permutation of {1..n}, the bijective map {1..n} -> {1..n} held by
    its image tuple, interned like the surjections of gamma: one object per
    image tuple, so equality is identity and hashing is by object."""

    __slots__ = ()
    _interned = {}
    _freeze = tuple
    _by = "images"

    def __new__(cls, image):
        image = tuple(image)
        return super().__new__(cls, len(image), image)

    def __reduce__(self):
        return (type(self), (self.images,))

    @staticmethod
    def _parse(n, image):
        fibers = [()] * n
        for i, v in enumerate(image, start=1):
            if not 1 <= v <= n or fibers[v - 1]:
                raise ValueError(f"{image} is not a permutation of 1..{n}")
            fibers[v - 1] = (i,)
        return image, tuple(fibers)

    @classmethod
    def identity(cls, n):
        return cls(range(1, n + 1))

    @property
    def image(self):
        return self.images

    @property
    def n(self):
        return self.cod

    def __mul__(self, other):
        """Composition self o other: apply `other` first."""
        if self.n != other.n:
            raise ValueError("cannot compose permutations of different sizes")
        return Permutation([self.images[j - 1] for j in other.images])

    def sign(self):
        image = self.images
        n = self.n
        inv = 0
        for a in range(n):
            for b in range(a + 1, n):
                if image[a] > image[b]:
                    inv += 1
        return -1 if inv % 2 else 1

    def __lt__(self, other):
        return self.images < other.images


class GroupAlgebraElement:
    """A finitely supported scalar combination of permutations in Sigma_n."""

    __slots__ = ("field", "n", "coeffs")

    def __init__(self, field, n, coeffs=None):
        self.field = field
        self.n = n
        self.coeffs = {}
        if coeffs:
            for perm, c in coeffs.items():
                if c == field.zero:
                    continue
                if perm.n != n:
                    raise ValueError("mixed permutation sizes in group algebra element")
                self.coeffs[perm] = c

    @classmethod
    def unit(cls, field, n):
        return cls(field, n, {Permutation.identity(n): field.one})

    def terms(self):
        """Support in a deterministic order."""
        return sorted(self.coeffs.items(), key=lambda t: t[0].images)

    def add(self, other):
        self._check(other)
        f = self.field
        out = dict(self.coeffs)
        for perm, c in other.coeffs.items():
            s = f.add(out.get(perm, f.zero), c)
            if s == f.zero:
                out.pop(perm, None)
            else:
                out[perm] = s
        return GroupAlgebraElement(f, self.n, out)

    def sub(self, other):
        return self.add(other.scale(self.field.neg(self.field.one)))

    def scale(self, c):
        f = self.field
        return GroupAlgebraElement(
            f, self.n, {p: f.mul(c, v) for p, v in self.coeffs.items()})

    def mul(self, other):
        """Convolution product, fraction-free: the coefficients of each
        factor are read as integers over a common denominator, the
        products are summed as ints by image tuple, and each distinct
        result is interned and its coefficient formed once.
        """
        self._check(other)
        f = self.field
        left, da = f.scaled(self.coeffs)
        right, db = f.scaled(other.coeffs)
        sums = {}
        get = sums.get
        right = [(tuple([v - 1 for v in tau.images]), b)
                 for tau, b in right.items()]
        for sigma, a in left.items():
            at = sigma.images.__getitem__
            for tau, b in right:
                prod = tuple(map(at, tau))
                sums[prod] = get(prod, 0) + a * b
        sums = {Permutation(image): s for image, s in sums.items()}
        return GroupAlgebraElement(f, self.n, f.normal_terms(sums, da * db))

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, GroupAlgebraElement)
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("group algebra elements live in different Sigma_n")

    def __repr__(self):
        parts = [f"{c}*{p.images}" for p, c in self.terms()]
        return " + ".join(parts) if parts else "0"


def shuffle_permutations(i, n):
    """All i-shuffles in Sigma_n: increasing on 1..i and on i+1..n."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"shuffle type ({i},{n - i}) out of range")
    out = []
    universe = range(1, n + 1)
    for first in combinations(universe, i):
        rest = [v for v in universe if v not in first]
        out.append(Permutation(list(first) + rest))
    return out


def shuffle_element(field, i, n):
    """Signed sum over the i-shuffles; support size is C(n, i)."""
    coeffs = {}
    for perm in shuffle_permutations(i, n):
        coeffs[perm] = field.of(perm.sign())
    elem = GroupAlgebraElement(field, n, coeffs)
    assert len(elem.coeffs) == comb(n, i)
    return elem


def total_shuffle(field, n):
    """Sum of the shuffle elements sh_{i,n-i} for 1 <= i <= n-1."""
    if n < 2:
        raise ValueError("total shuffle needs n >= 2")
    total = GroupAlgebraElement(field, n)
    for i in range(1, n):
        total = total.add(shuffle_element(field, i, n))
    return total


# Eigenvalues of the total shuffle operator on QQ[Sigma_n]: 2^i - 2 for
# i = 1..n.  The Eulerian idempotents are its spectral projectors.

def _shuffle_eigenvalue(i):
    return 2**i - 2


_rational_idempotents = {}


def _eulerian_over_q(n):
    """The Eulerian idempotents e_n^(i) = p_i(sh) / p_i(l_i), with p_i =
    prod_{j != i} (x - l_j): the powers sh^0..sh^(n-1) have integer
    coefficients, so each p_i(sh) is summed in ints and divided once."""
    if n not in _rational_idempotents:
        powers = [GroupAlgebraElement.unit(QQ, n)]
        if n > 1:
            sh = total_shuffle(QQ, n)
            powers.append(sh)
            while len(powers) < n:
                powers.append(powers[-1].mul(sh))
        eigen = [_shuffle_eigenvalue(j) for j in range(1, n + 1)]
        idems = []
        for i, li in enumerate(eigen):
            # the integer coefficients of p_i, lowest degree first
            poly, den = [1], 1
            for j, lj in enumerate(eigen):
                if j != i:
                    poly = [a - lj * b for a, b in zip([0] + poly, poly + [0])]
                    den *= li - lj
            sums = {}
            for a, power in zip(poly, powers):
                for perm, c in power.coeffs.items():
                    sums[perm] = sums.get(perm, 0) + a * c
            idems.append(GroupAlgebraElement(
                QQ, n, QQ.normal_terms(sums, den)))
        _rational_idempotents[n] = idems
    return _rational_idempotents[n]


def eulerian_idempotents(field, n):
    """The n Eulerian idempotents of k[Sigma_n] (eulerian_idempotent)."""
    if n < 1:
        raise ValueError("n must be positive")
    return [eulerian_idempotent(field, n, i) for i in range(1, n + 1)]


def eulerian_idempotent(field, n, i):
    """The Eulerian idempotent e_n^(i) of k[Sigma_n].

    Over a prime field the exact rational coefficients of e_n^(i) alone
    are reduced mod p; their denominators divide n!, so p > n is enough
    for this to work (interpolating directly mod p can fail even then,
    since differences of shuffle eigenvalues may vanish).
    """
    if not 1 <= i <= n:
        raise ValueError(f"idempotent index {i} out of range for n={n}")
    p = field.characteristic
    if p and p <= n:
        raise ValueError(f"field characteristic {p} too small for Sigma_{n}")
    rational = _eulerian_over_q(n)[i - 1]
    if field == QQ:
        return rational
    return GroupAlgebraElement(field, n, {
        perm: field.of(c.numerator, c.denominator)
        for perm, c in rational.coeffs.items()})


def shuffle_annihilating_product(field, n):
    """The product of (sh_n - (2^j - 2)) over j = 1..n; zero when the
    eigenvalue list is correct."""
    unit = GroupAlgebraElement.unit(field, n)
    sh = total_shuffle(field, n)
    acc = unit
    for j in range(1, n + 1):
        acc = acc.mul(sh.sub(unit.scale(field.of(_shuffle_eigenvalue(j)))))
    return acc


def certify_eulerian(field, n):
    """Certify the e_n^(i) as two-sided eigenvectors of the total shuffle
    that sum to the unit: sh e_i = l_i e_i = e_i sh with l_i = 2^i - 2,
    and sum e_i = 1.

    Then e_i sh e_j is both l_i e_i e_j and l_j e_i e_j, so e_i e_j = 0
    wherever l_i - l_j is nonzero in the field; the products e_i e_j are
    taken only for the pairs i != j where it vanishes (none over QQ, and
    (1, 4), (2, 5), (3, 6) both ways over F_7).  So the e_i are
    orthogonal, and e_i = e_i sum_j e_j = e_i e_i makes them idempotent.
    Over QQ every l_i - l_j is nonzero and p_i(sh) = p_i(l_i) e_i, with
    p_i = prod_{j != i} (x - l_j), so they are the Eulerian idempotents.

    Returns a list of (check name, ok) pairs, all exact.
    """
    idems = eulerian_idempotents(field, n)
    eigen = [field.of(_shuffle_eigenvalue(i)) for i in range(1, n + 1)]
    results = []
    if n >= 2:
        sh = total_shuffle(field, n)
        for i, (ei, li) in enumerate(zip(idems, eigen), start=1):
            expected = ei.scale(li)
            results.append((f"sh * e{n}^({i})", sh.mul(ei) == expected))
            results.append((f"e{n}^({i}) * sh", ei.mul(sh) == expected))
    for i, (ei, li) in enumerate(zip(idems, eigen), start=1):
        for j, (ej, lj) in enumerate(zip(idems, eigen), start=1):
            if i != j and li == lj:
                results.append((f"e{n}^({i}) * e{n}^({j})",
                                ei.mul(ej).is_zero()))
    total = GroupAlgebraElement(field, n)
    for ei in idems:
        total = total.add(ei)
    results.append((f"sum of e{n}^(i) = unit",
                    total == GroupAlgebraElement.unit(field, n)))
    return results
