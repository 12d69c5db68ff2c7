"""Finite sets with totally ordered fibers (the non-commutative-sets model
of Delta-S), the symmetric bar construction, the Gabriel-Zisman complex of
its epi subcategory, and the comparison map onto the surjection-string
complex.

A morphism is stored by its ordered fibers; the underlying set map is
implied.  Morphisms are interned on gamma's FiniteMap core, like the
surjections they forget to, and their strings come from gamma's
map_strings.  The epimorphisms {1..x} -> {1..y} are the fiber orderings of
the surjections.

phi o q: NCS -> NC-Gamma(I, k) is a basis map, so ComparisonData builds
its kernel complex once, in closed form, as a chains.KernelSlice.
"""

from functools import cached_property, lru_cache
from itertools import permutations, product
from math import comb, factorial

from .algebras import Coefficients
from .chains import (KernelSlice, SliceComplex, basis_map_matrix,
                     basis_map_section, check_chain_map)
from .gamma import (FiniteMap, GammaComplex, Surjection, map_strings,
                    string_count, surjections)


class FiberOrderedMap(FiniteMap):
    """A map {1..x} -> {1..y} together with a total order on every fiber,
    stored by its ordered fibers and interned like Surjection.

    Epimorphisms are the maps with no empty fiber.  The identity is the
    identity map with its singleton fibers.
    """

    __slots__ = ()
    _interned = {}
    _by = "fibers"

    @staticmethod
    def _freeze(fibers):
        return tuple(map(tuple, fibers))

    @staticmethod
    def _parse(cod, fibers):
        if len(fibers) != cod:
            raise ValueError("fiber count must equal the codomain size")
        x = sum(map(len, fibers))
        images = [0] * x
        for j, fb in enumerate(fibers, start=1):
            for i in fb:
                if not 1 <= i <= x or images[i - 1]:
                    raise ValueError("fibers do not partition the domain")
                images[i - 1] = j
        return tuple(images), fibers

    def is_epi(self):
        return all(self.fibers)

    def after(self, other):
        """Composite self o other: the fiber over k concatenates, along
        self's fiber order of k, the fibers of other in their own orders."""
        if other.cod != self.dom:
            raise ValueError("maps not composable")
        return _compose_fom(self, other)

    def underlying(self):
        """The underlying surjection (the morphism must be epi)."""
        if not self.is_epi():
            raise ValueError("underlying surjection needs an epimorphism")
        return Surjection(self.cod, self.images)

    @classmethod
    def identity(cls, n):
        return cls(n, [(i,) for i in range(1, n + 1)])

    def __lt__(self, other):
        return (self.cod, self.fibers) < (other.cod, other.fibers)


@lru_cache(maxsize=None)
def _compose_fom(g, f):
    fibers = []
    for k in range(1, g.cod + 1):
        fiber = []
        for j in g.fibers[k - 1]:
            fiber.extend(f.fibers[j - 1])
        fibers.append(tuple(fiber))
    return FiberOrderedMap(g.cod, fibers)


@lru_cache(maxsize=None)
def epi_maps(x, y):
    """All fiber-ordered epimorphisms {1..x} -> {1..y}, sorted: every
    ordering of the fibers of every surjection; there are x! C(x-1, y-1)
    of them."""
    return tuple(sorted(
        FiberOrderedMap(y, fibers) for f in surjections(x, y)
        for fibers in product(*map(permutations, f.fibers))))


def epi_count(x, y):
    """len(epi_maps(x, y)) = x! C(x-1, y-1): a permutation of {1..x} cut
    into y non-empty intervals."""
    return factorial(x) * comb(x - 1, y - 1)


# -- strings of epimorphisms -----------------------------------------------------

def epi_strings(x, n, to_point=False, normalized=True):
    """Composable strings (f_1, .., f_n) of epimorphisms starting at
    {1..x}; with to_point=True the final codomain is the one-point set,
    and with normalized=True identities are excluded."""
    return map_strings(epi_maps, x, n, to_point, normalized)


class SymmetricComplex(SliceComplex):
    """The normalized Gabriel-Zisman complex of the epi subcategory with the
    ideal bar construction: full variant, or the quotient by strings whose
    final codomain is bigger than a point."""

    # bound in this class's own namespace so that per-class wrappers
    # (such as tracing spans) can replace them without touching the engine
    basis = SliceComplex.basis
    boundary = SliceComplex.boundary

    def __init__(self, alg, variant="full", normalized=True):
        if variant not in ("full", "quotient"):
            raise ValueError("variant must be 'full' or 'quotient'")
        super().__init__(alg.field)
        self.alg = alg
        self.variant = variant
        self.normalized = normalized

    def iter_basis(self, n, w):
        to_point = self.variant == "quotient"
        for x in range(1, w + 1):
            for string in epi_strings(x, n, to_point, self.normalized):
                for slots in self.alg.tensors(x, w):
                    yield (string, slots)

    def count(self, n, w):
        """dim(n, w) from closed-form counts, without building the basis."""
        to_point = self.variant == "quotient"
        return sum(string_count(epi_count, x, n, to_point, self.normalized)
                   * self.alg.tensor_count(x, w) for x in range(1, w + 1))

    @staticmethod
    def sort_key(key):
        string, slots = key
        return (len(slots), tuple((f.cod, f.fibers) for f in string), slots)

    def _keeps(self, string, obj):
        """obj is the final codomain: the codomain of the last morphism, or
        the object itself for an empty string."""
        if self.normalized and any(f._is_id for f in string):
            return False
        if self.variant == "quotient" and obj != 1:
            return False
        return True

    def faces(self, key):
        """Faces 0..n of a generator of degree n >= 1."""
        string, slots = key
        keeps, one = self._keeps, self.field.one
        new_string = string[1:]
        obj = new_string[-1].cod if new_string else string[0].cod
        out = [[((new_string, new_slots), c) for new_slots, c
                in self.alg.map_tensor(string[0], slots)]
               if keeps(new_string, obj) else []]
        for i in range(1, len(string)):
            # strings are composable by construction: no after() check
            comp = _compose_fom(string[i], string[i - 1])
            new_string = string[:i - 1] + (comp,) + string[i + 1:]
            out.append([((new_string, slots), one)]
                       if keeps(new_string, new_string[-1].cod) else [])
        new_string = string[:-1]
        obj = new_string[-1].cod if new_string else len(slots)
        out.append([((new_string, slots), one)] if keeps(new_string, obj)
                   else [])
        return out


# -- the quotient map and the comparison map -------------------------------------

def quotient_matrix(sym_full, sym_quot, n, w):
    """The quotient map killing classes whose final codomain is bigger than
    a point."""
    def image(key):
        string, slots = key
        obj = string[-1].cod if string else len(slots)
        return key if obj == 1 else None

    return basis_map_matrix(sym_full, sym_quot, n, w, image)


def forget_string(string):
    return tuple(f.underlying() for f in string)


def phi_matrix(sym_quot, gamma_ideal, n, w):
    """The comparison map: forget the fiber orders, tensor untouched, unit
    module slot."""
    return basis_map_matrix(
        sym_quot, gamma_ideal, n, w,
        lambda key: (forget_string(key[0]), key[1], 0))


class ComparisonData:
    """The surjection NCS -> NC-Gamma(I, k) at one weight with its short
    exact sequence 0 -> ker(phi o q) -> NCS -> NC-Gamma -> 0,
    certificates included.

    The symmetric quotient's slice, quot_chain, is built on first use:
    only the chain-map certificates of q and phi read its boundaries,
    while q, phi and proj need only its basis.  So the short exact
    sequence and its long exact sequence never assemble it, and a
    quotient that is not a complex raises NotAComplexError from
    q_is_chain_map or phi_is_chain_map."""

    def __init__(self, alg, w, top):
        self.alg = alg
        self.w = w
        self.top = top
        self.sym = SymmetricComplex(alg, "full")
        self.quot = SymmetricComplex(alg, "quotient")
        self.gamma = GammaComplex(alg, Coefficients(alg, "k"), "I")
        self.sym_chain = self.sym.slice(w, top)
        self.gamma_chain = self.gamma.slice(w, top)
        self.q = [quotient_matrix(self.sym, self.quot, n, w)
                  for n in range(top + 1)]
        self.phi = [phi_matrix(self.quot, self.gamma, n, w)
                    for n in range(top + 1)]
        self.proj = [self.phi[n].mul(self.q[n]) for n in range(top + 1)]
        self._kernel = None

    @cached_property
    def quot_chain(self):
        return self.quot.slice(self.w, self.top)

    def q_is_chain_map(self):
        return check_chain_map(self.q, self.sym_chain, self.quot_chain)

    def phi_is_chain_map(self):
        return check_chain_map(self.phi, self.quot_chain, self.gamma_chain)

    def surjective(self):
        """Every gamma basis element is the image of a first column."""
        return all(None not in basis_map_section(p)[1] for p in self.proj)

    def kernel(self):
        """(inclusion columns, KernelSlice) of ker(phi o q) in sym_chain,
        built once.  check_ses, which every consumer of ses() runs before
        reading the kernel's homology, certifies that it is a subcomplex."""
        if self._kernel is None:
            self._kernel = KernelSlice(self.proj, self.sym_chain)
        return self._kernel.inc, self._kernel

    def ses(self):
        """(KernelSlice, gamma_chain), as check_ses and the long exact
        sequence take the short exact sequence."""
        return self.kernel()[1], self.gamma_chain


def reduced_symmetric_homology(alg, max_n, max_w, normalized=True):
    """Reduced symmetric homology dimensions per (degree, weight)."""
    return SymmetricComplex(alg, "full", normalized).homology_table(
        max_n, max_w)


def hs0_law(sym, w):
    """The degree-zero law at weight w of a full SymmetricComplex, as
    (w, dim of reduced HS_0 plus 1 at w = 0, dim of the weight-w piece of
    the algebra); the law holds when the last two agree."""
    h0 = sym.slice(w, 1).homology()[0]
    return (w, h0 + (1 if w == 0 else 0), sym.alg.dim_of_weight(w))


def hs0_consistency(alg, max_w):
    """The degree-zero law in every weight through max_w."""
    sym = SymmetricComplex(alg, "full")
    return [hs0_law(sym, w) for w in range(max_w + 1)]
