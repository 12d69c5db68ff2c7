"""The category of finite sets and surjections, the Robinson-Whitehouse
complex per (degree, weight), the pruning map and gamma homology tables.

A degree-n basis element is (string, slots, module index) where string is a
tuple (f_1, .., f_n) of composable surjections whose final codomain is the
one-point set, and slots is a basic tensor on the initial domain.  Strings
of the normalized complex contain no identity.

Weight truncation: a slice (n, w) keeps only strings whose initial domain x
has x <= w.  For the ideal-tensor variant this loses nothing (every slot
has weight >= 1); for the full-algebra variant it is a genuine subcomplex
truncation (faces never enlarge the initial domain) and every report is to
be read as such.

The full-algebra slices grow quickly (strings times basic tensors), so the
pruning certificates can also be checked in a streaming fashion, one
generator at a time, without materializing any matrix.
"""

from functools import lru_cache
from itertools import product as iproduct

from .chains import (SliceComplex, basis_map_matrix, check_chain_map,
                     span_slice)
from .sparse import SparseMatrix, kernel_basis, rank


class Surjection:
    """A surjection {1..x} -> {1..y} stored by its image tuple."""

    __slots__ = ("cod", "images", "_hash", "_is_id")

    def __init__(self, cod, images):
        self.cod = cod
        self.images = tuple(images)
        self._hash = hash((cod, self.images))
        self._is_id = cod == len(self.images) and all(
            v == i for i, v in enumerate(self.images, start=1))

    @property
    def dom(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i - 1]

    def is_identity(self):
        return self._is_id

    def after(self, other):
        """Composite self o other."""
        if other.cod != self.dom:
            raise ValueError("surjections not composable")
        return _compose(self, other)

    def fiber(self, j):
        return tuple(i for i, v in enumerate(self.images, start=1) if v == j)

    @property
    def fibers(self):
        """The fibers over 1..cod, each in ascending order."""
        return tuple(self.fiber(j) for j in range(1, self.cod + 1))

    def __eq__(self, other):
        return (isinstance(other, Surjection)
                and self.cod == other.cod and self.images == other.images)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return (self.cod, self.images) < (other.cod, other.images)

    def __repr__(self):
        return f"Surjection({self.dom}->{self.cod}, {self.images})"


@lru_cache(maxsize=None)
def _compose(g, f):
    return Surjection(g.cod, tuple(g.images[v - 1] for v in f.images))


@lru_cache(maxsize=None)
def surjections(x, y):
    """All surjections {1..x} -> {1..y}, sorted; count is y! S(x, y)."""
    if x < y or y < 1:
        raise ValueError(f"no surjections {x} -> {y}")
    out = []
    for images in iproduct(range(1, y + 1), repeat=x):
        if len(set(images)) == y:
            out.append(Surjection(y, images))
    return tuple(out)


@lru_cache(maxsize=None)
def strings_to_point(x, n, normalized=True):
    """Composable strings (f_1, .., f_n) from {1..x} with final codomain the
    one-point set; identities excluded when normalized."""
    if n == 0:
        return ((),) if x == 1 else ()
    out = []
    for y in range(1, x + 1):
        for f in surjections(x, y):
            if normalized and f.is_identity():
                continue
            for rest in strings_to_point(y, n - 1, normalized):
                out.append((f,) + rest)
    return tuple(out)


def induced_tensor_map(alg, f, slots):
    """Image of a basic tensor under a surjection: output slot j is the
    product over the fiber of j.  Returns [(out_slots, coeff)] terms."""
    if len(slots) != f.dom:
        raise ValueError("tensor length does not match the surjection")
    return alg.map_tensor(f, slots)


@lru_cache(maxsize=None)
def ith_component(string, i):
    """The part of (f_1, .., f_n) lying over element i of the domain of the
    last morphism: the restricted, order-preservingly re-indexed string of
    f_1 .. f_{n-1}, plus the ordered preimage of i in the initial domain.

    For a length-1 string the component is the empty string at the
    one-point set and the preimage is {i}.
    """
    n = len(string)
    if n == 0:
        raise ValueError("empty string has no components")
    if not 1 <= i <= string[-1].dom:
        raise ValueError(f"component index {i} out of range")
    preimage = (i,)
    for f in reversed(string[:-1]):
        preimage = tuple(p for p in range(1, f.dom + 1) if f(p) in preimage)
    return _prune_string(string[:-1], preimage), preimage


class GammaComplex(SliceComplex):
    """Slice-by-slice view of the surjection-string complex for one algebra,
    one coefficient module and one tensor variant ('I' or 'A')."""

    # bound in this class's own namespace so that per-class wrappers
    # (such as tracing spans) can replace them without touching the engine
    basis = SliceComplex.basis
    boundary_terms = SliceComplex.boundary_terms

    def __init__(self, alg, coeffs, variant="I", normalized=True):
        if variant not in ("I", "A"):
            raise ValueError("variant must be 'I' or 'A'")
        super().__init__(alg.field)
        self.alg = alg
        self.coeffs = coeffs
        self.variant = variant
        self.normalized = normalized

    def iter_basis(self, n, w):
        """Basis elements in canonical order, without storing them."""
        unit = self.variant == "A"
        for x in range(1, w + 1):
            for string in strings_to_point(x, n, self.normalized):
                for m in self.coeffs.basis():
                    rest = w - self.coeffs.weight(m)
                    for slots in self.alg.tensors(x, rest, unit):
                        yield (string, slots, m)

    @staticmethod
    def degree(key):
        return len(key[0])

    @staticmethod
    def sort_key(key):
        string, slots, m = key
        return (len(slots),
                tuple((f.cod, f.images) for f in string),
                slots, m)

    def _is_basis_string(self, string):
        return not self.normalized or all(not f._is_id for f in string)

    def face_terms(self, key, i):
        """The i-th face of a generator; in the normalized complex, strings
        containing an identity are dropped."""
        string, slots, m = key
        n = len(string)
        out = []
        if i == 0:
            new_string = string[1:]
            if self._is_basis_string(new_string):
                for new_slots, c in self.alg.map_tensor(string[0], slots):
                    out.append(((new_string, new_slots, m), c))
        elif i < n:
            comp = _compose(string[i], string[i - 1])
            if not (self.normalized and comp._is_id):
                new_string = string[:i - 1] + (comp,) + string[i + 1:]
                out.append(((new_string, slots, m), self.field.one))
        else:
            for t in range(1, string[-1].dom + 1):
                comp_string, preimage = ith_component(string, t)
                if not self._is_basis_string(comp_string):
                    continue
                new_slots = tuple(slots[p - 1] for p in preimage)
                rest = [v for p, v in enumerate(slots, start=1)
                        if p not in preimage]
                for m2, c in self.coeffs.act_all(rest, m):
                    out.append(((comp_string, new_slots, m2), c))
        return out


# -- pruning -----------------------------------------------------------------

@lru_cache(maxsize=None)
def _prune_string(string, kept):
    """Restrict a string to the kept domain positions, re-indexing every
    domain and codomain order-preservingly."""
    new_string = []
    current = kept
    for f in string:
        image = sorted({f(p) for p in current})
        relabel = {v: t for t, v in enumerate(image, start=1)}
        new_string.append(Surjection(len(image), tuple(relabel[f(p)]
                                                       for p in current)))
        current = image
    return tuple(new_string)


def prune_generator(key):
    """Prune the trivial tensor slots out of a generator of the full-algebra
    complex: restrict every morphism to the positions carrying ideal slots,
    re-index order-preservingly, and keep the ideal slots.  Returns the
    pruned (string, slots, module) or None when every slot is trivial."""
    string, slots, m = key
    kept = tuple(p for p, v in enumerate(slots, start=1) if v != 0)
    if not kept:
        return None
    if len(kept) == len(slots):
        return key
    return (_prune_string(string, kept),
            tuple(slots[p - 1] for p in kept), m)


def prune_normalized(key):
    """Pruned class in the normalized ideal-variant complex: None when the
    tensor is all-trivial or the pruned string picks up an identity."""
    pruned = prune_generator(key)
    if pruned is None or any(f._is_id for f in pruned[0]):
        return None
    return pruned


def prune_matrix(full, ideal, n, w):
    """Matrix of the pruning map from the full-variant slice to the
    ideal-variant slice at (n, w)."""
    pruner = prune_normalized if full.normalized else prune_generator
    return basis_map_matrix(full, ideal, n, w, pruner)


class PruningData:
    """The pruning chain map with its certificates, per weight, built as
    matrices; the kernel subcomplex is assembled on demand."""

    def __init__(self, alg, coeffs, w, top, normalized=True):
        self.full = GammaComplex(alg, coeffs, "A", normalized)
        self.ideal = GammaComplex(alg, coeffs, "I", normalized)
        self.w = w
        self.top = top
        self.full_chain = self.full.slice(w, top)
        self.ideal_chain = self.ideal.slice(w, top)
        self.prune = [prune_matrix(self.full, self.ideal, n, w)
                      for n in range(top + 1)]
        self.include = [basis_map_matrix(self.ideal, self.full, n, w,
                                         lambda key: key)
                        for n in range(top + 1)]
        self._kernel = None

    def kernel(self):
        """(representative columns, ChainSlice) of ker(P) with the restricted
        boundary; solving certifies that the boundary preserves the kernel."""
        if self._kernel is None:
            reps = [kernel_basis(p) for p in self.prune]
            self._kernel = (reps, span_slice(self.full_chain.boundary, reps))
        return self._kernel

    def prune_is_chain_map(self):
        return check_chain_map(self.prune, self.full_chain, self.ideal_chain)

    def retraction_is_identity(self):
        for n in range(self.top + 1):
            comp = self.prune[n].mul(self.include[n])
            if comp != SparseMatrix.identity(self.full.field, comp.ncols):
                return False
        return True

    def splitting_dims_hold(self):
        for n in range(self.top + 1):
            rank_p = rank(self.prune[n])
            if rank_p != self.ideal_chain.dims[n]:
                return False
            kernel_dim = self.full_chain.dims[n] - rank_p
            if (self.full_chain.dims[n]
                    != self.ideal_chain.dims[n] + kernel_dim):
                return False
        return True


def prune_split_certificates(alg, coeffs, w, top, normalized=True):
    """Streamed check of the pruning-splitting certificates at one weight,
    one generator at a time (no matrices are materialized, so this scales
    to slices far beyond what PruningData can hold).

    Checks, exactly: the retraction law "prune o include = id", pruning
    commuting with the boundary on every generator, surjectivity of the
    pruning map, and the dimension identity of the splitting.  Returns a
    dict of booleans plus the per-degree (full, ideal) dimensions.
    """
    full = GammaComplex(alg, coeffs, "A", normalized)
    ideal = GammaComplex(alg, coeffs, "I", normalized)
    field = alg.field
    zero = field.zero
    pruner = prune_normalized if normalized else prune_generator
    out = {"retraction_identity": True, "chain_map": True,
           "surjective": True, "dims": []}
    for n in range(top + 1):
        ideal_keys = set()
        ideal_dim = 0
        for key in ideal.iter_basis(n, w):
            ideal_dim += 1
            ideal_keys.add(key)
            if pruner(key) != key:
                out["retraction_identity"] = False
        hit = set()
        full_dim = 0
        rhs_cache = {}
        for g in full.iter_basis(n, w):
            full_dim += 1
            slots = g[1]
            if 0 not in slots:
                # unit-free generators: pruning is the identity and the two
                # complexes share the face code, so the identity is immediate
                hit.add(g)
                continue
            pg = pruner(g)
            if pg is not None:
                hit.add(pg)
            if n >= 1:
                lhs = {}
                for tkey, c in full.boundary_terms(g).items():
                    pt = pruner(tkey)
                    if pt is None:
                        continue
                    s = field.add(lhs.get(pt, zero), c)
                    if s == zero:
                        lhs.pop(pt, None)
                    else:
                        lhs[pt] = s
                if pg is None:
                    rhs = {}
                elif pg in rhs_cache:
                    rhs = rhs_cache[pg]
                else:
                    rhs = rhs_cache[pg] = ideal.boundary_terms(pg)
                if lhs != rhs:
                    out["chain_map"] = False
        if hit != ideal_keys:
            out["surjective"] = False
        out["dims"].append((full_dim, ideal_dim))
    return out


def gamma_homology(alg, coeffs, variant, max_n, max_w, normalized=True):
    """Gamma homology dimensions per (degree, weight) computed from the
    surjection-string complex of the chosen variant."""
    return GammaComplex(alg, coeffs, variant, normalized).homology_table(
        max_n, max_w)
