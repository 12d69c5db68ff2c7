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
pruning certificates are checked one generator at a time, without
materializing any matrix.

FiniteMap is the interning core of the surjections here and of the
fiber-ordered maps of symhom: there is one object per map, so equality is
identity and hashing is by object, in strings, basis keys and caches
alike.  One string recursion, map_strings, builds the strings of either
category from its hom-sets, and string_count counts them from closed-form
hom-set sizes, so slice dimensions are known without enumerating a basis.
What the faces of a generator need from its string is computed once per
string (the face plan), and a restriction once per (surjection, kept
positions); these caches are keyed by morphisms and strings only, so they
stay bounded by the strings of a slice.  The last face's components are
the fibers of one composite, f_{n-1} o .. o f_1.  faces(key) reads the
plan once per generator and gives all its faces at once.  The pruning
check streams them, for each full generator, into one pruned alternating
sum, without building that generator's boundary, and prunes each distinct
face term once, through a memo that lives for one degree of one check.
Pruning a normalized string stops at the first map that restricts to an
identity, since the string has then left the complex; most unit-carrying
generators and most of their face terms end there.
"""

from functools import lru_cache
from itertools import product as iproduct
from math import comb

from .chains import SliceComplex


class FiniteMap:
    """The interning core of Surjection and FiberOrderedMap: a map
    {1..x} -> {1..y} held by its image tuple and its fibers.

    A class builds its maps as Class(cod, data) and returns the one object
    for that (cod, data), so equality is identity and hashing is by object.
    The first construction of a map validates it, and an invalid one is
    never interned.  A subclass gives its own intern table, _freeze (data
    as a hashable tuple), _parse ((images, fibers) from the frozen data,
    raising ValueError when it is invalid) and _by (the attribute that
    holds the data).
    """

    __slots__ = ("cod", "images", "fibers", "dom", "_is_id")

    def __new__(cls, cod, data):
        data = cls._freeze(data)
        self = cls._interned.get((cod, data))
        if self is not None:
            return self
        self = super().__new__(cls)
        self.cod = cod
        self.images, self.fibers = cls._parse(cod, data)
        self.dom = len(self.images)
        self._is_id = self.images == tuple(range(1, cod + 1))
        # setdefault keeps one object even if two threads build it at once
        return cls._interned.setdefault((cod, data), self)

    def __reduce__(self):
        # pickle and copy rebuild through __new__, so they get the interned
        # object back
        return (type(self), (self.cod, getattr(self, self._by)))

    def __call__(self, i):
        return self.images[i - 1]

    def is_identity(self):
        return self._is_id

    def __repr__(self):
        return (f"{type(self).__name__}({self.dom}->{self.cod}, "
                f"{getattr(self, self._by)})")


class Surjection(FiniteMap):
    """A surjection {1..x} -> {1..y} stored by its image tuple, interned."""

    __slots__ = ()
    _interned = {}
    _freeze = tuple
    _by = "images"

    @staticmethod
    def _parse(cod, images):
        if any(not 1 <= v <= cod for v in images):
            raise ValueError(f"image outside 1..{cod} in {images}")
        if len(set(images)) != cod:
            raise ValueError(f"{images} misses a point of 1..{cod}")
        return images, tuple(
            tuple(i for i, v in enumerate(images, start=1) if v == j)
            for j in range(1, cod + 1))

    def after(self, other):
        """Composite self o other."""
        if other.cod != self.dom:
            raise ValueError("surjections not composable")
        return _compose(self, other)

    def __lt__(self, other):
        return (self.cod, self.images) < (other.cod, other.images)


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


def surjection_count(x, y):
    """len(surjections(x, y)) = y! S(x, y), by inclusion-exclusion."""
    return sum((-1) ** j * comb(y, j) * (y - j) ** x for j in range(y + 1))


@lru_cache(maxsize=None)
def map_strings(homs, x, n, to_point, normalized):
    """Composable strings (f_1, .., f_n) starting at {1..x}, with f drawn
    from homs(x, y), the hom-set {1..x} -> {1..y}: the final codomain is
    the one-point set when to_point, and identities are excluded when
    normalized.  Strings come in the order of the first map, then of the
    rest."""
    if n == 0:
        return ((),) if x == 1 or not to_point else ()
    return tuple((f,) + rest
                 for y in range(1, x + 1) for f in homs(x, y)
                 if not (normalized and f._is_id)
                 for rest in map_strings(homs, y, n - 1, to_point,
                                         normalized))


@lru_cache(maxsize=None)
def string_count(hom_count, x, n, to_point, normalized):
    """len(map_strings(homs, x, n, to_point, normalized)) from the
    hom-set sizes hom_count(x, y) alone: the same recursion on counts, with
    the identity {1..x} -> {1..x} taken out when normalized."""
    if n == 0:
        return int(x == 1 or not to_point)
    return sum((hom_count(x, y) - (normalized and x == y))
               * string_count(hom_count, y, n - 1, to_point, normalized)
               for y in range(1, x + 1))


def strings_to_point(x, n, normalized=True):
    """Composable strings (f_1, .., f_n) of surjections from {1..x} with
    final codomain the one-point set; identities excluded when
    normalized."""
    return map_strings(surjections, x, n, True, normalized)


@lru_cache(maxsize=None)
def _face_plan(string, normalized):
    """Everything the faces of a degree-n generator need from its string:
    for faces 0..n-1 the new string, or None when it leaves the complex
    (normalized strings contain no identity), and for the last face the
    (component string, preimage, other positions) of every component that
    stays in the complex."""
    n = len(string)
    faces = [None if normalized and any(f._is_id for f in string[1:])
             else string[1:]]
    for i in range(1, n):
        comp = _compose(string[i], string[i - 1])
        faces.append(None if normalized and comp._is_id
                     else string[:i - 1] + (comp,) + string[i + 1:])
    # the components' preimages are the fibers, each sorted, of
    # f_{n-1} o .. o f_1 (of the identity when n = 1)
    x = string[0].dom
    through = Surjection(x, range(1, x + 1))
    for f in string[:-1]:
        through = _compose(f, through)
    components = []
    for preimage in through.fibers:
        comp_string = _prune_string(string[:-1], preimage, normalized)
        if comp_string is not None:
            others = tuple(p for p in range(1, x + 1) if p not in preimage)
            components.append((comp_string, preimage, others))
    return tuple(faces), tuple(components)


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

    def count(self, n, w):
        """dim(n, w) from closed-form counts, without building the basis."""
        unit = self.variant == "A"
        return sum(
            string_count(surjection_count, x, n, True, self.normalized)
            * sum(self.alg.tensor_count(x, w - self.coeffs.weight(m), unit)
                  for m in self.coeffs.basis())
            for x in range(1, w + 1))

    @staticmethod
    def sort_key(key):
        string, slots, m = key
        return (len(slots),
                tuple((f.cod, f.images) for f in string),
                slots, m)

    def faces(self, key):
        """Faces 0..n of a generator of degree n >= 1, read off one face
        plan; in the normalized complex, strings containing an identity
        are dropped."""
        string, slots, m = key
        plan, components = _face_plan(string, self.normalized)
        first = plan[0]
        out = [[] if first is None else [
            ((first, new_slots, m), c)
            for new_slots, c in self.alg.map_tensor(string[0], slots)]]
        one = self.field.one
        out += [[] if inner is None else [((inner, slots, m), one)]
                for inner in plan[1:]]
        last = []
        act_all = self.coeffs.act_all
        for comp_string, preimage, others in components:
            new_slots = tuple([slots[p - 1] for p in preimage])
            for m2, c in act_all([slots[p - 1] for p in others], m):
                last.append(((comp_string, new_slots, m2), c))
        out.append(last)
        return out


# -- pruning -----------------------------------------------------------------

@lru_cache(maxsize=None)
def _restrict(f, kept):
    """f restricted to the kept domain positions, domain and codomain
    re-indexed order-preservingly, with the image of the kept positions."""
    image = tuple(sorted({f(p) for p in kept}))
    relabel = {v: t for t, v in enumerate(image, start=1)}
    return Surjection(len(image), [relabel[f(p)] for p in kept]), image


def _prune_string(string, kept, normalized):
    """Restrict a string to the kept domain positions, re-indexing every
    domain and codomain order-preservingly.  A normalized string that picks
    up an identity has left the complex, so the first restricted identity
    returns None and the maps after it are not restricted."""
    new_string = []
    for f in string:
        g, kept = _restrict(f, kept)
        if normalized and g._is_id:
            return None
        new_string.append(g)
    return tuple(new_string)


def _prune(key, normalized):
    string, slots, m = key
    if 0 not in slots:
        return None if normalized and any(f._is_id for f in string) else key
    kept = tuple([p for p, v in enumerate(slots, start=1) if v])
    if not kept:
        return None
    new_string = _prune_string(string, kept, normalized)
    if new_string is None:
        return None
    return new_string, tuple([v for v in slots if v]), m


def prune_generator(key):
    """Prune the trivial tensor slots out of a generator of the full-algebra
    complex: restrict every morphism to the positions carrying ideal slots,
    re-index order-preservingly, and keep the ideal slots.  Returns the
    pruned (string, slots, module) or None when every slot is trivial."""
    return _prune(key, False)


def prune_normalized(key):
    """Pruned class in the normalized ideal-variant complex: None when the
    tensor is all-trivial or the pruned string picks up an identity."""
    return _prune(key, True)


# a memo value that no pruner returns
_UNSEEN = object()


def prune_split_certificates(alg, coeffs, w, top, normalized=True):
    """The pruning-splitting certificates at one weight, checked one
    generator at a time; no matrix is built.

    Checks, exactly: "retraction_identity", the law prune o include = id
    on every ideal generator, "chain_map", pruning commuting with the
    boundary on every full generator that carries a unit slot, and
    "surjective", the pruned images of all full generators being exactly
    the ideal basis.  The unit-free full generators are not compared for
    "chain_map": they are the ideal generators, and the two variants share
    faces, so for them the law follows from "retraction_identity".  The
    unit-free full generators must be exactly the ideal generators; their
    images are the pruner's images of the ideal basis, so a pruner that
    loses an ideal generator fails "surjective" as well as
    "retraction_identity".
    Returns the three booleans plus the per-degree (full, ideal)
    dimensions, which are reported, not checked.  Every pass must come from
    a comparison that ran, so top < 1 (no boundary) and w < 0 (no
    generator) are refused.

    A nonempty pruned sum is always put in the field's normal form before
    it is compared: over F_p an unreduced sum can be a nonzero multiple of
    p, so a nonzero value in it does not mean a nonzero sum.  Only an empty
    sum, whose normal form is empty, skips it.
    """
    if top < 1:
        raise ValueError(f"the pruning check compares boundaries and needs "
                         f"a top degree of at least 1; got {top}")
    if w < 0:
        raise ValueError(f"the pruning check needs a weight of at least 0; "
                         f"got {w}")
    full = GammaComplex(alg, coeffs, "A", normalized)
    ideal = GammaComplex(alg, coeffs, "I", normalized)
    field = alg.field
    pruner = prune_normalized if normalized else prune_generator
    faces = full.faces
    out = {"retraction_identity": True, "chain_map": True,
           "surjective": True, "dims": []}
    for n in range(top + 1):
        ideal_keys = set()
        hit = set()
        for key in ideal.iter_basis(n, w):
            ideal_keys.add(key)
            pk = pruner(key)
            if pk != key:
                out["retraction_identity"] = False
            if pk is not None:
                hit.add(pk)
        full_dim = unit_free = 0
        rhs_cache = {}
        # boundary terms recur across the generators of a degree: prune
        # each distinct one once, and drop the memo with the degree
        pruned = {}
        seen = pruned.get
        for g in full.iter_basis(n, w):
            full_dim += 1
            slots = g[1]
            if 0 not in slots:
                # unit-free generators are the ideal generators: their
                # pruned images were taken above, and the two complexes
                # share the face code, so the chain map law is immediate
                unit_free += 1
                if g not in ideal_keys:
                    out["surjective"] = False
                continue
            pg = pruner(g)
            if pg is not None:
                hit.add(pg)
            if n == 0:
                continue
            # stream the faces of g into one pruned alternating sum
            lhs = {}
            get = lhs.get
            plus = True
            for terms in faces(g):
                for tkey, c in terms:
                    pt = seen(tkey, _UNSEEN)
                    if pt is _UNSEEN:
                        pt = pruned[tkey] = pruner(tkey)
                    if pt is not None:
                        lhs[pt] = get(pt, 0) + c if plus else get(pt, 0) - c
                plus = not plus
            if lhs:
                lhs = field.normal_terms(lhs)
            if pg is None:
                rhs = {}
            elif pg in rhs_cache:
                rhs = rhs_cache[pg]
            else:
                rhs = rhs_cache[pg] = ideal.boundary_terms(pg)
            if lhs != rhs:
                out["chain_map"] = False
        if hit != ideal_keys or unit_free != len(ideal_keys):
            out["surjective"] = False
        out["dims"].append((full_dim, len(ideal_keys)))
    return out


def gamma_homology(alg, coeffs, variant, max_n, max_w, normalized=True):
    """Gamma homology dimensions per (degree, weight) computed from the
    surjection-string complex of the chosen variant."""
    return GammaComplex(alg, coeffs, variant, normalized).homology_table(
        max_n, max_w)
