"""Weight-graded augmented commutative algebras given by structure constants.

An algebra is the span of 1 and ideal generators b_1..b_d; the augmentation
kills the generators.  Products of generators are stored as elements, so an
invalid table (scalar parts, broken symmetry, broken grading) can be loaded
and then rejected by validate().

Basis slot encoding used throughout the chain modules: 0 stands for the
unit 1, a positive integer i stands for the generator b_i.
"""

import json
from dataclasses import dataclass
from itertools import product as iproduct

from .fields import QQ, field_from_name


@dataclass(frozen=True)
class AlgebraElement:
    """An element written in the canonical ideal-plus-scalar form."""

    algebra: "GradedAlgebra"
    scalar: object
    ideal: tuple  # coefficient of b_i at position i-1

    def __repr__(self):
        names = self.algebra.generators
        parts = []
        if self.scalar != self.algebra.field.zero:
            parts.append(str(self.scalar))
        for name, c in zip(names, self.ideal):
            if c != self.algebra.field.zero:
                parts.append(f"{c}*{name}")
        return " + ".join(parts) if parts else "0"


class GradedAlgebra:
    """Finite-dimensional augmented commutative algebra with a positive
    weight grading on the augmentation ideal."""

    def __init__(self, name, field, generators, weights, products):
        """products maps (i, j) with 1 <= i, j <= d to an element given as
        (scalar, {l: coeff}); missing pairs default to zero."""
        self.name = name
        self.field = field
        self.generators = list(generators)
        self.weights = list(weights)
        if len(self.generators) != len(self.weights):
            raise ValueError("generator/weight count mismatch")
        if any(w < 1 for w in self.weights):
            raise ValueError("generator weights must be positive")
        d = len(self.generators)
        self._table = {}
        for (i, j), (scalar, ideal) in products.items():
            if not (1 <= i <= d and 1 <= j <= d):
                raise ValueError(f"product index ({i},{j}) out of range")
            vec = [field.zero] * d
            for l, c in ideal.items():
                vec[l - 1] = c
            self._table[(i, j)] = AlgebraElement(self, scalar, tuple(vec))
        self._tensors = {}
        self._images = {}

    # -- elements ----------------------------------------------------------

    @property
    def dim_ideal(self):
        return len(self.generators)

    def zero(self):
        z = self.field.zero
        return AlgebraElement(self, z, (z,) * self.dim_ideal)

    def gen(self, i):
        """The i-th ideal generator, 1-based."""
        z = self.field.zero
        vec = [z] * self.dim_ideal
        vec[i - 1] = self.field.one
        return AlgebraElement(self, z, tuple(vec))

    def basis_product(self, i, j):
        """b_i * b_j from the structure table (zero if unspecified)."""
        elem = self._table.get((i, j))
        return elem if elem is not None else self.zero()

    def multiply(self, a, b):
        """(y + s)(y' + s') = yy' + s y' + s' y + s s'."""
        f = self.field
        zero = f.zero
        scalar = f.mul(a.scalar, b.scalar)
        vec = [zero] * self.dim_ideal
        for i, c in enumerate(a.ideal, start=1):
            if c != zero:
                vec[i - 1] = f.add(vec[i - 1], f.mul(b.scalar, c))
        for j, c in enumerate(b.ideal, start=1):
            if c != zero:
                vec[j - 1] = f.add(vec[j - 1], f.mul(a.scalar, c))
        for i, ca in enumerate(a.ideal, start=1):
            if ca == zero:
                continue
            for j, cb in enumerate(b.ideal, start=1):
                if cb == zero:
                    continue
                prod = self.basis_product(i, j)
                c = f.mul(ca, cb)
                scalar = f.add(scalar, f.mul(c, prod.scalar))
                for l, cl in enumerate(prod.ideal):
                    if cl != zero:
                        vec[l] = f.add(vec[l], f.mul(c, cl))
        return AlgebraElement(self, scalar, tuple(vec))

    # -- the slot calculus used by the chain modules ------------------------

    def slot_weight(self, v):
        return 0 if v == 0 else self.weights[v - 1]

    def slot_product(self, u, v):
        """Product of two basic slot values as [(slot, coeff)] terms.

        Valid tables keep products of generators inside the ideal; a
        nonzero scalar part here means the table is broken, so we refuse
        rather than mis-grade a chain group.
        """
        if u == 0:
            return [(v, self.field.one)]
        if v == 0:
            return [(u, self.field.one)]
        prod = self.basis_product(u, v)
        if prod.scalar != self.field.zero:
            raise ValueError(
                f"product b_{u} b_{v} has a scalar part; run validate()")
        return [(l, c) for l, c in enumerate(prod.ideal, start=1)
                if c != self.field.zero]

    def tensors(self, x, w, unit=False):
        """Basic tensors of length x and weight w in lexicographic order,
        built slot by slot within the remaining weight; the unit slot 0
        is allowed only when `unit` is set."""
        key = (x, w, unit)
        if key not in self._tensors:
            if x == 0:
                out = ((),) if w == 0 else ()
            else:
                out = tuple(
                    (v,) + rest
                    for v in range(0 if unit else 1, self.dim_ideal + 1)
                    if self.slot_weight(v) <= w
                    for rest in self.tensors(x - 1, w - self.slot_weight(v),
                                             unit))
            self._tensors[key] = out
        return self._tensors[key]

    def tensor_count(self, x, w, unit=False):
        """len(self.tensors(x, w, unit)) by a weight recursion that builds
        no tensor: the counts of length-k tensors per weight, k = 0..x."""
        if w < 0:
            return 0
        weights = [self.slot_weight(v)
                   for v in range(0 if unit else 1, self.dim_ideal + 1)]
        counts = [1] + [0] * w
        for _ in range(x):
            counts = [sum(counts[u - wt] for wt in weights if wt <= u)
                      for u in range(w + 1)]
        return counts[w]

    def fiber_product(self, slots, fibers):
        """The basic tensor whose j-th slot is the ordered product of the
        slots at the (1-based) positions in fibers[j]; an empty fiber gives
        the unit.  Returns [(out_slots, coeff)] terms."""
        field = self.field
        terms = [((), field.one)]
        for fiber in fibers:
            prod = [(0, field.one)]
            for i in fiber:
                prod = [
                    (l, field.mul(c, cl))
                    for slot_val, c in prod
                    for l, cl in self.slot_product(slot_val, slots[i - 1])
                ]
            terms = [(out + (l,), field.mul(c, cl))
                     for out, c in terms for l, cl in prod]
        return terms

    def map_tensor(self, f, slots):
        """fiber_product along the fibers of a map f (a surjection or a
        fiber-ordered map), cached per (f, slots)."""
        key = (f, slots)
        if key not in self._images:
            self._images[key] = self.fiber_product(slots, f.fibers)
        return self._images[key]

    # -- validation ---------------------------------------------------------

    def validate(self):
        """Check every algebra axiom on the structure table.

        Returns a list of human-readable violation strings; empty means the
        table is a commutative, associative, augmented, weight-graded
        algebra.
        """
        f = self.field
        d = self.dim_ideal
        problems = []
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                pij = self.basis_product(i, j)
                pji = self.basis_product(j, i)
                if pij.scalar != pji.scalar or pij.ideal != pji.ideal:
                    problems.append(
                        f"commutativity: b{i}*b{j} != b{j}*b{i}")
                if pij.scalar != f.zero:
                    problems.append(
                        f"augmentation: b{i}*b{j} has scalar part "
                        f"{f.to_str(pij.scalar)}")
                wsum = self.weights[i - 1] + self.weights[j - 1]
                for l, c in enumerate(pij.ideal, start=1):
                    if c != f.zero and self.weights[l - 1] != wsum:
                        problems.append(
                            f"grading: b{i}*b{j} hits b{l} of weight "
                            f"{self.weights[l - 1]}, expected {wsum}")
        for i, j, l in iproduct(range(1, d + 1), repeat=3):
            left = self.multiply(self.multiply(self.gen(i), self.gen(j)),
                                 self.gen(l))
            right = self.multiply(self.gen(i),
                                  self.multiply(self.gen(j), self.gen(l)))
            if left.scalar != right.scalar or left.ideal != right.ideal:
                problems.append(f"associativity fails on (b{i}, b{j}, b{l})")
        return problems

    def dim_of_weight(self, w):
        """Dimension of the weight-w piece of the whole algebra."""
        if w == 0:
            return 1
        return sum(1 for wt in self.weights if wt == w)

    def __repr__(self):
        return f"GradedAlgebra({self.name!r}, {self.field}, dim I={self.dim_ideal})"


# -- coefficient bimodules ---------------------------------------------------

class Coefficients:
    """A symmetric bimodule over the algebra: either k via the augmentation
    or the algebra itself.  Module basis indices use the slot encoding."""

    def __init__(self, algebra, kind):
        if kind not in ("k", "A"):
            raise ValueError("coefficients must be 'k' or 'A'")
        self.algebra = algebra
        self.kind = kind

    def basis(self):
        if self.kind == "k":
            return [0]
        return list(range(self.algebra.dim_ideal + 1))

    def weight(self, idx):
        return 0 if idx == 0 else self.algebra.weights[idx - 1]

    def act(self, slot, idx):
        """Multiply the module basis element by a basic slot value; returns
        [(module index, coeff)] terms."""
        if self.kind == "k":
            # a . m = eps(a) m
            if slot == 0:
                return [(idx, self.algebra.field.one)]
            return []
        return self.algebra.slot_product(slot, idx)

    def act_all(self, slots, idx):
        """Multiply the module basis element by each basic slot value in
        turn; returns [(module index, coeff)] terms."""
        field = self.algebra.field
        mods = [(idx, field.one)]
        for v in slots:
            mods = [(m2, field.mul(c, c2))
                    for m1, c in mods for m2, c2 in self.act(v, m1)]
            if not mods:
                break
        return mods

    def __repr__(self):
        return f"Coefficients({self.kind})"


# -- presets and the description-file format ---------------------------------

def _dual_numbers(field):
    return GradedAlgebra("dual-numbers", field, ["x"], [1], {})


def _truncated(field, m):
    gens = [f"x{'' if e == 1 else e}" for e in range(1, m)]
    weights = list(range(1, m))
    products = {}
    for i in range(1, m):
        for j in range(1, m):
            if i + j < m:
                products[(i, j)] = (field.zero, {i + j: field.one})
    return GradedAlgebra(f"trunc{m}", field, gens, weights, products)


def _square_zero_xy(field):
    return GradedAlgebra("square-zero-xy", field, ["x", "y"], [1, 1], {})


PRESETS = {
    "dual-numbers": _dual_numbers,
    "trunc3": lambda field: _truncated(field, 3),
    "trunc4": lambda field: _truncated(field, 4),
    "square-zero-xy": _square_zero_xy,
}


def preset(name, field=QQ):
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; choices: {sorted(PRESETS)}")
    alg = PRESETS[name](field)
    problems = alg.validate()
    if problems:
        raise AssertionError(f"preset {name} failed validation: {problems}")
    return alg


def algebra_from_dict(data, field_override=None):
    """Build an algebra from the description-file structure.

    Expected keys: name, field ("Q" or "Fp:<p>"), generators (list of
    {symbol, weight}), products (list of {left, right, result}) where
    result maps symbols (or "1") to coefficient strings.  Unspecified
    products are zero; a product given in one order is mirrored unless the
    other order is also given.
    """
    field = field_override or field_from_name(data.get("field", "Q"))
    gens = [g["symbol"] for g in data["generators"]]
    weights = [int(g["weight"]) for g in data["generators"]]
    index = {s: i for i, s in enumerate(gens, start=1)}
    given = {}
    for entry in data.get("products", []):
        i = index[entry["left"]]
        j = index[entry["right"]]
        scalar = field.zero
        ideal = {}
        for sym, coeff in entry["result"].items():
            c = field.parse(coeff)
            if sym == "1":
                scalar = c
            else:
                ideal[index[sym]] = c
        given[(i, j)] = (scalar, ideal)
    products = dict(given)
    for (i, j), val in given.items():
        products.setdefault((j, i), val)
    return GradedAlgebra(data.get("name", "unnamed"), field, gens, weights,
                         products)


def load_algebra(path, field_override=None):
    with open(path) as fh:
        data = json.load(fh)
    return algebra_from_dict(data, field_override)
