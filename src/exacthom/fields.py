"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

All linear algebra in this package runs over one of these two fields.
Elements are plain Python objects; the field object supplies the
arithmetic so that generic code never rounds and never special-cases.

A rational is a plain ``int`` whenever it is integral and a ``Fraction``
only when it is a genuine fraction: boundary entries and most pivots are
integers, and int arithmetic is many times cheaper.
Every operation returns this normal form, so a float never appears
(``1 / 3`` on ints would be one; ``of(num, den)`` divides through the
rational type instead).  A prime-field element is an int in ``0..p-1``.

The hot loops (group algebra products, Sigma_n actions, boundary sums,
matrix products) do not go through ``add`` and ``mul`` per term.  They
read their inputs as integers over a common denominator (``scaled``),
accumulate native sums, and form the normal form once per output entry
(``normal_terms`` for a dict of sums over one denominator, ``of(num,
den)`` for a single entry).
"""

from fractions import Fraction
from math import lcm

_rat = Fraction  # the one rational type; perfbench records its name


def _q(x):
    """The normal form of a rational x: an int when integral, else x."""
    if x.denominator == 1:
        return int(x.numerator)
    return x


class Rationals:
    """The field of rational numbers with exact arbitrary-precision arithmetic."""

    name = "Q"
    characteristic = 0
    zero = 0
    one = 1

    def of(self, num, den=1):
        if den == 1 and type(num) is int:
            return num
        return _q(_rat(num, den))

    def scaled(self, values):
        """(ints, d): a dict of rationals as integers over the lcm d of
        their denominators, each value being ints[k] / d."""
        d = 1
        for v in values.values():
            if type(v) is not int:
                d = lcm(d, v.denominator)
        if d == 1:
            return values, 1
        return {k: v.numerator * (d // v.denominator)
                for k, v in values.items()}, d

    def normal_terms(self, sums, den=1):
        """The nonzero entries sum / den of a dict of native sums (ints,
        or rationals when den is 1), in normal form."""
        if den == 1:
            return {k: s if type(s) is int else _q(s)
                    for k, s in sums.items() if s}
        return {k: _q(_rat(s, den)) for k, s in sums.items() if s}

    def parse(self, text):
        return _q(_rat(str(text)))

    def add(self, a, b):
        c = a + b
        return c if type(c) is int else _q(c)

    def mul(self, a, b):
        c = a * b
        return c if type(c) is int else _q(c)

    def neg(self, a):
        return -a

    def to_str(self, a):
        return str(a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("exacthom.QQ")


class PrimeField:
    """The field with p elements, p prime.  Elements are ints reduced mod p."""

    characteristic = None

    def __init__(self, p):
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def of(self, num, den=1):
        """num / den mod p; raises ZeroDivisionError when p divides den."""
        a = num % self.p
        if den != 1:
            a = a * self.inv(den % self.p) % self.p
        return a

    def scaled(self, values):
        """(values, 1): elements mod p are already integers."""
        return values, 1

    def normal_terms(self, sums, den=1):
        """The nonzero entries sum / den of a dict of int sums, reduced."""
        p = self.p
        inv = 1 if den == 1 else self.inv(den % p)
        return {k: v for k, s in sums.items() if (v := s * inv % p)}

    def parse(self, text):
        text = str(text)
        if "/" in text:
            num, den = text.split("/")
            return self.of(int(num), int(den))
        return self.of(int(text))

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def to_str(self, a):
        return str(a)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("exacthom.GF", self.p))


QQ = Rationals()

_gf_cache = {}


def GF(p):
    """The prime field with p elements (instances cached per p)."""
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def field_from_name(name):
    """Parse a field designator: "Q" or "Fp:<p>"."""
    if name == "Q":
        return QQ
    if name.startswith("Fp:"):
        return GF(int(name[3:]))
    raise ValueError(f"unknown field {name!r} (expected 'Q' or 'Fp:<p>')")
