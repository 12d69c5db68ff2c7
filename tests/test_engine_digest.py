"""Differential test of the complex and elimination engines against a
recorded reference.

Every slice case hashes the basis tuples and the sorted boundary entries
of the small slices (degree n <= 3, weight w <= 3) of one complex.  The
digests were recorded from the separate per-theory complex classes that
preceded the shared slice engine, so any change of basis order, basis
content or matrix entry shows up here.

Every elimination case hashes the exact entries of kernel bases, batched
solves and homology representatives.  Those digests were recorded from
the Fraction reduced row echelon form that preceded the fraction-free
``Echelon``, so any change of a pivot choice or of a rational value that
a kernel or a solve returns shows up here.  The subquotient case (the
Harrison quotient, the normalized Harrison quotient with its maps, the
normalized slice) was recorded from the hand-written restrictions and
solves that preceded ``chains.coords``.

Keys and coefficients are hashed in a canonical plain form (surjections
and fiber-ordered maps as tuples, field elements through ``to_str``), so
the digests do not depend on any ``repr``.
"""

import hashlib

import pytest

from exacthom.algebras import Coefficients, preset
from exacthom.gamma import GammaComplex, Surjection
from exacthom.hochschild import (HarrisonQuotient, HochschildComplex,
                                 NormalizedHarrison, normalized_slice)
from exacthom.sparse import SparseMatrix, kernel_basis
from exacthom.symhom import ComparisonData, FiberOrderedMap, SymmetricComplex
from reference import fractional_trunc4

MAX_N = 3
MAX_W = 3


def _canon(obj):
    if isinstance(obj, tuple):
        return tuple(_canon(v) for v in obj)
    if isinstance(obj, FiberOrderedMap):
        return ("fom", obj.cod, obj.fibers)
    if isinstance(obj, Surjection):
        return ("surj", obj.cod, obj.images)
    return obj


def slice_digest(cx):
    h = hashlib.sha256()
    for w in range(MAX_W + 1):
        for n in range(MAX_N + 1):
            h.update(repr((n, w, _canon(cx.basis(n, w)))).encode())
            if n >= 1:
                mat = cx.boundary(n, w)
                entries = sorted((i, j, cx.field.to_str(v))
                                 for (i, j), v in mat.entries.items())
                h.update(repr((mat.shape, entries)).encode())
    return h.hexdigest()


def _hochschild(name, kind):
    alg = preset(name)
    return HochschildComplex(alg, Coefficients(alg, kind))


def _gamma(name, kind, variant, normalized):
    alg = preset(name)
    return GammaComplex(alg, Coefficients(alg, kind), variant, normalized)


def _symmetric(name, variant, normalized):
    return SymmetricComplex(preset(name), variant, normalized)


CASES = {
    "hochschild trunc3 k": lambda: _hochschild("trunc3", "k"),
    "hochschild trunc3 A": lambda: _hochschild("trunc3", "A"),
    "hochschild square-zero-xy A":
        lambda: _hochschild("square-zero-xy", "A"),
    "gamma trunc3 k I normalized": lambda: _gamma("trunc3", "k", "I", True),
    "gamma trunc3 k I raw": lambda: _gamma("trunc3", "k", "I", False),
    "gamma trunc3 k A normalized": lambda: _gamma("trunc3", "k", "A", True),
    "gamma trunc3 k A raw": lambda: _gamma("trunc3", "k", "A", False),
    "gamma trunc3 A I normalized": lambda: _gamma("trunc3", "A", "I", True),
    "gamma trunc3 A A normalized": lambda: _gamma("trunc3", "A", "A", True),
    "gamma trunc3 A A raw": lambda: _gamma("trunc3", "A", "A", False),
    "gamma square-zero-xy k A raw":
        lambda: _gamma("square-zero-xy", "k", "A", False),
    "symmetric trunc3 full normalized":
        lambda: _symmetric("trunc3", "full", True),
    "symmetric trunc3 full raw": lambda: _symmetric("trunc3", "full", False),
    "symmetric trunc3 quotient normalized":
        lambda: _symmetric("trunc3", "quotient", True),
    "symmetric trunc3 quotient raw":
        lambda: _symmetric("trunc3", "quotient", False),
    "symmetric square-zero-xy full normalized":
        lambda: _symmetric("square-zero-xy", "full", True),
}

EXPECTED = {
    "gamma square-zero-xy k A raw":
        "015bfec61534d80da7ba9a881fadd24a69b9b0e591174c0e201d08ba98090aa3",
    "gamma trunc3 A A normalized":
        "d772131d714132d8eefcaf6c65427d4c65229ae53dc9c8a6aef33d71d417ae52",
    "gamma trunc3 A A raw":
        "a5539a445bde74bece88511676bfb57868f546c98b2947e2e61f989d26ffb268",
    "gamma trunc3 A I normalized":
        "931f048c4369ac6d1a29c1b1995676a2c410161f7ac9767f599e5f1f94360b51",
    "gamma trunc3 k A normalized":
        "38b41c4d95e121398accc593727098005abae9c1c0dc6079a65401ca38d64140",
    "gamma trunc3 k A raw":
        "a39506690cf5c2a2b01a11bae7d0e0affd297e7be87fbfacd633d362a299d32a",
    "gamma trunc3 k I normalized":
        "079fed4554428ce09816b913f0caea8f1cbdb97f81852ce38b168feac4f45a65",
    "gamma trunc3 k I raw":
        "f2ea39ecd7f019d45e1a5afa7eded49c093ad5f0529d80ece1846094844455c7",
    "hochschild square-zero-xy A":
        "9b7150d8085c8983a710d37523eed3aa879e3b053986ef6793e91d29e473420c",
    "hochschild trunc3 A":
        "bfa7a10a1ed312d32627327b0d0379f4bd1398958e947368a5d05b3b9c28abd9",
    "hochschild trunc3 k":
        "f8909ce6b3e8ebf0bb0678e23bf8f4c7cd1fabb2edb74c1100573e7054312aa6",
    "symmetric square-zero-xy full normalized":
        "08fda5540fcec6064ad76027df2df070e4d76f1eb86df612646458c6258bf9cb",
    "symmetric trunc3 full normalized":
        "942280329a209550bdd1a59414d05bd5c06ede9d7c6cd25f6283b944919dfa56",
    "symmetric trunc3 full raw":
        "47b4410eb03f7217749db206e3caaceb7833bea550990d07e723b8afb966e6ed",
    "symmetric trunc3 quotient normalized":
        "51660eae4d8032115162db9dda4d3f9ef581abcea79ac61b2b935ceff5ec17a9",
    "symmetric trunc3 quotient raw":
        "64e3eadbff1d9770331274bd830d6ec2d140b4c5285180cd3a51ff5e2b0c9d4c",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_slices_match_recorded_engine(case):
    assert slice_digest(CASES[case]()) == EXPECTED[case]


def _update_matrix(h, tag, mat):
    entries = sorted((i, j, mat.field.to_str(v))
                     for (i, j), v in mat.entries.items())
    h.update(repr((tag, mat.shape, entries)).encode())


def comparison_kernel_digest(alg, max_w):
    """The kernel bases of phi o q and the boundaries of the kernel
    subcomplex solved in those bases, for every weight up to max_w."""
    h = hashlib.sha256()
    for w in range(max_w + 1):
        reps, kchain = ComparisonData(alg, w, MAX_N).kernel()
        for n, mat in enumerate(reps):
            _update_matrix(h, ("kernel", w, n), mat)
        for n in range(1, MAX_N + 1):
            _update_matrix(h, ("solved boundary", w, n), kchain.boundary(n))
    return h.hexdigest()


def representatives_digest(cx, max_n, max_w):
    """For every slice (n <= max_n, w <= max_w): the homology
    representatives, the kernel basis of d_n and the homology coordinates
    of those kernel columns."""
    h = hashlib.sha256()
    for w in range(max_w + 1):
        sl = cx.slice(w, max_n + 1)
        for n in range(max_n + 1):
            _update_matrix(h, ("representatives", w, n), sl.reps(n))
            if n >= 1:
                cycles = kernel_basis(sl.boundary(n))
                _update_matrix(h, ("cycles", w, n), cycles)
                _update_matrix(h, ("coordinates", w, n),
                               sl.coords(n, cycles))
    return h.hexdigest()


def subquotients_digest(hc, max_w, top):
    """For every weight up to max_w: the boundaries of the Harrison
    quotient by shuffles and of the normalized slice, and for i = 1, 2
    the normalized Harrison quotient complex with its quotient and
    collapse maps."""
    h = hashlib.sha256()
    for w in range(max_w + 1):
        chains = [("harrison quotient", HarrisonQuotient(hc, w, top).chain),
                  ("normalized", normalized_slice(hc, w, top))]
        for tag, sl in chains:
            for n in range(1, top + 1):
                _update_matrix(h, (tag, w, n), sl.boundary(n))
        for i in (1, 2):
            nh = NormalizedHarrison(hc, w, top, i)
            for n in range(top + 1):
                _update_matrix(h, ("quotient", i, w, n), nh.quotient[n])
                # the collapse is the identity, as test_hochschild asserts
                identity = SparseMatrix.identity(hc.field, nh.i_reps[n].ncols)
                _update_matrix(h, ("collapse", i, w, n), identity)
                if n >= 1:
                    _update_matrix(h, ("quotient chain", i, w, n),
                                   nh.i_chain.boundary(n))
    return h.hexdigest()


def _hochschild_reps(alg):
    return representatives_digest(
        HochschildComplex(alg, Coefficients(alg, "A")), 4, 6)


ELIMINATION_CASES = {
    "comparison trunc3 kernels":
        lambda: comparison_kernel_digest(preset("trunc3"), MAX_W),
    "hochschild trunc3 A representatives":
        lambda: _hochschild_reps(preset("trunc3")),
    "hochschild fractional trunc4 A representatives":
        lambda: _hochschild_reps(fractional_trunc4()),
    "hochschild trunc3 A subquotients":
        lambda: subquotients_digest(_hochschild("trunc3", "A"), 4, 4),
}

ELIMINATION_EXPECTED = {
    "comparison trunc3 kernels":
        "023f86d24ef3d0042b61e1169347bbaf642be21f1fc6ed9cebc7c4d053ba70bf",
    "hochschild fractional trunc4 A representatives":
        "d3d337e76210eedb86bd9e3b48f6e012aa8ceb27437ce217ee49db94ffe9c8f3",
    "hochschild trunc3 A representatives":
        "af4f70566adab056960b7a59c80a90747309cc38b61154b3dee872efb7eaa46a",
    "hochschild trunc3 A subquotients":
        "f3068820ca0a725ceb0003ef2a2f18fb7a3a91c47dd35c1ce6a4c985bea33a34",
}


@pytest.mark.parametrize("case", sorted(ELIMINATION_CASES))
def test_eliminations_match_recorded_engine(case):
    assert ELIMINATION_CASES[case]() == ELIMINATION_EXPECTED[case]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f"    \"{case}\":\n        \"{slice_digest(CASES[case]())}\",")
    for case in sorted(ELIMINATION_CASES):
        print(f"    \"{case}\":\n        \"{ELIMINATION_CASES[case]()}\",")
