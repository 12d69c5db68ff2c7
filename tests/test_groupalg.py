import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exacthom import groupalg
from exacthom.fields import GF, QQ
from exacthom.groupalg import (GroupAlgebraElement, Permutation,
                               certify_eulerian, eulerian_idempotent,
                               eulerian_idempotents,
                               shuffle_annihilating_product, shuffle_element,
                               total_shuffle)
from exacthom.verify import run_suite
from reference import eulerian_by_factors, permute_slots

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def perms(n):
    return st.permutations(list(range(1, n + 1))).map(Permutation)


def all_permutations(n):
    return [Permutation(p) for p in permutations(range(1, n + 1))]


def test_transposition_squares_to_identity():
    t = Permutation((2, 1))
    assert (t * t).is_identity()


def test_braid_relation():
    t1 = Permutation((2, 1, 3))
    t2 = Permutation((1, 3, 2))
    x = t1 * t2
    assert (x * x * x).is_identity()


def test_sign_of_transposition():
    assert Permutation((1, 3, 2, 4)).sign() == -1


@settings(max_examples=40, deadline=None)
@given(perms(4), perms(4))
def test_sign_is_multiplicative(a, b):
    assert (a * b).sign() == a.sign() * b.sign()


@settings(max_examples=40, deadline=None)
@given(perms(4), perms(4), st.tuples(*[st.integers(0, 9)] * 4))
def test_slot_action_is_a_left_action(a, b, slots):
    assert permute_slots(a * b, slots) \
        == permute_slots(a, permute_slots(b, slots))


def test_mixed_sizes_rejected():
    with pytest.raises(ValueError):
        Permutation.identity(2) * Permutation.identity(3)
    with pytest.raises(ValueError):
        GroupAlgebraElement.unit(QQ, 2).mul(GroupAlgebraElement.unit(QQ, 3))


def test_shuffle_element_small():
    e = GroupAlgebraElement.unit(QQ, 2)
    theta = GroupAlgebraElement(QQ, 2, {Permutation((2, 1)): QQ.one})
    assert shuffle_element(QQ, 1, 2) == e.sub(theta)


def brute_force_shuffles(i, n):
    out = []
    for sigma in all_permutations(n):
        img = sigma.image
        if all(img[a] < img[a + 1] for a in range(i - 1)) and \
                all(img[a] < img[a + 1] for a in range(i, n - 1)):
            out.append(sigma)
    return out


@pytest.mark.parametrize("n", range(2, 8))
def test_shuffle_support_matches_brute_force(n):
    for i in range(1, n):
        elem = shuffle_element(QQ, i, n)
        expected = brute_force_shuffles(i, n)
        assert set(elem.coeffs) == set(expected)
        assert len(elem.coeffs) == comb(n, i)
        for sigma in expected:
            assert elem.coeffs[sigma] == QQ.of(sigma.sign())


def test_total_shuffle_adds_the_parts():
    total = total_shuffle(QQ, 3)
    manual = shuffle_element(QQ, 1, 3).add(shuffle_element(QQ, 2, 3))
    assert total == manual
    with pytest.raises(ValueError):
        total_shuffle(QQ, 1)


def test_shuffle_range_rejected():
    with pytest.raises(ValueError):
        shuffle_element(QQ, 0, 3)
    with pytest.raises(ValueError):
        shuffle_element(QQ, 3, 3)


def test_group_algebra_products():
    e = GroupAlgebraElement.unit(QQ, 2)
    theta = GroupAlgebraElement(QQ, 2, {Permutation((2, 1)): QQ.one})
    a = e.sub(theta)
    assert a.mul(e) == a
    assert a.mul(e.add(theta)).is_zero()
    assert a.mul(a) == a.scale(QQ.of(2))


def test_eulerian_n1_is_unit():
    assert eulerian_idempotents(QQ, 1) == [GroupAlgebraElement.unit(QQ, 1)]


def test_eulerian_n2_explicit():
    e = GroupAlgebraElement.unit(QQ, 2)
    theta = GroupAlgebraElement(QQ, 2, {Permutation((2, 1)): QQ.one})
    half = QQ.of(1, 2)
    e1, e2 = eulerian_idempotents(QQ, 2)
    assert e1 == e.add(theta).scale(half)
    assert e2 == e.sub(theta).scale(half)
    # e^(1) is the piece the total shuffle annihilates
    assert total_shuffle(QQ, 2).mul(e1).is_zero()


@pytest.mark.parametrize("n", range(1, 6))
def test_eulerian_certificates_rational(n):
    assert all(ok for _, ok in certify_eulerian(QQ, n))


@pytest.mark.parametrize("n", range(1, 6))
def test_eulerian_certificates_prime_field(n):
    assert all(ok for _, ok in certify_eulerian(GF(7), n))


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF(7)"])
def test_eulerian_certificates_catch_a_perturbed_idempotent(monkeypatch,
                                                           field):
    exact = groupalg.eulerian_idempotents

    def perturbed(field, n):
        idems = list(exact(field, n))
        # e^(1) + (1/2) e^(2): no longer killed by the total shuffle or
        # summing to the unit, while e^(3) is untouched
        idems[0] = idems[0].add(idems[1].scale(field.of(1, 2)))
        return idems

    monkeypatch.setattr(groupalg, "eulerian_idempotents", perturbed)
    results = dict(certify_eulerian(field, 3))
    assert not results["sh * e3^(1)"]
    assert not results["sum of e3^(i) = unit"]
    assert results["sh * e3^(3)"]


@pytest.mark.parametrize("field,failing", [
    (QQ, {"sh * e4^(4)", "e4^(4) * sh"}),
    (GF(7), {"e4^(1) * e4^(4)", "e4^(4) * e4^(1)"}),
], ids=["QQ", "GF(7)"])
def test_eulerian_certificates_multiply_the_colliding_pairs(monkeypatch,
                                                            field, failing):
    # replacing e^(1) by f = e^(1) y e^(1) and e^(4) by e^(4) + e^(1) - f
    # keeps the sum and sh f = 0 = f sh; over F_7, l_1 = 0 = l_4 = 14 keeps
    # the new e^(4) an eigenvector too, so only that pair's products fail
    exact = groupalg.eulerian_idempotents
    y = GroupAlgebraElement(field, 4, {Permutation((2, 1, 3, 4)): field.one})

    def mixed(field, n):
        idems = list(exact(field, n))
        e1, e4 = idems[0], idems[3]
        f = e1.mul(y).mul(e1)
        idems[0], idems[3] = f, e4.add(e1).sub(f)
        return idems

    monkeypatch.setattr(groupalg, "eulerian_idempotents", mixed)
    failed = {name for name, ok in certify_eulerian(field, 4) if not ok}
    assert failed == failing


def test_eulerian_idempotent_reduces_only_its_own_element(monkeypatch):
    groupalg._eulerian_over_q(5)  # the rational idempotents, built once
    reduced = []

    class Counted(GroupAlgebraElement):
        __slots__ = ()

        def __init__(self, field, n, coeffs=None):
            reduced.append(n)
            super().__init__(field, n, coeffs)

    monkeypatch.setattr(groupalg, "GroupAlgebraElement", Counted)
    for i in range(1, 6):
        eulerian_idempotent(GF(7), 5, i)
    assert reduced == [5] * 5
    eulerian_idempotent(QQ, 5, 2)  # the rational one, as it is
    assert len(reduced) == 5


def test_eulerian_small_characteristic_rejected():
    with pytest.raises(ValueError):
        eulerian_idempotents(GF(3), 3)
    with pytest.raises(ValueError):
        eulerian_idempotent(QQ, 3, 4)


@pytest.mark.parametrize("n", range(2, 6))
def test_shuffle_eigenvalue_polynomial_vanishes(n):
    assert shuffle_annihilating_product(QQ, n).is_zero()


def test_shuffle_acts_by_eigenvalue_on_idempotents():
    sh = total_shuffle(QQ, 4)
    for i in range(1, 5):
        ei = eulerian_idempotent(QQ, 4, i)
        assert sh.mul(ei) == ei.scale(QQ.of(2**i - 2))


# -- the per-term loops that the fraction-free products replaced ----------------

def mul_per_term(x, y):
    """Reference convolution product: one field.add and field.mul per term."""
    f = x.field
    out = {}
    for sigma, a in x.coeffs.items():
        for tau, b in y.coeffs.items():
            prod = sigma * tau
            s = f.add(out.get(prod, f.zero), f.mul(a, b))
            if s == f.zero:
                out.pop(prod, None)
            else:
                out[prod] = s
    return GroupAlgebraElement(f, x.n, out)


def eulerian_step_by_step(n):
    """Reference interpolation: every factor multiplied per term and
    divided by its eigenvalue difference at once."""
    unit = GroupAlgebraElement.unit(QQ, n)
    if n == 1:
        return [unit]
    sh = total_shuffle(QQ, n)
    idems = []
    for i in range(1, n + 1):
        li = 2**i - 2
        elem = unit
        for j in range(1, n + 1):
            if j != i:
                lj = 2**j - 2
                factor = sh.sub(unit.scale(QQ.of(lj)))
                elem = mul_per_term(elem, factor).scale(QQ.of(1, li - lj))
        idems.append(elem)
    return idems


def assert_normal_form(field, elem):
    for c in elem.coeffs.values():
        assert c != 0
        if field.characteristic:
            assert type(c) is int and 0 < c < field.characteristic
        else:
            assert type(c) is int or (type(c) is Fraction
                                      and c.denominator != 1)


def random_element(rng, field, n, size):
    perms = rng.sample(all_permutations(n), size)
    if field.characteristic:
        values = [rng.randrange(field.characteristic) for _ in perms]
    else:
        values = [field.of(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 6]))
                  for _ in perms]
    return GroupAlgebraElement(field, n, dict(zip(perms, values)))


@pytest.mark.parametrize("n,size", [(3, 4), (5, 60), (6, 150)])
@pytest.mark.parametrize("field", [QQ, GF(7), GF(2**31 - 1)],
                         ids=["QQ", "GF(7)", "GF(2^31-1)"])
def test_mul_matches_the_per_term_product(field, n, size):
    rng = random.Random(n * 1000 + size)
    x = random_element(rng, field, n, size)
    y = random_element(rng, field, n, size)
    prod = x.mul(y)
    assert prod == mul_per_term(x, y)
    assert_normal_form(field, prod)
    # a product that cancels to zero
    assert x.mul(y.sub(y)).is_zero()
    assert x.mul(y).sub(x.mul(y)).is_zero()


@pytest.mark.parametrize("n", range(1, 7))
def test_eulerian_interpolation_matches_step_by_step(n):
    idems = groupalg._eulerian_over_q(n)
    assert idems == eulerian_step_by_step(n)
    for e in idems:
        assert_normal_form(QQ, e)


@pytest.mark.parametrize("n", range(1, 7))
def test_power_chain_matches_the_factor_product(n):
    assert groupalg._eulerian_over_q(n) == eulerian_by_factors(QQ, n)


@pytest.mark.parametrize("field", [GF(7), GF(2**31 - 1)],
                         ids=["GF(7)", "GF(2^31-1)"])
@pytest.mark.parametrize("n", range(1, 7))
def test_eulerian_idempotents_match_the_factor_product_mod_p(field, n):
    # the rational factor product reduced mod p and, where every
    # eigenvalue difference is a unit mod p (always mod 2^31 - 1, for
    # n <= 3 mod 7), the factor product taken mod p from the start
    expected = [GroupAlgebraElement(field, n, {
        perm: field.of(c.numerator, c.denominator)
        for perm, c in e.coeffs.items()}) for e in eulerian_by_factors(QQ, n)]
    assert eulerian_idempotents(field, n) == expected
    assert [eulerian_idempotent(field, n, i)
            for i in range(1, n + 1)] == expected
    if field.p > 7 or n <= 3:
        assert eulerian_by_factors(field, n) == expected


def test_suite_eulerian_catches_a_wrong_eigenvalue(monkeypatch):
    # interpolating at 2^3 - 2 + 1 instead of 2^3 - 2 gives elements that
    # are not orthogonal idempotents from Sigma_3 on, and the certificates
    # of the rebuilt idempotents must say so
    eigenvalue = groupalg._shuffle_eigenvalue
    monkeypatch.setattr(groupalg, "_shuffle_eigenvalue",
                        lambda i: eigenvalue(i) + (i == 3))
    monkeypatch.setattr(groupalg, "_rational_idempotents", {})
    checks, _ = run_suite("eulerian", {"max_n": 4})
    failed = [c.name for c in checks if not c.ok]
    assert "eulerian certificates n=3" in failed
    assert "eulerian certificates n=4" in failed
    assert "eulerian certificates n=2" not in failed


def test_import_builds_no_group_algebra_tables():
    # set-up time stays free of Sigma_n work: the idempotents and the
    # permutations themselves are built on first use, never at import
    code = ("import exacthom\n"
            "from exacthom import groupalg\n"
            "assert not groupalg._rational_idempotents\n"
            "assert not groupalg.Permutation._interned\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
