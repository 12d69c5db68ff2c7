from fractions import Fraction

import pytest

from exacthom import fields
from exacthom.fields import GF, QQ, field_from_name


def test_rational_arithmetic_exact():
    a = QQ.of(1, 3)
    b = QQ.of(1, 6)
    assert QQ.add(a, b) == QQ.of(1, 2)
    assert QQ.mul(a, QQ.of(3)) == QQ.one
    assert QQ.add(a, QQ.neg(a)) == QQ.zero


def test_rational_normal_form():
    a = QQ.of(6, -4)
    assert (a.numerator, a.denominator) == (-3, 2)


def test_rational_parse():
    assert QQ.parse("3/2") == QQ.of(3, 2)
    assert QQ.parse("-7") == QQ.of(-7)


def test_prime_field_arithmetic():
    F = GF(7)
    assert F.add(5, 4) == 2
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.neg(0) == 0
    assert F.of(-1) == 6
    assert F.of(1, 2) == 4  # 2 * 4 = 1 mod 7


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        GF(6)


def test_prime_field_rejects_bad_denominator():
    with pytest.raises(ZeroDivisionError):
        GF(5).of(1, 10)


def test_field_names_round_trip():
    assert field_from_name("Q") is QQ
    assert field_from_name("Fp:11") == GF(11)
    assert field_from_name("Fp:11") is GF(11)
    with pytest.raises(ValueError):
        field_from_name("R")


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        QQ.of(1, 0)
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(0)


def test_integral_rationals_are_ints():
    half = QQ.of(1, 2)
    assert type(QQ.zero) is int and type(QQ.one) is int
    for value in (QQ.of(4, 2), QQ.of(-3), QQ.parse("6/3"), QQ.parse("-7"),
                  QQ.of(9, 3), QQ.add(half, half),
                  QQ.add(QQ.of(5, 2), QQ.neg(half)), QQ.mul(half, 4),
                  QQ.mul(3, -2), QQ.of(-6, 2)):
        assert type(value) is int, value


def test_genuine_fractions_stay_rational():
    for value, expected in ((QQ.of(1, 2), Fraction(1, 2)),
                            (QQ.parse("3/2"), Fraction(3, 2)),
                            (QQ.add(QQ.of(1, 3), 1), Fraction(4, 3)),
                            (QQ.add(1, QQ.of(-1, 3)), Fraction(2, 3)),
                            (QQ.mul(QQ.of(1, 3), 2), Fraction(2, 3))):
        assert type(value) is fields._rat and value == expected


def test_to_str_is_unchanged():
    # integral values print as before, when they were Fraction(n, 1)
    assert QQ.to_str(QQ.of(4, 2)) == str(Fraction(2)) == "2"
    assert QQ.to_str(QQ.of(-6, 4)) == "-3/2"
    assert QQ.to_str(QQ.zero) == "0"


def test_rational_backend_name_is_exposed():
    # the benchmark stamps every result with this type's name
    assert fields._rat is Fraction and fields._rat.__name__ == "Fraction"


def test_is_prime_matches_trial_division():
    for n in range(-3, 5000):
        trial = n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))
        assert fields.is_prime(n) == trial, n


@pytest.mark.parametrize("n,prime", [
    (561, False), (1105, False), (3215031751, False),  # Carmichael, spsp(2..7)
    (3825123056546413051, False),  # a strong pseudoprime to bases 2..23
    (2**61 - 1, True), (2**64 - 59, True), (1000003, True),
    ((2**31 - 1) * (2**61 - 1), False),
])
def test_is_prime_on_large_and_pseudoprime_inputs(n, prime):
    assert fields.is_prime(n) == prime


def test_prime_field_bounds_p_before_testing_it():
    assert GF(2**64 - 59).p == 2**64 - 59
    with pytest.raises(ValueError, match="not prime"):
        GF(3825123056546413051)
    for p in (2**64, 10**20 + 39, 10**321 + 7):
        with pytest.raises(ValueError, match="p < 2\\^64"):
            GF(p)
