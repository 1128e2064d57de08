from fractions import Fraction

import pytest

from arcmult.errors import EngineError, FieldMismatch
from arcmult.fields import RATIONALS, FieldSpec, prime_field


def test_characteristic_must_be_prime():
    with pytest.raises(EngineError):
        FieldSpec(4)
    with pytest.raises(EngineError):
        FieldSpec(1)


def test_rational_coercion_and_arithmetic():
    q = RATIONALS
    a = q.coerce(3)
    b = q.coerce(Fraction(1, 2))
    assert q.add(a, b) == Fraction(7, 2)
    assert q.mul(a, b) == Fraction(3, 2)
    assert q.inv(b) == 2
    assert q.sub(a, a) == 0


def test_prime_field_arithmetic():
    f5 = prime_field(5)
    assert f5.coerce(7) == 2
    assert f5.coerce(-1) == 4
    assert f5.add(3, 4) == 2
    assert f5.mul(3, 4) == 2
    assert f5.inv(3) == 2  # 3*2 = 6 = 1 mod 5
    assert f5.coerce(Fraction(1, 2)) == 3  # 2*3 = 1 mod 5


def test_prime_field_rejects_bad_denominator():
    f5 = prime_field(5)
    with pytest.raises(FieldMismatch):
        f5.coerce(Fraction(1, 5))


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        RATIONALS.inv(Fraction(0))


def test_units_pools():
    assert RATIONALS.units(4) == (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2))
    assert prime_field(2).units() == (1,)
    assert prime_field(5).units() == (1, 2, 3, 4)


def test_every_unit_is_invertible():
    for p in (2, 3, 5, 7):
        field = prime_field(p)
        for u in field.units():
            assert field.mul(u, field.inv(u)) == 1
