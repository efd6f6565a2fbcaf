"""Fields and their canonical Scalar values over Q and prime fields."""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from hypersect import (
    CompositeCharacteristic,
    DivisionByZero,
    FieldMismatch,
    make_field,
)
from helpers import FIELDS, PRIME_FIELDS


def test_make_field_characteristics():
    assert make_field(0).characteristic == 0
    assert make_field(7).characteristic == 7
    assert not make_field(0).is_prime_field
    assert make_field(2).is_prime_field


@pytest.mark.parametrize("bad", [6, 4, 1, -2, 9, 100])
def test_make_field_rejects_nonprime(bad):
    with pytest.raises(CompositeCharacteristic):
        make_field(bad)


def test_mod_p_addition_wraps():
    """A sum taken on the values wraps when FieldSpec.scalar reduces it."""
    f = make_field(7)
    assert f.scalar(f.scalar(3).value + f.scalar(5).value) == f.scalar(1)


def test_rational_multiplication_reduces():
    q = make_field(0)
    a = q.scalar(Fraction(2, 3))
    b = q.scalar(Fraction(3, 4))
    assert q.scalar(a.value * b.value) == q.scalar(Fraction(1, 2))
    assert str(q.scalar(Fraction(6, 12))) == "1/2"


def test_inverse_examples():
    """FieldSpec.scalar inverts a denominator: 1/2 is 3 over F_5."""
    assert make_field(5).scalar(Fraction(1, 2)) == make_field(5).scalar(3)
    assert make_field(0).scalar(Fraction(1, 2)).value == Fraction(1, 2)


def test_inverse_of_zero_raises():
    """A denominator that vanishes mod p has no inverse there."""
    for field in PRIME_FIELDS:
        p = field.characteristic
        with pytest.raises(DivisionByZero):
            field.scalar(Fraction(1, p))
        with pytest.raises(DivisionByZero):
            field.scalar(Fraction(-1, 3 * p))


def test_canonical_residues():
    f7 = make_field(7)
    assert f7.scalar(10) == f7.scalar(3)
    assert f7.scalar(-1) == f7.scalar(6)
    assert str(f7.scalar(10)) == "3"
    assert hash(f7.scalar(10)) == hash(f7.scalar(3))


def test_canonical_fractions():
    q = make_field(0)
    assert q.scalar(Fraction(2, 4)) == q.scalar(Fraction(1, 2))
    assert str(q.scalar(-3)) == "-3"


@pytest.mark.parametrize("value", [0.5, 1.5, 0.1, 2.0, Decimal("0.5"), "1"])
def test_scalar_rejects_inexact_input(value):
    """Only ints, Fractions and Scalars are coefficients: a float is not
    rounded into the field (0.5 over F_7 used to become 0, and 0.1 over Q
    its binary expansion)."""
    for field in (make_field(0), make_field(7)):
        with pytest.raises(TypeError):
            field.scalar(value)


def test_scalar_accepts_every_exact_rational():
    """numpy integers and bools are numbers.Rational; they land as plain
    Python ints and Fractions."""
    q, f7 = make_field(0), make_field(7)
    assert f7.scalar(np.int64(10)) == f7.scalar(3) and type(f7.scalar(np.int64(10)).value) is int
    assert q.scalar(np.int32(-3)) == q.scalar(-3) and type(q.scalar(np.int32(-3)).value.numerator) is int
    assert q.scalar(True) == q.scalar(1) and f7.scalar(Fraction(1, 2)) == f7.scalar(4)


def test_cross_field_operations_rejected():
    """A Scalar enters another field only through FieldSpec.scalar, which
    refuses it."""
    a = make_field(5).scalar(1)
    with pytest.raises(FieldMismatch):
        make_field(7).scalar(a)
    with pytest.raises(FieldMismatch):
        make_field(0).scalar(a)
    assert make_field(5).scalar(a) is a


def test_zero_is_falsy():
    for field in FIELDS:
        assert not field.scalar(0)
        assert field.scalar(1)
