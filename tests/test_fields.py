"""Exact scalar arithmetic over Q and prime fields."""

import random
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
from helpers import FIELDS, PRIME_FIELDS, rand_nonzero_scalar, rand_scalar


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
    f = make_field(7)
    assert f.scalar(3) + f.scalar(5) == f.scalar(1)


def test_rational_multiplication_reduces():
    q = make_field(0)
    a = q.scalar(Fraction(2, 3))
    b = q.scalar(Fraction(3, 4))
    assert a * b == q.scalar(Fraction(1, 2))
    assert str(a * b) == "1/2"


def test_inverse_examples():
    f5 = make_field(5)
    assert f5.scalar(2).inv() == f5.scalar(3)
    q = make_field(0)
    assert q.scalar(2).inv() == q.scalar(Fraction(1, 2))


def test_inverse_of_zero_raises():
    for field in FIELDS:
        with pytest.raises(DivisionByZero):
            field.zero().inv()
        with pytest.raises(DivisionByZero):
            field.one() / field.zero()


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
    assert q.scalar(True) == q.one() and f7.scalar(Fraction(1, 2)) == f7.scalar(4)


def test_cross_field_operations_rejected():
    a = make_field(5).scalar(1)
    b = make_field(7).scalar(1)
    with pytest.raises(FieldMismatch):
        a + b
    with pytest.raises(FieldMismatch):
        a * b


def test_zero_is_falsy():
    for field in FIELDS:
        assert not field.zero()
        assert field.one()


def test_field_axioms_bulk():
    """Associativity, commutativity, distributivity, identities and
    inverses across ten thousand random triples per field."""
    for field in FIELDS:
        rng = random.Random(101)
        zero, one = field.zero(), field.one()
        for _ in range(10_000):
            a = rand_scalar(rng, field)
            b = rand_scalar(rng, field)
            c = rand_scalar(rng, field)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + zero == a
            assert a * one == a
            assert a + (-a) == zero
            if a:
                assert a * a.inv() == one


def test_fermat_little_theorem():
    for field in PRIME_FIELDS:
        p = field.characteristic
        rng = random.Random(p)
        for _ in range(200):
            a = rand_scalar(rng, field)
            assert a**p == a


def test_subtraction_and_division_consistency():
    for field in FIELDS:
        rng = random.Random(5)
        for _ in range(500):
            a = rand_scalar(rng, field)
            b = rand_nonzero_scalar(rng, field)
            assert (a - b) + b == a
            assert (a / b) * b == a
