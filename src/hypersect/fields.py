"""Exact coefficients over Q and over prime fields F_p.

A FieldSpec names the field (characteristic 0 means Q, a prime p means
F_p) and is the one reducer of coefficients: FieldSpec.scalar builds
Scalar values in canonical form, reduced fractions with positive
denominator over Q and residues in [0, p) over F_p.  A Scalar is a value
with no arithmetic; computations run on Python ints and Fractions and
reduce through FieldSpec.scalar.  Nothing here ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .errors import CompositeCharacteristic, DivisionByZero, FieldMismatch

# deterministic Miller-Rabin witnesses, the first 13 primes: exact below 3.3*10^24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_MAX_CHARACTERISTIC = 2**63 - 1


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The coefficient field: Q when characteristic is 0, else F_p."""

    characteristic: int

    def __post_init__(self):
        c = self.characteristic
        if not isinstance(c, int) or isinstance(c, bool):
            raise CompositeCharacteristic(f"characteristic must be an integer, got {c!r}")
        if c == 0:
            return
        if c > _MAX_CHARACTERISTIC:
            raise CompositeCharacteristic(f"characteristic {c} does not fit a machine word")
        if not _is_prime(c):
            raise CompositeCharacteristic(f"characteristic {c} is not 0 or a prime")

    @property
    def is_prime_field(self) -> bool:
        return self.characteristic != 0

    def scalar(self, value) -> "Scalar":
        """Coerce an int, a Fraction (any numbers.Rational) or a Scalar into
        canonical form here.  Inexact input (a float, a Decimal, a string)
        raises TypeError."""
        kind = type(value)
        if kind is Scalar:
            if value.field != self:
                raise FieldMismatch(f"scalar over {value.field} used over {self}")
            return value
        if kind is not int and kind is not Fraction:
            if not isinstance(value, Rational):
                raise TypeError(f"coefficients must be exact (int or Fraction), got {kind.__name__} {value!r}")
            value = Fraction(int(value.numerator), int(value.denominator))
        if self.characteristic == 0:
            return Scalar(self, Fraction(value))
        if isinstance(value, Fraction):
            if value.denominator % self.characteristic == 0:
                raise DivisionByZero(f"denominator {value.denominator} vanishes mod {self.characteristic}")
            num = value.numerator % self.characteristic
            den = pow(value.denominator % self.characteristic, -1, self.characteristic)
            return Scalar(self, num * den % self.characteristic)
        return Scalar(self, value % self.characteristic)

    def __str__(self) -> str:
        return "Q" if self.characteristic == 0 else f"F_{self.characteristic}"


def make_field(characteristic: int) -> FieldSpec:
    """Public constructor; rejects composite or oversized characteristics."""
    return FieldSpec(characteristic)


@dataclass(frozen=True, slots=True)
class Scalar:
    """One exact field element: a value, with no arithmetic of its own.

    `value` is an int residue in [0, p) over F_p and a Fraction over Q.
    Equality is representational: equal values over the same field.
    Compute on `.value` and build results through FieldSpec.scalar, the
    one reducer, so the representation stays canonical.
    """

    field: FieldSpec
    value: int | Fraction

    def __bool__(self) -> bool:
        return self.value != 0

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"Scalar({self.field}, {self.value})"
