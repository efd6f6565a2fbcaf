"""Sparse multivariate polynomials with exact coefficients.

A polynomial is a dict from exponent tuples (one entry per variable) to
nonzero Scalars; zero coefficients are never stored.  Monomials are
ordered graded-lexicographically, degree first and then lexicographic on
exponents, largest first.  That single order drives printing and the
column indexing of every matrix built from a graded piece, so everything
downstream is deterministic.  Every sum of terms goes through _collect,
the one place that adds coefficients and drops the zero sums.

Variables are x0..x{nvars-1}.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from itertools import chain
from math import lcm

from . import linalg
from .errors import (
    ArityMismatch,
    FieldMismatch,
    IndexOutOfRange,
    NotHomogeneous,
    SingularMatrix,
)
from .fields import FieldSpec, Scalar

Monomial = tuple[int, ...]


def grlex_key(m: Monomial):
    """Sort key: ascending under Python's order; reverse for display order."""
    return (sum(m), m)


def monomial_basis(nvars: int, degree: int) -> list[Monomial]:
    """All monomials of the given total degree, grlex-descending.

    The list has length C(nvars-1+degree, degree).
    """
    if nvars < 1:
        raise ArityMismatch("need at least one variable")
    if degree < 0:
        return []
    if nvars == 1:
        return [(degree,)]
    out = []
    for e in range(degree, -1, -1):
        for rest in monomial_basis(nvars - 1, degree - e):
            out.append((e,) + rest)
    return out


def _exponents(m, nvars: int) -> Monomial:
    """m as an exponent tuple; exponents are integers (operator.index)."""
    m = tuple(map(operator.index, m))
    if len(m) != nvars:
        raise ArityMismatch(f"monomial {m} does not have {nvars} exponents")
    if any(e < 0 for e in m):
        raise ValueError(f"negative exponent in {m}")
    return m


def monomial_text(m: Monomial, var_start: int = 0) -> str:
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i + var_start}")
        elif e > 1:
            parts.append(f"x{i + var_start}^{e}")
    return "*".join(parts)


def _collect(field: FieldSpec, nvars: int, pairs) -> "Polynomial":
    """The sum of (monomial, Scalar) pairs, storing no zero coefficient."""
    terms: dict[Monomial, Scalar] = {}
    for m, c in pairs:
        s = terms.get(m)
        terms[m] = c if s is None else s + c
    return Polynomial(field, nvars, {m: c for m, c in terms.items() if c})


class Polynomial:
    """Immutable-by-convention sparse polynomial over one FieldSpec."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: FieldSpec, nvars: int, terms: dict[Monomial, Scalar]):
        # trust internal callers; from_terms canonicalizes foreign input
        self.field = field
        self.nvars = nvars
        self.terms = terms

    @classmethod
    def from_terms(cls, field: FieldSpec, nvars: int, terms) -> "Polynomial":
        """The sum of the given terms: a dict or an iterable of (monomial,
        coefficient) pairs, repeated monomials adding up.  Exponents must be
        integers and coefficients exact (FieldSpec.scalar); else TypeError."""
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        return _collect(field, nvars, ((_exponents(m, nvars), field.scalar(c)) for m, c in pairs))

    @classmethod
    def zero(cls, field: FieldSpec, nvars: int) -> "Polynomial":
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field: FieldSpec, nvars: int, value) -> "Polynomial":
        return cls.from_terms(field, nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, field: FieldSpec, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise IndexOutOfRange(f"variable index {index} outside 0..{nvars - 1}")
        m = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(field, nvars, {m: field.one()})

    # -- queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        """Whether all monomials share one total degree.

        The zero polynomial counts as homogeneous of every degree.
        """
        if not self.terms:
            return True
        degs = {sum(m) for m in self.terms}
        if len(degs) > 1:
            return False
        return degree is None or degs == {degree}

    def coefficient(self, m: Monomial) -> Scalar:
        return self.terms.get(tuple(m), self.field.zero())

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    # -- arithmetic -----------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.field != other.field:
            raise FieldMismatch(f"cannot combine {self.field} with {other.field}")
        if self.nvars != other.nvars:
            raise ArityMismatch(f"cannot combine {self.nvars} variables with {other.nvars}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return _collect(self.field, self.nvars, chain(self.terms.items(), other.terms.items()))

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.field, self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check(other)
            pairs = (
                (tuple(map(operator.add, m1, m2)), c1 * c2)
                for m1, c1 in self.terms.items()
                for m2, c2 in other.terms.items()
            )
            return _collect(self.field, self.nvars, pairs)
        c = self.field.scalar(other)
        return self.scale(c)

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, c: Scalar) -> "Polynomial":
        c = self.field.scalar(c)
        if not c:
            return Polynomial.zero(self.field, self.nvars)
        return Polynomial(self.field, self.nvars, {m: x * c for m, x in self.terms.items()})

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(self.field, self.nvars, 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field.characteristic, self.nvars, frozenset(self.terms.items())))

    # -- printing -------------------------------------------------------

    def to_text(self, var_start: int = 0) -> str:
        """Canonical text, grlex-descending; reparseable by parse_poly."""
        if not self.terms:
            return "0"
        pieces = []
        for m, c in self.sorted_terms():
            mono = monomial_text(m, var_start)
            negative = (not self.field.is_prime_field) and c.value < 0
            mag = -c if negative else c
            if not mono:
                body = str(mag)
            elif mag == self.field.one():
                body = mono
            else:
                body = f"{mag}*{mono}"
            pieces.append(("-" if negative else "+", body))
        sign, body = pieces[0]
        out = body if sign == "+" else f"-{body}"
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Polynomial({self.field}, {self.nvars}, {self.to_text()})"


def require_homogeneous(p: Polynomial, min_degree: int = 0, what: str = "polynomial") -> int:
    """Degree of a nonzero homogeneous polynomial, or NotHomogeneous."""
    if p.is_zero():
        raise NotHomogeneous(f"{what} is zero; a nonzero form is required")
    degs = {sum(m) for m in p.terms}
    if len(degs) != 1:
        raise NotHomogeneous(f"{what} mixes degrees {sorted(degs)}")
    d = degs.pop()
    if d < min_degree:
        raise NotHomogeneous(f"{what} has degree {d}, need at least {min_degree}")
    return d


# -- calculus and substitution -----------------------------------------------


def partial_derivative(p: Polynomial, index: int) -> Polynomial:
    """d p / d x_index, with the exponent reduced into the field.

    Over F_p the factor e is taken mod p, so terms with p | e vanish.
    """
    if not 0 <= index < p.nvars:
        raise IndexOutOfRange(f"variable index {index} outside 0..{p.nvars - 1}")
    pairs = (
        (m[:index] + (m[index] - 1,) + m[index + 1 :], c * p.field.scalar(m[index]))
        for m, c in p.terms.items()
        if m[index]
    )
    return _collect(p.field, p.nvars, pairs)


class LinearChange(list):
    """An invertible linear substitution x_i -> sum_j M[i][j] x_j, held as
    the list of the variables' images, the linear forms of M's rows.

    Invertibility is checked once, at construction, by one exact rank of
    the rows scaled by the lcm of their denominators.
    """

    def __init__(self, field: FieldSpec, rows):
        rows = [[field.scalar(x) for x in row] for row in rows]
        if any(len(row) != len(rows) for row in rows):
            raise ArityMismatch("linear change must be square")
        scaled = []
        for row in rows:
            scale = lcm(*(x.value.denominator for x in row))
            scaled.append([(c, x.value.numerator * (scale // x.value.denominator)) for c, x in enumerate(row) if x])
        if len(linalg.integer_kernel(scaled, len(rows), field.characteristic)[0]) != len(rows):
            raise SingularMatrix("linear change is not invertible")
        super().__init__(linear_form(field, row) for row in rows)


def substitute_linear(p: Polynomial, change: list[Polynomial]) -> Polynomial:
    """The ring map x_i -> change[i]: (substitute_linear(p, C))(y) = p(C(y)).

    Ring homomorphism in p.  The change is the list of the variables'
    images, linear forms that all live in one ring over p's field; the
    result lives in that ring.  Images in p's own ring are a change of
    variables: a LinearChange, checked invertible when built, or a plain
    list.  Images in fewer variables restrict p to a linear subspace
    (Hyperplane.restrict has its own integer engine).
    """
    if len(change) != p.nvars or any(g.nvars != change[0].nvars for g in change):
        rings = sorted({g.nvars for g in change})
        raise ArityMismatch(f"{len(change)} images in rings of {rings} variables, polynomial has {p.nvars}")
    if any(g.field != p.field for g in change):
        raise FieldMismatch("change and polynomial over different fields")
    nvars = change[0].nvars if change else 0

    @cache
    def power(i: int, e: int) -> Polynomial:
        return change[i] ** e

    def expand(m: Monomial, c: Scalar):
        term = Polynomial(p.field, nvars, {(0,) * nvars: c})
        for i, e in enumerate(m):
            if e:
                term = term * power(i, e)
        return term.terms.items()

    return _collect(p.field, nvars, chain.from_iterable(expand(m, c) for m, c in p.terms.items()))


def denominator(p: Polynomial) -> int:
    """The lcm of p's coefficient denominators: 1 over F_p and for 0."""
    return lcm(*(c.value.denominator for c in p.terms.values()))


def integer_form(p: Polynomial) -> dict[Monomial, int]:
    """p times denominator(p), as a dict of int coefficients: cleared
    numerators over Q, the residues themselves over F_p."""
    scale = denominator(p)
    return {m: c.value.numerator * (scale // c.value.denominator) for m, c in p.terms.items()}


def from_integer_form(field: FieldSpec, nvars: int, form: dict[Monomial, int], scale: int = 1) -> Polynomial:
    """The Polynomial form/scale, for int coefficients none of which is 0
    in the field and a scale that is not."""
    if scale == 1:
        return Polynomial(field, nvars, {m: field.scalar(c) for m, c in form.items()})
    return Polynomial(field, nvars, {m: field.scalar(Fraction(c, scale)) for m, c in form.items()})


def linear_form(field: FieldSpec, coefficients) -> Polynomial:
    """Linear form with the given coefficient sequence, one per variable."""
    coeffs = list(coefficients)
    nvars = len(coeffs)
    terms = {}
    for i, c in enumerate(coeffs):
        s = field.scalar(c)
        if s:
            terms[tuple(1 if k == i else 0 for k in range(nvars))] = s
    return Polynomial(field, nvars, terms)


def linear_coefficients(p: Polynomial) -> list[Scalar]:
    """Coefficient vector of a (possibly zero) linear form."""
    if p and not p.is_homogeneous(1):
        raise NotHomogeneous("expected a homogeneous linear form or zero")
    out = []
    for i in range(p.nvars):
        m = tuple(1 if k == i else 0 for k in range(p.nvars))
        out.append(p.coefficient(m))
    return out

