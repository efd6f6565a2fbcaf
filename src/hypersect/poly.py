"""Sparse multivariate polynomials with exact coefficients.

A polynomial is stored as integer numerators over one denominator, the
way FLINT's fmpq_mpoly keeps a rational content beside an integer
polynomial: `numerators` maps exponent tuples (one entry per variable) to
nonzero ints, and `denominator` is one positive int.  Over Q the
denominator is the lcm of the coefficients' denominators, so it is
coprime to the numerators taken together; over F_p the numerators are
residues in [0, p) and the denominator is 1.  Polynomial.from_integers
makes that form, which is unique, so equality and hashing compare it as
it is, and jacobian's Macaulay rows read the numerators directly.
Scalars are made only at the edges: from_terms reduces every coefficient
it takes in (parsing's plain values too) through FieldSpec.scalar, and
terms, coefficient and to_text give them out.

Monomials are ordered graded-lexicographically, degree first and then
lexicographic on exponents, largest first.  That single order drives
printing and the column indexing of every matrix built from a graded
piece, so everything downstream is deterministic.

Variables are x0..x{nvars-1}.
"""

from __future__ import annotations

import itertools
import operator
import sys
from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from math import comb, gcd, lcm

from . import linalg
from .errors import (
    ArityMismatch,
    DivisionByZero,
    FieldMismatch,
    IndexOutOfRange,
    NotHomogeneous,
    SingularMatrix,
    require_memory,
)
from .fields import FieldSpec, Scalar

Monomial = tuple[int, ...]


def grlex_key(m: Monomial):
    """Sort key: ascending under Python's order; reverse for display order."""
    return (sum(m), m)


def monomial_basis(nvars: int, degree: int) -> list[Monomial]:
    """All monomials of the given total degree, grlex-descending.

    The list has length C(nvars-1+degree, degree).  A monomial is fixed by
    its partial sums e_0, e_0+e_1, ..., e_0+...+e_(n-2), any nondecreasing
    n-1 numbers in 0..degree, and combinations_with_replacement lists those
    in lexicographic order, which is grlex-ascending on the monomials.  So
    the list is built with no recursion and n steps per monomial, whatever
    the number of variables or the degree, and then reversed.  Every list
    of monomials is made here, and refused with ResourceLimit before it is
    when its slots and tuples alone pass the memory budget (require_memory).
    """
    if nvars < 1:
        raise ArityMismatch("need at least one variable")
    if degree < 0:
        return []
    slot = sys.getsizeof((0,)) - sys.getsizeof(())
    bound = comb(nvars - 1 + degree, degree) * (sys.getsizeof(()) + slot * (nvars + 1))
    require_memory(bound, f"listing the degree-{degree} monomials in {nvars} variables")
    out = [
        tuple(map(operator.sub, (*sums, degree), (0, *sums)))
        for sums in itertools.combinations_with_replacement(range(degree + 1), nvars - 1)
    ]
    out.reverse()
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


def _product(a: dict[Monomial, int], b: dict[Monomial, int], p: int) -> dict[Monomial, int]:
    """The product of two integer forms, residues over F_p; a coefficient
    may sum to 0 and stay stored."""
    out: dict[Monomial, int] = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(operator.add, m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c % p for m, c in out.items()} if p else out


def _integer_partial(form: dict[Monomial, int], index: int, p: int) -> dict[Monomial, int]:
    """d form / d x_index of an integer form, residues over F_p, with no
    zero coefficient stored."""
    out = {}
    for m, c in form.items():
        if e := m[index]:
            v = c * e % p if p else c * e
            if v:
                out[m[:index] + (e - 1,) + m[index + 1 :]] = v
    return out


class Polynomial:
    """Immutable-by-convention sparse polynomial over one FieldSpec: int
    numerators over one int denominator (see the module docstring)."""

    __slots__ = ("field", "nvars", "numerators", "denominator")

    def __init__(self, field: FieldSpec, nvars: int, numerators: dict[Monomial, int], denominator: int = 1):
        # trust internal callers; from_integers and from_terms canonicalize
        self.field = field
        self.nvars = nvars
        self.numerators = numerators
        self.denominator = denominator

    @classmethod
    def from_integers(
        cls, field: FieldSpec, nvars: int, numerators: dict[Monomial, int], denominator: int = 1
    ) -> "Polynomial":
        """The polynomial sum_m numerators[m] * x^m / denominator, for int
        numerators and an int denominator that is nonzero in the field
        (DivisionByZero otherwise), in its canonical form."""
        p = field.characteristic
        if (denominator % p if p else denominator) == 0:
            raise DivisionByZero(f"denominator {denominator} vanishes in {field}")
        if p:
            inverse = pow(denominator, -1, p)
            return cls(field, nvars, {m: v for m, c in numerators.items() if (v := c * inverse % p)})
        numerators = {m: c for m, c in numerators.items() if c}
        content = gcd(denominator, *numerators.values())
        if denominator < 0:
            content = -content
        if content != 1:
            numerators = {m: c // content for m, c in numerators.items()}
        return cls(field, nvars, numerators, denominator // content)

    @classmethod
    def from_terms(cls, field: FieldSpec, nvars: int, terms) -> "Polynomial":
        """The sum of the given terms: a dict or an iterable of (monomial,
        coefficient) pairs, repeated monomials adding up.  Exponents must be
        integers and coefficients exact (FieldSpec.scalar); else TypeError."""
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        values: dict[Monomial, Fraction | int] = {}
        for m, c in pairs:
            m = _exponents(m, nvars)
            values[m] = values.get(m, 0) + field.scalar(c).value
        denominator = lcm(*(v.denominator for v in values.values()))  # an int residue's is 1
        return cls.from_integers(
            field, nvars, {m: v.numerator * (denominator // v.denominator) for m, v in values.items()}, denominator
        )

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
        return cls(field, nvars, {tuple(int(i == index) for i in range(nvars)): 1})

    # -- queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.numerators

    def __bool__(self) -> bool:
        return bool(self.numerators)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self.numerators), default=-1)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        """Whether all monomials share one total degree.

        The zero polynomial counts as homogeneous of every degree.
        """
        if not self.numerators:
            return True
        degs = set(map(sum, self.numerators))
        if len(degs) > 1:
            return False
        return degree is None or degs == {degree}

    def _scalar(self, numerator: int) -> Scalar:
        if self.field.is_prime_field:
            return Scalar(self.field, numerator)
        return Scalar(self.field, Fraction(numerator, self.denominator))

    @property
    def terms(self) -> dict[Monomial, Scalar]:
        """A new dict of the nonzero coefficients as Scalars, by monomial."""
        return {m: self._scalar(c) for m, c in self.numerators.items()}

    def coefficient(self, m: Monomial) -> Scalar:
        return self._scalar(self.numerators.get(tuple(m), 0))

    # -- arithmetic -----------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.field != other.field:
            raise FieldMismatch(f"cannot combine {self.field} with {other.field}")
        if self.nvars != other.nvars:
            raise ArityMismatch(f"cannot combine {self.nvars} variables with {other.nvars}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        den = lcm(self.denominator, other.denominator)
        a, b = den // self.denominator, den // other.denominator
        out = {m: c * a for m, c in self.numerators.items()}
        for m, c in other.numerators.items():
            out[m] = out.get(m, 0) + c * b
        return Polynomial.from_integers(self.field, self.nvars, out, den)

    def __neg__(self) -> "Polynomial":
        p = self.field.characteristic
        negated = {m: p - c if p else -c for m, c in self.numerators.items()}
        return Polynomial(self.field, self.nvars, negated, self.denominator)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check(other)
            product = _product(self.numerators, other.numerators, self.field.characteristic)
            return Polynomial.from_integers(self.field, self.nvars, product, self.denominator * other.denominator)
        return self.scale(other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, c: Scalar) -> "Polynomial":
        c = self.field.scalar(c).value
        if not c:
            return Polynomial.zero(self.field, self.nvars)
        scaled = {m: x * c.numerator for m, x in self.numerators.items()}
        return Polynomial.from_integers(self.field, self.nvars, scaled, self.denominator * c.denominator)

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
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    def __hash__(self):
        return hash((self.field.characteristic, self.nvars, self.denominator, frozenset(self.numerators.items())))

    # -- printing -------------------------------------------------------

    def to_text(self, var_start: int = 0) -> str:
        """Canonical text, grlex-descending; reparseable by parse_poly."""
        if not self.numerators:
            return "0"
        pieces = []
        for m, c in sorted(self.numerators.items(), key=lambda t: grlex_key(t[0]), reverse=True):
            mono = monomial_text(m, var_start)
            mag = Fraction(abs(c), self.denominator)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            pieces.append(("-" if c < 0 else "+", body))
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
    degs = set(map(sum, p.numerators))
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
    partial = _integer_partial(p.numerators, index, p.field.characteristic)
    return Polynomial.from_integers(p.field, p.nvars, partial, p.denominator)


class LinearChange(list):
    """An invertible linear substitution x_i -> sum_j M[i][j] x_j, held as
    the list of the variables' images, the linear forms of M's rows.

    Invertibility is checked once, at construction, by one exact rank of
    the images' numerators.
    """

    def __init__(self, field: FieldSpec, rows):
        images = [linear_form(field, row) for row in rows]
        if any(g.nvars != len(images) for g in images):
            raise ArityMismatch("linear change must be square")
        integer_rows = [sorted((m.index(1), c) for m, c in g.numerators.items()) for g in images]
        if linalg.rank_mod_p_int(integer_rows, field.characteristic) != len(images):
            raise SingularMatrix("linear change is not invertible")
        super().__init__(images)


def substitute_linear(p: Polynomial, change: list[Polynomial]) -> Polynomial:
    """The ring map x_i -> change[i]: (substitute_linear(p, C))(y) = p(C(y)).

    Ring homomorphism in p.  The change is the list of the variables'
    images, linear forms that all live in one ring over p's field; the
    result lives in that ring.  Images in p's own ring are a change of
    variables: a LinearChange, checked invertible when built, or a plain
    list.  Images in fewer variables restrict p to a linear subspace
    (Hyperplane.restrict has its own engine).  The work is in ints: with
    D the lcm of the images' denominators and e the degree of p, each
    term c*x^m becomes c * D^(e-|m|) * prod_i (D*change[i])^(m_i), over
    p's denominator times D^e.
    """
    if len(change) != p.nvars or any(g.nvars != change[0].nvars for g in change):
        rings = sorted({g.nvars for g in change})
        raise ArityMismatch(f"{len(change)} images in rings of {rings} variables, polynomial has {p.nvars}")
    if any(g.field != p.field for g in change):
        raise FieldMismatch("change and polynomial over different fields")
    nvars = change[0].nvars if change else 0
    q, degree = p.field.characteristic, max(p.degree(), 0)
    scale = lcm(*(g.denominator for g in change))
    images = [{m: c * (scale // g.denominator) for m, c in g.numerators.items()} for g in change]

    @cache
    def power(i: int, e: int) -> dict[Monomial, int]:
        return images[i] if e == 1 else _product(power(i, e - 1), images[i], q)

    out: dict[Monomial, int] = {}
    for m, c in p.numerators.items():
        term = {(0,) * nvars: c * scale ** (degree - sum(m))}
        for i, e in enumerate(m):
            if e:
                term = _product(term, power(i, e), q)
        for mono, v in term.items():
            out[mono] = out.get(mono, 0) + v
    return Polynomial.from_integers(p.field, nvars, out, p.denominator * scale**degree)


def linear_form(field: FieldSpec, coefficients) -> Polynomial:
    """Linear form with the given coefficient sequence, one per variable."""
    coeffs = list(coefficients)
    n = len(coeffs)
    return Polynomial.from_terms(field, n, ((tuple(int(k == i) for k in range(n)), c) for i, c in enumerate(coeffs)))


def linear_coefficients(p: Polynomial) -> list[Scalar]:
    """Coefficient vector of a (possibly zero) linear form."""
    if p and not p.is_homogeneous(1):
        raise NotHomogeneous("expected a homogeneous linear form or zero")
    return [p.coefficient(tuple(int(k == i) for k in range(p.nvars))) for i in range(p.nvars)]
