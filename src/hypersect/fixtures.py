"""Named families of hypersurfaces used throughout tests and the CLI."""

from __future__ import annotations

from .errors import BadCharacteristic, DimensionTooSmall
from .fields import FieldSpec
from .poly import Polynomial, require_homogeneous


def _check_nd(n: int, d: int) -> None:
    if n < 2:
        raise DimensionTooSmall(f"need n >= 2, got {n}")
    if d < 3:
        raise DimensionTooSmall(f"need d >= 3, got {d}")


def fermat(n: int, d: int, field: FieldSpec) -> Polynomial:
    """x0^d + ... + xn^d in n+1 variables."""
    if n < 1:
        raise DimensionTooSmall(f"need n >= 1, got {n}")
    if d < 1:
        raise DimensionTooSmall(f"need d >= 1, got {d}")
    nv = n + 1
    terms = {}
    for i in range(nv):
        m = tuple(d if k == i else 0 for k in range(nv))
        terms[m] = 1
    return Polynomial.from_terms(field, nv, terms)


def cyclic_fermat(n: int, d: int, field: FieldSpec) -> Polynomial:
    """Fermat plus the cyclic chain x_j^{d-1} x_{j+1}, indices mod n+1.

    2(n+1) monomials, all distinct for d >= 3; smooth for most (n, d, p).
    """
    _check_nd(n, d)
    nv = n + 1
    terms = {}
    for i in range(nv):
        terms[tuple(d if k == i else 0 for k in range(nv))] = 1
    for j in range(nv):
        nxt = (j + 1) % nv
        m = tuple((d - 1 if k == j else 0) + (1 if k == nxt else 0) for k in range(nv))
        terms[m] = 1
    return Polynomial.from_terms(field, nv, terms)


def cubic_threefold_example(field: FieldSpec) -> Polynomial:
    """x0^3 + x1^3 + x0*x1^2 + x1*x2^2 + x3^3 + x2*x4^2 in five variables.

    A smooth cubic threefold whose x0 = 0 section is smooth with a nonzero
    criterion form, yet the criterion kernel there is two dimensional.
    """
    terms = {
        (3, 0, 0, 0, 0): 1,
        (0, 3, 0, 0, 0): 1,
        (1, 2, 0, 0, 0): 1,
        (0, 1, 2, 0, 0): 1,
        (0, 0, 0, 3, 0): 1,
        (0, 0, 1, 0, 2): 1,
    }
    return Polynomial.from_terms(field, 5, terms)


def cubic_threefold_normal_form(a, g: Polynomial, field: FieldSpec) -> Polynomial:
    """x0^3 + x0*(a1*x1^2 + ... + a4*x4^2) + g(x1..x4) over Q.

    `a` gives the four quadric coefficients; `g` is a cubic form in four
    variables (embedded as x1..x4).  Restricted to characteristic 0, where
    every cubic threefold with smooth hyperplane section can be written
    this way.
    """
    if field.characteristic != 0:
        raise BadCharacteristic("the normal form is stated over characteristic 0")
    coeffs = [field.scalar(x) for x in a]
    if len(coeffs) != 4:
        raise DimensionTooSmall(f"need exactly 4 quadric coefficients, got {len(coeffs)}")
    if g.nvars != 4:
        raise DimensionTooSmall(f"g must use 4 variables, has {g.nvars}")
    if g.field != field:
        raise BadCharacteristic("g must live over the same field")
    if g:
        require_homogeneous(g, 3, "cubic part g")
        if g.degree() != 3:
            raise DimensionTooSmall("g must be a cubic form")
    squares = [((1,) + tuple(2 * (k == i) for k in range(4)), c) for i, c in enumerate(coeffs)]
    shifted = {(0,) + m: c for m, c in g.numerators.items()}  # g on x1..x4
    head = Polynomial.from_terms(field, 5, [((3, 0, 0, 0, 0), 1)] + squares)
    return head + Polynomial(field, 5, shifted, g.denominator)


FIXTURES = {
    "fermat": fermat,
    "cyclic-fermat": cyclic_fermat,
    "cubic-threefold": cubic_threefold_example,
    "cubic-threefold-normal-form": cubic_threefold_normal_form,
}
