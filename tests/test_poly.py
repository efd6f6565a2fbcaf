"""Multivariate polynomial ring operations."""

import itertools
import random
import sys
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest

from hypersect import (
    ArityMismatch,
    FieldMismatch,
    Hyperplane,
    IndexOutOfRange,
    LinearChange,
    NotHomogeneous,
    Polynomial,
    Scalar,
    SingularMatrix,
    linear_form,
    make_field,
    monomial_basis,
    parse_poly,
    partial_derivative,
    substitute_linear,
)
from hypersect.fixtures import cubic_threefold_example, cubic_threefold_normal_form, cyclic_fermat, fermat
from hypersect.poly import require_homogeneous
from helpers import (
    FIELDS,
    embed_shift,
    first_order_section,
    identity_change,
    rand_poly,
    rand_raw_pairs,
    rand_raw_value,
    rand_scalar,
    raw_collect,
    raw_mul,
    raw_partial,
    raw_pow,
    raw_substitute,
    set_var_zero,
)

Q = make_field(0)


def test_parse_displayed_cubic_matches_fixture():
    text = "x0^3 + x1^3 + x0*x1^2 + x1*x2^2 + x3^3 + x2*x4^2"
    assert parse_poly(text, 5, Q) == cubic_threefold_example(Q)


def test_parse_zero():
    assert parse_poly("0", 3, Q).is_zero()


def test_parse_fraction_coefficient():
    p = parse_poly("x0^2 - 1/2*x1*x2", 3, Q)
    assert p.coefficient((2, 0, 0)) == Q.scalar(1)
    assert p.coefficient((0, 1, 1)) == Q.scalar(Fraction(-1, 2))
    assert p.to_text() == "x0^2 - 1/2*x1*x2"


def test_from_terms_sums_repeated_monomials():
    """A pair list may name a monomial twice; the coefficients add up, and
    a sum that cancels is not stored."""
    pairs = [((1, 0), 1), ((0, 1), 2), ((1, 0), Fraction(1, 2)), ((0, 1), -2)]
    assert Polynomial.from_terms(Q, 2, pairs) == parse_poly("3/2*x0", 2, Q)
    f5 = make_field(5)
    assert Polynomial.from_terms(f5, 2, [((2, 0), 3), ((2, 0), 2)]).is_zero()


@pytest.mark.parametrize("monomial", [(1.5, 0), ("2", 0), (1.0, 1)])
def test_from_terms_rejects_non_integer_exponents(monomial):
    with pytest.raises(TypeError):
        Polynomial.from_terms(Q, 2, {monomial: 1})


def test_from_terms_rejects_inexact_coefficients():
    """0.5 over F_7 used to become 0 and 2.9 became 2; floats now raise."""
    f7 = make_field(7)
    with pytest.raises(TypeError):
        Polynomial.from_terms(f7, 2, {(1, 0): 0.5, (0, 1): 2.9})
    with pytest.raises(TypeError):
        Polynomial.from_terms(Q, 2, {(1, 0): 0.1})
    with pytest.raises(TypeError):
        parse_poly("x0", 2, Q) * 0.5
    with pytest.raises(ValueError):
        Polynomial.from_terms(Q, 2, {(-1, 2): 1})
    exact = Polynomial.from_terms(f7, 2, {(np.int64(1), np.int32(1)): np.int64(9)})
    assert exact == parse_poly("2*x0*x1", 2, f7)
    assert all(type(e) is int for e in next(iter(exact.terms)))


def _assert_matches_raw(poly: Polynomial, raw: dict) -> None:
    """poly's terms are raw's values, each a nonzero Scalar of poly's field
    holding a Fraction over Q and an int residue over F_p, and poly is
    stored in its one canonical form: int numerators over the lcm of the
    coefficients' denominators (1 over F_p), coprime to it taken together,
    residues in [0, p) over F_p."""
    assert {m: c.value for m, c in poly.terms.items()} == raw
    value_type = int if poly.field.is_prime_field else Fraction
    for m, c in poly.terms.items():
        assert type(c) is Scalar and c.field == poly.field and c, (poly, m)
        assert type(c.value) is value_type and len(m) == poly.nvars, (poly, m)
    p = poly.field.characteristic
    assert poly.numerators.keys() == raw.keys() and all(type(c) is int and c for c in poly.numerators.values())
    assert poly.denominator == (1 if p else lcm(*(v.denominator for v in raw.values())))
    assert gcd(poly.denominator, *poly.numerators.values()) == 1, poly
    assert not p or all(0 <= c < p for c in poly.numerators.values()), poly


def _assert_same_storage(a: Polynomial, b: Polynomial) -> None:
    """Two routes to one polynomial store the same numerators, denominator
    and hash."""
    assert (a.numerators, a.denominator, hash(a)) == (b.numerators, b.denominator, hash(b)), (a, b)


def test_ring_operations_match_raw_value_reference():
    """Every operation that sums terms agrees with raw dicts of Fractions or
    residues and stores no zero coefficient: +, -, x, scale, **, the partial
    derivative, substitution (square and into fewer variables) and parsing
    the printout.  b = c - a, so a + b cancels every term of a.  Each
    result is in canonical storage, and (a + b) - b and a.scale(s).scale(1/s)
    store what a does."""
    rng = random.Random(14)
    for p in (0, 2, 3, 101, 2**31 + 11):
        field = make_field(p)

        def build(nvars: int, terms: dict) -> tuple[Polynomial, dict]:
            poly = Polynomial.from_terms(field, nvars, terms)
            raw = raw_collect(terms.items(), p)
            _assert_matches_raw(poly, raw)
            return poly, raw

        def linear_images(nvars: int) -> list[tuple[Polynomial, dict]]:
            units = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
            return [build(nvars, {u: rand_raw_value(rng, p) for u in units}) for _ in range(3)]

        for _ in range(30):
            a, ra = build(3, dict(rand_raw_pairs(rng, p, 3)))
            c_pairs = rand_raw_pairs(rng, p, 3)
            b, rb = build(3, raw_collect(c_pairs + [(m, -v) for m, v in ra.items()], p))
            _assert_matches_raw(a + b, raw_collect(c_pairs, p))
            _assert_matches_raw(a - b, raw_collect(itertools.chain(ra.items(), ((m, -v) for m, v in rb.items())), p))
            _assert_matches_raw(a * b, raw_mul(ra, rb, p))
            s = rand_raw_value(rng, p)
            _assert_matches_raw(a.scale(field.scalar(s)), raw_collect(((m, v * s) for m, v in ra.items()), p))
            _assert_same_storage((a + b) - b, a)
            if field.scalar(s):
                _assert_same_storage(a.scale(field.scalar(s)).scale(field.scalar(Fraction(1, s))), a)
            for e in range(4):
                _assert_matches_raw(a**e, raw_pow(ra, e, 3, p))
            for i in range(3):
                _assert_matches_raw(partial_derivative(a, i), raw_partial(ra, i, p))
            for nvars in (3, 2):
                images = linear_images(nvars)
                _assert_matches_raw(
                    substitute_linear(a, [g for g, _ in images]),
                    raw_substitute(ra, [r for _, r in images], nvars, p),
                )
            _assert_matches_raw(parse_poly(a.to_text(), 3, field), ra)
            _assert_matches_raw(parse_poly(b.to_text(), 3, field), rb)


def test_difference_of_squares():
    a = parse_poly("x0 + x1", 2, Q)
    b = parse_poly("x0 - x1", 2, Q)
    assert a * b == parse_poly("x0^2 - x1^2", 2, Q)


def test_freshman_square_char_two():
    f2 = make_field(2)
    s = parse_poly("x0 + x1", 2, f2)
    assert s * s == parse_poly("x0^2 + x1^2", 2, f2)


def test_char_p_kills_p_copies():
    for field in FIELDS:
        p = field.characteristic
        if p == 0:
            continue
        f = fermat(2, 3, field)
        total = Polynomial.zero(field, 3)
        for _ in range(p):
            total = total + f
        assert total.is_zero()
        assert f.scale(field.scalar(p)).is_zero()


def test_partial_derivative_basic():
    p = parse_poly("x1*x2^2", 3, Q)
    assert partial_derivative(p, 2) == parse_poly("2*x1*x2", 3, Q)
    assert partial_derivative(p, 0).is_zero()


def test_partial_derivative_char_divides_degree():
    f3 = make_field(3)
    cube = parse_poly("x0^3", 2, f3)
    assert partial_derivative(cube, 0).is_zero()


def test_partial_derivative_index_bounds():
    with pytest.raises(IndexOutOfRange):
        partial_derivative(parse_poly("x0", 2, Q), 2)


def test_substitute_identity_is_noop():
    rng = random.Random(1)
    for field in FIELDS:
        p = rand_poly(rng, field, 3)
        assert substitute_linear(p, identity_change(field, 3)) == p


def test_substitute_swap_twice_is_identity():
    one, zero = Q.scalar(1), Q.scalar(0)
    swap = LinearChange(Q, [[zero, one], [one, zero]])
    p = parse_poly("x0^2 + 3*x1", 2, Q)
    assert substitute_linear(substitute_linear(p, swap), swap) == p
    assert substitute_linear(p, swap) == parse_poly("x1^2 + 3*x0", 2, Q)


def test_substitute_shift_permutes_fermat():
    """The cyclic coordinate shift fixes the Fermat polynomial."""
    f = fermat(3, 3, Q)
    rows = [[Q.scalar(1) if j == (i + 1) % 4 else Q.scalar(0) for j in range(4)] for i in range(4)]
    assert substitute_linear(f, LinearChange(Q, rows)) == f


def test_linear_change_inverse_roundtrip():
    rng = random.Random(3)
    from helpers import inverse_change, rand_invertible

    for field in FIELDS[:4]:
        rows = rand_invertible(rng, field, 3)
        change = LinearChange(field, rows)
        p = rand_poly(rng, field, 3)
        assert substitute_linear(substitute_linear(p, change), inverse_change(change)) == p


def test_substitute_variable_images_match_change():
    """A list of variable images substitutes like the LinearChange of the
    same rows; a list of the wrong length is an ArityMismatch."""
    rng = random.Random(4)
    from helpers import rand_invertible

    for field in FIELDS[:4]:
        rows = rand_invertible(rng, field, 3)
        images = [linear_form(field, row) for row in rows]
        p = rand_poly(rng, field, 3)
        assert substitute_linear(p, images) == substitute_linear(p, LinearChange(field, rows))
        with pytest.raises(ArityMismatch):
            substitute_linear(p, images[:2])


def test_substitute_into_fewer_variables_restricts():
    """Images in a smaller ring land the result there: sending x2 to zero
    and x0, x1 to the two new variables is the reference set_var_zero(p, 2)."""
    rng = random.Random(5)
    for field in FIELDS:
        images = [Polynomial.variable(field, 2, 0), Polynomial.variable(field, 2, 1), Polynomial.zero(field, 2)]
        for _ in range(10):
            p = rand_poly(rng, field, 3)
            restricted = substitute_linear(p, images)
            assert restricted.nvars == 2 and restricted == set_var_zero(p, 2)


def test_substitute_refuses_images_of_other_rings():
    p = parse_poly("x0^2 + x1*x2", 3, Q)
    mixed = [Polynomial.variable(Q, 2, 0), Polynomial.variable(Q, 3, 1), Polynomial.variable(Q, 2, 1)]
    with pytest.raises(ArityMismatch):
        substitute_linear(p, mixed)
    f5 = make_field(5)
    with pytest.raises(FieldMismatch):
        substitute_linear(p, [Polynomial.variable(f5, 2, i % 2) for i in range(3)])


def test_normal_form_embeds_g_as_before():
    """The normal-form fixture places g on x1..x4 by re-indexing its
    numerators; its bytes equal the padded-exponent embedding."""
    g = parse_poly("x0^3 - 2*x0*x1*x3 + 1/2*x1^2*x2 + x2^3 - 5*x3^3", 4, Q)
    nf = cubic_threefold_normal_form([1, 2, Fraction(1, 3), -1], g, Q)
    zero_g = cubic_threefold_normal_form([1, 2, Fraction(1, 3), -1], Polynomial.zero(Q, 4), Q)
    assert nf == zero_g + embed_shift(g, 5, 1)
    assert nf.to_text() == (
        "x0^3 + x0*x1^2 + 2*x0*x2^2 + 1/3*x0*x3^2 - x0*x4^2 + x1^3 - 2*x1*x2*x4"
        " + 1/2*x2^2*x3 + x3^3 - 5*x4^3"
    )


def test_singular_change_rejected():
    one = Q.scalar(1)
    with pytest.raises(SingularMatrix):
        LinearChange(Q, [[one, one], [one, one]])


def test_set_var_zero_fermat():
    """Restriction to x0 = 0 drops the x0 terms and reindexes the rest."""
    f = fermat(3, 4, Q)
    g = Hyperplane.coordinate(Q, 4, 0).restrict(f)
    assert g.nvars == 3
    assert g == parse_poly("x0^4 + x1^4 + x2^4", 3, Q)


def test_set_var_zero_reindexes_displayed_cubic():
    g = Hyperplane.coordinate(Q, 5, 0).restrict(cubic_threefold_example(Q))
    assert g.nvars == 4
    assert g == parse_poly("x0^3 + x0*x1^2 + x1*x3^2 + x2^3", 4, Q)


def test_set_var_zero_middle_variable():
    """The reference restriction, kept apart from Hyperplane.restrict."""
    p = parse_poly("x0*x2 + x1^2", 3, Q)
    assert set_var_zero(p, 1) == parse_poly("x0*x1", 2, Q)
    assert set_var_zero(p, 2) == parse_poly("x1^2", 2, Q)


def test_first_order_section_fermat_is_static():
    # the x0-partial of the Fermat form dies on x0 = 0, so moving the
    # hyperplane contributes nothing to first order
    f = fermat(3, 3, Q)
    for text in ("x0", "x0 + 2*x1", "x2"):
        g, h = first_order_section(f, parse_poly(text, 3, Q))
        assert g == parse_poly("x0^3 + x1^3 + x2^3", 3, Q)
        assert h.is_zero()


def test_first_order_section_cyclic_example():
    f = cyclic_fermat(3, 4, Q)
    g, h = first_order_section(f, parse_poly("x0", 3, Q))
    assert h == parse_poly("x0*x2^3", 3, Q)
    assert g == Hyperplane.coordinate(Q, 4, 0).restrict(f)


def test_first_order_section_zero_direction():
    f = cyclic_fermat(3, 4, Q)
    g, h = first_order_section(f, Polynomial.zero(Q, 3))
    assert g == Hyperplane.coordinate(Q, 4, 0).restrict(f)
    assert h.is_zero()


def test_first_order_section_arity():
    with pytest.raises(ArityMismatch):
        first_order_section(fermat(3, 3, Q), parse_poly("x0", 4, Q))


def test_monomial_basis_small():
    assert monomial_basis(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomial_basis(2, 0) == [(0, 0)]
    assert len(monomial_basis(4, 3)) == 20


def test_monomial_basis_grlex_sorted():
    from hypersect.poly import grlex_key

    for nvars in (2, 3, 4):
        for degree in (1, 2, 3):
            basis = monomial_basis(nvars, degree)
            keys = [grlex_key(m) for m in basis]
            assert keys == sorted(keys, reverse=True)
            assert len(set(basis)) == len(basis)


def test_monomial_basis_keeps_the_recursive_order_past_the_recursion_limit():
    """monomial_basis lists the monomials in the order of the recursion on
    the first exponent, from the degree down, with no recursion of its
    own: 500 variables past the interpreter's recursion limit give those
    variables in order, and one monomial of degree 0."""

    def recursive(nvars, degree):
        if nvars == 1:
            return [(degree,)]
        return [(e,) + rest for e in range(degree, -1, -1) for rest in recursive(nvars - 1, degree - e)]

    for nvars in range(1, 7):
        for degree in range(-1, 7):
            assert monomial_basis(nvars, degree) == (recursive(nvars, degree) if degree >= 0 else []), (nvars, degree)
    nvars = sys.getrecursionlimit() + 500
    assert monomial_basis(nvars, 1) == [tuple(int(i == j) for i in range(nvars)) for j in range(nvars)]
    assert monomial_basis(nvars, 0) == [(0,) * nvars]


def test_degree_and_homogeneity():
    assert Polynomial.zero(Q, 3).degree() == -1
    assert parse_poly("2", 3, Q).degree() == 0
    assert parse_poly("x0^2 + x1", 2, Q).degree() == 2
    assert not parse_poly("x0^2 + x1", 2, Q).is_homogeneous()
    assert fermat(3, 5, Q).is_homogeneous()
    with pytest.raises(NotHomogeneous):
        require_homogeneous(parse_poly("x0^2 + x1", 2, Q))


def test_to_text_round_trip():
    rng = random.Random(9)
    for field in FIELDS:
        for _ in range(100):
            p = rand_poly(rng, field, 3)
            assert parse_poly(p.to_text(), 3, field) == p


def test_to_text_var_start_offset():
    p = parse_poly("x0^2 - x1", 2, Q)
    assert p.to_text(var_start=1) == "x1^2 - x2"


def test_mixed_fields_rejected():
    a = parse_poly("x0", 2, Q)
    b = parse_poly("x0", 2, make_field(5))
    with pytest.raises(FieldMismatch):
        a + b


def test_mixed_arity_rejected():
    a = parse_poly("x0", 2, Q)
    b = parse_poly("x0", 3, Q)
    with pytest.raises(ArityMismatch):
        a * b


def test_ring_axioms_randomized():
    rng = random.Random(4)
    for field in FIELDS:
        for _ in range(150):
            a = rand_poly(rng, field, 2, max_degree=3, max_terms=4)
            b = rand_poly(rng, field, 2, max_degree=3, max_terms=4)
            c = rand_poly(rng, field, 2, max_degree=3, max_terms=4)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            s = rand_scalar(rng, field)
            assert (a + b).scale(s) == a.scale(s) + b.scale(s)
