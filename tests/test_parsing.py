"""Text grammar for polynomials: happy paths and error positions."""

import os
import random
import sys
from fractions import Fraction

import pytest

from hypersect import ParseError, ResourceLimit, UnknownVariable, make_field, parse_poly
from helpers import FIELDS, rand_poly

Q = make_field(0)


def test_whitespace_is_free():
    for text in ("x0+x1", " x0 + x1 ", "x0 +x1", "x0\t+ x1"):
        assert parse_poly(text, 2, Q) == parse_poly("x0 + x1", 2, Q)


def test_explicit_coefficient_and_exponent():
    p = parse_poly("3*x0^2*x1", 3, Q)
    assert p.coefficient((2, 1, 0)) == Q.scalar(3)
    assert p.degree() == 3


def test_leading_sign_accepted():
    assert parse_poly("+x0", 2, Q) == parse_poly("x0", 2, Q)
    assert parse_poly("-x0 + x1", 2, Q) == parse_poly("x1 - x0", 2, Q)


def test_constant_terms():
    assert parse_poly("5", 2, Q).coefficient((0, 0)) == Q.scalar(5)
    assert parse_poly("-2/3", 2, Q).coefficient((0, 0)) == Q.scalar(Fraction(-2, 3))


def test_zero_exponent_collapses_to_constant():
    assert parse_poly("x0^0", 2, Q) == parse_poly("1", 2, Q)


def test_fractions_reduce_during_parse():
    assert parse_poly("2/4*x0", 1, Q).to_text() == "1/2*x0"


def test_repeated_variable_multiplies():
    assert parse_poly("x0*x0", 1, Q) == parse_poly("x0^2", 1, Q)


def test_like_terms_merge_and_cancel():
    assert parse_poly("x0 + x0", 1, Q).to_text() == "2*x0"
    assert parse_poly("x0 - x0", 1, Q).is_zero()


@pytest.mark.parametrize(
    "text,position",
    [
        ("", 0),
        ("x0 ++ x1", 4),
        ("x0 +", 4),
        ("x0*", 3),
        ("x0^", 3),
        ("x0^-1", 3),
        ("x^2", 0),
        ("2x0", 1),
        ("(x0)", 0),
        ("x0 - -x1", 5),
        ("1/0*x0", 2),
    ],
)
def test_parse_error_positions(text, position):
    with pytest.raises(ParseError) as info:
        parse_poly(text, 3, Q)
    assert info.value.position == position


def test_unknown_variable_reports_position():
    with pytest.raises(UnknownVariable) as info:
        parse_poly("x0 + x3", 2, Q)
    assert info.value.position == 5


def test_nvars_boundary():
    assert parse_poly("x1", 2, Q) is not None
    with pytest.raises(UnknownVariable):
        parse_poly("x2", 2, Q)


def test_denominator_not_invertible_mod_p():
    with pytest.raises(ParseError):
        parse_poly("1/2*x0", 1, make_field(2))
    # the same text is fine when 2 is a unit
    assert parse_poly("1/2*x0", 1, make_field(7)).coefficient((1,)) == make_field(7).scalar(4)


def test_round_trip_is_identity():
    rng = random.Random(12)
    for field in FIELDS:
        for _ in range(200):
            p = rand_poly(rng, field, 4, max_degree=5, max_terms=7)
            assert parse_poly(p.to_text(), 4, field) == p


def test_round_trip_shifted_variables():
    rng = random.Random(13)
    for _ in range(100):
        p = rand_poly(rng, Q, 3, max_degree=3, max_terms=5)
        shifted = p.to_text(var_start=1)
        # reading the shifted text back in a wider ring reproduces the
        # polynomial with every index moved up one slot
        from helpers import embed_shift

        assert parse_poly(shifted, 4, Q) == embed_shift(p, 4, 1)


def test_a_term_past_physical_memory_is_refused(monkeypatch):
    """parse_poly refuses nvars exactly when one term's list and tuple of
    nvars exponents pass the physical memory os.sysconf reports, before
    parsing, and refuses nothing where it reports none."""
    slot = sys.getsizeof((0,)) - sys.getsizeof(())
    need = sys.getsizeof([]) + sys.getsizeof(()) + 2 * slot * 50
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need}.__getitem__)
    assert parse_poly("x49", 50, Q).degree() == 1
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need - 1}.__getitem__)
    with pytest.raises(ResourceLimit, match=f"a term in 50 variables needs more than the {need - 1} bytes"):
        parse_poly("x49", 50, Q)

    def unknown(name):
        raise ValueError(name)

    monkeypatch.setattr(os, "sysconf", unknown)
    assert parse_poly("x49", 50, Q).degree() == 1
