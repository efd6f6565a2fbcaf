"""Built-in hypersurface families."""

from fractions import Fraction

import pytest

from hypersect import (
    BadCharacteristic,
    CriterionStatus,
    DimensionTooSmall,
    LinearChange,
    NotHomogeneous,
    criterion_kernel,
    Hyperplane,
    is_smooth,
    make_field,
    parse_poly,
    substitute_linear,
)
from hypersect.fixtures import (
    cubic_threefold_example,
    cubic_threefold_normal_form,
    cyclic_fermat,
    fermat,
)
from helpers import criterion_form

Q = make_field(0)


def test_fermat_cubic_surface():
    assert fermat(3, 3, Q).to_text() == "x0^3 + x1^3 + x2^3 + x3^3"


def test_fermat_conic():
    f5 = make_field(5)
    assert fermat(1, 2, f5) == parse_poly("x0^2 + x1^2", 2, f5)


def test_fermat_degree_grid():
    for n in range(1, 5):
        for d in range(1, 6):
            f = fermat(n, d, Q)
            assert f.degree() == d
            assert f.nvars == n + 1
            assert f.is_homogeneous()
            assert len(f.terms) == n + 1


def test_fermat_domain():
    with pytest.raises(DimensionTooSmall):
        fermat(0, 3, Q)
    with pytest.raises(DimensionTooSmall):
        fermat(2, 0, Q)


def test_cyclic_fermat_quartic_monomials():
    f = cyclic_fermat(3, 4, Q)
    pure = [m for m in f.terms if max(m) == 4]
    chain = [m for m in f.terms if max(m) == 3]
    assert len(f.terms) == 8
    assert len(pure) == 4 and len(chain) == 4
    assert f.to_text() == (
        "x0^4 + x0^3*x1 + x0*x3^3 + x1^4 + x1^3*x2 + x2^4 + x2^3*x3 + x3^4"
    )


def test_cyclic_fermat_term_count_grid():
    for n in (2, 3, 4):
        for d in (3, 4, 5):
            f = cyclic_fermat(n, d, Q)
            assert len(f.terms) == 2 * (n + 1)
            assert f.is_homogeneous()
            assert f.degree() == d


def test_cyclic_fermat_domain():
    with pytest.raises(DimensionTooSmall):
        cyclic_fermat(1, 3, Q)
    with pytest.raises(DimensionTooSmall):
        cyclic_fermat(3, 2, Q)


def test_cyclic_fermat_shift_invariance():
    """The defining sum is symmetric under rotating the variables."""
    for n, d in ((2, 3), (3, 4), (4, 3)):
        f = cyclic_fermat(n, d, Q)
        nv = n + 1
        rows = [
            [Q.one() if j == (i + 1) % nv else Q.zero() for j in range(nv)]
            for i in range(nv)
        ]
        assert substitute_linear(f, LinearChange(Q, rows)) == f


def test_cyclic_fermat_criterion_form():
    for d in (3, 4, 5):
        q = criterion_form(cyclic_fermat(3, d, Q))
        assert q == parse_poly(f"x2^{d - 1}", 3, Q)


def test_displayed_cubic_is_smooth_with_smooth_section():
    f = cubic_threefold_example(Q)
    assert f.nvars == 5 and f.degree() == 3
    assert is_smooth(f)
    assert is_smooth(Hyperplane.coordinate(Q, 5, 0).restrict(f))
    assert criterion_form(f) == parse_poly("x0^2", 4, Q)


def test_displayed_cubic_exact_terms():
    f = cubic_threefold_example(Q)
    assert f == parse_poly("x0^3 + x1^3 + x0*x1^2 + x1*x2^2 + x3^3 + x2*x4^2", 5, Q)


def test_normal_form_with_zero_coefficients_is_fermat():
    g = parse_poly("x0^3 + x1^3 + x2^3 + x3^3", 4, Q)
    assert cubic_threefold_normal_form([0, 0, 0, 0], g, Q) == fermat(4, 3, Q)


def test_normal_form_term_count():
    nf = cubic_threefold_normal_form([1, 1, 1, 1], parse_poly("x0*x1*x2", 4, Q), Q)
    assert len(nf.terms) == 6
    assert nf.to_text() == (
        "x0^3 + x0*x1^2 + x0*x2^2 + x0*x3^2 + x0*x4^2 + x1*x2*x3"
    )


def test_normal_form_criterion_form_reads_back_the_coefficients():
    g = parse_poly("x0^3 + x1^3 + x2^3 + x3^3", 4, Q)
    nf = cubic_threefold_normal_form([1, 2, Fraction(1, 3), -1], g, Q)
    assert criterion_form(nf).to_text(var_start=1) == "x1^2 + 2*x2^2 + 1/3*x3^2 - x4^2"


def test_normal_form_homogeneous_cubic_in_five_variables():
    g = parse_poly("x0^2*x1 - x3^3", 4, Q)
    nf = cubic_threefold_normal_form([2, 0, 0, 1], g, Q)
    assert nf.nvars == 5
    assert nf.is_homogeneous()
    assert nf.degree() == 3


def test_normal_form_requires_characteristic_zero():
    f5 = make_field(5)
    with pytest.raises(BadCharacteristic):
        cubic_threefold_normal_form([1, 1, 1, 1], parse_poly("x0^3", 4, f5), f5)


def test_normal_form_input_validation():
    g = parse_poly("x0^3", 4, Q)
    with pytest.raises(DimensionTooSmall):
        cubic_threefold_normal_form([1, 1, 1], g, Q)
    with pytest.raises(DimensionTooSmall):
        cubic_threefold_normal_form([1, 1, 1, 1], parse_poly("x0^3", 5, Q), Q)
    with pytest.raises(NotHomogeneous):
        cubic_threefold_normal_form([1, 1, 1, 1], parse_poly("x0*x1", 4, Q), Q)


def test_fixture_sections_feed_the_criterion():
    # the displayed cubic's x0 section carries the two dimensional kernel
    rep = criterion_kernel(cubic_threefold_example(Q), Hyperplane.coordinate(Q, 5, 0))
    assert rep.status == CriterionStatus.COMPUTED
