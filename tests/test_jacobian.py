"""Jacobian ideal, graded dimensions, and the smoothness decision."""

import os
import random
import resource
import sys
import time
from collections import Counter
from itertools import combinations_with_replacement
from math import comb, gcd

import numpy as np
import pytest

from hypersect import (
    ArityMismatch,
    FieldMismatch,
    InhomogeneousGenerator,
    LinearChange,
    NotHomogeneous,
    Polynomial,
    ResourceLimit,
    SingularMatrix,
    default_degree_cap,
    ideal_graded_dim,
    is_smooth,
    jacobian_generators,
    make_field,
    parse_poly,
    partial_derivative,
    substitute_linear,
)
from hypersect import jacobian, linalg, poly, variation
from hypersect.fields import _is_prime
from hypersect.fixtures import cubic_threefold_example, cyclic_fermat, fermat
from hypersect.jacobian import _macaulay_rows
from hypersect.linalg import PROBE_PRIME, rank_mod_p_int
from hypersect.poly import monomial_basis
from hypersect.variation import CriterionStatus, Hyperplane, ScanStrategy, certify_max_variation, criterion_kernel
from gf_oracle import _MAX_GRID, find_singular_point
from helpers import (
    FIELDS,
    GradedPiece,
    dense_rows,
    euler_check,
    graded_piece,
    is_smooth_reference,
    macaulay_rows_reference,
    rand_homogeneous,
    rand_invertible,
    rand_nonzero_homogeneous,
    rand_nonzero_scalar,
    rand_scalar,
    rank_int_exact,
    sparse_rows,
    unpruned_rows_reference,
)

Q = make_field(0)


def test_generators_fermat_char_zero():
    gens = jacobian_generators(fermat(3, 3, Q))
    assert [g.to_text() for g in gens] == [
        "x0^3 + x1^3 + x2^3 + x3^3",
        "3*x0^2",
        "3*x1^2",
        "3*x2^2",
        "3*x3^2",
    ]


def test_generators_fermat_char_divides_degree():
    # every partial of sum(x_i^3) is 3 x_i^2, which dies mod 3
    gens = jacobian_generators(fermat(3, 3, make_field(3)))
    assert gens[0] == fermat(3, 3, make_field(3))
    assert all(g.is_zero() for g in gens[1:])


def test_generators_displayed_cubic():
    gens = jacobian_generators(cubic_threefold_example(Q))
    assert [g.to_text() for g in gens[1:]] == [
        "3*x0^2 + x1^2",
        "2*x0*x1 + 3*x1^2 + x2^2",
        "2*x1*x2 + x4^2",
        "3*x3^2",
        "2*x2*x4",
    ]


def test_graded_dim_of_partials_at_their_own_degree():
    for n, d in ((3, 3), (3, 4), (4, 3)):
        f = fermat(n, d, Q)
        partials = jacobian_generators(f)[1:]
        piece = ideal_graded_dim(partials, d - 1)
        assert piece.dimension == n + 1
        piece.basis.clear()  # a new list, so the next piece keeps its basis
        assert ideal_graded_dim(partials, d - 1).basis == monomial_basis(n + 1, d - 1)


def test_graded_dim_full_jacobian_at_degree_d():
    expected = {(3, 3): 16, (3, 4): 16, (4, 3): 25, (3, 5): 16, (5, 4): 36}
    for (n, d), dim in expected.items():
        f = fermat(n, d, Q)
        piece = ideal_graded_dim(jacobian_generators(f), d)
        assert piece.dimension == dim == (n + 1) ** 2


def test_graded_dim_empty_generators():
    assert ideal_graded_dim([], 2, field=Q, nvars=3).dimension == 0


def test_graded_dim_rejects_inhomogeneous():
    with pytest.raises(InhomogeneousGenerator):
        ideal_graded_dim([parse_poly("x0^2 + x1", 2, Q)], 2)


def test_graded_piece_membership():
    partials = jacobian_generators(fermat(3, 3, Q))[1:]
    piece = graded_piece(partials, 2)
    assert piece.contains(parse_poly("x0^2", 4, Q))
    assert piece.contains(parse_poly("2*x1^2 - x3^2", 4, Q))
    assert not piece.contains(parse_poly("x0*x1", 4, Q))
    assert all(not c for c in piece.reduce(parse_poly("x0^2", 4, Q)))
    assert any(c for c in piece.reduce(parse_poly("x0*x1", 4, Q)))


def test_graded_piece_rejects_forms_from_another_ring():
    """A form with another variable count or over another field is refused
    with a typed error, also when it misses every pivot column."""
    piece = graded_piece(jacobian_generators(fermat(3, 3, Q))[1:], 3)
    with pytest.raises(ArityMismatch):
        piece.reduce(parse_poly("x0^3 + x1*x2^2", 3, Q))
    f5 = make_field(5)
    for text in ("x0^3 + x1*x2^2", "x0*x1*x2"):
        with pytest.raises(FieldMismatch):
            piece.reduce(parse_poly(text, 4, f5))


def test_graded_dim_rejects_generators_from_mixed_rings():
    """Generators over two fields or in two variable counts are refused
    with a typed error instead of a KeyError or the first ring's answer."""
    f5 = make_field(5)
    with pytest.raises(ArityMismatch):
        ideal_graded_dim([parse_poly("x0^2", 3, Q), parse_poly("x3^2", 4, Q)], 2)
    with pytest.raises(FieldMismatch):
        ideal_graded_dim([parse_poly("x0^2", 3, Q), parse_poly("x1^2", 3, f5)], 2)


def test_graded_dim_rejects_generators_outside_the_given_ring():
    f5 = make_field(5)
    with pytest.raises(FieldMismatch):
        ideal_graded_dim([parse_poly("x0^2", 3, Q)], 2, field=f5)
    with pytest.raises(ArityMismatch):
        ideal_graded_dim([parse_poly("x0^2", 3, Q)], 2, nvars=4)
    # the ring named explicitly and matching is accepted
    assert ideal_graded_dim([parse_poly("x0^2", 3, f5)], 2, field=f5, nvars=3).dimension == 1


def test_smooth_fermat_when_char_does_not_divide_degree():
    for n, d in ((2, 3), (3, 3), (3, 4), (4, 3)):
        for p in (0, 2, 5, 7):
            if p and d % p == 0:
                continue
            assert is_smooth(fermat(n, d, make_field(p)))


def test_singular_fermat_when_char_divides_degree():
    assert not is_smooth(fermat(3, 3, make_field(3)))
    assert not is_smooth(fermat(3, 4, make_field(2)))
    assert not is_smooth(fermat(2, 5, make_field(5)))


def test_singular_power_of_one_variable():
    for nvars in (2, 3, 4):
        for d in (2, 3):
            f = parse_poly(f"x0^{d}", nvars, Q)
            assert not is_smooth(f)


def test_linear_forms_are_smooth():
    assert is_smooth(parse_poly("x0 + x1", 2, Q))
    assert is_smooth(parse_poly("x2", 3, make_field(5)))


def test_cyclic_fermat_quartic_is_singular_everywhere():
    """The alternating point (1, -1, 1, -1) zeroes the quartic and all of
    its partials: each pure power contributes 1, each chain term -1, and
    the partial at slot j reads 4 x_j^3 + 3 x_{j-1}^2 x_j ... with the
    signs cancelling pairwise.  The point is rational, so the surface is
    singular over Q and over every prime field."""
    assert not is_smooth(cyclic_fermat(3, 4, Q))
    for p in (2, 3, 5, 7, 101):
        assert not is_smooth(cyclic_fermat(3, 4, make_field(p)))


def test_cyclic_fermat_other_cases_smooth_over_q():
    assert is_smooth(cyclic_fermat(2, 3, Q))
    assert is_smooth(cyclic_fermat(3, 3, Q))
    assert is_smooth(cyclic_fermat(4, 3, Q))
    assert is_smooth(cyclic_fermat(3, 5, Q))


def test_explicit_degree_cap_is_honored():
    # full pieces for the Fermat cubic threefold start at degree 5
    f = fermat(3, 3, Q)
    assert not is_smooth(f, t_max=4)
    assert is_smooth(f, t_max=5)
    assert not is_smooth(f, t_max=-1)


def test_default_degree_cap_formula():
    """e = (n+1)(d-2) + 1, one more when char | d, and 0 for linear forms."""
    assert default_degree_cap(4, 3) == 5
    assert default_degree_cap(5, 3) == 6
    assert default_degree_cap(4, 4) == 9
    assert default_degree_cap(3, 2) == 1
    assert default_degree_cap(4, 4, 3) == 9
    assert default_degree_cap(4, 3, 3) == 6
    assert default_degree_cap(3, 2, 2) == 2
    assert default_degree_cap(4, 4, 2) == 10
    assert default_degree_cap(3, 5, 5) == 11
    assert default_degree_cap(2, 1) == default_degree_cap(5, 1, 7) == 0


def test_char_dividing_degree_needs_one_more_degree():
    """Over F_2 the conic x0^2 + x1*x2 is smooth, and its Jacobian ideal
    (f kept, as 2 | d) is not full at e = 1 but is full at e + 1 = 2: with
    the cap at e, is_smooth would call it singular."""
    f2 = make_field(2)
    raw = {(2, 0, 0): 1, (0, 1, 1): 1}
    f = Polynomial.from_terms(f2, 3, raw)
    assert find_singular_point(raw, 3, 2) is None
    gens = jacobian_generators(f)
    assert [ideal_graded_dim(gens, t).dimension for t in (1, 2)] == [2, 6]
    assert len(monomial_basis(3, 1)) == 3 and len(monomial_basis(3, 2)) == 6
    assert default_degree_cap(3, 2, 2) == 2
    assert is_smooth(f)
    assert not is_smooth(f, t_max=1)


def test_is_smooth_rejects_bad_input():
    with pytest.raises(NotHomogeneous):
        is_smooth(Polynomial.zero(Q, 3))
    with pytest.raises(NotHomogeneous):
        is_smooth(parse_poly("2", 3, Q))
    with pytest.raises(NotHomogeneous):
        is_smooth(parse_poly("x0^2 + x1", 2, Q))


def test_euler_identity_holds():
    rng = random.Random(41)
    for p in (0, 2, 3, 5, 7):
        field = make_field(p)
        for _ in range(60):
            f = rand_nonzero_homogeneous(rng, field, 3, rng.randint(1, 4))
            assert euler_check(f)
    # including when the characteristic divides the degree
    assert euler_check(fermat(3, 3, make_field(3)))


def test_full_pieces_stay_full():
    """Ideal pieces can only grow relative to the ambient space: once a
    degree is full, every later degree is full."""
    for f in (fermat(2, 3, Q), cyclic_fermat(2, 3, make_field(7))):
        gens = jacobian_generators(f)
        nvars = f.nvars
        seen_full = False
        for t in range(1, default_degree_cap(nvars, f.degree()) + 1):
            full = ideal_graded_dim(gens, t).dimension == len(monomial_basis(nvars, t))
            if seen_full:
                assert full
            seen_full = seen_full or full
        assert seen_full


def test_smoothness_invariant_under_coordinate_change():
    rng = random.Random(42)
    cases = [
        fermat(2, 3, Q),
        fermat(2, 3, make_field(5)),
        cyclic_fermat(2, 3, make_field(7)),
        parse_poly("x0^3", 3, Q),
        fermat(2, 3, make_field(3)),
    ]
    for f in cases:
        expected = is_smooth(f)
        for _ in range(3):
            change = LinearChange(f.field, rand_invertible(rng, f.field, f.nvars))
            assert is_smooth(substitute_linear(f, change)) == expected


def _random_monomial_cubics(rng, nvars, count):
    monos = [
        tuple(c.count(i) for i in range(nvars))
        for c in combinations_with_replacement(range(nvars), 3)
    ]
    out = []
    for _ in range(count):
        picked = rng.sample(monos, rng.randint(3, min(7, len(monos))))
        out.append({m: rng.randint(1, 100) for m in picked})
    return out


def test_agrees_with_point_enumeration_oracle():
    """Brute-force search over F_p, F_{p^2}, F_{p^3}: any projective common
    zero of the generators contradicts smoothness."""
    rng = random.Random(77)
    grids = [(2, 4), (3, 4), (5, 3), (7, 3)]
    for p, nvars in grids:
        field = make_field(p)
        for raw in _random_monomial_cubics(rng, nvars, 12):
            f = Polynomial.from_terms(field, nvars, raw)
            if f.is_zero() or not f.is_homogeneous(3):
                continue
            hit = find_singular_point(raw, nvars, p)
            if hit is not None:
                assert not is_smooth(f), f"oracle found {hit} on {f.to_text()}"


# --- the pruned row builder against the unpruned reference -------------------


def _exact_rank(rows, ncols, field):
    """Rank of sparse integer rows over the field."""
    if not rows:
        return 0
    if field.is_prime_field:
        return rank_mod_p_int(rows, field.characteristic)
    return rank_int_exact(dense_rows(rows, ncols))


def _generators(f):
    """The integer Jacobian generators is_smooth ranks for f."""
    return jacobian._integer_generators(f.numerators, f.degree(), f.field.characteristic)


def _random_form(rng, field, nvars, d, singular):
    """A random form; singular ones vanish to order two at (1:0:...:0),
    because no monomial has x0-degree d or d - 1."""
    while True:
        f = rand_nonzero_homogeneous(rng, field, nvars, d, max_terms=8)
        if singular:
            f = Polynomial.from_terms(
                field, nvars, {m: c for m, c in f.terms.items() if m[0] < d - 1}
            )
        if not f.is_zero() and f.is_homogeneous(d):
            return f


def _form_grid(seed):
    rng = random.Random(seed)
    for field in FIELDS:
        for nvars, d in ((3, 2), (3, 3), (3, 4), (4, 3)):
            for singular in (False, True, False):
                yield field, d, _random_form(rng, field, nvars, d, singular)


def test_pruned_rows_without_f_keep_every_jacobian_rank():
    """Pruned rows of the generators the smoothness scan uses (f dropped
    unless char | d) have the rank of every Macaulay row of f and all its
    partials, in every degree up to the CI degree, over Q and over F_p."""
    char_divides = 0
    for field, d, f in _form_grid(81):
        p = field.characteristic
        full = jacobian_generators(f)
        used = full[1:] if p == 0 or d % p else full
        char_divides += len(used) == len(full)
        for t in range(d - 1, f.nvars * (d - 2) + 2):
            rows = _macaulay_rows([g.numerators for g in used], t)
            ref_basis, ref_rows = unpruned_rows_reference(full, t)
            assert rows.width == len(ref_basis)
            want = _exact_rank(sparse_rows(ref_rows), rows.width, field)
            assert _exact_rank(rows, rows.width, field) == want, (f.to_text(), t)
    assert char_divides > 0


def test_pruning_keeps_span_for_any_generator_list():
    """The leading-term criterion needs no regular sequence: random lists of
    forms of mixed degrees keep their rank, and the kept rows are a subset
    of the unpruned ones."""
    rng = random.Random(82)
    pruned_some = False
    for field in FIELDS:
        for _ in range(12):
            nvars = rng.randint(2, 4)
            gens = [
                rand_homogeneous(rng, field, nvars, rng.randint(1, 3), max_terms=4)
                for _ in range(rng.randint(1, 5))
            ]
            if all(g.is_zero() for g in gens):
                continue
            for t in range(1, 5):
                rows = _macaulay_rows([g.numerators for g in gens], t)
                _, ref_rows = unpruned_rows_reference(gens, t)
                ref_rows, ncols = sparse_rows(ref_rows), rows.width
                assert {tuple(r) for r in rows} <= {tuple(r) for r in ref_rows}
                assert _exact_rank(rows, ncols, field) == _exact_rank(ref_rows, ncols, field)
                pruned_some = pruned_some or len(rows) < len(ref_rows)
    assert pruned_some


def test_numpy_rows_match_tuple_builder():
    """_macaulay_rows gives the tuple builder's rows exactly, over a width
    that counts its basis: the same rows in the same order, over Q, F_2,
    F_3 and F_101.  The grid has
    f kept where char | d, zero generators, degrees below a generator's
    degree, mixed-degree lists, and a quadric in 40 variables, where a
    base-3 key of the exponents would pass 2^63."""
    rng = random.Random(86)
    fields = [Q, make_field(2), make_field(3), make_field(101)]
    seen = Counter()
    for field in fields:
        for nvars, d in ((1, 3), (2, 2), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3)):
            for _ in range(3):
                f = rand_nonzero_homogeneous(rng, field, nvars, d, max_terms=8)
                spanning = [Polynomial.from_integers(field, nvars, g) for g in _generators(f)]
                mixed = [rand_homogeneous(rng, field, nvars, rng.randint(0, 3)) for _ in range(3)]
                mixed.insert(rng.randrange(4), Polynomial.zero(field, nvars))
                for gens in (jacobian_generators(f), spanning, mixed):
                    if all(g.is_zero() for g in gens):
                        continue
                    seen["f kept"] += gens is spanning and f in spanning
                    seen["zero"] += any(g.is_zero() for g in gens)
                    for t in range(-1, nvars * (d - 2) + 3):
                        seen["below"] += any(t < g.degree() for g in gens if not g.is_zero())
                        rows = _macaulay_rows([g.numerators for g in gens], t)
                        basis, want = macaulay_rows_reference(gens, t)
                        assert (rows.width, list(rows)) == (len(basis), want), (field, gens, t)
    assert min(seen["f kept"], seen["zero"], seen["below"]) > 0, seen
    f = rand_nonzero_homogeneous(rng, Q, 40, 2, max_terms=30) + fermat(39, 2, Q)
    assert 3**40 > 2**63
    for t in (1, 2, 3):
        rows = _macaulay_rows([g.numerators for g in jacobian_generators(f)], t)
        basis, want = macaulay_rows_reference(jacobian_generators(f), t)
        assert (rows.width, list(rows)) == (len(basis), want)


def test_numpy_rows_match_tuple_builder_on_certify_trials():
    """The same equality on the generators a certify trial builds:
    _integer_generators of a restricted form (ints over Q, residues over
    F_2, F_5 and F_101, the section kept where char | d) in 3 to 5 section
    variables, at t = d and at default_degree_cap, and at t = d with the
    criterion form appended, as the criterion matrix has it.  The tuple
    builder reads each form through Polynomial.from_integers."""
    rng = random.Random(88)
    seen = Counter()
    grid = [(field, n, 3) for field in (Q, make_field(2), make_field(5), make_field(101)) for n in (3, 4, 5)]
    grid += [(Q, 3, 4), (make_field(101), 4, 4), (make_field(2), 3, 4), (make_field(2), 4, 4), (make_field(5), 3, 5)]
    for field, n, d in grid:
        p = field.characteristic
        for _ in range(2):
            f = rand_nonzero_homogeneous(rng, field, n + 1, d, max_terms=8) + fermat(n, d, field)
            hyperplane = Hyperplane.from_coefficients(field, [rand_scalar(rng, field) for _ in range(n)] + [field.one()])
            section = hyperplane.restrict(f).numerators
            across = hyperplane.restrict(partial_derivative(f, hyperplane.pivot)).numerators
            if not section:
                continue
            gens = jacobian._integer_generators(section, d, p)
            seen["kept"] += gens[0] is section
            cases = [(gens, d), (gens, default_degree_cap(n, d, p))] + [(gens + [across], d)] * bool(across)
            for forms, t in cases:
                rows = _macaulay_rows(forms, t)
                basis, want = macaulay_rows_reference([Polynomial.from_integers(field, n, g) for g in forms], t)
                assert (rows.width, list(rows)) == (len(basis), want), (field, n, d, forms, t)
                seen[n] += 1
    assert min(seen["kept"], seen[3], seen[4], seen[5]) > 0, seen


def test_row_tables_are_keyed_by_shape_only(monkeypatch):
    """A certify fills the column-table cache with exactly the
    (nvars, t, e) shapes its Macaulay matrices use: (nvars, t, e) for
    each generator of degree e <= t, and (nvars, t-e, e_j) for each earlier
    leading term of degree e_j <= t-e, whose multiples it masks out.  Each
    table is a read-only int64 array of C(nvars-1+t-e, t-e) *
    C(nvars-1+e, e) entries.  A second certify with another seed, on other
    hyperplanes, adds no entry and misses no lookup in any jacobian cache."""
    shapes = set()
    real_rows = jacobian._macaulay_rows

    def rows_spy(gens, degree):
        nvars = len(next(m for g in gens for m in g))
        earlier = []
        for e in (sum(next(iter(g))) for g in gens if g):
            if e <= degree:
                shapes.add((nvars, degree, e))
                shapes.update((nvars, degree - e, ej) for ej in earlier if ej <= degree - e)
                earlier.append(e)
        return real_rows(gens, degree)

    monkeypatch.setattr(jacobian, "_macaulay_rows", rows_spy)
    monkeypatch.setattr(variation, "_macaulay_rows", rows_spy)
    caches = (jacobian._column_table, jacobian._positions)
    for cache in caches:
        cache.cache_clear()
    f = fermat(3, 3, Q)
    first = certify_max_variation(f, ScanStrategy(seed=0, trial_budget=64))
    table = jacobian._column_table.cache_info()
    assert len(first.trials) == 64 and table.currsize == table.misses == len(shapes), (shapes, table)
    for nvars, t, e in shapes:
        entries = jacobian._column_table(nvars, t, e)
        assert entries.dtype == np.int64 and not entries.flags.writeable
        assert entries.size == comb(nvars - 1 + t - e, t - e) * comb(nvars - 1 + e, e)
    assert jacobian._column_table.cache_info().misses == table.misses
    before = [cache.cache_info() for cache in caches]
    second = certify_max_variation(f, ScanStrategy(seed=1, trial_budget=64))
    assert [t.hyperplane for t in second.trials] != [t.hyperplane for t in first.trials]
    for cache, info in zip(caches, before):
        after = cache.cache_info()
        assert (after.currsize, after.misses) == (info.currsize, info.misses), (cache, info, after)


# --- interreduction of equal-degree generators ------------------------------


def _leads(forms):
    """(degree, grlex leading monomial) of each nonzero integer form."""
    out = []
    for g in forms:
        e = sum(next(iter(g)))
        out.append((e, min(g, key=jacobian._positions(len(next(iter(g))), e).__getitem__)))
    return out


def _uncovered(nvars, degree, leads):
    """How many degree-t monomials no lead divides: the columns the pivot
    split leaves without a sparse pivot."""
    return sum(
        not any(all(a >= b for a, b in zip(m, lead)) for lead in leads)
        for m in monomial_basis(nvars, degree)
    )


def test_interreduce_keeps_every_rank_and_separates_leads():
    """_interreduce of seeded generator lists over Q, F_2, F_3, F_101 and
    F_(2^31-1): the Jacobian generators of a dense form (f kept where
    char | d), interleaved with a group of three equal forms of degree
    d + 1 and a combination of two partials, which must drop out.  Leads
    are distinct within each degree, and each degree keeps as many rows as
    its group's rank.  A reduced row holds no other reduced row's lead; over
    Q it is an integer row of content 1 with a positive lead, and mod p a
    row of residues with lead 1.  The
    Macaulay rows of the result have the rank of the raw list's in every
    degree from 0 to default_degree_cap."""
    rng = random.Random(97)
    seen = Counter()
    for field in (Q, make_field(2), make_field(3), make_field(101), make_field(2**31 - 1)):
        p = field.characteristic
        for nvars, d in ((3, 2), (3, 3), (3, 4), (4, 3), (3, 3)):
            f = rand_nonzero_homogeneous(rng, field, nvars, d, max_terms=12)
            gens = [Polynomial.from_integers(field, nvars, g) for g in _generators(f)]
            partials = [g for g in gens if g.degree() == d - 1]
            h = rand_nonzero_homogeneous(rng, field, nvars, d + 1, max_terms=5)
            raw = gens[:1] + [h] + gens[1:] + [h, h]
            if len(partials) > 1:
                combo = partials[0] * rand_nonzero_scalar(rng, field) + partials[-1] * rand_nonzero_scalar(rng, field)
                raw.insert(2, combo)
            before = [g.numerators for g in raw if not g.is_zero()]
            after = jacobian._interreduce(before, p)
            leads = _leads(after)
            assert len(set(leads)) == len(leads), (field, raw)
            for e in {e for e, _ in leads}:
                group = [g for g in before if sum(next(iter(g))) == e]
                width = len(monomial_basis(nvars, e))
                assert sum(le == e for le, _ in leads) == _exact_rank(_macaulay_rows(group, e), width, field)
            new_leads = {lead for row, (_, lead) in zip(after, leads) if not any(row is g for g in before)}
            for row in after:
                if any(row is g for g in before):
                    continue
                assert len(new_leads.intersection(row)) == 1, (field, row)  # reduced: no other row's lead
                values = list(row.values())
                lead = row[min(row, key=jacobian._positions(nvars, sum(next(iter(row)))).__getitem__)]
                if p:
                    assert lead == 1 and all(0 < v < p for v in values), (field, row)
                else:
                    assert all(type(v) is int for v in values) and lead > 0 and gcd(*values) == 1, row
                seen["reduced"] += 1
            seen["dropped"] += len(after) < len(before) - 2
            seen["char | d"] += f in gens
            for t in range(default_degree_cap(nvars, d, p) + 1):
                rows, raw_rows = _macaulay_rows(after, t), _macaulay_rows(before, t)
                assert _exact_rank(rows, rows.width, field) == _exact_rank(raw_rows, rows.width, field), (field, raw, t)
    assert min(seen.values()) > 0 and len(seen) == 3, seen


def test_interreduce_passes_distinct_leads_through(monkeypatch):
    """Where the leads of every degree group are distinct, _interreduce
    returns its input list itself, and is_smooth builds the rows of the
    raw generators: planted nodes over Q, Fermat over Q and F_101, and
    cyclic Fermat where char | d, whose d*x_i^(d-1) terms vanish.  Over Q
    the first two partials of cyclic Fermat share x0^(d-1), so that group
    is reduced, to distinct leads."""
    built = []
    real_rows = jacobian._macaulay_rows

    def rows_spy(gens, degree):
        built.append((gens, real_rows(gens, degree)))
        return built[-1][1]

    monkeypatch.setattr(jacobian, "_macaulay_rows", rows_spy)
    f2, f3 = make_field(2), make_field(3)
    cases = [
        parse_poly("x0*x1^2 + x0*x2^2 + x0*x3^2 + x1^3 + x2^3 + x3^3", 4, Q),
        parse_poly("x0^2*x1^2 + x0^2*x2^2 + x0^2*x3^2 + x1^4 + x2^4 + x3^4", 4, Q),
        parse_poly("x0*x1^2 + x0*x2^2 + x0*x3^2 + x0*x4^2 + x1^3 + x2^3 + x3^3 + x4^3", 5, Q),
        fermat(3, 4, Q),
        fermat(4, 3, make_field(101)),
        cyclic_fermat(3, 4, f2),
        cyclic_fermat(3, 3, f3),
        cyclic_fermat(4, 4, f2),
    ]
    for f in cases:
        p = f.field.characteristic
        gens = _generators(f)
        assert jacobian._interreduce(gens, p) is gens, f.to_text()
        built.clear()
        is_smooth(f)
        [(used, rows)] = built
        want = real_rows(gens, default_degree_cap(f.nvars, f.degree(), p))
        assert used == gens and (rows.width, list(rows)) == (want.width, list(want)), f.to_text()
    for n, d in ((3, 4), (4, 3)):
        gens = _generators(cyclic_fermat(n, d, Q))
        leads = _leads(gens)
        assert leads[0] == leads[1] == (d - 1, (d - 1,) + (0,) * n) and len(set(leads)) == len(leads) - 1
        reduced = _leads(jacobian._interreduce(gens, 0))
        assert len(reduced) == len(gens) and len(set(reduced)) == len(reduced)


def test_interreduce_concatenates_groups_in_order_of_first_form():
    """[h1, g1, h2, g2] with cubics h1, h2 of distinct leads and quadrics
    g1, g2 that both lead at x0^2: _interreduce passes h1 and h2 through and
    puts the reduced quadrics after them, [h1, h2, *reduced g's].  The order
    moves no graded piece: ideal_graded_dim of the list equals that of the
    same list sorted by degree, and the raw rows' rank, in degrees 2 to 5."""
    h1 = {(3, 0, 0): 1, (0, 3, 0): 1}
    g1 = {(2, 0, 0): 1, (0, 1, 1): 1}
    h2 = {(0, 2, 1): 1, (0, 0, 3): -1}
    g2 = {(2, 0, 0): 2, (0, 0, 2): 1}
    for field in (Q, make_field(101)):
        p = field.characteristic
        gens = [Polynomial.from_integers(field, 3, g) for g in (h1, g1, h2, g2)]
        raw = [g.numerators for g in gens]
        out = jacobian._interreduce(raw, p)
        reduced = jacobian._reduced_echelon([raw[1], raw[3]], p)
        assert out[0] is raw[0] and out[1] is raw[2] and out[2:] == reduced, (field, out)
        if not p:
            assert reduced == [{(2, 0, 0): 2, (0, 0, 2): 1}, {(0, 1, 1): 2, (0, 0, 2): -1}]
        for t in range(2, 6):
            dim = ideal_graded_dim(gens, t)
            assert dim == ideal_graded_dim(sorted(gens, key=Polynomial.degree), t), (field, t)
            rows = _macaulay_rows(raw, t)
            assert dim.dimension == _exact_rank(rows, rows.width, field), (field, t)


# The benchmark's dense(3,5) smoothness requests at seed 0 over Q and F_101:
# sum_i c_i*x_i^5 under x_i -> sum_j M[i][j]*x_j, with entries in -2..2
BENCH_DENSE_3_5 = [
    (Q, [-2, 2, -3, 2], [[1, 0, 1, -1], [1, -1, 0, 2], [0, -2, 1, 1], [-1, 0, 2, -1]]),
    (make_field(101), [13, 84, 85, 42], [[-2, -2, -2, 1], [0, 1, -1, 0], [-1, 0, -1, 0], [-2, 0, 0, -2]]),
]


def _dense_change(rng, f):
    """f under a seeded invertible change x_i -> sum_j M[i][j]*x_j with
    entries in -2..2, which makes the form and its partials dense."""
    while True:
        try:
            change = LinearChange(f.field, [[rng.randint(-2, 2) for _ in range(f.nvars)] for _ in range(f.nvars)])
        except SingularMatrix:
            continue
        return substitute_linear(f, change)


def test_ideal_graded_dim_ranks_the_interreduced_rows(monkeypatch):
    """ideal_graded_dim builds its rows from _interreduce of the integer
    forms, as is_smooth does, and its dimension is still the rank of the
    raw generators' rows: the full Jacobian generators of dense changes of
    Fermat (3,4) over Q and F_7, in degrees d-1 to d+2."""
    built = []
    real_rows = jacobian._macaulay_rows

    def rows_spy(gens, degree):
        built.append(gens)
        return real_rows(gens, degree)

    monkeypatch.setattr(jacobian, "_macaulay_rows", rows_spy)
    rng = random.Random(99)
    for field in (Q, make_field(7)):
        f = _dense_change(rng, fermat(3, 4, field))
        gens = jacobian_generators(f)
        raw = [g.numerators for g in gens]
        for t in range(3, 7):
            built.clear()
            dim = ideal_graded_dim(gens, t)
            assert built == [jacobian._interreduce(raw, field.characteristic)] and built[0] != raw
            rows = real_rows(raw, t)
            assert dim.basis == monomial_basis(4, t) and dim.dimension == _exact_rank(rows, rows.width, field), (field, t)


def test_interreduced_dense_forms_leave_few_columns_without_a_pivot(monkeypatch):
    """On the benchmark's dense(3,5) inputs, over Q and F_101, is_smooth's
    one split leaves at most 150 of the 560 cap columns without a sparse
    pivot (all partials of the raw form lead at x0^4, which leaves 340).
    On seeded dense changes of Fermat (3,5) and (4,3) the count is the
    number of cap monomials that no interreduced lead divides, and below
    the count for x0^(d-1) alone wherever every raw partial leads there."""
    splits = []
    real_split = linalg._split

    def split_spy(rows, ncols, p):
        split = real_split(rows, ncols, p)
        splits.append(len(split[1]))
        return split

    monkeypatch.setattr(linalg, "_split", split_spy)
    for field, coefficients, matrix in BENCH_DENSE_3_5:
        diagonal = Polynomial.from_terms(field, 4, {tuple(5 * (k == i) for k in range(4)): c for i, c in enumerate(coefficients)})
        f = substitute_linear(diagonal, LinearChange(field, matrix))
        splits.clear()
        assert is_smooth(f)
        assert len(splits) == 1 and splits[0] <= 150, (field, splits)
        assert _uncovered(4, default_degree_cap(4, 5), [(5 - 1, 0, 0, 0)]) == 340
    rng = random.Random(98)
    shared = 0
    for field in (Q, make_field(101)):
        for n, d in ((3, 5), (4, 3)):
            for _ in range(3):
                f = _dense_change(rng, fermat(n, d, field))
                gens = _generators(f)
                cap = default_degree_cap(n + 1, d)
                leads = [m for _, m in _leads(jacobian._interreduce(gens, field.characteristic))]
                splits.clear()
                assert is_smooth(f)
                assert splits == [_uncovered(n + 1, cap, leads)], (f.to_text(), splits)
                if {m for _, m in _leads(gens)} == {(d - 1,) + (0,) * n}:
                    shared += 1
                    assert splits[0] < _uncovered(n + 1, cap, [(d - 1,) + (0,) * n])
    assert shared > 0


def _reference_piece(generators, degree, field):
    basis, rows = unpruned_rows_reference(generators, degree)
    return GradedPiece.of_rows(field, degree, basis, sparse_rows(rows))


def test_graded_piece_residuals_match_unpruned_reference():
    """The pieces on pruned rows have the dimension, pivots and residual of
    every tested form of the unpruned piece; ideal_graded_dim has its
    basis and dimension."""
    rng = random.Random(83)
    verdicts = set()
    for field, d, f in _form_grid(84):
        verdicts.add(is_smooth(f))
        gens = jacobian_generators(f)
        for t in (d - 1, d, d + 1):
            piece = graded_piece(gens, t)
            ref = _reference_piece(gens, t, field)
            dim = ideal_graded_dim(gens, t)
            assert piece.basis == ref.basis == dim.basis
            assert piece.dimension == ref.dimension == dim.dimension
            assert piece._pivots == ref._pivots
            assert piece.span_matrix.rows <= ref.span_matrix.rows
            probes = [rand_homogeneous(rng, field, f.nvars, t) for _ in range(4)]
            probes += [g * Polynomial.variable(field, f.nvars, 0) for g in gens[1:] if t == d]
            for q in probes:
                assert piece.reduce(q) == ref.reduce(q)
    assert verdicts == {True, False}


# --- the h_t walk: exact confirmation on the walk's own rows -----------------


def _walk_grid(seed, fields):
    rng = random.Random(seed)
    for field in fields:
        yield fermat(2, 3, field)
        yield cyclic_fermat(3, 4, field)
        for nvars, d in ((3, 3), (3, 4), (4, 3)):
            for singular in (False, True):
                for _ in range(3):
                    yield _random_form(rng, field, nvars, d, singular)


def test_small_probe_prime_keeps_every_verdict(monkeypatch):
    """A probe prime of 2, 3 or 5 drops many ranks (3 kills every partial of
    the Fermat cubic), so over Q the probe of the cap piece often falls
    short.  The exact rank of the same rows, one rank_mod_p_int call at
    the cap width whose kernel lift starts at the probe prime and goes on
    to further primes, must give back the verdict of the real probe: full
    pieces that only the probe missed, and singular forms."""
    forms = list(_walk_grid(91, [Q]))
    wanted = [is_smooth(f) for f in forms]
    assert set(wanted) == {True, False}
    widths, primes = [], []
    real_rank, real_split = linalg.rank_mod_p_int, linalg._split

    def rank_spy(rows, p, stop_at=None):
        widths.append((p, stop_at))
        return real_rank(rows, p, stop_at)

    def split_spy(rows, ncols, p):
        primes.append(p)
        return real_split(rows, ncols, p)

    monkeypatch.setattr(linalg, "rank_mod_p_int", rank_spy)
    monkeypatch.setattr(linalg, "_split", split_spy)
    paths = set()
    for f, want in zip(forms, wanted):
        cap_width = len(monomial_basis(f.nvars, default_degree_cap(f.nvars, f.degree())))
        for q in (2, 3, 5):
            monkeypatch.setattr(linalg, "PROBE_PRIME", q)
            widths.clear()
            primes.clear()
            assert is_smooth(f) == want, (f.to_text(), q)
            assert widths in ([], [(0, cap_width)]), (f.to_text(), q, widths)
            assert primes[:1] == ([q] if widths else []), (f.to_text(), q, primes)
            paths.add((want, "lift" if len(primes) > 1 else "probe"))
    assert {(True, "probe"), (True, "lift"), (False, "lift")} <= paths


def test_twenty_bit_probe_prime_keeps_every_verdict(monkeypatch):
    """The probe prime is the largest prime below 2^20, and is_smooth gives
    the same verdict under it as under 2^31 - 1, with the default cap and
    with a drawn one, on smooth and singular forms over Q and F_p."""
    assert PROBE_PRIME == 1_048_573 and _is_prime(PROBE_PRIME)
    assert not any(_is_prime(q) for q in range(PROBE_PRIME + 1, 2**20))
    rng = random.Random(95)
    forms = [f for _, _, f in _form_grid(96)] + list(_walk_grid(97, [Q, make_field(7)]))
    forms = [(f, t_max) for f in forms for t_max in (None, rng.randint(0, 8))]
    verdicts = {}
    for q in (2**31 - 1, PROBE_PRIME):
        monkeypatch.setattr(linalg, "PROBE_PRIME", q)
        verdicts[q] = [is_smooth(f, t_max) for f, t_max in forms]
    assert verdicts[PROBE_PRIME] == verdicts[2**31 - 1]
    assert set(verdicts[PROBE_PRIME]) == {True, False}


# smooth plane curves over Q whose probes mod 2 fall short, so the exact
# rank of the cap piece must read them right
PINNED_SMOOTH = [
    "-x0^4*x1 + 3*x0^3*x2^2 + 2*x0^2*x1^2*x2 + x0*x1^4 - x0*x1^3*x2 + 3*x1^3*x2^2"
    " - 2*x1*x2^4",
    "3*x0^9 + 2*x0^5*x1^2*x2^2 + 2*x0^4*x1^2*x2^3 - x0^4*x1*x2^4 - x0^2*x1^4*x2^3"
    " + 2*x0*x1^7*x2 - 2*x0*x1^2*x2^6 + 3*x1^9 + 2*x1*x2^8 + x2^9",
]


def _line_singular_form(rng, field, nvars, d):
    """A form singular along x0 = x1 = 0: every monomial with e0 + e1 >= 2,
    each with a random coefficient (nonzero over Q)."""
    terms = {m: rng.randint(1, 9) if not field.characteristic else rng.randrange(field.characteristic)
             for m in monomial_basis(nvars, d) if m[0] + m[1] >= 2}
    return Polynomial.from_terms(field, nvars, terms)


def _widened_grid(seed):
    """Forms over F_2 and forms with char | d (F_2 with d in {2, 4}, F_3
    with d = 3), random and with a planted singular point, and forms
    singular along the line x0 = x1 = 0, over Q and F_p."""
    rng = random.Random(seed)
    f2, f3 = make_field(2), make_field(3)
    shapes = ((f2, 3, 2), (f2, 4, 2), (f2, 3, 3), (f2, 3, 4), (f2, 4, 3), (f3, 3, 3), (f3, 4, 3))
    for field, nvars, d in shapes:
        for singular in (False, True, False, False):
            yield _random_form(rng, field, nvars, d, singular)
    yield Polynomial.from_terms(f2, 3, {(2, 0, 0): 1, (0, 1, 1): 1})
    yield Polynomial.from_terms(f2, 4, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1})
    for field in (Q, f2, f3, make_field(5), make_field(7)):
        for nvars, d in ((3, 3), (3, 4), (4, 3)):
            f = _line_singular_form(rng, field, nvars, d)
            if not f.is_zero():
                yield f


def _dense_grid(seed):
    """Dense changes (_dense_change) of smooth and line-singular forms over
    Q, F_2, F_3, F_5 and F_7: Fermat, or where char | d (F_2 with d = 4,
    F_3 with d = 3) the chain sum x_i^(d-1)*x_(i+1), indices mod nvars
    (for three variables and d = 4 the Klein quartic, smooth over F_2); a
    random form; and a form singular along x0 = x1 = 0.  Over Q, F_5 and
    F_7 most have every partial leading at x0^(d-1)."""
    rng = random.Random(seed)
    for field in (Q, make_field(2), make_field(3), make_field(5), make_field(7)):
        p = field.characteristic
        for nvars, d in ((3, 3), (3, 4), (4, 3)):
            if p and d % p == 0:
                chain = [tuple(d - 1 if k == i else int(k == (i + 1) % nvars) for k in range(nvars)) for i in range(nvars)]
                base = Polynomial.from_terms(field, nvars, dict.fromkeys(chain, 1))
            else:
                base = fermat(nvars - 1, d, field)
            for f in (base, _random_form(rng, field, nvars, d, False), _line_singular_form(rng, field, nvars, d)):
                if not f.is_zero():
                    yield _dense_change(rng, f)


def test_one_piece_agrees_with_the_walk_reference(monkeypatch):
    """is_smooth gives the verdict of the reference walk (old cap, rational
    point scan, Gotzmann pairs confirmed at both degrees) over Q, F_2, F_3,
    F_5 and F_7, under probe primes that drop ranks, with the default cap
    and with a drawn one.  The grid has char | d, forms singular along a
    line, and dense changes of both, whose interreduced partials are the
    rows; a common zero the F_p^k point oracle finds means singular."""
    rng = random.Random(93)
    fields = [Q, make_field(2), make_field(3), make_field(5), make_field(7)]
    dense = list(_dense_grid(99))
    reduced = Counter()
    for f in dense:
        gens = _generators(f)
        reduced[f.field.characteristic] += jacobian._interreduce(gens, f.field.characteristic) is not gens
    assert set(+reduced) == {0, 2, 3, 5, 7}, reduced
    char_divides = [f for f in dense if f.field.characteristic and f.degree() % f.field.characteristic == 0]
    assert {is_smooth(f) for f in char_divides} == {True, False}
    forms = list(_walk_grid(93, fields)) + list(_widened_grid(94)) + dense
    forms = [(f, t_max) for f in forms for t_max in (None, rng.randint(0, 8))]
    seen = Counter()
    for q in (PROBE_PRIME, 2**31 - 1, 2, 3, 5):
        monkeypatch.setattr(linalg, "PROBE_PRIME", q)
        for f, t_max in forms:
            want = is_smooth_reference(f, t_max)
            assert is_smooth(f, t_max) == want, (f.to_text(), q, t_max)
            p = f.field.characteristic
            seen[want, bool(p) and f.degree() % p == 0] += 1
    assert set(seen) == {(True, False), (False, False), (True, True), (False, True)}, seen
    for f, _ in forms:
        p = f.field.characteristic
        if p:
            raw = {m: c.value for m, c in f.terms.items()}
            # the largest extension whose charts fit the oracle's grid
            k = max(k for k in (1, 2, 3) if p ** (k * (f.nvars - 1)) <= _MAX_GRID)
            if find_singular_point(raw, f.nvars, p, k) is not None:
                assert not is_smooth(f), f.to_text()
    monkeypatch.setattr(linalg, "PROBE_PRIME", 2)
    for text in PINNED_SMOOTH:
        assert is_smooth(parse_poly(text, 3, Q)), text


def test_is_smooth_builds_one_piece_at_the_cap(monkeypatch):
    """One is_smooth call builds one graded piece, at the proven cap, or at
    t_max when that is lower; a t_max above the cap builds the cap degree
    and gives the verdict of no t_max.  Whenever the piece has as many rows
    as columns it ranks them exactly once, rank_mod_p_int over the field
    with stop_at at the width (the benchmark's trace counts this probe),
    and never otherwise.  The first split is mod p, or mod the probe prime
    over Q; only over Q, and only when that split fell short, does the
    kernel lift split again."""
    builds, probes, splits = [], [], []
    real_rows, real_rank, real_split = jacobian._macaulay_rows, linalg.rank_mod_p_int, linalg._split

    def rows_spy(gens, degree):
        rows = real_rows(gens, degree)
        builds.append((degree, rows.width, len(rows)))
        return rows

    def rank_spy(rows, p, stop_at=None):
        probes.append((p, stop_at))
        return real_rank(rows, p, stop_at)

    def split_spy(rows, ncols, p):
        split = real_split(rows, ncols, p)
        splits.append((p, len(split[0]) + len(split[3])))
        return split

    monkeypatch.setattr(jacobian, "_macaulay_rows", rows_spy)
    monkeypatch.setattr(linalg, "rank_mod_p_int", rank_spy)
    monkeypatch.setattr(linalg, "_split", split_spy)
    fields = [Q, make_field(2), make_field(7), make_field(101)]
    exact_runs = 0
    for q in (PROBE_PRIME, 2**31 - 1, 3):
        monkeypatch.setattr(linalg, "PROBE_PRIME", q)
        for f in list(_walk_grid(92, fields)) + list(_widened_grid(95)):
            p, d = f.field.characteristic, f.degree()
            cap = default_degree_cap(f.nvars, d, p)
            verdicts = set()
            for t_max in (None, cap, cap + 1, 10 * cap + 7, cap - 1):
                builds.clear()
                probes.clear()
                splits.clear()
                verdicts.add(is_smooth(f, t_max))
                degree = cap if t_max is None else min(t_max, cap)
                assert [t for t, _, _ in builds] == [degree], (f.to_text(), q, t_max, builds)
                _, width, nrows = builds[0]
                assert probes == ([(p, width)] if nrows >= width else []), (f.to_text(), q, t_max, probes)
                assert [prime for prime, _ in splits[:1]] == ([p or q] if probes else [])
                if len(splits) > 1:
                    assert not p and splits[0][1] < width
                if t_max != cap - 1:
                    assert len(verdicts) == 1, (f.to_text(), q, t_max)
                exact_runs += not p and bool(splits) and splits[0][1] < width
    assert exact_runs > 0


def test_is_smooth_over_q_eliminates_its_piece_once(monkeypatch):
    """Over Q the probe's elimination is also the first prime of the kernel
    lift: on the planted nodes (3,3) and (3,4) and on cyclic Fermat (3,4),
    all singular, and on smooth Fermat and cyclic Fermat, is_smooth splits
    its cap rows exactly once, mod PROBE_PRIME."""
    primes = []
    real_split = linalg._split

    def split_spy(rows, ncols, p):
        primes.append(p)
        return real_split(rows, ncols, p)

    monkeypatch.setattr(linalg, "_split", split_spy)
    singular = [
        parse_poly("x0*x1^2 + x0*x2^2 + x0*x3^2 + x1^3 + x2^3 + x3^3", 4, Q),
        parse_poly("x0^2*x1^2 + x0^2*x2^2 + x0^2*x3^2 + x1^4 + x2^4 + x3^4", 4, Q),
        cyclic_fermat(3, 4, Q),
    ]
    smooth = [fermat(3, 3, Q), fermat(3, 4, Q), cyclic_fermat(4, 3, Q)]
    for f, want in [(f, False) for f in singular] + [(f, True) for f in smooth]:
        primes.clear()
        assert is_smooth(f) is want, f.to_text()
        assert primes == [PROBE_PRIME], (f.to_text(), primes)


def test_one_level_schedule_per_split(monkeypatch):
    """The clearing of a split and the back substitution of its kernel cut
    their pieces from one level schedule of the pivot rows: on a (3,6)
    form over Q singular along x0 = x1 = 0, is_smooth splits its cap piece
    at two primes, each with a dense block to clear and free columns to
    back-substitute, and computes the levels at most once per split."""
    counts = Counter()

    def spy(name):
        real = getattr(linalg, name)

        def call(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(linalg, name, call)

    for name in ("_levels", "_split", "_eliminate"):
        spy(name)
    f = parse_poly("x0^2*x2^4 + x1^2*x3^4 + x0*x1*x2^3*x3 + x0^2*x3^4 + x1^2*x2^4", 4, Q)
    assert all(m[0] + m[1] >= 2 for m in f.numerators)
    assert not is_smooth(f)
    assert counts["_split"] == counts["_eliminate"] == 2, counts
    assert 1 <= counts["_levels"] <= counts["_split"], counts


def test_the_lift_over_q_walks_one_descending_prime_sequence(monkeypatch):
    """Over Q the kernel lift splits at the probe prime, then at the primes
    below it in turn: on a (3,5) form singular along x0 = x1 = 0, every
    monomial with e0 + e1 >= 2, is_smooth is False after splits whose
    primes start at PROBE_PRIME, strictly descend and so never repeat."""
    rng = random.Random(0)
    terms = {m: rng.randint(1, 9) for m in monomial_basis(4, 5) if m[0] + m[1] >= 2}
    f = Polynomial.from_terms(Q, 4, terms)
    primes = []
    real_split = linalg._split

    def split_spy(rows, ncols, p):
        primes.append(p)
        return real_split(rows, ncols, p)

    monkeypatch.setattr(linalg, "_split", split_spy)
    assert not is_smooth(f)
    assert primes[0] == PROBE_PRIME and len(primes) >= 2, primes
    assert all(p > q for p, q in zip(primes, primes[1:])), primes
    assert primes == [PROBE_PRIME] + [q for q in range(PROBE_PRIME - 1, primes[-1] - 1, -1) if _is_prime(q)]


def _no_address_space_limit(monkeypatch):
    """Leave os.sysconf alone in setting the memory budget, whatever RLIMIT_AS the host sets."""
    monkeypatch.setattr(resource, "getrlimit", lambda which: (resource.RLIM_INFINITY, resource.RLIM_INFINITY))


def test_a_column_table_past_physical_memory_is_refused(monkeypatch):
    """_column_table refuses a table of C(nvars-1+t-e, t-e) * C(nvars-1+e, e)
    int64 entries exactly when its build peak, three tables of 8 bytes an
    entry, passes the memory budget, here the physical memory os.sysconf
    reports, before allocating it.  x0^40000 + x1^40000 mod 101 has cap
    t = 79,997 and one generator degree, 39,999: a 39,999 x 40,000 table,
    12.8 GB and a 38.4 GB peak, which is_smooth refuses on a 7 GiB
    machine."""
    _no_address_space_limit(monkeypatch)
    table = jacobian._column_table.__wrapped__  # past the cache, so the guard runs each time
    need = 3 * 8 * comb(3 - 1 + 6 - 2, 6 - 2) * comb(3 - 1 + 2, 2)
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need - 1}.__getitem__)
    message = "building the 15 x 6 column table of degree 6 in 3 variables needs more than the {} bytes"
    with pytest.raises(ResourceLimit, match=message.format(need - 1)):
        table(3, 6, 2)
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need}.__getitem__)
    assert table(3, 6, 2).shape == (15, 6)
    seven_gib = 7 * 2**30
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": seven_gib // 4096}.__getitem__)
    f = parse_poly("x0^40000 + x1^40000", 2, make_field(101))
    assert default_degree_cap(2, 40000, 101) == 79_997
    message = "building the 39999 x 40000 column table of degree 79997 in 2 variables needs more than the {} bytes"
    with pytest.raises(ResourceLimit, match=message.format(seven_gib)):
        is_smooth(f)


def test_a_basis_past_physical_memory_is_refused(monkeypatch):
    """monomial_basis refuses the degree-t monomials in nvars variables
    exactly when C(nvars-1+t, t) tuples of nvars ints, with one list slot
    each, pass the memory budget, here the physical memory os.sysconf
    reports, and refuses nothing where no limit is known.  Under the
    figure of the host that runs it, the (5,6) perturbation's cap piece,
    142,506 monomials in 6 variables, fits."""
    count = comb(6 - 1 + 25, 25)
    assert count == 142_506 and default_degree_cap(6, 6) == 25
    need = count * (sys.getsizeof((0,) * 6) + sys.getsizeof([0]) - sys.getsizeof([]))
    assert len(monomial_basis(6, 25)) == count
    _no_address_space_limit(monkeypatch)
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need}.__getitem__)
    assert len(monomial_basis(6, 25)) == count
    assert monomial_basis(6, -1) == []  # an empty basis
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need - 1}.__getitem__)
    message = f"listing the degree-25 monomials in 6 variables needs more than the {need - 1} bytes"
    with pytest.raises(ResourceLimit, match=message):
        monomial_basis(6, 25)

    def unknown(name):
        raise ValueError(name)

    monkeypatch.setattr(os, "sysconf", unknown)
    assert len(monomial_basis(6, 25)) == count


def test_listing_a_piece_past_the_budget_is_refused_at_once():
    """The public listings of a piece's monomials, monomial_basis and the
    basis of ideal_graded_dim, refuse C(200, 101), about 9.0e58, monomials
    in 100 variables with ResourceLimit within a second, before listing
    any of them."""
    for listing in (lambda: monomial_basis(100, 101), lambda: ideal_graded_dim([], 101, Q, nvars=100)):
        started = time.perf_counter()
        with pytest.raises(ResourceLimit, match="listing the degree-101 monomials in 100 variables needs more than"):
            listing()
        assert time.perf_counter() - started < 1.0


def test_no_piece_lists_its_own_monomials(monkeypatch):
    """is_smooth and criterion_kernel count the columns of the pieces they
    rank (SparseRows.width, one binomial) and never list them: inside each
    _macaulay_rows call, neither monomial_basis nor _positions is asked for
    the monomials of the piece's own degree, with every cache cleared so
    that each table is built.  No generator has the piece's degree here
    (char does not divide d), so none of its own terms lists it either."""
    pieces, listed, seen = [], [], []
    real_rows, real_basis, real_positions = jacobian._macaulay_rows, poly.monomial_basis, jacobian._positions

    def rows_spy(gens, degree):
        pieces.append((len(next(m for g in gens for m in g)), degree))
        listed.clear()
        rows = real_rows(gens, degree)
        seen.append((pieces[-1], pieces[-1] in listed))
        return rows

    def basis_spy(nvars, degree):
        listed.append((nvars, degree))
        return real_basis(nvars, degree)

    def positions_spy(nvars, degree):
        listed.append((nvars, degree))
        return real_positions(nvars, degree)

    monkeypatch.setattr(jacobian, "_macaulay_rows", rows_spy)
    monkeypatch.setattr(variation, "_macaulay_rows", rows_spy)
    monkeypatch.setattr(poly, "monomial_basis", basis_spy)
    monkeypatch.setattr(jacobian, "monomial_basis", basis_spy)
    monkeypatch.setattr(jacobian, "_positions", positions_spy)
    for cache in (jacobian._column_table, real_positions):
        cache.cache_clear()
    f101 = make_field(101)
    assert is_smooth(fermat(4, 3, Q)) and is_smooth(fermat(3, 4, f101))
    for field in (Q, f101):
        f = cubic_threefold_example(field)
        assert criterion_kernel(f, Hyperplane.coordinate(field, 5, 0)).status is CriterionStatus.COMPUTED
    assert [piece for piece, _ in seen] == [(5, 6), (4, 9)] + [(4, 5), (4, 3)] * 2, seen
    assert not any(own for _, own in seen), seen
