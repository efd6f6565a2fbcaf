"""Hyperplane sections, the first-order criterion map, and certification."""

import itertools
import random
import sys
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from hypersect import (
    ArityMismatch,
    CertifyVerdict,
    CriterionStatus,
    DegreeTooSmall,
    DimensionTooSmall,
    FieldMismatch,
    Hyperplane,
    LinearChange,
    NotHomogeneous,
    Polynomial,
    ScanStrategy,
    SingularInput,
    ZeroHyperplane,
    certify_max_variation,
    criterion_kernel,
    default_degree_cap,
    jacobian_generators,
    make_field,
    moduli_dim,
    parse_poly,
    partial_derivative,
    sections_exceed_moduli,
    substitute_linear,
    survey_kernels,
)
from hypersect import jacobian, linalg, variation
from hypersect.fixtures import cubic_threefold_example, cyclic_fermat, fermat
from helpers import (
    FIELDS,
    criterion_form,
    criterion_kernel_reference,
    first_order_section,
    graded_piece,
    in_span,
    inverse_change,
    normalize_hyperplane,
    rand_homogeneous,
    rand_nonzero_homogeneous,
    rand_nonzero_scalar,
    rand_scalar,
    set_var_zero,
)

Q = make_field(0)


# --- hyperplanes -----------------------------------------------------------

def test_hyperplane_normalizes_pivot_to_one():
    hp = Hyperplane.from_coefficients(Q, [0, 2, 4, 0])
    assert hp.pivot == 1
    assert hp.form.to_text() == "x1 + 2*x2"


def test_coordinate_hyperplane():
    hp = Hyperplane.coordinate(Q, 4, 2)
    assert hp.pivot == 2
    assert hp.form == parse_poly("x2", 4, Q)


def test_zero_hyperplane_rejected():
    with pytest.raises(ZeroHyperplane):
        Hyperplane.from_coefficients(Q, [0, 0, 0, 0])
    with pytest.raises(NotHomogeneous, match="degree 2"):
        Hyperplane(parse_poly("x0^2 + x1*x2", 4, Q))


def test_normalize_rejects_hyperplane_of_other_arity():
    f = fermat(3, 3, Q)
    for nvars in (3, 5):
        with pytest.raises(ArityMismatch):
            normalize_hyperplane(f, Hyperplane.coordinate(Q, nvars, 0))


def test_criterion_kernel_rejects_hyperplane_of_other_ring(monkeypatch):
    """The restriction refuses a hyperplane in another variable count or
    over another field with a typed error, before any elimination."""
    def refuse(*args, **kwargs):
        raise AssertionError("elimination ran")

    monkeypatch.setattr(variation, "is_smooth", refuse)
    monkeypatch.setattr(variation, "_is_smooth", refuse)
    monkeypatch.setattr(linalg, "_split", refuse)
    f = fermat(3, 3, Q)
    for nvars in (3, 5):
        with pytest.raises(ArityMismatch):
            criterion_kernel(f, Hyperplane.coordinate(Q, nvars, 0))
    with pytest.raises(FieldMismatch):
        criterion_kernel(f, Hyperplane.coordinate(make_field(5), 4, 0))


# --- normalization and the criterion form ----------------------------------

def test_restrict_matches_the_normalize_path():
    """Hyperplane.restrict gives the section and the criterion form of the
    reference path, polynomial for polynomial, with pivots at every
    variable."""
    rng = random.Random(43)
    fields = [make_field(p) for p in (0, 2, 3, 101, 2**31 + 11)]
    for field, n, d in itertools.product(fields, (3, 4), (3, 4, 5)):
        for pivot in range(n + 1):
            for _ in range(2):
                f = rand_nonzero_homogeneous(rng, field, n + 1, d, max_terms=8)
                coeffs = [field.zero()] * pivot + [rand_nonzero_scalar(rng, field)]
                coeffs += [rand_scalar(rng, field) for _ in range(n - pivot)]
                hp = Hyperplane.from_coefficients(field, coeffs)
                moved = normalize_hyperplane(f, hp)
                assert hp.restrict(f) == set_var_zero(moved, 0), (f, hp)
                assert hp.restrict(partial_derivative(f, pivot)) == criterion_form(moved), (f, hp)


def test_normalize_at_x0_is_identity():
    f = fermat(3, 3, Q)
    assert normalize_hyperplane(f, Hyperplane.coordinate(Q, 4, 0)) == f


def test_normalize_tilted_hyperplane():
    f = fermat(3, 3, Q)
    moved = normalize_hyperplane(f, Hyperplane.from_coefficients(Q, [1, 2, 0, 0]))
    assert moved == parse_poly(
        "x0^3 - 6*x0^2*x1 + 12*x0*x1^2 - 7*x1^3 + x2^3 + x3^3", 4, Q
    )
    # section of the moved form equals the original cut along x0 = -2 x1
    assert set_var_zero(moved, 0) == parse_poly("-7*x0^3 + x1^3 + x2^3", 3, Q)


def test_normalized_form_round_trips_through_inverse_change():
    """normalize_hyperplane skips LinearChange; its change is still
    invertible.  The inverse sends x0 to the hyperplane's form and the
    pivot's slot back to each other variable; as a rank-checked
    LinearChange it takes the normalized form back to f."""
    rng = random.Random(41)
    for field in FIELDS:
        for _ in range(8):
            f = rand_nonzero_homogeneous(rng, field, 4, 3)
            lead = rng.randint(0, 3)  # pivots at every variable
            coeffs = [field.zero()] * lead + [rand_scalar(rng, field) for _ in range(4 - lead)]
            if not any(coeffs):
                continue
            hp = Hyperplane.from_coefficients(field, coeffs)
            j = hp.pivot
            rows = [[field.zero()] * 4 for _ in range(4)]
            rows[0] = hp.coefficients()
            for i in range(4):
                if i != j:
                    rows[j if i == 0 else i][i] = field.one()
            moved = normalize_hyperplane(f, hp)
            assert substitute_linear(moved, LinearChange(field, rows)) == f


def test_normalize_swaps_coordinates():
    f = cyclic_fermat(3, 4, Q)
    swapped = normalize_hyperplane(f, Hyperplane.coordinate(Q, 4, 1))
    assert swapped == parse_poly(
        "x0^4 + x0^3*x2 + x0*x1^3 + x1^4 + x1*x3^3 + x2^4 + x2^3*x3 + x3^4", 4, Q
    )


def test_criterion_form_of_fermat_vanishes():
    f = fermat(3, 4, Q)
    assert criterion_form(f).is_zero()


def test_criterion_form_of_cyclic_chain():
    for d in (3, 4, 5):
        f = cyclic_fermat(3, d, Q)
        q = criterion_form(f)
        assert q.to_text(var_start=1) == f"x3^{d - 1}"


def test_criterion_form_of_tilted_fermat():
    # moving x0 + a*x1 to x0 leaves d * (-a)^(d-1) * x1^(d-1)
    f = fermat(3, 3, Q)
    moved = normalize_hyperplane(f, Hyperplane.from_coefficients(Q, [1, 2, 0, 0]))
    assert criterion_form(moved) == parse_poly("12*x0^2", 3, Q)


# --- criterion kernel -------------------------------------------------------

def test_fermat_sections_are_vacuous():
    f = fermat(3, 4, Q)
    for i in range(4):
        rep = criterion_kernel(f, Hyperplane.coordinate(Q, 4, i))
        assert rep.status == CriterionStatus.VACUOUS
        assert rep.kernel_dim is None
        assert rep.criterion_form.is_zero()


def test_cyclic_quartic_kernel_is_zero():
    """The ambient quartic is singular, but the criterion only looks at
    the section, which is smooth here; the kernel comes out zero."""
    rep = criterion_kernel(cyclic_fermat(3, 4, Q), Hyperplane.coordinate(Q, 4, 0))
    assert rep.status == CriterionStatus.COMPUTED
    assert rep.kernel_dim == 0
    assert rep.kernel_basis == []
    assert rep.criterion_form.to_text(var_start=1) == "x3^3"


def test_displayed_cubic_kernel_is_two_dimensional():
    rep = criterion_kernel(cubic_threefold_example(Q), Hyperplane.coordinate(Q, 5, 0))
    assert rep.status == CriterionStatus.COMPUTED
    assert rep.kernel_dim == 2
    assert rep.graded_ideal_dim == 16
    assert rep.criterion_form.to_text(var_start=1) == "x1^2"
    assert [b.to_text(var_start=1) for b in rep.kernel_basis] == ["x1", "x4"]


def test_displayed_cubic_kernel_same_mod_101():
    f101 = make_field(101)
    rep = criterion_kernel(cubic_threefold_example(f101), Hyperplane.coordinate(f101, 5, 0))
    assert rep.status == CriterionStatus.COMPUTED
    assert rep.kernel_dim == 2
    assert [b.to_text(var_start=1) for b in rep.kernel_basis] == ["x1", "x4"]


def test_singular_section_is_reported_not_computed():
    rep = criterion_kernel(cubic_threefold_example(Q), Hyperplane.coordinate(Q, 5, 1))
    assert rep.status == CriterionStatus.SINGULAR_SECTION
    assert rep.kernel_dim is None


def test_kernel_members_multiply_into_the_ideal():
    """Definition unwound: l is in the kernel exactly when q*l lies in the
    degree-d piece of the section's Jacobian ideal."""
    f = cubic_threefold_example(Q)
    rep = criterion_kernel(f, Hyperplane.coordinate(Q, 5, 0))
    section = Hyperplane.coordinate(Q, 5, 0).restrict(f)
    piece = graded_piece(jacobian_generators(section), 3)
    q = rep.criterion_form
    for l in rep.kernel_basis:
        assert piece.contains(q * l)
    for text in ("x1", "x2", "x0 + x3"):
        probe = parse_poly(text, 4, Q)
        lifted = q * probe
        assert piece.contains(lifted) == in_span(
            [_coeffs(b) for b in rep.kernel_basis], _coeffs(probe), Q
        )


def _coeffs(linear):
    from hypersect import linear_coefficients

    return linear_coefficients(linear)


# --- the criterion kernel against the Scalar graded piece -------------------

_GRID_FIELDS = (Q, make_field(3), make_field(5), make_field(101), make_field(2**31 + 11))


def _criterion_grid(seed):
    """The cubic threefold and cyclic Fermat (3,3), (3,5) and (4,3) over
    Q, F_3 (p | d), F_5, F_101 and a prime past 2^31, at 12 hyperplanes
    each: the coordinate ones, then seeded small coefficients."""
    rng = random.Random(seed)
    for field in _GRID_FIELDS:
        forms = [cubic_threefold_example(field)]
        forms += [cyclic_fermat(n, d, field) for n, d in ((3, 3), (3, 5), (4, 3))]
        for f in forms:
            for k in range(12):
                if k < f.nvars:
                    yield f, Hyperplane.coordinate(field, f.nvars, k)
                    continue
                coeffs = [field.zero()]
                while not any(coeffs):
                    coeffs = [field.scalar(rng.randint(-3, 3)) for _ in range(f.nvars)]
                yield f, Hyperplane.from_coefficients(field, coeffs)


def _report_fields(rep):
    return rep.status, rep.criterion_form, rep.kernel_basis, rep.kernel_dim, rep.graded_ideal_dim


def test_criterion_kernel_matches_graded_piece_oracle():
    """Status, criterion form, kernel basis, kernel dimension and graded
    ideal dimension equal those of the Scalar path (GradedPiece.reduce on
    the full Jacobian ideal, kernel read off the Gauss-Jordan oracle) on a
    seeded grid, and on a basis over Q whose entries need a lift over 2
    primes."""
    computed = Counter()
    for f, h in _criterion_grid(93):
        got = criterion_kernel(f, h)
        assert _report_fields(got) == _report_fields(criterion_kernel_reference(f, h)), (f, h)
        computed[f] += got.status is CriterionStatus.COMPUTED
    assert computed[cyclic_fermat(4, 3, make_field(3))] >= 5  # p | d: f stays in J
    assert sum(computed.values()) >= 150
    f = parse_poly("3*x0^3+x1^3-2*x2^3+x3^3+x0*x1*x2+x1*x2*x3", 4, Q)
    h = Hyperplane.from_coefficients(Q, [1, 1, -1, 2])
    got = criterion_kernel(f, h)
    assert _report_fields(got) == _report_fields(criterion_kernel_reference(f, h))
    assert max(c.value.denominator for b in got.kernel_basis for c in b.terms.values()) > 2**16


def test_criterion_kernel_oracle_runs_no_integer_kernel(monkeypatch):
    """Over F_p the oracle is independent of the engine it checks: with
    linalg.integer_kernel raising, criterion_kernel_reference still
    returns on every prime-field case of the oracle grid."""

    def refuse(*args):
        raise AssertionError("integer_kernel called")

    monkeypatch.setattr(linalg, "integer_kernel", refuse)
    computed = 0
    for f, h in _criterion_grid(93):
        if f.field.is_prime_field:
            computed += criterion_kernel_reference(f, h).status is CriterionStatus.COMPUTED
    assert computed >= 100


class _SplitSpy:
    """Counts linalg._split calls by (rows object, prime), and records the
    criterion matrices: the results of SparseRows.transpose, which only
    criterion_kernel calls.  The counter holds every rows object it saw,
    so no two of them share an identity."""

    def __init__(self, monkeypatch):
        self.counts, self.matrices = Counter(), []
        real_transpose, real_split = linalg.SparseRows.transpose, linalg._split

        def transpose_spy(rows):
            self.matrices.append(real_transpose(rows))
            return self.matrices[-1]

        def split_spy(rows, ncols, p):
            self.counts[rows, p] += 1
            return real_split(rows, ncols, p)

        monkeypatch.setattr(linalg.SparseRows, "transpose", transpose_spy)
        monkeypatch.setattr(linalg, "_split", split_spy)

    def of(self, matrix) -> int:
        """How often matrix was split, at any prime."""
        return sum(n for (rows, _), n in self.counts.items() if rows is matrix)

    def alone(self, matrix, p: int) -> int:
        """How often integer_kernel, over the field of characteristic p,
        splits a copy of matrix on its own."""
        copy = linalg.SparseRows(matrix.lengths, matrix.cols, matrix.values, matrix.width)
        linalg.integer_kernel(copy, copy.width, p)
        return self.of(copy)


def test_criterion_kernel_is_one_integer_kernel(monkeypatch):
    """One criterion makes one Macaulay matrix at degree d and one kernel
    computation on it (linalg._kernel_steps, which integer_kernel runs to
    the end), and no Scalar elimination: the package has no rref,
    kernel_basis or GradedPiece.  Its first split gives the ranks; in all
    the criterion matrix is split exactly as often as integer_kernel
    splits it on its own.  Inside criterion_kernel that is once when the
    split fixes the ranks (always over F_p) and every split otherwise;
    the first read of kernel_basis makes the rest, and a second read
    none.  Only the criterion's own matrix counts: over Q the section's
    is_smooth runs integer_kernel too, as its exact rank."""
    builds, steps = [], []
    real_rows, real_steps = variation._macaulay_rows, linalg._kernel_steps

    def rows_spy(gens, degree):
        builds.append(degree)
        return real_rows(gens, degree)

    def steps_spy(rows, ncols, p):
        steps.append(rows)
        return real_steps(rows, ncols, p)

    monkeypatch.setattr(variation, "_macaulay_rows", rows_spy)
    monkeypatch.setattr(linalg, "_kernel_steps", steps_spy)
    splits = _SplitSpy(monkeypatch)
    assert not hasattr(linalg, "rref") and not hasattr(linalg, "kernel_basis")
    assert not hasattr(jacobian, "GradedPiece") and not hasattr(linalg, "pivot_columns")
    seen = Counter()
    for f, h in itertools.islice(_criterion_grid(94), 0, None, 4):
        builds.clear()
        splits.matrices.clear()
        rep = criterion_kernel(f, h)
        if rep.status is not CriterionStatus.COMPUTED:
            assert builds == [] and splits.matrices == []
            continue
        (matrix,) = splits.matrices
        assert builds == [f.degree()], (f, h)
        assert [rows for rows in steps if rows is matrix] == [matrix], (f, h)
        pinned, before = rep._lift is not None, splits.of(matrix)
        want = splits.alone(matrix, f.field.characteristic)
        assert before == (1 if pinned else want), (f, h, before, want)
        for _ in range(2):
            assert len(rep.kernel_basis) == rep.kernel_dim
            assert splits.of(matrix) == want, (f, h)
        seen["pinned" if pinned else "unpinned"] += 1
        seen["over Q, lifted at more primes"] += not f.field.characteristic and want > 1
    assert seen["pinned"] >= 40 and seen["unpinned"] >= 1 and seen["over Q, lifted at more primes"] >= 3, seen


def test_no_criterion_matrix_is_split_twice_at_one_prime(monkeypatch):
    """Over Q on _pinned_grid and over F_3, F_5, F_101 and a prime past
    2^31 on the criterion grid, with kernel_basis read never or twice, and
    through certify on the cubic threefold over Q at seed 0: no rows are
    split twice at one prime, criterion matrices and the sections' cap
    pieces alike.  The threefold's certify splits each of its 5 criterion
    matrices once, at the probe prime, though the count pins only the
    last (kernel 0): the other 4 (kernel 2) lift at that one prime.  So
    the request splits 15 times in all."""
    cases = list(_pinned_grid(3)) + [(f, h) for f, h in _criterion_grid(95) if f.field.characteristic]
    splits = _SplitSpy(monkeypatch)
    computed = Counter()
    for i, (f, h) in enumerate(cases):
        rep = criterion_kernel(f, h)
        if rep.status is CriterionStatus.COMPUTED:
            computed[f.field.characteristic] += 1
            for _ in range(2 * (i % 2)):
                assert len(rep.kernel_basis) == rep.kernel_dim
    assert set(splits.counts.values()) == {1}
    assert len(splits.matrices) == sum(computed.values()) and computed[0] >= 60 and len(computed) == 5, computed
    splits.counts.clear()
    splits.matrices.clear()
    report = certify_max_variation(cubic_threefold_example(Q), ScanStrategy(seed=0))
    assert report.verdict is CertifyVerdict.CERTIFIED and len(splits.matrices) == 5
    assert set(splits.counts.values()) == {1}
    assert [t._lift is None for t in report.trials if t.kernel_dim is not None] == [True] * 4 + [False]
    assert [splits.of(matrix) for matrix in splits.matrices] == [1] * 5
    assert sum(splits.counts.values()) == 15


def _pinned_grid(seed):
    """Forms over Q at n = 3..4, d = 3..5: Fermat, cyclic Fermat, the cubic
    threefold and seeded sparse perturbations of Fermat, each at the first
    2n + 4 hyperplanes of its certify schedule (coordinate planes, small
    sums, seeded random rows), plus Fermat (3,3)'s kernel-3 plane x1 - x3
    (trial 39 of certify at seed 0)."""
    rng = random.Random(seed)
    forms = [fermat(n, d, Q) for n, d in ((3, 3), (3, 4), (3, 5), (4, 3))]
    forms += [cyclic_fermat(3, 3, Q), cyclic_fermat(4, 3, Q), cubic_threefold_example(Q)]
    forms += [fermat(n, d, Q) + rand_homogeneous(rng, Q, n + 1, d, max_terms=4)
              for n, d in ((3, 3), (3, 4), (3, 5), (4, 3), (4, 4))]
    for f in forms:
        schedule = variation._hyperplane_schedule(Q, f.nvars, ScanStrategy(seed=seed))
        for h in itertools.islice(schedule, 2 * f.nvars + 2):
            yield f, h
    yield fermat(3, 3, Q), Hyperplane.from_coefficients(Q, [0, 1, 0, -1])


def test_ranks_from_one_prime_match_the_lifted_kernel():
    """Over Q, kernel_dim and graded_ideal_dim taken off one split at the
    probe prime, and kernel_basis lifted on its first read, equal the
    Scalar oracle's on a seeded grid.  The grid holds trials the count
    pins (a lift is left for the first read), unpinned ones (the basis
    is already there: the threefold's x0, kernel 2 where n - moduli = 0,
    and Fermat (3,3)'s kernel-3 plane) and certifying ones (kernel 0)."""
    seen = Counter()
    for f, h in _pinned_grid(3):
        got = criterion_kernel(f, h)
        if got.status is not CriterionStatus.COMPUTED:
            continue
        pinned = got._lift is not None
        assert _report_fields(got) == _report_fields(criterion_kernel_reference(f, h)), (f, h)
        assert got._lift is None  # the basis is kept after its first read
        seen["pinned" if pinned else "unpinned"] += 1
        seen["certifying"] += got.kernel_dim == 0
        if not pinned and h == Hyperplane.coordinate(Q, 5, 0) and f == cubic_threefold_example(Q):
            seen["threefold x0"] += got.kernel_dim == 2
        if not pinned and f == fermat(3, 3, Q):
            seen["fermat(3,3) kernel 3"] += got.kernel_dim == 3
    assert seen["pinned"] >= 40 and seen["unpinned"] >= 15 and seen["certifying"] >= 30, seen
    assert seen["threefold x0"] == 1 and seen["fermat(3,3) kernel 3"] >= 1, seen


def test_certify_lifts_only_unpinned_kernels(monkeypatch):
    """certify on Fermat (3,3) over Q, seed 0, budget 64: each of the 53
    trials the count pins splits its criterion matrix once, the first step
    of its kernel computation, and lifts nothing; only the kernel-3 trial
    lifts its kernel, from that same split, at one prime, as integer_kernel
    does on its own.  Reading kernel_basis afterwards resumes each pinned
    computation once, so every matrix ends split as often as integer_kernel
    splits it, each prime once, and the bases equal the Scalar oracle's.
    Only the criterion's splits count, not those of the section's
    smoothness test."""
    f = fermat(3, 3, Q)
    splits = _SplitSpy(monkeypatch)
    report = certify_max_variation(f, ScanStrategy(seed=0, trial_budget=64))
    computed = [t for t in report.trials if t.status is CriterionStatus.COMPUTED]
    assert len(report.trials) == 64 and len(splits.matrices) == len(computed)
    trials = list(zip(computed, splits.matrices))
    pinned = [(t, matrix) for t, matrix in trials if t.kernel_dim == 2]
    assert len(pinned) == 53 and all(t._lift is not None and splits.of(matrix) == 1 for t, matrix in pinned)
    unpinned = [(str(t.hyperplane), t.kernel_dim, t._lift, splits.of(m)) for t, m in trials if t.kernel_dim != 2]
    assert unpinned == [("x1 - x3", 3, None, 1)]
    for t, matrix in trials:
        assert t.kernel_basis == criterion_kernel_reference(f, t.hyperplane).kernel_basis
        assert splits.of(matrix) == splits.alone(matrix, 0)
    assert set(splits.counts.values()) == {1}


# --- the integer trial: scaled forms against the Scalar path ----------------

_BIG_PRIMES = (2**31 - 1, 2**31 + 11, 4_294_967_291)


def _cleared(hyperplane):
    """The hyperplane's coefficients times the lcm of their denominators."""
    scale = lcm(*(c.value.denominator for c in hyperplane.coefficients()))
    return [c.value.numerator * (scale // c.value.denominator) for c in hyperplane.coefficients()]


def _integer_trial_cases(seed):
    """(label, f, hyperplane, t_max): forms with Fraction coefficients over
    Q, at small hyperplanes and at hyperplanes whose cleared coefficients
    pass 2^63; forms over F_(2^31+11); char | d, F_3 at d = 3 and 6 and
    F_2 at d = 4.  A t_max below the section's cap on about half of those
    at small hyperplanes (over Q a piece short of full there costs a
    kernel lift, seconds at the large ones)."""
    rng = random.Random(seed)
    f3, f2, big = make_field(3), make_field(2), make_field(2**31 + 11)
    groups = [
        ("Q", Q, [fermat(n, d, Q) + rand_homogeneous(rng, Q, n + 1, d, max_terms=6)
                  for n, d in ((3, 3), (3, 4), (4, 3))]),
        ("2^31+11", big, [cyclic_fermat(3, 3, big), fermat(3, 4, big) + rand_homogeneous(rng, big, 4, 4)]),
        ("F_3, d=3", f3, [cyclic_fermat(4, 3, f3), rand_nonzero_homogeneous(rng, f3, 4, 3, max_terms=12)]),
        ("F_3, d=6", f3, [rand_nonzero_homogeneous(rng, f3, 4, 6, max_terms=24) for _ in range(2)]),
        ("F_2, d=4", f2, [rand_nonzero_homogeneous(rng, f2, 4, 4, max_terms=16) for _ in range(2)]),
    ]
    for label, field, forms in groups:
        for f in forms:
            for k in range(8):
                cap = default_degree_cap(f.nvars - 1, f.degree(), field.characteristic)
                t_max = rng.choice([None, None, f.degree(), cap - 1])
                if k < 2:
                    hp = Hyperplane.coordinate(field, f.nvars, rng.randrange(f.nvars))
                elif field == Q and k >= 5:
                    coeffs = [Fraction(rng.randint(-9, 9) or 1, rng.choice(_BIG_PRIMES)) for _ in range(f.nvars)]
                    coeffs[rng.randrange(f.nvars)] = Fraction(2**64 + rng.randint(0, 99), rng.randint(1, 9))
                    hp, t_max = Hyperplane.from_coefficients(field, coeffs), None
                else:
                    hp = Hyperplane.from_coefficients(field, [rand_nonzero_scalar(rng, field) for _ in range(f.nvars)])
                yield label, f, hp, t_max


def test_integer_trial_matches_the_scalar_path():
    """criterion_kernel, on integer forms, gives the report of
    criterion_kernel_reference, criterion form included, and restrict
    gives the sections of normalize_hyperplane, on a seeded grid over Q
    with Fraction coefficients and cleared hyperplane coefficients past
    2^63, over F_(2^31+11), and where char | d, with and without a t_max
    below the cap."""
    computed, below_cap, past_int64, fractional = Counter(), Counter(), 0, 0
    for label, f, hp, t_max in _integer_trial_cases(101):
        moved = normalize_hyperplane(f, hp)
        assert hp.restrict(f) == set_var_zero(moved, 0), (f, hp)
        assert hp.restrict(partial_derivative(f, hp.pivot)) == criterion_form(moved), (f, hp)
        got = criterion_kernel(f, hp, t_max=t_max)
        assert _report_fields(got) == _report_fields(criterion_kernel_reference(f, hp, t_max=t_max)), (f, hp, t_max)
        computed[label] += got.status is CriterionStatus.COMPUTED
        below_cap[label] += t_max is not None
        past_int64 += got.status is CriterionStatus.COMPUTED and max(map(abs, _cleared(hp))) >= 2**63
        fractional += f.field == Q and max(c.value.denominator for c in f.terms.values()) > 1
    assert min(computed.values()) >= 2 and len(computed) == 5, computed
    assert min(below_cap.values()) >= 2, below_cap
    assert past_int64 >= 2 and fractional >= 16


def test_certify_trial_runs_no_scalar_ring_map(monkeypatch):
    """A certify trial restricts, differentiates and builds its matrices on
    integer forms: with substitute_linear (at every binding in the
    package), Polynomial.__mul__ and Polynomial.__pow__ raising,
    certify_max_variation gives the same CertifyReport, and it calls
    variation.criterion_kernel exactly once per trial."""
    f5 = make_field(5)
    fractional = Polynomial.from_terms(Q, 5, {(3, 0, 0, 0, 0): Fraction(1, 2), (0, 3, 0, 0, 0): 1,
                                              (0, 0, 3, 0, 0): Fraction(-2, 3), (0, 0, 0, 3, 0): 1,
                                              (0, 0, 0, 0, 3): Fraction(5, 7), (1, 1, 1, 0, 0): Fraction(1, 4)})
    cases = [
        (cubic_threefold_example(Q), ScanStrategy()),
        (fermat(3, 3, f5), ScanStrategy(seed=1, trial_budget=16)),
        (fractional, ScanStrategy(seed=2, trial_budget=12)),
    ]
    expected = [certify_max_variation(f, strategy) for f, strategy in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("Scalar polynomial arithmetic in a certify trial")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hypersect" and hasattr(module, "substitute_linear"):
            monkeypatch.setattr(module, "substitute_linear", refuse)
    monkeypatch.setattr(Polynomial, "__mul__", refuse)
    monkeypatch.setattr(Polynomial, "__pow__", refuse)
    hyperplanes = []
    real_kernel = variation.criterion_kernel

    def kernel_spy(f, hyperplane, t_max=None):
        hyperplanes.append(hyperplane)
        return real_kernel(f, hyperplane, t_max=t_max)

    monkeypatch.setattr(variation, "criterion_kernel", kernel_spy)
    for (f, strategy), want in zip(cases, expected):
        hyperplanes.clear()
        got = certify_max_variation(f, strategy)
        assert got == want, f
        assert hyperplanes == [t.hyperplane for t in got.trials]
    assert {t.status for rep in expected for t in rep.trials} == set(CriterionStatus)
    with pytest.raises(AssertionError, match="Scalar polynomial"):
        Hyperplane.coordinate(Q, 4, 0).restrict(fermat(3, 3, Q)) * Q.one()


def test_first_order_term_factors_through_criterion_form():
    f = cyclic_fermat(3, 4, Q)
    q = criterion_form(f)
    for text in ("x0", "x1 - x2", "2*x0 + x2"):
        direction = parse_poly(text, 3, Q)
        _, h = first_order_section(f, direction)
        assert h == q * direction


def test_kernel_dim_invariant_under_section_coordinate_change():
    rng = random.Random(97)
    f = cubic_threefold_example(Q)
    base = criterion_kernel(f, Hyperplane.coordinate(Q, 5, 0))
    from helpers import rand_invertible, rand_scalar

    for _ in range(4):
        # change that fixes the hyperplane x0 = 0 as a set
        block = rand_invertible(rng, Q, 4)
        rows = [[Q.one()] + [Q.zero()] * 4]
        for i in range(4):
            rows.append([rand_scalar(rng, Q)] + block[i])
        moved = substitute_linear(f, LinearChange(Q, rows))
        rep = criterion_kernel(moved, Hyperplane.coordinate(Q, 5, 0))
        assert rep.status == CriterionStatus.COMPUTED
        assert rep.kernel_dim == base.kernel_dim
        # kernels correspond: undoing the block change on a basis vector
        # of the moved kernel lands in the span of the original kernel
        section_change = LinearChange(Q, block)
        mapped = [substitute_linear(b, inverse_change(section_change)) for b in rep.kernel_basis]
        target = [_coeffs(b) for b in base.kernel_basis]
        for v in mapped:
            assert in_span(target, _coeffs(v), Q)


def test_kernel_invariant_under_scaling_the_equation():
    f = cubic_threefold_example(Q)
    scaled = f.scale(Q.scalar(-7))
    rep = criterion_kernel(scaled, Hyperplane.coordinate(Q, 5, 0))
    assert rep.kernel_dim == 2


# --- certification -----------------------------------------------------------

def test_certify_displayed_cubic():
    rep = certify_max_variation(cubic_threefold_example(Q))
    assert rep.verdict == CertifyVerdict.CERTIFIED
    assert rep.witness is not None
    assert rep.witness.form.to_text() == "x0 + x1 + 2*x2 + 3*x3 + 4*x4"
    assert len(rep.trials) == 10
    last = rep.trials[-1]
    assert last.status == CriterionStatus.COMPUTED and last.kernel_dim == 0
    # every earlier trial failed to certify
    for t in rep.trials[:-1]:
        assert t.status != CriterionStatus.COMPUTED or t.kernel_dim > 0


def test_certify_requires_smooth_ambient():
    with pytest.raises(SingularInput):
        certify_max_variation(cyclic_fermat(3, 4, Q))


def test_certify_fermat_cubic_mod_two_is_inconclusive():
    """Every hyperplane section of the Fermat cubic surface mod 2 fails
    the criterion, so the scan exhausts its budget."""
    rep = certify_max_variation(fermat(3, 3, make_field(2)))
    assert rep.verdict == CertifyVerdict.INCONCLUSIVE
    assert rep.witness is None
    assert len(rep.trials) == 64
    counts = Counter(t.status for t in rep.trials)
    assert counts[CriterionStatus.COMPUTED] == 13
    assert counts[CriterionStatus.VACUOUS] == 21
    assert counts[CriterionStatus.SINGULAR_SECTION] == 30
    for t in rep.trials:
        if t.status == CriterionStatus.COMPUTED:
            assert t.kernel_dim > 0


def test_certify_respects_trial_budget():
    rep = certify_max_variation(fermat(3, 3, make_field(2)), ScanStrategy(seed=0, trial_budget=5))
    assert rep.verdict == CertifyVerdict.INCONCLUSIVE
    assert len(rep.trials) == 5
    assert rep.trial_budget == 5


def test_certify_is_deterministic():
    a = certify_max_variation(cubic_threefold_example(Q))
    b = certify_max_variation(cubic_threefold_example(Q))
    assert a.witness.form == b.witness.form
    assert [t.hyperplane.form for t in a.trials] == [t.hyperplane.form for t in b.trials]
    assert [t.status for t in a.trials] == [t.status for t in b.trials]


def test_certify_seed_changes_random_tail():
    f = fermat(3, 3, make_field(2))
    a = certify_max_variation(f, ScanStrategy(seed=1, trial_budget=30))
    b = certify_max_variation(f, ScanStrategy(seed=2, trial_budget=30))
    forms_a = [t.hyperplane.form.to_text() for t in a.trials]
    forms_b = [t.hyperplane.form.to_text() for t in b.trials]
    assert forms_a != forms_b


def test_schedule_texts_at_seed_7():
    """The first 16 trial hyperplanes at seed 7 over F_3 in 5 variables and
    over Q in 4, outside the golden corpus (seed 0).  Over F_3 the row
    (1, 1, 2, 3, 4) reduces to x0 + x1 + 2*x2 + x4, its zero dropped."""
    schedule = {
        (3, 5): ["x0", "x1", "x2", "x3", "x4", "x0 + x1", "x0 + x2", "x0 + x3", "x0 + x4",
                 "x0 + x1 + 2*x2 + x4", "x0 + x1 + x2 + x3 + x4", "x0 + x2 + 2*x3", "x1 + 2*x3 + x4",
                 "x1", "x0 + x1", "x0 + 2*x1 + x3"],
        (0, 4): ["x0", "x1", "x2", "x3", "x0 + x1", "x0 + x2", "x0 + x3", "x0 + x1 + 2*x2 + 3*x3",
                 "x0 + x1 + x2 + x3", "x1 - 1/3*x2 - 5/3*x3", "x0 + 4/5*x1 - 3/5*x2 + 4/5*x3",
                 "x1 - 5/4*x2 + 3/4*x3", "x0 + 5/2*x1 + 2*x2 - 1/2*x3", "x0 - 4*x1 - 2*x2 - 4*x3",
                 "x0 + 1/3*x1 - 5/3*x2 + 4/3*x3", "x0 + 1/2*x1 - 5/4*x2 - 5/4*x3"],
    }
    for (p, nvars), want in schedule.items():
        hyperplanes = variation._hyperplane_schedule(make_field(p), nvars, ScanStrategy(seed=7))
        assert [str(h) for h in itertools.islice(hyperplanes, 16)] == want, (p, nvars)


# --- surveys and moduli counts ----------------------------------------------

def test_survey_coordinate_planes_of_displayed_cubic():
    f = cubic_threefold_example(Q)
    reports = survey_kernels(f, [Hyperplane.coordinate(Q, 5, i) for i in range(5)])
    got = [(r.status.value, r.kernel_dim) for r in reports]
    assert got == [
        ("computed", 2),
        ("singular_section", None),
        ("singular_section", None),
        ("vacuous", None),
        ("vacuous", None),
    ]


def test_survey_fermat_all_vacuous():
    f = fermat(3, 3, Q)
    reports = survey_kernels(f, [Hyperplane.coordinate(Q, 4, i) for i in range(4)])
    assert all(r.status == CriterionStatus.VACUOUS for r in reports)


def test_survey_empty_input():
    assert survey_kernels(fermat(3, 3, Q), []) == []


def test_moduli_dim_examples():
    assert moduli_dim(3, 2) == 1
    assert moduli_dim(3, 3) == 4


def test_moduli_dim_domain():
    with pytest.raises(DegreeTooSmall):
        moduli_dim(2, 3)
    with pytest.raises(DimensionTooSmall):
        moduli_dim(3, 0)


def test_sections_exceed_moduli_only_for_cubic_surfaces():
    hits = [
        (d, n)
        for d in range(3, 7)
        for n in range(3, 7)
        if sections_exceed_moduli(d, n)
    ]
    assert hits == [(3, 3)]
