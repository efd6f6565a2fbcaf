"""Exact linear algebra: row reduction, rank, kernels, inverses."""

import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from hypersect import HypersectError, SingularMatrix, ideal_graded_dim, make_field, parse_poly
from hypersect import linalg
from hypersect.fields import _is_prime
from hypersect.linalg import PROBE_PRIME, rank_mod_p_int
from helpers import (
    FIELDS,
    Matrix,
    back_substitute_reference,
    in_span,
    invert,
    kernel_basis,
    kernel_reference,
    mat_vec,
    rand_invertible,
    rand_matrix,
    rand_scalar,
    rank,
    rank_int_exact,
    rank_mod_p_dense,
    rref,
    rref_reference,
    sparse_rows,
    split_pivots,
    split_reference,
)

Q = make_field(0)


def test_rref_identity_fixed():
    m = Matrix.identity(Q, 3)
    reduced, pivots = rref(m)
    assert reduced == m
    assert pivots == [0, 1, 2]


def test_rref_collapses_dependent_rows():
    m = Matrix.from_rows(Q, [[2, 4], [1, 2]])
    reduced, pivots = rref(m)
    assert reduced == Matrix.from_rows(Q, [[1, 2], [0, 0]])
    assert pivots == [0]


def test_rref_char_two():
    f2 = make_field(2)
    reduced, pivots = rref(Matrix.from_rows(f2, [[1, 1], [1, 1]]))
    assert reduced == Matrix.from_rows(f2, [[1, 1], [0, 0]])
    assert pivots == [0]


def test_rref_idempotent():
    rng = random.Random(21)
    for field in FIELDS:
        for _ in range(60):
            m = rand_matrix(rng, field, rng.randint(1, 4), rng.randint(1, 5))
            reduced, pivots = rref(m)
            again, pivots2 = rref(reduced)
            assert again == reduced
            assert pivots2 == pivots


def test_rank_trivial_cases():
    assert rank(Matrix.zero(Q, 3, 4)) == 0
    assert rank(Matrix.identity(Q, 4)) == 4


def test_rank_of_planted_factorization():
    """Rank ground truth built independently: a product of an m x r and an
    r x n matrix that both contain identity blocks has rank exactly r."""
    rng = random.Random(33)
    for field in FIELDS:
        for _ in range(40):
            r = rng.randint(0, 3)
            m, n = rng.randint(r, r + 3), rng.randint(r, r + 3)
            left = [
                [
                    (field.one() if i == j else field.zero()) if i < r
                    else rand_scalar(rng, field)
                    for j in range(r)
                ]
                for i in range(m)
            ]
            right = [
                [
                    (field.one() if i == j else field.zero()) if j < r
                    else rand_scalar(rng, field)
                    for j in range(n)
                ]
                for i in range(r)
            ]
            product = [
                [sum(left[i][k].value * right[k][j].value for k in range(r)) for j in range(n)]
                for i in range(m)
            ]
            assert rank(Matrix.from_rows(field, product)) == r


def test_rank_invariant_under_permutation_and_scaling():
    rng = random.Random(8)
    for field in FIELDS:
        for _ in range(40):
            rows = [[rand_scalar(rng, field) for _ in range(4)] for _ in range(3)]
            base = rank(Matrix.from_rows(field, rows))
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert rank(Matrix.from_rows(field, shuffled)) == base
            perm = list(range(4))
            rng.shuffle(perm)
            permuted = [[row[j] for j in perm] for row in shuffled]
            assert rank(Matrix.from_rows(field, permuted)) == base
            s = rand_scalar(rng, field)
            while not s:
                s = rand_scalar(rng, field)
            scaled = [[s.value * x.value for x in permuted[0]]] + permuted[1:]
            assert rank(Matrix.from_rows(field, scaled)) == base


def test_kernel_of_identity_is_empty():
    assert kernel_basis(Matrix.identity(Q, 3)) == []


def test_kernel_of_zero_map_is_everything():
    vecs = kernel_basis(Matrix.zero(Q, 2, 3))
    assert len(vecs) == 3
    assert in_span(vecs, [Q.one(), Q.zero(), Q.zero()], Q)


def test_kernel_vectors_annihilate():
    rng = random.Random(55)
    for field in FIELDS:
        for _ in range(60):
            m = rand_matrix(rng, field, rng.randint(1, 4), rng.randint(1, 5))
            for v in kernel_basis(m):
                assert all(not entry for entry in mat_vec(m, v))


def test_rank_nullity():
    rng = random.Random(56)
    for field in FIELDS:
        for _ in range(60):
            cols = rng.randint(1, 5)
            m = rand_matrix(rng, field, rng.randint(1, 4), cols)
            vecs = kernel_basis(m)
            assert rank(m) + len(vecs) == cols
            if vecs:
                stacked = Matrix.from_rows(field, vecs)
                assert rank(stacked) == len(vecs)


def test_invert_round_trip():
    rng = random.Random(17)
    for field in FIELDS:
        rows = rand_invertible(rng, field, 3)
        m = Matrix.from_rows(field, rows)
        assert_identity = invert(m)
        product = [
            [sum(m.at(i, k).value * assert_identity.at(k, j).value for k in range(3)) for j in range(3)]
            for i in range(3)
        ]
        assert Matrix.from_rows(field, product) == Matrix.identity(field, 3)


def test_invert_rejects_singular():
    with pytest.raises(SingularMatrix):
        invert(Matrix.from_rows(Q, [[1, 2], [2, 4]]))
    with pytest.raises(SingularMatrix):
        invert(Matrix.zero(Q, 2, 2))


def _reference_rank(field, rows):
    """Rank of integer rows over the field by the Scalar Gauss-Jordan oracle."""
    return len(rref_reference(Matrix.from_rows(field, rows))[1])


def test_integer_rank_helpers_agree_with_matrix_rank():
    rng = random.Random(71)
    for _ in range(80):
        rows = [[rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] for _ in range(rng.randint(1, 4))]
        width = max(len(r) for r in rows)
        rows = [r + [0] * (width - len(r)) for r in rows]
        assert rank_int_exact(rows) == _reference_rank(Q, rows)
        assert rank_mod_p_int(sparse_rows(rows), 0) == _reference_rank(Q, rows)
        for p in (2, 3, 5, 101):
            fp = make_field(p)
            assert rank_mod_p_int(sparse_rows(rows), p) == _reference_rank(fp, rows)


def test_rational_rank_matches_large_prime_probe():
    # entries are single digits and matrices tiny, so every nonzero minor
    # stays far below the probe modulus and the modular rank is exact
    rng = random.Random(72)
    big = 2_147_483_647
    for _ in range(120):
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        assert rank_int_exact(rows) == rank_mod_p_int(sparse_rows(rows), big)


def _planted_rows(rng, ncols, draw):
    """Random rows from draw() plus small integer combinations of them."""
    base = [[draw() for _ in range(ncols)] for _ in range(rng.randint(1, 4))]
    extra = []
    for _ in range(rng.randint(0, 3)):
        coeffs = [rng.randint(-3, 3) for _ in base]
        extra.append([sum(k * row[c] for k, row in zip(coeffs, base)) for c in range(ncols)])
    rows = base + extra
    rng.shuffle(rows)
    return rows


def test_rank_mod_large_prime_uses_python_path():
    """From 2^31 up rank_mod_p_int eliminates Python ints in an object
    array; checked against the Scalar Gauss-Jordan oracle over F_p, with
    and without stop_at, just past the int64 limit and at a 61-bit prime,
    and over Q (p = 0) on entries up to 2^64."""
    rng = random.Random(73)
    for p in (2**31 + 11, 2**61 - 1, 0):
        fp = make_field(p)
        bound = p or 2**64
        for _ in range(30):
            ncols = rng.randint(1, 6)
            rows = _planted_rows(rng, ncols, lambda: rng.randrange(-bound, bound))
            expected = _reference_rank(fp, rows)
            assert rank_mod_p_int(sparse_rows(rows), p) == expected
            for stop_at in range(1, ncols + 1):
                assert rank_mod_p_int(sparse_rows(rows), p, stop_at=stop_at) == min(expected, stop_at)


def test_rank_mod_p_entries_beyond_int64():
    """Entries at and past +-2^63 do not fit the int64 array; they are
    reduced mod p first and the rank matches the Scalar Gauss-Jordan
    oracle over F_p, and over Q (p = 0), where the kernel lift takes
    them."""
    rng = random.Random(74)
    huge = (2**63, -(2**63) - 1, 10**20, -(10**40), 3 * PROBE_PRIME * 2**64)
    for p in (3, 101, PROBE_PRIME, 0):
        fp = make_field(p)
        for _ in range(30):
            ncols = rng.randint(1, 5)
            draw = lambda: rng.choice(huge) * rng.randint(-2, 2) + rng.randint(-9, 9)
            rows = _planted_rows(rng, ncols, draw)
            rows[0][0] = rng.choice(huge)
            expected = _reference_rank(fp, rows)
            assert rank_mod_p_int(sparse_rows(rows), p) == expected
            assert rank_mod_p_int(sparse_rows(rows), p, stop_at=1) == min(expected, 1)


def test_rank_mod_p_stop_at_zero_or_below_is_zero():
    """A stop_at <= 0 asks for no pivot: the rank is 0, mod p and over Q."""
    for stop_at in (0, -3):
        for p in (5, 0):
            assert rank_mod_p_int([[(0, 1)], [(1, 1)]], p, stop_at=stop_at) == 0


def _split_grid(rng, p):
    """Dense integer rows that exercise the pivot split mod p: few leading
    columns, so many rows share one with different row lengths; empty rows,
    rows zero mod p, leading entries that vanish mod p, entries past
    +-2^63, and planted integer combinations of the rows."""
    huge = (2**63, -(2**63) - 1, 10**20, -(10**40))
    draws = (
        lambda: rng.randint(-9, 9),
        lambda: rng.randrange(-p, p),
        lambda: rng.choice(huge) * rng.randint(-2, 2) + rng.randint(-9, 9),
    )
    for draw in draws:
        for _ in range(10):
            ncols = rng.randint(1, 8)
            rows = []
            for _ in range(rng.randint(0, 10)):
                lead = rng.randrange(min(ncols, 4))
                row = [0] * ncols
                row[lead] = draw() or 1
                for c in rng.sample(range(lead + 1, ncols), rng.randint(0, ncols - lead - 1)):
                    row[c] = draw()
                kind = rng.randrange(6)
                if kind == 0:
                    row = [0] * ncols
                elif kind == 1:
                    row = [x * p for x in row]
                elif kind == 2:
                    row[lead] = p * rng.choice((1, -2, 2**64))
                rows.append(row)
            for _ in range(rng.randint(0, 3) if rows else 0):
                coeffs = [rng.randint(-2, 2) for _ in rows]
                rows.append([sum(k * row[c] for k, row in zip(coeffs, rows)) for c in range(ncols)])
            rng.shuffle(rows)
            yield ncols, rows


def test_pivot_split_matches_dense_rank_on_a_seeded_grid():
    """rank_mod_p_int on sparse rows equals the dense elimination of the
    same rows, capped at every stop_at from None and 0 up to the column
    count, mod primes on both sides of 2^31."""
    rng = random.Random(80)
    deficient = 0
    for p in (2, 3, 101, 2**31 - 1, 2**31 + 11, 2**61 - 1):
        for ncols, rows in _split_grid(rng, p):
            full = rank_mod_p_dense(rows, p)
            deficient += full < min(len(rows), ncols)
            for stop_at in (None, 0, *range(1, ncols + 1)):
                want = rank_mod_p_dense(rows, p, stop_at)
                assert rank_mod_p_int(sparse_rows(rows), p, stop_at) == want, (rows, p, stop_at)
    assert deficient >= 30


def _displaces(rows, p):
    """Whether a later, sparser row displaces the first row leading at its
    column mod p as the pivot there."""
    kept = {}
    for row in rows:
        row = [(c, x) for c, x in row if x % p]
        if row and len(row) < len(kept.setdefault(row[0][0], row)):
            return True
    return False


def test_pair_lists_and_sparse_rows_agree():
    """rank_mod_p_int, with and without stop_at, and integer_kernel give
    the same answers on pair lists and on the SparseRows made of them, mod
    primes on both sides of 2^31 and over Q, and the split matches the
    per-row oracle, Schur rows included.  The grid (_split_grid) has entries
    past 2^63, rows that are all zero mod p, empty rows and repeated leads
    where a later, sparser row displaces the pivot; the empty matrix, a
    matrix of one empty row and an ideal piece with no row come with it."""
    rng = random.Random(81)
    seen = Counter()
    for p in (2, 101, PROBE_PRIME, 2**31 - 1, 2**31 + 11):
        for ncols, dense in _split_grid(rng, p):
            rows = sparse_rows(dense)
            sparse = linalg.SparseRows.of(rows, ncols)
            assert len(sparse) == len(rows) and list(sparse) == rows and all(sparse[i] == r for i, r in enumerate(rows))
            seen["past int64"] += sparse.values.dtype == object
            seen["zero mod p"] += any(row and not any(x % p for _, x in row) for row in rows)
            seen["displaced"] += _displaces(rows, p)
            for q in (p, 0):
                for stop_at in (None, 1, ncols):
                    assert rank_mod_p_int(rows, q, stop_at) == rank_mod_p_int(sparse, q, stop_at), (rows, q)
                assert linalg.integer_kernel(rows, ncols, q) == linalg.integer_kernel(sparse, ncols, q), (rows, q)
            got, want = linalg._split(sparse, ncols, p), split_reference(rows, ncols, p)
            assert (list(got[0]), got[1].tolist(), got[2].tolist(), got[3]) == (want[0], want[1], want[2].tolist(), want[3])
    assert min(seen["past int64"], seen["zero mod p"], seen["displaced"]) > 0, seen
    for rows, ncols in (([], 0), ([], 4), ([[]], 3)):
        sparse = linalg.SparseRows.of(rows, ncols)
        assert list(sparse) == rows and sparse.width == ncols
        for q in (0, 101):
            assert rank_mod_p_int(rows, q) == rank_mod_p_int(sparse, q) == 0
            assert linalg.integer_kernel(sparse, ncols, q) == ([], list(range(ncols)), [{c: 1} for c in range(ncols)])
    assert linalg.integer_kernel([[]], 3, 0) == ([], [0, 1, 2], [{0: 1}, {1: 1}, {2: 1}])
    assert ideal_graded_dim([parse_poly("x0^3 + x1^3 + x2^3", 3, Q)], 2).dimension == 0


def test_split_picks_pivots_by_one_sort():
    """_split sorts the rows of residues by (lead, length), stably: the
    first row of each lead is its pivot, the sparsest, the first on a tie,
    and the other rows form the Schur complement in the sort's order.  So
    a later, sparser row displaces the first row leading at its column,
    and the displaced row follows a row of its lead as sparse as the
    pivot, which the column loop then takes as its first pivot row.  A
    split of no rows, or of rows all zero mod p, has no pivot and no
    Schur row; with distinct leads every row is a pivot."""
    p = 101
    a, d, b, c = [(0, 1), (1, 1), (2, 1)], [(1, 1), (3, 1)], [(0, 2), (2, 3)], [(0, 1), (3, 5)]
    pivots, others, schur, leads = linalg._split(linalg.SparseRows.of([a, d, b, c], 4), 4, p)
    assert (list(pivots), others.tolist(), leads) == ([b, d], [2, 3], [0, 1])
    # c - b/2 = (-3/2, 5) on columns 2 and 3 leads, scaled to 1; then a - b/2 - d
    assert schur.tolist() == [[1, -10 * pow(3, -1, p) % p], [0, 1]]
    for rows in ([], [[]], [[(0, p), (2, 2 * p)]]):
        pivots, others, schur, leads = linalg._split(linalg.SparseRows.of(rows, 3), 3, p)
        assert (len(pivots), others.tolist(), schur.shape, leads) == (0, [0, 1, 2], (0, 3), [])
    pivots, others, schur, leads = linalg._split(linalg.SparseRows.of([d, b], 4), 4, p)
    assert (list(pivots), others.tolist(), schur.shape, leads) == ([b, d], [2, 3], (0, 2), [])


def test_sparse_rows_carry_one_width(monkeypatch):
    """integer_kernel refuses SparseRows over another number of columns
    than it is given, and rank_mod_p_int eliminates only up to the last
    column with an entry, as it does for pair lists: columns past it change
    no rank, and over Q each would be one more free column to lift."""
    rows = [[(0, 2), (3, 4)], [(1, 3), (3, 6)]]
    sparse = linalg.SparseRows.of(rows, 9)
    with pytest.raises(ValueError):
        linalg.integer_kernel(sparse, 4, 0)
    widths = []
    real_split = linalg._split

    def spy(rows_, ncols, p):
        widths.append(ncols)
        return real_split(rows_, ncols, p)

    monkeypatch.setattr(linalg, "_split", spy)
    for p in (0, 3, 101):
        widths.clear()
        assert rank_mod_p_int(sparse, p) == rank_mod_p_int(rows, p) == 2 - (p == 3)
        assert set(widths) == {4}, (p, widths)


def test_kernel_check_holds_one_vector_at_a_time():
    """_annihilates checks A*v = 0 one vector at a time: for k vectors over
    nnz entries it holds O(nnz) Python ints, not the nnz x k of one product
    (about 24 MiB here), and it finds a vector that fails."""
    n = 10_000
    rows = linalg.SparseRows.of([[(2 * i, 1), (2 * i + 1, -1)] for i in range(n)], 2 * n)
    ones = dict.fromkeys(range(2 * n), 1)
    tracemalloc.start()
    try:
        assert linalg._annihilates(rows, [ones] * 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak
    assert not linalg._annihilates(rows, [ones, ones | {5: 2}])
    assert linalg._annihilates(linalg.SparseRows.of([[]], 2), [{0: 1}])


# --- delayed reduction in the column loop and the split ----------------------

DELAY_PRIMES = (2, 3, 101, PROBE_PRIME, 2**31 - 1, 2**31 + 11)


def _residue_grid(rng, p):
    """Residue blocks mod p: random, planted rank-deficient, with zero
    columns and zero rows, from 1 x 1 up to 16 x 10."""
    draws = (lambda: rng.randrange(p), lambda: rng.choice((0, 0, 1, p - 1, rng.randrange(p))))
    for nrows, ncols in ((1, 1), (4, 4), (5, 8), (9, 6), (12, 12), (16, 10)):
        for draw in draws:
            yield [[draw() for _ in range(ncols)] for _ in range(nrows)]
            base = [[draw() for _ in range(ncols)] for _ in range(max(nrows // 3, 1))]
            rows = [[sum(k * x for k, x in zip(coeffs, col)) % p for col in zip(*base)]
                    for coeffs in ([rng.randrange(p) for _ in base] for _ in range(nrows))]
            for c in rng.sample(range(ncols), ncols // 4):
                for row in rows:
                    row[c] = 0
            yield rows + [[0] * ncols]


def _block(rows, p):
    ncols = len(rows[0])
    return np.array(rows, dtype=np.int64 if p < 2**31 else object).reshape(len(rows), ncols)


def _check_eliminate(rows, p, want, want_pivots):
    """The column loop against the Python-int Gauss-Jordan oracle's (want,
    want_pivots): its pivots, the same row space, residues throughout."""
    field = make_field(p)
    a = _block(rows, p)
    pivots = linalg._eliminate(a, p)
    assert pivots == want_pivots, (rows, p)
    assert all(0 <= x < p for x in a.flat)
    for i, c in enumerate(pivots):
        assert a[i, c] == 1 and not a[i, :c].any() and not a[i + 1 :, c].any()
    assert rref_reference(Matrix.from_rows(field, a.tolist())) == (want, want_pivots)


def _check_split(rows, p, want, want_pivots):
    """The split of sparse rows against the oracle's (want, want_pivots):
    its rank, and its Schur block as the oracle's reduced rows that lead
    off the pivot columns, on the other columns."""
    field = make_field(p)
    ncols = len(rows[0])
    split = linalg._split(linalg.SparseRows.of(sparse_rows(rows), ncols), ncols, p)
    pivots, others, schur, leads = split
    assert all(0 <= x < p for x in schur.flat)
    assert split_pivots(split) == want_pivots, (rows, p)
    sparse = {row[0][0] for row in pivots}
    tail = [[want.at(i, c) for c in others] for i, c in enumerate(want_pivots) if c not in sparse]
    got = Matrix.from_rows(field, schur.tolist()) if len(schur) else Matrix.zero(field, 0, len(others))
    assert rref_reference(got)[0].row_lists()[: len(tail)] == tail


def test_delayed_reduction_matches_python_int_oracle():
    """_eliminate and _split, with the % p delayed at the 20-bit prime and
    the small ones and kept at 2^31 - 1 and past it, give the oracle's
    pivots and residues on a seeded grid with rank-deficient blocks and
    zero columns."""
    rng = random.Random(88)
    for p in DELAY_PRIMES:
        assert linalg._delays(np.zeros((1, 30), dtype=np.int64), p) == (p < 2**31 - 1)
        deficient = 0
        for rows in _residue_grid(rng, p):
            want = rref_reference(Matrix.from_rows(make_field(p), rows))
            _check_eliminate(rows, p, *want)
            _check_split(rows, p, *want)
            deficient += len(want[1]) < min(len(rows), len(rows[0]))
        assert deficient >= 10, p


def test_delayed_reduction_at_its_bound():
    """The largest prime p with ncols*(p-1)^2 < 2^62 at ncols = 8, and 2^31 - 1,
    past the bound.  Six pivot rows 1, p-1, ..., p-1 (p-2 in the seventh
    column) over rows whose entries all start at p-1: the factors run p-1,
    p-2, p-4, ..., so each update subtracts nearly (p-1)^2, and the last two
    columns take six of them before the seventh holds a pivot that scales
    the eighth, unreduced until then.  Column loop and split both match the
    Python-int oracle, and so do the same rows mod 2^31 - 1, where only a
    reduction at every update keeps int64 from overflowing."""
    ncols = 8
    top = math.isqrt(2**62 // ncols)
    bound = next(q for q in range(top + 1, 2, -1) if _is_prime(q) and ncols * (q - 1) ** 2 < 2**62)
    block = np.zeros((1, ncols), dtype=np.int64)
    assert linalg._delays(block, bound)
    assert not linalg._delays(block, next(q for q in itertools.count(bound + 1) if _is_prime(q)))
    for p in (bound, 2**31 - 1):
        pivots = [[0] * c + [1] + [p - 1] * (ncols - c - 1) for c in range(ncols - 2)]
        for row in pivots:
            row[-2] = p - 2
        rows = pivots + [[p - 1] * ncols for _ in range(3)]
        for order in (rows, rows[::-1]):
            want = rref_reference(Matrix.from_rows(make_field(p), order))
            assert len(want[1]) == ncols - 1
            _check_eliminate(order, p, *want)
            _check_split(order, p, *want)


# --- level-scheduled split and GEMM panels against the per-pivot loops -------

PANEL_BOUND = 16_777_213  # the largest prime with 32*(p-1)^2 < 2^53
BATCH_PRIMES = (2, 3, 101, PROBE_PRIME, PANEL_BOUND, 2**31 - 1, 2**31 + 11)


def _level_grid(rng, p):
    """Dense integer rows for the split: pivot rows with entries on later
    pivot columns (chains of levels), other rows leading at the same
    columns, planted integer combinations (rank deficiency), columns no
    row touches, entries that are multiples of p or past 2^63; narrow ones,
    and wide ones whose Schur complement is wider than the panel crossover."""
    draws = (lambda: rng.randrange(-p, p), lambda: rng.choice((1, -1, p - 1, 2**64 + 1, rng.randrange(p))))
    for wide in (False,) * 10 + (True,) * 2:
        ncols = rng.randint(230, 260) if wide else rng.randint(2, 30)
        live = sorted(rng.sample(range(ncols), ncols - ncols // 8))
        leads = rng.sample(live, rng.randint(1, 40 if wide else max(len(live) // 2, 1)))
        draw = rng.choice(draws)
        rows = []
        for lead in leads + [rng.choice(leads) for _ in range(rng.randint(0, 60 if wide else 12))]:
            row = [0] * ncols
            row[lead] = draw() % p or 1
            later = [c for c in live if c > lead]
            for c in rng.sample(later, min(len(later), rng.randint(0, 8))):
                row[c] = draw()
            rows.append(row)
        for _ in range(rng.randint(0, 4)):
            coeffs = [rng.randint(-2, 2) for _ in rows]
            rows.append([sum(k * row[c] for k, row in zip(coeffs, rows)) for c in range(ncols)])
        rows.append([0] * ncols)
        rng.shuffle(rows)
        yield ncols, rows


def test_level_split_matches_the_per_pivot_oracle(monkeypatch):
    """_split, clearing the pivots level by level, returns the same pivots,
    non-pivot columns, Schur residues and leads as clearing them one at a
    time (helpers.split_reference), with the default scatter chunks and
    blocks and, on narrow rows, chunks of 8 entries in blocks of 64, mod
    primes on both sides of the panel bound and of 2^31.  The grid reaches
    3 levels or more, rank-deficient splits, and Schur blocks that run in
    panels."""
    rng = random.Random(18)
    depths, panels = [], set()
    real_levels, real_trailing = linalg._levels, linalg._trailing

    def levels_spy(*args):
        levels = real_levels(*args)
        depths.append(len(levels))
        return levels

    def trailing_spy(a, p, *args):
        panels.add(p)
        return real_trailing(a, p, *args)

    monkeypatch.setattr(linalg, "_levels", levels_spy)
    monkeypatch.setattr(linalg, "_trailing", trailing_spy)
    sizes = (linalg._CHUNK, linalg._BLOCK), (8, 64)
    for p in BATCH_PRIMES:
        deficient = 0
        for ncols, rows in _level_grid(rng, p):
            sparse = sparse_rows(rows)
            want = split_reference(sparse, ncols, p)
            for chunk, block in sizes if ncols < 100 else sizes[:1]:
                monkeypatch.setattr(linalg, "_CHUNK", chunk)
                monkeypatch.setattr(linalg, "_BLOCK", block)
                got = linalg._split(linalg.SparseRows.of(sparse, ncols), ncols, p)
                assert (list(got[0]), got[1].tolist(), got[3]) == (want[0], want[1], want[3]), (p, rows)
                assert got[2].dtype == want[2].dtype and np.array_equal(got[2], want[2]), (p, rows)
            pivots, _, _, leads = want
            deficient += len(pivots) + len(leads) < min(len(rows), ncols)
        assert deficient >= 3, p
    assert sum(depth >= 3 for depth in depths) >= 20
    assert panels == {p for p in BATCH_PRIMES if p <= PANEL_BOUND}


def test_split_holds_one_bounded_block_at_a_time(monkeypatch):
    """The split never holds its whole m x ncols block: 300 other rows over
    3,000 columns, 7.2 MB of int64, are cleared in blocks of at most
    _BLOCK entries, so the memory traced during the split peaks under
    7.2 MB, and no block is left when the column loop runs on the 300 x 10
    Schur complement."""
    import tracemalloc

    ncols = 3000
    rows = [[(c, 1), (ncols - 1 - c % 10, c + 1)] for c in range(ncols - 10)]
    rows += [[(c, 2), (ncols - 1 - c % 7, 1)] for c in range(300)]
    traced = []
    real_eliminate = linalg._eliminate

    def eliminate_spy(a, p):
        traced.append(tracemalloc.get_traced_memory()[0])
        return real_eliminate(a, p)

    monkeypatch.setattr(linalg, "_eliminate", eliminate_spy)
    tracemalloc.start()
    try:
        _, others, schur, _ = linalg._split(linalg.SparseRows.of(rows), ncols, 101)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert schur.shape == (300, len(others)) == (300, 10)
    assert peak < 300 * ncols * 8
    assert traced and traced[0] < linalg._BLOCK * 8


def _wide_blocks(rng, p):
    """Residue blocks wider than the panel crossover: random wide and tall,
    entries from {0, 1, p-1}, and planted rank deficiency with zero rows
    and zero columns, among them a run of 40 (a panel without a pivot)."""
    def block(nrows, ncols, draw):
        return np.array([[draw() for _ in range(ncols)] for _ in range(nrows)], dtype=object)

    ncols = linalg._PANEL_CROSSOVER + rng.randint(1, 60)
    yield block(40, ncols, lambda: rng.randrange(p))
    yield block(ncols + 7, ncols, lambda: rng.choice((0, 1, p - 1)))
    low = block(70, 12, lambda: rng.randrange(p)).dot(block(12, ncols, lambda: rng.randint(-2, 2))) % p
    start = rng.randrange(ncols - 40)
    low[:, start : start + 40] = 0
    low[:, rng.sample(range(ncols), 9)] = 0
    low[rng.sample(range(70), 5)] = 0
    yield low


def _column_loop(monkeypatch, a, p):
    """_eliminate on a copy of a with the crossover out of reach: the
    column loop alone.  Returns the pivots and the copy."""
    crossover = linalg._PANEL_CROSSOVER
    monkeypatch.setattr(linalg, "_PANEL_CROSSOVER", 10**9)
    a = a.copy()
    pivots = linalg._eliminate(a, p)
    monkeypatch.setattr(linalg, "_PANEL_CROSSOVER", crossover)
    return pivots, a


def test_panels_match_the_column_loop(monkeypatch):
    """_eliminate runs blocks wider than the crossover in panels exactly
    where _panels admits them, p <= 16,777,213, and there gives the column
    loop's pivots and final residues, with the default row chunks of the
    GEMM and with one row per product.  At the 31-bit primes, int64 and
    Python ints, it keeps the loop."""
    rng = random.Random(32)
    chunk, trailing = linalg._CHUNK, linalg._trailing
    for p in BATCH_PRIMES:
        for block in _wide_blocks(rng, p):
            a = block.astype(np.int64 if p < 2**31 else object)
            if not linalg._panels(a, p):
                assert p > PANEL_BOUND
                monkeypatch.setattr(linalg, "_trailing", None)  # a panel step would fail
                linalg._eliminate(a[:40].copy(), p)
                monkeypatch.setattr(linalg, "_trailing", trailing)
                continue
            want = _column_loop(monkeypatch, a, p)
            for size in (chunk, 1):
                monkeypatch.setattr(linalg, "_CHUNK", size)
                got = a.copy()
                assert linalg._eliminate(got, p) == want[0], p
                assert np.array_equal(got, want[1]), p


def test_panels_at_their_bound(monkeypatch):
    """16,777,213 is the largest prime with 32*(p-1)^2 < 2^53; panels run
    there and not at the next prime.  The block: 32 unit pivot rows, whose
    trailing entries are p-2 except one p-1 per column, over rows of
    multipliers p-2.  Every entry of its first GEMM is then
    31*(p-2)^2 + (p-2)*(p-1), odd, under 2^53 at the bound but over it at
    the next prime, where float64 would round it.  At both primes the
    result is the column loop's, so admitting the next prime fails here."""
    block = np.zeros((1, linalg._PANEL_CROSSOVER + 1), dtype=np.int64)
    assert linalg._panels(block, PANEL_BOUND)
    assert not linalg._panels(block[:, 1:], PANEL_BOUND)
    above = next(q for q in itertools.count(PANEL_BOUND + 1) if _is_prime(q))
    assert not linalg._panels(block, above)
    assert linalg._PANEL * (PANEL_BOUND - 1) ** 2 < 2**53 <= linalg._PANEL * (above - 1) ** 2
    for p in (PANEL_BOUND, above):
        trailing = np.full((32, 224), p - 2)
        trailing[np.arange(224) % 32, np.arange(224)] = p - 1
        top = np.hstack([np.eye(32, dtype=np.int64), trailing])
        below = np.hstack([np.full((8, 32), p - 2), np.arange(8 * 224).reshape(8, 224) % p])
        a = np.vstack([top, below])
        assert (31 * (p - 2) ** 2 + (p - 2) * (p - 1) < 2**53) == (p == PANEL_BOUND)
        want = _column_loop(monkeypatch, a, p)
        got = a.copy()
        assert linalg._eliminate(got, p) == want[0]
        assert np.array_equal(got, want[1]), p


# --- level-scheduled back substitution against the per-row loop --------------


def _chain_grid(rng, p):
    """Integer rows whose sparse pivot rows chain: row i leads at column i
    with an entry at column i+1, so a chain of length L takes L levels.
    Beside them, pivot rows without a tail, tails on several columns past
    the chain, rows leading at a chain column that go to the Schur block,
    and entries past 2^63."""
    def draw():
        x = rng.choice((rng.randrange(1, p), p - 1, rng.choice((1, -1)) * rng.randint(2**63, 2**70)))
        return x if x % p else 1

    for length in (1, 3, 12, 50, 75):
        single, rest = rng.randint(0, 4), rng.randint(1, 8)
        ncols = length + single + rest
        tail = range(length, ncols)
        rows = [[(length + j, draw())] for j in range(single)]
        for i in range(length):
            row = {i: draw(), **{c: draw() for c in rng.sample(tail, rng.randint(0, min(3, len(tail))))}}
            if i + 1 < length:
                row[i + 1] = draw()
            rows.append(sorted(row.items()))
        for _ in range(rng.randint(0, rest - 1)):  # denser than the chain rows, so never their pivot
            lead = rng.randrange(length)
            rows.append([(lead, draw())] + [(c, draw()) for c in range(lead + 1, ncols) if rng.random() < 0.7])
        rng.shuffle(rows)
        yield ncols, rows


def test_level_back_substitution_matches_the_per_row_oracle(monkeypatch):
    """integer_kernel, back-substituting the sparse pivot rows level by
    level from the highest, returns the same pivots, free columns and
    vectors as the per-row loop (helpers.back_substitute_reference), mod
    primes on both sides of 2^31, int64 and Python-int blocks.  Over Q its
    lifted vectors, scaled to 1 at their free column, are the loop's
    residues at the probe prime wherever that prime gives the pivots over
    Q.  The grid reaches chains of 50 levels and more, pivot rows without
    a tail, several free columns and entries past 2^63."""
    rng = random.Random(27)
    depths, seen = [], Counter()
    real_levels = linalg._levels

    def levels_spy(*args):
        levels = real_levels(*args)
        depths.append(len(levels))
        return levels

    monkeypatch.setattr(linalg, "_levels", levels_spy)
    for p in DELAY_PRIMES:
        for ncols, rows in itertools.chain(_chain_grid(rng, p), ((n, sparse_rows(r)) for n, r in _level_grid(rng, p))):
            want = back_substitute_reference(rows, ncols, p)
            assert linalg.integer_kernel(rows, ncols, p) == want, (p, rows)
            seen["free >= 3"] += len(want[1]) >= 3
            seen["no tail"] += any(len([x for _, x in row if x % p]) == 1 for row in rows)
            seen["past int64"] += any(abs(x) >= 2**63 for row in rows for _, x in row)
            if p == PROBE_PRIME:
                pivots, free, vectors = linalg.integer_kernel(rows, ncols, 0)
                if pivots == want[0]:
                    seen["over Q"] += 1
                    for fc, vector, residues in zip(free, vectors, want[2]):
                        scale = pow(vector[fc], -1, p)
                        assert {c: r for c, x in vector.items() if (r := x * scale % p)} == residues, rows
    assert max(depths) >= 50
    assert min(seen.values()) > 0 and seen["over Q"] >= 10, seen


def test_back_substitution_holds_one_bounded_piece_at_a_time():
    """The back substitution multiplies one piece of a level at a time, of
    at most _CHUNK tail entries times free columns: 1,000 pivot rows with
    20 tail entries each on 128 free columns make one level of 20,000
    tail entries, whose 2.56 M products at once would take 20 MB of int64
    (and as much again for their gathered operands).  The memory traced
    through integer_kernel, whose vectors hold 20,000 entries, peaks under
    8 MiB, and the vectors are the per-row loop's."""
    npivots, nfree, p = 1000, 128, 101
    rng = random.Random(9)
    rows = [[(i, 1 + i % 7)] + [(npivots + c, rng.randint(1, 100)) for c in sorted(rng.sample(range(nfree), 20))]
            for i in range(npivots)]
    sparse = linalg.SparseRows.of(rows, npivots + nfree)
    tracemalloc.start()
    try:
        got = linalg.integer_kernel(sparse, npivots + nfree, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert len(got[1]) == nfree and got == back_substitute_reference(rows, npivots + nfree, p)


# --- exact rank over Q from verified modular kernels -------------------------


def _spied_rank(monkeypatch, rows):
    """The exact rank of rows over Q, the pivot count of integer_kernel on
    all their columns, the pivot list found at each prime, and every
    vector list the exact check accepted."""
    pivot_lists, accepted = [], []
    real_split, real_check = linalg._split, linalg._annihilates

    def split_spy(rows_, ncols, p):
        split = real_split(rows_, ncols, p)
        pivot_lists.append(split_pivots(split))
        return split

    def check_spy(rows_, vectors):
        ok = real_check(rows_, vectors)
        if ok:
            accepted.append(vectors)
        return ok

    monkeypatch.setattr(linalg, "_split", split_spy)
    monkeypatch.setattr(linalg, "_annihilates", check_spy)
    try:
        return len(linalg.integer_kernel(sparse_rows(rows), len(rows[0]), 0)[0]), pivot_lists, accepted
    finally:
        monkeypatch.undo()


def _check_certified(monkeypatch, rows):
    """The certified rank, and rank_mod_p_int(rows, 0), equal the
    fraction-free oracle, and the accepted vectors are, checked anew,
    cols - rank independent integer vectors with A*v = 0."""
    got, pivot_lists, accepted = _spied_rank(monkeypatch, rows)
    want = rank_int_exact(rows)
    assert got == want == rank_mod_p_int(sparse_rows(rows), 0), rows
    ncols = len(rows[0])
    assert len(accepted) <= 1
    if accepted:
        dense = [[v.get(j, 0) for j in range(ncols)] for v in accepted[0]]
        assert len(dense) == ncols - want
        assert rank_int_exact(dense) == len(dense)
        for v in dense:
            assert all(isinstance(x, int) for x in v)
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
    else:
        assert want == min(len(rows), ncols)
    return pivot_lists


def _shaped_grid(rng, draw):
    """Random and planted rank-deficient matrices of every shape: square,
    wide, tall, with zero rows, and all zero."""
    for nrows, ncols in ((1, 1), (3, 3), (4, 4), (2, 5), (3, 7), (6, 2), (7, 4), (5, 5)):
        yield [[draw() for _ in range(ncols)] for _ in range(nrows)]
        rows = _planted_rows(rng, ncols, draw)
        yield rows
        yield rows + [[0] * ncols] + rows[:1]
        yield [[0] * ncols for _ in range(nrows)]


def test_rank_q_certified_matches_fraction_free_oracle(monkeypatch):
    rng = random.Random(75)
    draws = (
        lambda: rng.randint(-9, 9),
        lambda: rng.choice((0, 0, 1, -1, 2)),
        lambda: rng.randint(-(10**6), 10**6),
    )
    deficient = 0
    for draw in draws:
        for _ in range(4):
            for rows in _shaped_grid(rng, draw):
                _check_certified(monkeypatch, rows)
                deficient += rank_int_exact(rows) < min(len(rows), len(rows[0]))
    assert deficient >= 100


def test_rank_q_certified_entries_beyond_int64(monkeypatch):
    """Entries at and past +-2^63 go through Python ints, in the residues
    and in the exact check."""
    rng = random.Random(76)
    huge = (2**63, -(2**63), -(2**63) - 1, 2**64 + 3, 10**20, -(10**40))
    draw = lambda: rng.choice(huge) * rng.randint(-2, 2) + rng.randint(-9, 9)
    deficient = 0
    for _ in range(4):
        for rows in _shaped_grid(rng, draw):
            if any(x for row in rows for x in row):
                rows[0][0] = rng.choice(huge)
            _check_certified(monkeypatch, rows)
            deficient += rank_int_exact(rows) < min(len(rows), len(rows[0]))
    assert deficient >= 30


def test_rank_q_certified_lifts_large_kernels_by_crt(monkeypatch):
    """Kernel entries past 2^31 need more than one prime; the residues of
    primes with the same pivots are combined until the lift checks out."""
    rng = random.Random(77)
    for _ in range(20):
        ncols = rng.randint(3, 6)
        base = [[rng.randint(-(2**40), 2**40) for _ in range(ncols)] for _ in range(rng.randint(1, ncols - 1))]
        coeffs = [rng.randint(1, 5) for _ in base]
        combo = [sum(k * row[c] for k, row in zip(coeffs, base)) for c in range(ncols)]
        pivot_lists = _check_certified(monkeypatch, base + [combo])
        assert len(pivot_lists) >= 2
        assert all(pivots == pivot_lists[0] for pivots in pivot_lists)


def test_rank_q_certified_discards_unlucky_primes(monkeypatch):
    """A column scaled by the first prime, the probe prime, makes that
    prime unlucky: lower rank, or the same rank with a later pivot list.
    Its kernel fails the exact check and the next prime replaces it.  A
    column scaled by the second prime, met after a good first prime, is
    skipped outright.  The good primes alone then lift the kernel, each of
    them a 20-bit prime below p0: entries 0 and -1 need one; 1/p0 needs a
    modulus past 2*p0^2 > 2^41, three of them; 3^30/p1 past 2*3^60 > 2^96,
    p0 and four more."""
    p0, p1 = PROBE_PRIME, 1_048_571
    lower_rank = [[p0, 0, 0], [0, 1, 1], [0, 1, 1]]
    assert _check_certified(monkeypatch, lower_rank) == [[1], [0, 1]]
    later_pivots = [[p0, 1, 1], [2 * p0, 2, 2]]
    assert _check_certified(monkeypatch, later_pivots) == [[1], [0], [0], [0]]
    b, c = 2**40 + 15, 3**30
    skipped = [[p1, b, c], [2 * p1, 2 * b, 2 * c], [0, 0, 0]]
    assert _check_certified(monkeypatch, skipped) == [[0], [1], [0], [0], [0], [0]]


def test_lift_primes_run_down_from_the_probe_prime_then_up():
    """After the probe prime the lift lists every prime below it in turn,
    descending, then every prime above it, ascending (checked by trial
    division), for the probe prime and for the small and past-int64 ones
    the tests set it to."""
    def by_trial(n):
        return n > 1 and all(n % k for k in range(2, math.isqrt(n) + 1))

    seq = list(itertools.islice(linalg._primes_below(PROBE_PRIME), 10))
    assert seq == [n for n in range(PROBE_PRIME - 1, seq[-1] - 1, -1) if by_trial(n)]
    assert seq[0] == 1_048_571
    for q in (2, 3, 5, 13, 2**31 + 11):
        below = (n for n in range(q - 1, 1, -1) if by_trial(n))
        above = (n for n in itertools.count(q + 1) if by_trial(n))
        want = list(itertools.islice(itertools.chain(below, above), 12))
        assert list(itertools.islice(linalg._primes_below(q), 12)) == want, q
    assert list(itertools.islice(linalg._primes_below(13), 8)) == [11, 7, 5, 3, 2, 17, 19, 23]
    assert [_is_prime(n) for n in range(-3, 200)] == [by_trial(n) for n in range(-3, 200)]


def test_rank_q_certified_past_int64_primes(monkeypatch):
    """Primes from 2^31 up run the elimination, the back substitution and
    the CRT on Python ints; the ranks still match the oracle.  The probe
    prime is set to one of them, and the lift goes on with the primes
    below it, never trying it twice."""
    rng = random.Random(78)
    for first in (2**31 + 11, 2**61 - 1):
        monkeypatch.setattr(linalg, "PROBE_PRIME", first)
        for rows in itertools.islice(_shaped_grid(rng, lambda: rng.randint(-(10**6), 10**6)), 0, None, 3):
            assert rank_mod_p_int(sparse_rows(rows), 0) == rank_int_exact(rows)


def test_lift_raises_instead_of_looping_when_checks_keep_failing(monkeypatch):
    """A check that never passes is a defect, not bad luck: past 2*H^2 the
    lift raises an internal RuntimeError instead of trying primes forever.
    Here the first prime already exceeds 2*H^2 = 2*77*14."""
    calls = []

    def failing_check(rows, vectors):
        calls.append(1)
        if len(calls) > 10:
            pytest.fail("the lift kept trying primes")
        return False

    monkeypatch.setattr(linalg, "_annihilates", failing_check)
    with pytest.raises(RuntimeError) as raised:
        linalg.integer_kernel(sparse_rows([[1, 2, 3], [4, 5, 6]]), 3, 0)
    assert not isinstance(raised.value, HypersectError)
    assert len(calls) == 1


def test_public_surface_has_no_scalar_matrix_layer():
    """Every exported name resolves, the Scalar matrix layer lives in the
    test helpers only, and a Scalar is a value with no arithmetic: code
    computes on .value and reduces with FieldSpec.scalar."""
    import hypersect
    from hypersect import jacobian

    for name in hypersect.__all__:
        getattr(hypersect, name)
    gone = ("Matrix", "rref", "rank", "kernel_basis", "invert", "euler_check", "GradedPiece")
    for module in (hypersect, linalg, jacobian):
        assert [name for name in gone if hasattr(module, name)] == [], module.__name__
    arithmetic = ("__add__", "__sub__", "__mul__", "__neg__", "__truediv__", "__pow__", "inv")
    assert [name for name in arithmetic if hasattr(hypersect.Scalar, name)] == []


def test_rank_q_certified_eliminates_only_the_schur_block(monkeypatch):
    """The exact rank eliminates dense only what the pivot split leaves: on
    the degree-17 rows of cyclic Fermat (3,6), 1,350 x 1,140 with 980
    distinct leading columns, every array the column loop sees is at most
    370 x 160, never the whole matrix."""
    from hypersect import jacobian
    from hypersect.fixtures import cyclic_fermat
    f = cyclic_fermat(3, 6, Q)
    rows = jacobian._macaulay_rows(jacobian._integer_generators(f.numerators, 6, 0), 17)
    assert (len(rows), rows.width, len({row[0][0] for row in rows})) == (1350, 1140, 980)
    shapes = []
    real_eliminate = linalg._eliminate

    def eliminate_spy(a, p):
        shapes.append(a.shape)
        return real_eliminate(a, p)

    monkeypatch.setattr(linalg, "_eliminate", eliminate_spy)
    assert rank_mod_p_int(rows, 0) == 1139
    assert shapes and all(nrows <= 370 and ncols <= 160 for nrows, ncols in shapes)


# --- Scalar rref on the one column loop and the verified lift ----------------


def _check_rref(m):
    """rref(m) is a new Matrix equal to the Gauss-Jordan oracle's, pivots
    too, and kernel_basis(m) is the kernel read off the oracle's form."""
    got, pivots = rref(m)
    want, want_pivots = rref_reference(m)
    assert got is not m
    assert (got, pivots) == (want, want_pivots), m
    assert kernel_basis(m) == kernel_reference(m), m
    return len(pivots) < min(m.rows, m.cols)


def _schur_grid(rng, p):
    """Integer rows whose pivot split mod p (the probe prime over Q) leaves
    a Schur block of rank 2 or 3 with free columns: a pivot row leading at
    column 0 and one leading further on, and rows that lead at 0 too but
    differ from +-the first by random combinations of 2 or 3 random rows."""
    draw = (lambda: rng.randrange(-p, p)) if p else (lambda: rng.randint(-9, 9))
    for _ in range(40):
        ncols = rng.randint(6, 9)
        first = [1] + [draw() for _ in range(ncols - 1)]
        lead = rng.randrange(1, ncols - 1)
        second = [0] * lead + [1] + [draw() for _ in range(ncols - lead - 1)]
        base = [[0] + [draw() for _ in range(ncols - 1)] for _ in range(rng.randint(2, 3))]
        rows = [first, second]
        for _ in range(len(base) + rng.randint(0, 2)):
            coeffs, sign = [rng.randint(-3, 3) for _ in base], rng.choice((1, -1))
            rows.append([sign * x + sum(k * b[c] for k, b in zip(coeffs, base)) for c, x in enumerate(first)])
        yield ncols, rows


def _back_substitutes_through_schur_rows(ncols, rows, p):
    """Whether the split of rows mod p (the probe prime over Q) has two
    Schur rows or more, one with a nonzero entry at a later Schur row's
    lead and one at a free column."""
    _, others, schur, leads = linalg._split(linalg.SparseRows.of(sparse_rows(rows), ncols), ncols, p or PROBE_PRIME)
    free_at = set(range(len(others))) - set(leads)
    return (
        len(leads) >= 2
        and any(schur[j, k] for j in range(len(leads)) for k in leads[j + 1 :])
        and any(schur[j, k] for j in range(len(leads)) for k in free_at)
    )


def test_rref_matches_gauss_jordan_oracle():
    """Every test field, the probe prime, 2^31 - 1 and two primes past the
    int64 path, and Q with numerators and denominators past 2^63; square,
    wide and tall shapes, zero rows, all zero, planted rank deficiency,
    0 x k and k x 0, the pivot split's grid (over Q taken at the lift's
    second prime and at the probe prime), and blocks whose kernel vectors
    come by back substitution through two Schur rows or more.  The kernel
    basis is checked on every one of them too."""
    rng = random.Random(79)
    huge = (2**63, -(2**63) - 1, 2**64 + 3, 10**20)
    fields = FIELDS + [make_field(p) for p in (PROBE_PRIME, 2**31 - 1, 2**31 + 11, 2**61 - 1)]
    for field in fields:
        p = field.characteristic
        if p:
            draws = (lambda: rng.randrange(-p, p), lambda: rng.choice((0, 0, 1, -1, 2)))
        else:
            big = lambda: rng.choice(huge) * rng.randint(-2, 2) + rng.randint(-9, 9)
            draws = (
                lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                lambda: Fraction(big(), rng.choice((1, 3, 2**64 + 3, 10**20))),
            )
        deficient = 0
        for draw in draws:
            for rows in _shaped_grid(rng, draw):
                deficient += _check_rref(Matrix.from_rows(field, rows))
        assert deficient >= 20
        for q in (p,) if p else (next(linalg._primes_below(PROBE_PRIME)), PROBE_PRIME):
            for ncols, rows in _split_grid(rng, q):
                _check_rref(Matrix.from_sparse(field, ncols, sparse_rows(rows)))
        through_schur = 0
        for ncols, rows in _schur_grid(rng, p):
            _check_rref(Matrix.from_sparse(field, ncols, sparse_rows(rows)))
            through_schur += _back_substitutes_through_schur_rows(ncols, rows, p)
        assert through_schur >= 6, (p, through_schur)
        for k in (0, 1, 3):
            _check_rref(Matrix.zero(field, 0, k))
            _check_rref(Matrix.zero(field, k, 0))


def test_rref_over_q_lifts_entries_past_one_prime(monkeypatch):
    """Entries whose numerators pass the reconstruction bound of one 31-bit
    prime come from residues combined over at least two primes."""
    moduli = []
    real_split = linalg._split

    def split_spy(rows, ncols, p):
        moduli.append(p)
        return real_split(rows, ncols, p)

    m = Matrix.from_rows(Q, [[72576216, 79460669, 3, 0], [5605858, 0, 1, 4674157]])
    monkeypatch.setattr(linalg, "_split", split_spy)
    got = rref(m)
    monkeypatch.undo()
    assert got == rref_reference(m)
    assert len(moduli) >= 2
    assert max(x.value.denominator for x in got[0].entries) > 2**16
