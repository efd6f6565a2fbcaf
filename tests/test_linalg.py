"""Exact linear algebra: row reduction, rank, kernels, inverses."""

import random

import pytest

from hypersect import Matrix, SingularMatrix, invert, kernel_basis, make_field, rank, rref
from hypersect.linalg import PROBE_PRIME, mat_vec, rank_int_exact, rank_mod_p_int
from helpers import FIELDS, in_span, rand_invertible, rand_matrix, rand_scalar

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
                [
                    sum((left[i][k] * right[k][j] for k in range(r)), field.zero())
                    for j in range(n)
                ]
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
            scaled = [[s * x for x in permuted[0]]] + permuted[1:]
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
            [
                sum((m.at(i, k) * assert_identity.at(k, j) for k in range(3)), field.zero())
                for j in range(3)
            ]
            for i in range(3)
        ]
        assert Matrix.from_rows(field, product) == Matrix.identity(field, 3)


def test_invert_rejects_singular():
    with pytest.raises(SingularMatrix):
        invert(Matrix.from_rows(Q, [[1, 2], [2, 4]]))
    with pytest.raises(SingularMatrix):
        invert(Matrix.zero(Q, 2, 2))


def test_integer_rank_helpers_agree_with_matrix_rank():
    rng = random.Random(71)
    for _ in range(80):
        rows = [[rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] for _ in range(rng.randint(1, 4))]
        width = max(len(r) for r in rows)
        rows = [r + [0] * (width - len(r)) for r in rows]
        assert rank_int_exact(rows) == rank(Matrix.from_rows(Q, rows))
        for p in (2, 3, 5, 101):
            fp = make_field(p)
            assert rank_mod_p_int(rows, p) == rank(Matrix.from_rows(fp, rows))


def test_rational_rank_matches_large_prime_probe():
    # entries are single digits and matrices tiny, so every nonzero minor
    # stays far below the probe modulus and the modular rank is exact
    rng = random.Random(72)
    big = 2_147_483_647
    for _ in range(120):
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        assert rank_int_exact(rows) == rank_mod_p_int(rows, big)


def _planted_rows(rng, ncols, draw):
    """Random rows from draw() plus small integer combinations of them."""
    base = [[draw() for _ in range(ncols)] for _ in range(rng.randint(1, 4))]
    extra = [
        [sum(rng.randint(-3, 3) * row[c] for row in base) for c in range(ncols)]
        for _ in range(rng.randint(0, 3))
    ]
    rows = base + extra
    rng.shuffle(rows)
    return rows


def test_rank_mod_large_prime_uses_python_path():
    """From 2^31 up rank_mod_p_int eliminates Python ints in an object
    array; checked against the Scalar rank over F_p, with and without
    stop_at, just past the int64 limit and at a 61-bit prime."""
    rng = random.Random(73)
    for p in (2**31 + 11, 2**61 - 1):
        fp = make_field(p)
        for _ in range(30):
            ncols = rng.randint(1, 6)
            rows = _planted_rows(rng, ncols, lambda: rng.randrange(-p, p))
            expected = rank(Matrix.from_rows(fp, rows))
            assert rank_mod_p_int(rows, p) == expected
            for stop_at in range(1, ncols + 1):
                assert rank_mod_p_int(rows, p, stop_at=stop_at) == min(expected, stop_at)


def test_rank_mod_p_entries_beyond_int64():
    """Entries at and past +-2^63 do not fit the int64 array; they are
    reduced mod p first and the rank matches the Scalar rank over F_p."""
    rng = random.Random(74)
    huge = (2**63, -(2**63) - 1, 10**20, -(10**40), 3 * PROBE_PRIME * 2**64)
    for p in (3, 101, PROBE_PRIME):
        fp = make_field(p)
        for _ in range(30):
            ncols = rng.randint(1, 5)
            draw = lambda: rng.choice(huge) * rng.randint(-2, 2) + rng.randint(-9, 9)
            rows = _planted_rows(rng, ncols, draw)
            rows[0][0] = rng.choice(huge)
            expected = rank(Matrix.from_rows(fp, rows))
            assert rank_mod_p_int(rows, p) == expected
            assert rank_mod_p_int(rows, p, stop_at=1) == min(expected, 1)
