"""Shared randomized-input generators for the test suite.

Everything is driven by an explicit random.Random so failures reproduce;
tests pass their own seeds.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

from hypersect import FieldSpec, Matrix, Polynomial, Scalar, make_field
from hypersect.poly import monomial_basis

FIELDS = [make_field(0), make_field(2), make_field(3), make_field(5), make_field(7), make_field(101)]

PRIME_FIELDS = [f for f in FIELDS if f.is_prime_field]


def rand_scalar(rng: random.Random, field: FieldSpec) -> Scalar:
    if field.is_prime_field:
        return field.scalar(rng.randrange(field.characteristic))
    return field.scalar(Fraction(rng.randint(-8, 8), rng.randint(1, 5)))


def rand_nonzero_scalar(rng: random.Random, field: FieldSpec) -> Scalar:
    while True:
        s = rand_scalar(rng, field)
        if s:
            return s


def rand_homogeneous(
    rng: random.Random, field: FieldSpec, nvars: int, degree: int, max_terms: int = 6
) -> Polynomial:
    """Random homogeneous polynomial, possibly zero."""
    basis = monomial_basis(nvars, degree)
    terms = {}
    for m in rng.sample(basis, min(len(basis), rng.randint(1, max_terms))):
        terms[m] = rand_scalar(rng, field)
    return Polynomial.from_terms(field, nvars, terms)


def rand_nonzero_homogeneous(
    rng: random.Random, field: FieldSpec, nvars: int, degree: int, max_terms: int = 6
) -> Polynomial:
    while True:
        p = rand_homogeneous(rng, field, nvars, degree, max_terms)
        if not p.is_zero():
            return p


def rand_poly(
    rng: random.Random, field: FieldSpec, nvars: int, max_degree: int = 4, max_terms: int = 8
) -> Polynomial:
    """Random polynomial, not necessarily homogeneous, possibly zero."""
    out = Polynomial.zero(field, nvars)
    for _ in range(rng.randint(0, max_terms)):
        d = rng.randint(0, max_degree)
        m = rng.choice(monomial_basis(nvars, d))
        out = out + Polynomial.from_terms(field, nvars, {m: rand_scalar(rng, field)})
    return out


def rand_matrix(rng: random.Random, field: FieldSpec, rows: int, cols: int) -> Matrix:
    return Matrix.from_rows(
        field, [[rand_scalar(rng, field) for _ in range(cols)] for _ in range(rows)]
    )


def rand_invertible(rng: random.Random, field: FieldSpec, size: int) -> list[list[Scalar]]:
    """Rows of a random invertible matrix, by rejection."""
    from hypersect.linalg import rank

    while True:
        rows = [[rand_scalar(rng, field) for _ in range(size)] for _ in range(size)]
        if rank(Matrix.from_rows(field, rows)) == size:
            return rows


def in_span(vectors: list[list[Scalar]], candidate: list[Scalar], field: FieldSpec) -> bool:
    """Whether candidate lies in the row span of vectors."""
    from hypersect.linalg import rank

    if not vectors:
        return all(not c for c in candidate)
    base = Matrix.from_rows(field, vectors)
    extended = Matrix.from_rows(field, vectors + [candidate])
    return rank(base) == rank(extended)


def macaulay_rows_reference(generators: list[Polynomial], degree: int):
    """Every degree-t monomial multiple of every nonzero generator.

    Integer rows over the grlex-descending monomial basis, denominators
    cleared per generator, nothing pruned.  Returns (basis, rows).
    """
    live = [g for g in generators if not g.is_zero()]
    basis = monomial_basis(live[0].nvars, degree)
    index = {m: i for i, m in enumerate(basis)}
    rows = []
    for g in live:
        e = g.degree()
        scale = lcm(*(c.value.denominator for c in g.terms.values()))
        for m in monomial_basis(g.nvars, degree - e):
            row = [0] * len(basis)
            for mono, c in g.terms.items():
                row[index[tuple(a + b for a, b in zip(m, mono))]] = int(c.value * scale)
            rows.append(row)
    return basis, rows


def mat_vec(m: Matrix, v: list[Scalar]) -> list[Scalar]:
    """m v over the matrix field."""
    if len(v) != m.cols:
        raise ValueError("length mismatch")
    out = []
    for i in range(m.rows):
        acc = m.field.zero()
        for x, y in zip(m.row(i), v):
            if x and y:
                acc = acc + x * y
        out.append(acc)
    return out


def rank_int_exact(rows: list[list[int]]) -> int:
    """Exact rank over Q of an integer matrix, fraction-free elimination.

    The oracle for linalg.rank_q_certified.  Row contents are stripped by
    gcd after each update to keep entries small.
    """
    a = [list(row) for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        piv = a[r]
        pc = piv[c]
        for i in range(r + 1, nrows):
            f = a[i][c]
            if not f:
                continue
            g = gcd(pc, f)
            m1, m2 = pc // g, f // g
            row = [m1 * x - m2 * y for x, y in zip(a[i], piv)]
            content = 0
            for x in row:
                content = gcd(content, x)
                if content == 1:
                    break
            if content > 1:
                row = [x // content for x in row]
            a[i] = row
        r += 1
    return r
