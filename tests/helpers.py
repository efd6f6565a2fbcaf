"""Shared randomized-input generators for the test suite.

Everything is driven by an explicit random.Random so failures reproduce;
tests pass their own seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from hypersect import ArityMismatch, FieldSpec, Matrix, NotHomogeneous, Polynomial, Scalar, make_field
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


def sparse_rows(dense: list[list[int]]) -> list[list[tuple[int, int]]]:
    """Dense integer rows as sparse rows: (column, value) for each nonzero entry."""
    return [[(c, x) for c, x in enumerate(row) if x] for row in dense]


def dense_rows(rows: list[list[tuple[int, int]]], ncols: int) -> list[list[int]]:
    """Sparse integer rows as dense rows of length ncols."""
    out = [[0] * ncols for _ in rows]
    for dense, row in zip(out, rows):
        for c, x in row:
            dense[c] = x
    return out


def rank_mod_p_dense(rows: list[list[int]], p: int, stop_at: int | None = None) -> int:
    """Rank mod p of dense integer rows, all of them eliminated in one array
    by the column loop (int64 below 2^31, Python ints above), stopping once
    the rank reaches stop_at.  The oracle for the pivot split of
    linalg.rank_mod_p_int."""
    from hypersect.linalg import _eliminate

    if not rows:
        return 0
    residues = [[x % p for x in row] for row in rows]
    a = np.array(residues, dtype=np.int64 if p < 2**31 else object)
    return len(_eliminate(a, p, stop_at))


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


def rref_reference(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot columns by Gauss-Jordan on Scalars.

    The oracle for linalg.rref and the mod-p column loop.  Scans columns
    left to right and picks the first nonzero entry at or below the
    working row as pivot.
    """
    a = [list(m.row(i)) for i in range(m.rows)]
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = a[r][c].inv()
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    flat = [x for row in a for x in row]
    return Matrix(m.field, nrows, ncols, flat), pivots


def kernel_reference(m: Matrix) -> list[list[Scalar]]:
    """Right kernel basis read off rref_reference: one vector per free
    column, ascending, scaled to leading entry 1.  The oracle for
    linalg.kernel_basis."""
    red, pivots = rref_reference(m)
    zero, one = m.field.zero(), m.field.one()
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = [zero] * m.cols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red.at(r, fc)
        inv = next(x for x in v if x).inv()
        basis.append([x * inv for x in v])
    return basis


def criterion_kernel_reference(f: Polynomial, hyperplane, t_max=None):
    """variation.criterion_kernel through the Scalar graded piece.

    Reduces x_i*q by the degree-d piece of the section's full Jacobian
    ideal (f kept) with GradedPiece.reduce and reads the kernel of the
    residual columns off kernel_reference.  The oracle for the integer
    Macaulay matrix path.
    """
    from hypersect.jacobian import ideal_graded_dim, is_smooth, jacobian_generators
    from hypersect.poly import linear_form, set_var_zero
    from hypersect.variation import (
        CriterionReport,
        CriterionStatus,
        _check_criterion_domain,
        criterion_form,
        normalize_hyperplane,
    )

    d, n = _check_criterion_domain(f)
    normalized = normalize_hyperplane(f, hyperplane)
    section = set_var_zero(normalized, 0)
    if section.is_zero() or not is_smooth(section, t_max=t_max):
        return CriterionReport(hyperplane, CriterionStatus.SINGULAR_SECTION)
    q = criterion_form(normalized)
    if q.is_zero():
        return CriterionReport(hyperplane, CriterionStatus.VACUOUS, criterion_form=q)
    piece = ideal_graded_dim(jacobian_generators(section), d)
    residuals = [piece.reduce(q * Polynomial.variable(f.field, n, i)) for i in range(n)]
    columns = Matrix.from_rows(
        f.field, [[residuals[i][r] for i in range(n)] for r in range(len(piece.basis))]
    )
    kernel = [linear_form(f.field, v) for v in kernel_reference(columns)]
    return CriterionReport(
        hyperplane,
        CriterionStatus.COMPUTED,
        criterion_form=q,
        kernel_basis=kernel,
        kernel_dim=len(kernel),
        graded_ideal_dim=piece.dimension,
    )


def is_smooth_reference(f: Polynomial, t_max: int | None = None) -> bool:
    """jacobian.is_smooth as a walk that confirms both degrees of a pair.

    Probes the CI degree mod jacobian.PROBE_PRIME (read at call time), scans
    rational points, then walks h_t.  Over Q a Gotzmann pair h_{t-1} = h_t
    is confirmed by exact ranks at t-1 and at t, and the cap by an exact
    rank at the cap.  The oracle for the one-exact-rank walk.
    """
    from hypersect import jacobian, linalg
    from hypersect.jacobian import (
        _macaulay_rows,
        _rational_singular_point,
        _spanning_generators,
        default_degree_cap,
    )
    from hypersect.poly import dimension_of_degree, require_homogeneous

    def rank_q(rows, cols, probe_rank):
        return probe_rank if probe_rank == len(rows) else linalg.rank_q_certified(rows, cols)

    d = require_homogeneous(f, 1, "hypersurface form")
    if f.nvars < 2:
        raise NotHomogeneous("need at least two variables for a projective hypersurface")
    n = f.nvars - 1
    if t_max is not None:
        cap = t_max
        if cap < 0:
            return False
    else:
        cap = max(default_degree_cap(f.nvars, d), 0)
    p = f.field.characteristic
    gens = _spanning_generators(f)
    if not gens:
        return False
    probe = p or jacobian.PROBE_PRIME
    expected_full = max((n + 1) * (d - 2) + 1, d - 1, 0)
    probed = None
    if expected_full <= cap:
        basis, rows = _macaulay_rows(gens, expected_full)
        rank = None
        if len(rows) >= len(basis):
            rank = linalg.rank_mod_p_int(rows, probe, stop_at=len(basis))
        probed = basis, rows, rank
        if rank == len(basis):
            return True
    if f.field.is_prime_field and _rational_singular_point(gens, f.field, f.nvars):
        return False
    h_prev = rows_prev = rank_prev = h_exact_prev = None
    for t in range(max(d - 1, 0), cap + 1):
        if t == expected_full and probed is not None:
            basis, rows, rank = probed
        else:
            (basis, rows), rank = _macaulay_rows(gens, t), None
        if rank is None:
            rank = linalg.rank_mod_p_int(rows, probe) if rows else 0
        h = len(basis) - rank
        if h == 0:
            return True
        h_exact = None
        if h_prev == h and h <= t - 1 and t - 1 >= d:
            if p:
                return False
            if h_exact_prev is None:
                cols_prev = dimension_of_degree(f.nvars, t - 1)
                h_exact_prev = cols_prev - rank_q(rows_prev, cols_prev, rank_prev)
            h_exact = len(basis) - rank_q(rows, len(basis), rank)
            if h_exact_prev == 0 or h_exact == 0:
                return True
            if h_exact_prev == h_exact:
                return False
        h_prev, rows_prev, rank_prev, h_exact_prev = h, rows, rank, h_exact
    if p or rows_prev is None or h_exact_prev is not None:
        return False
    cols = dimension_of_degree(f.nvars, cap)
    return rank_q(rows_prev, cols, rank_prev) == cols


@dataclass
class _Dual:
    """a + eps*b with eps^2 = 0, components polynomials in the section ring."""

    a: Polynomial
    b: Polynomial

    def __add__(self, other: "_Dual") -> "_Dual":
        return _Dual(self.a + other.a, self.b + other.b)

    def __mul__(self, other: "_Dual") -> "_Dual":
        # the a*b' + a'*b cross terms survive; eps^2 truncates b*b'
        return _Dual(self.a * other.a, self.a * other.b + self.b * other.a)

    def __pow__(self, e: int) -> "_Dual":
        out = _Dual(
            Polynomial.constant(self.a.field, self.a.nvars, 1),
            Polynomial.zero(self.a.field, self.a.nvars),
        )
        for _ in range(e):
            out = out * self
        return out


def first_order_section(f: Polynomial, direction: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Restrict f to the moving hyperplane x0 = eps*direction, eps^2 = 0.

    `direction` is a linear form in the section variables (one fewer than
    f).  Returns (g, h) with f(eps*direction, x) = g + eps*h: g is the
    restriction of f to x0 = 0 and h equals the x0-partial of f restricted
    to x0 = 0 times the direction.
    """
    if direction.nvars != f.nvars - 1:
        raise ArityMismatch(
            f"direction must use {f.nvars - 1} section variables, has {direction.nvars}"
        )
    if direction and not direction.is_homogeneous(1):
        raise NotHomogeneous("direction must be a linear form")
    n = f.nvars - 1
    field = f.field
    zero = Polynomial.zero(field, n)
    subs = [_Dual(zero, direction)]
    for i in range(n):
        subs.append(_Dual(Polynomial.variable(field, n, i), zero))
    acc = _Dual(zero, zero)
    for m, c in f.terms.items():
        term = _Dual(Polynomial.constant(field, n, c), zero)
        for i, e in enumerate(m):
            if e:
                term = term * subs[i] ** e
        acc = acc + term
    return acc.a, acc.b
