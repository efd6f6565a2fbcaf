"""Shared randomized-input generators for the test suite.

Everything is driven by an explicit random.Random so failures reproduce;
tests pass their own seeds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from hypersect import (
    ArityMismatch,
    FieldMismatch,
    FieldSpec,
    IndexOutOfRange,
    InhomogeneousGenerator,
    LinearChange,
    NotHomogeneous,
    Polynomial,
    Scalar,
    SingularMatrix,
    make_field,
)
from hypersect import linalg
from hypersect.poly import (
    grlex_key,
    linear_coefficients,
    linear_form,
    monomial_basis,
    partial_derivative,
    require_homogeneous,
    substitute_linear,
)

FIELDS = [make_field(0), make_field(2), make_field(3), make_field(5), make_field(7), make_field(101)]

PRIME_FIELDS = [f for f in FIELDS if f.is_prime_field]


# -- the Scalar matrix layer: dense matrices of Scalars, edge adapters over
# linalg.integer_kernel, so the tests that use them exercise the engine ----


class Matrix:
    """Dense row-major matrix of Scalars over one field."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: FieldSpec, rows: int, cols: int, entries: list[Scalar]):
        if len(entries) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(entries)}")
        for e in entries:
            if e.field != field:
                raise FieldMismatch("matrix entries must share the matrix field")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, field: FieldSpec, row_lists) -> "Matrix":
        rows = [[field.scalar(x) for x in row] for row in row_lists]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        flat = [x for row in rows for x in row]
        return cls(field, len(rows), ncols, flat)

    @classmethod
    def from_sparse(cls, field: FieldSpec, cols: int, rows: list[linalg.Row]) -> "Matrix":
        """The matrix with the given column count of sparse integer rows."""
        entries = [field.zero()] * (len(rows) * cols)
        for i, row in enumerate(rows):
            for c, x in row:
                entries[i * cols + c] = field.scalar(x)
        return cls(field, len(rows), cols, entries)

    @classmethod
    def zero(cls, field: FieldSpec, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return cls(field, rows, cols, [z] * (rows * cols))

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        m = cls.zero(field, n, n)
        for i in range(n):
            m.entries[i * n + i] = field.one()
        return m

    def at(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list[Scalar]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_lists(self) -> list[list[Scalar]]:
        return [self.row(i) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.field}, {self.rows}x{self.cols}: {body})"


def _integer_rows(m: Matrix) -> list[linalg.Row]:
    """The rows of m as sparse integer rows, each scaled by the lcm of its
    denominators (1 over F_p)."""
    out = []
    for row in m.row_lists():
        scale = lcm(*(x.value.denominator for x in row))
        out.append([(c, x.value.numerator * (scale // x.value.denominator)) for c, x in enumerate(row) if x])
    return out


def _leading_one(field: FieldSpec, entries: list) -> list[Scalar]:
    """The entries (ints or Fractions) as Scalars, scaled so the first
    nonzero one is 1."""
    lead = next(x for x in entries if x)
    return [field.scalar(Fraction(x, lead)) for x in entries]


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns, read off
    linalg.integer_kernel.

    Entry (i, fc) is -v[p_i] / v[fc] for the kernel vector v of free column
    fc and the i-th pivot p_i.  Over F_p, v is minus that column of the
    reduced form.  Over Q, v is zero at the pivots after fc (a zero residue
    lifts to 0), so the matrix R so read is reduced; its rows annihilate
    every v, which span the kernel, so its r rows span the row space, of
    rank r.  A row space has one reduced form: this is the Gauss-Jordan one.
    """
    field, nrows, ncols = m.field, m.rows, m.cols
    if not (nrows and ncols):
        return Matrix(field, nrows, ncols, []), []
    pivots, free, vectors = linalg.integer_kernel(_integer_rows(m), ncols, field.characteristic)
    zero, one = field.zero(), field.one()
    entries = [zero] * (nrows * ncols)
    for i, pc in enumerate(pivots):
        entries[i * ncols + pc] = one
    for fc, v in zip(free, vectors):
        for i, pc in enumerate(pivots):
            if x := v.get(pc):
                entries[i * ncols + fc] = field.scalar(Fraction(-x, v[fc]))
    return Matrix(field, nrows, ncols, entries), pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Matrix) -> list[list[Scalar]]:
    """Basis of the right kernel {v : m v = 0}: the vectors of
    linalg.integer_kernel, one per free column in ascending order, leading
    (lowest-index) entry 1."""
    _, _, vectors = linalg.integer_kernel(_integer_rows(m), m.cols, m.field.characteristic)
    return [_leading_one(m.field, [v.get(c, 0) for c in range(m.cols)]) for v in vectors]


def invert(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises SingularMatrix when rank drops."""
    if m.rows != m.cols:
        raise SingularMatrix(f"cannot invert a {m.rows}x{m.cols} matrix")
    n = m.rows
    ident = Matrix.identity(m.field, n)
    red, pivots = rref(Matrix.from_rows(m.field, [m.row(i) + ident.row(i) for i in range(n)]))
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is not invertible")
    return Matrix.from_rows(m.field, [red.row(i)[n:] for i in range(n)])


def identity_change(field: FieldSpec, nvars: int) -> LinearChange:
    return LinearChange(field, Matrix.identity(field, nvars).row_lists())


def inverse_change(change: LinearChange) -> LinearChange:
    """The LinearChange undoing change: the inverse of its coefficient rows."""
    field = change[0].field
    m = Matrix.from_rows(field, [linear_coefficients(g) for g in change])
    return LinearChange(field, invert(m).row_lists())


def euler_check(f: Polynomial) -> bool:
    """Verify sum_i x_i * df/dx_i = d * f with d reduced into the field.

    This is a formal identity in every characteristic, so it doubles as a
    self-test of the derivative code.
    """
    d = require_homogeneous(f, 1, "hypersurface form")
    total = Polynomial.zero(f.field, f.nvars)
    for i in range(f.nvars):
        total = total + Polynomial.variable(f.field, f.nvars, i) * partial_derivative(f, i)
    return total == f.scale(f.field.scalar(d))


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


# -- raw-value polynomials: dicts from exponent tuples to Fractions (p = 0)
# or residues in [0, p), built without Scalars or hypersect.poly; the
# reference for the term accumulator -----------------------------------------


def rand_raw_value(rng: random.Random, p: int):
    """A random residue mod p, or a small Fraction when p = 0; may be 0."""
    return rng.randrange(p) if p else Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def rand_raw_pairs(rng: random.Random, p: int, nvars: int, max_terms: int = 6) -> list:
    """Random (monomial, value) pairs; monomials may repeat, values be 0."""
    return [
        (tuple(rng.randint(0, 2) for _ in range(nvars)), rand_raw_value(rng, p))
        for _ in range(rng.randint(0, max_terms))
    ]


def raw_collect(pairs, p: int) -> dict:
    """Sum the values per monomial, reduce mod p when p, keep the nonzero."""
    sums: dict = {}
    for m, c in pairs:
        sums[m] = sums.get(m, 0) + c
    reduced = {m: c % p if p else c for m, c in sums.items()}
    return {m: c for m, c in reduced.items() if c != 0}


def raw_mul(a: dict, b: dict, p: int) -> dict:
    pairs = (
        (tuple(x + y for x, y in zip(ma, mb)), ca * cb)
        for ma, ca in a.items()
        for mb, cb in b.items()
    )
    return raw_collect(pairs, p)


def raw_pow(a: dict, e: int, nvars: int, p: int) -> dict:
    out = {(0,) * nvars: 1}
    for _ in range(e):
        out = raw_mul(out, a, p)
    return out


def raw_partial(a: dict, index: int, p: int) -> dict:
    pairs = ((m[:index] + (m[index] - 1,) + m[index + 1 :], c * m[index]) for m, c in a.items() if m[index])
    return raw_collect(pairs, p)


def raw_substitute(a: dict, images: list[dict], nvars: int, p: int) -> dict:
    """a with x_i replaced by images[i], raw polynomials in nvars variables."""
    pairs = []
    for m, c in a.items():
        term = {(0,) * nvars: c}
        for image, e in zip(images, m):
            term = raw_mul(term, raw_pow(image, e, nvars, p), p)
        pairs.extend(term.items())
    return raw_collect(pairs, p)


def rand_matrix(rng: random.Random, field: FieldSpec, rows: int, cols: int) -> Matrix:
    return Matrix.from_rows(
        field, [[rand_scalar(rng, field) for _ in range(cols)] for _ in range(rows)]
    )


def rand_invertible(rng: random.Random, field: FieldSpec, size: int) -> list[list[Scalar]]:
    """Rows of a random invertible matrix, by rejection."""
    while True:
        rows = [[rand_scalar(rng, field) for _ in range(size)] for _ in range(size)]
        if rank(Matrix.from_rows(field, rows)) == size:
            return rows


def in_span(vectors: list[list[Scalar]], candidate: list[Scalar], field: FieldSpec) -> bool:
    """Whether candidate lies in the row span of vectors."""
    if not vectors:
        return all(not c for c in candidate)
    base = Matrix.from_rows(field, vectors)
    extended = Matrix.from_rows(field, vectors + [candidate])
    return rank(base) == rank(extended)


def macaulay_rows_reference(generators: list[Polynomial], degree: int):
    """Degree-t basis and pruned sparse rows, one tuple of exponents at a time.

    The oracle for jacobian._macaulay_rows, which builds the same rows in
    numpy: row m*g_i for every multiplier m of every nonzero generator,
    denominators cleared, columns found in a dict of the basis, skipped
    when the grlex leading term of an earlier generator divides m.
    Returns (basis, rows).
    """
    nvars = generators[0].nvars
    basis = monomial_basis(nvars, degree)
    index = {m: i for i, m in enumerate(basis)}
    rows = []
    leads = []
    for g in generators:
        if g.is_zero():
            continue
        e = g.degree()
        if not g.is_homogeneous(e):
            raise InhomogeneousGenerator(f"generator {g} is not homogeneous")
        if e <= degree:
            scale = lcm(*(c.value.denominator for c in g.terms.values()))
            monos = sorted(g.terms, key=grlex_key, reverse=True)
            coeffs = [(mono, int(g.terms[mono].value * scale)) for mono in monos]
            for m in monomial_basis(nvars, degree - e):
                if any(all(a >= b for a, b in zip(m, lt)) for lt in leads):
                    continue
                rows.append([(index[tuple(a + b for a, b in zip(m, mono))], c) for mono, c in coeffs])
        leads.append(max(g.terms, key=grlex_key))
    return basis, rows


def unpruned_rows_reference(generators: list[Polynomial], degree: int):
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
    by the column loop (int64 below 2^31, Python ints above), then capped at
    stop_at, 0 when stop_at <= 0.  The oracle for the pivot split of
    linalg.rank_mod_p_int."""
    from hypersect.linalg import _eliminate

    if not rows:
        return 0
    residues = [[x % p for x in row] for row in rows]
    rank = len(_eliminate(np.array(residues, dtype=np.int64 if p < 2**31 else object), p))
    return rank if stop_at is None else max(min(rank, stop_at), 0)


def split_reference(rows: list[linalg.Row], ncols: int, p: int):
    """linalg._split with its pivots applied one at a time: the oracle for
    the level-scheduled clearing.

    The same pivot choice: the rows of residues sorted by (lead, length),
    stably, the first row of each lead its pivot and the others in the
    sort's order.  Then for each pivot column in ascending order one
    update of the dense block by the multiples of its pivot row, lead
    included, delaying % p as linalg._delays allows; the Schur complement
    goes through the same linalg._eliminate.  Returns the same
    (pivots, others, schur, leads), the pivot rows and the non-pivot
    columns as lists.
    """
    dtype = np.int64 if p < 2**31 else object
    residues = [[(c, x % p) for c, x in row if x % p] for row in rows]
    pivots: dict[int, linalg.Row] = {}
    rest = []
    for row in sorted(filter(None, residues), key=lambda row: (row[0][0], len(row))):
        if pivots.setdefault(row[0][0], row) is not row:
            rest.append(row)
    others = [c for c in range(ncols) if c not in pivots]
    if not (rest and others):
        return [pivots[c] for c in sorted(pivots)], others, np.zeros((0, len(others)), dtype=dtype), []
    block = np.zeros((len(rest), ncols), dtype=dtype)
    for i, row in enumerate(rest):
        for c, x in row:
            block[i, c] = x
    delay = linalg._delays(block, p)
    for c in sorted(pivots):
        column = block[:, c] % p if delay else block[:, c]
        hit = column.nonzero()[0]
        if hit.size:
            cols, values = zip(*pivots[c])
            factors = column[hit] * pow(values[0], -1, p) % p
            update = factors[:, None] * np.array(values, dtype=dtype)
            at = hit[:, None], list(cols)
            if delay:
                block[at] -= update
            else:
                block[at] = (block[at] - update) % p
    schur = np.ascontiguousarray(block[:, others]) % p
    return [pivots[c] for c in sorted(pivots)], others, schur, linalg._eliminate(schur, p)


def back_substitute_reference(rows: list[linalg.Row], ncols: int, p: int):
    """linalg.integer_kernel mod a prime p with its sparse pivot rows
    back-substituted one at a time, last pivot first: the oracle for the
    level-scheduled back substitution.

    The same split (linalg._split) and the same Schur rows loop, then for
    each sparse pivot row, leads descending, the value at its lead is
    minus its tail times the vector, divided by its lead entry, each
    product reduced before the sum.  Returns the same (pivots, free,
    vectors).
    """
    pivot_rows, others, schur, leads = linalg._split(linalg.SparseRows.of(rows, ncols), ncols, p)
    lead = pivot_rows.cols[pivot_rows.starts]
    pivots = sorted([*lead.tolist(), *others[leads].tolist()])
    free_at = sorted(set(range(len(others))) - set(leads))
    if not free_at:
        return pivots, [], []
    free = others[free_at].tolist()
    w = np.zeros((len(others), len(free)), dtype=schur.dtype)
    w[free_at, np.arange(len(free))] = 1
    for j in reversed(range(len(leads))):
        k = leads[j]
        w[k] = -(schur[j, k + 1 :, None] * w[k + 1 :] % p).sum(0) % p
    v = np.zeros((ncols, len(free)), dtype=schur.dtype)
    v[others] = w
    cols, values, ends = pivot_rows.cols, pivot_rows.values, (pivot_rows.starts + pivot_rows.lengths).tolist()
    for c, start, end in reversed(list(zip(lead.tolist(), pivot_rows.starts.tolist(), ends))):
        if end - start > 1:
            total = (values[start + 1 : end, None] * v[cols[start + 1 : end]] % p).sum(0) % p
            v[c] = -total * pow(int(values[start]), -1, p) % p
    block = v[pivots]
    return pivots, free, [
        {fc: 1} | {pivots[i]: int(block[i, k]) for i in np.flatnonzero(block[:, k]).tolist()}
        for k, fc in enumerate(free)
    ]


def split_pivots(split) -> list[int]:
    """The pivot columns of a linalg._split result, ascending: the leads of
    its pivot rows and the Schur pivots."""
    pivots, others, _, leads = split
    return sorted([row[0][0] for row in pivots] + [int(others[j]) for j in leads])


def mat_vec(m: Matrix, v: list[Scalar]) -> list[Scalar]:
    """m v over the matrix field, summed on values and reduced once."""
    if len(v) != m.cols:
        raise ValueError("length mismatch")
    return [m.field.scalar(sum(x.value * y.value for x, y in zip(m.row(i), v))) for i in range(m.rows)]


def rank_int_exact(rows: list[list[int]]) -> int:
    """Exact rank over Q of an integer matrix, fraction-free elimination.

    The oracle for the exact rank over Q, linalg.rank_mod_p_int(rows, 0).
    Row contents are stripped by gcd after each update to keep entries
    small.
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
    """Reduced row echelon form and pivot columns by Gauss-Jordan on the
    entries' values, each result reduced by FieldSpec.scalar.

    The oracle for linalg.rref and the mod-p column loop.  Scans columns
    left to right and picks the first nonzero entry at or below the
    working row as pivot.
    """
    field = m.field
    a = [[x.value for x in m.row(i)] for i in range(m.rows)]
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
        lead = a[r][c]
        a[r] = [field.scalar(Fraction(x, lead)).value for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [field.scalar(x - f * y).value for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    flat = [field.scalar(x) for row in a for x in row]
    return Matrix(field, nrows, ncols, flat), pivots


def kernel_reference(m: Matrix) -> list[list[Scalar]]:
    """Right kernel basis read off rref_reference: one vector per free
    column, ascending, scaled to leading entry 1.  The oracle for
    linalg.kernel_basis."""
    red, pivots = rref_reference(m)
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = [0] * m.cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -red.at(r, fc).value
        basis.append(_leading_one(m.field, v))
    return basis


@dataclass
class GradedPiece:
    """Degree-t piece of a homogeneous ideal inside the space of t-forms, in
    Scalars: the oracle for reduction modulo a graded piece.

    `basis` lists the degree-t monomials (grlex descending); they index the
    columns of `span_matrix`, whose rows span the piece.  `_reduced` and
    `_pivots` are rref_reference of it, which depend on the span alone and
    so fix every `reduce` residual; `dimension` is the pivot count.
    """

    degree: int
    basis: list[tuple[int, ...]]
    span_matrix: Matrix
    dimension: int
    _reduced: Matrix
    _pivots: list[int]

    @classmethod
    def of_rows(cls, field: FieldSpec, degree: int, basis, rows: list[linalg.Row]) -> "GradedPiece":
        matrix = Matrix.from_sparse(field, len(basis), rows)
        reduced, pivots = rref_reference(matrix)
        return cls(degree, basis, matrix, len(pivots), reduced, pivots)

    def reduce(self, p: Polynomial) -> list[Scalar]:
        """Residual of a degree-t form after reduction by the piece: the
        coefficient vector of p less its projection onto the row span,
        zero exactly when p lies in the piece."""
        field = self.span_matrix.field
        if p.field != field:
            raise FieldMismatch(f"form over {p.field} reduced by a piece over {field}")
        if self.basis and len(self.basis[0]) != p.nvars:
            raise ArityMismatch(f"form has {p.nvars} variables, piece has {len(self.basis[0])}")
        if p and not p.is_homogeneous(self.degree):
            raise NotHomogeneous(f"expected a form of degree {self.degree}")
        index = {m: i for i, m in enumerate(self.basis)}
        v = [0] * len(self.basis)
        for m, c in p.terms.items():
            v[index[m]] = c.value
        for r, pc in enumerate(self._pivots):
            if f := v[pc]:
                v = [field.scalar(x - f * y.value).value for x, y in zip(v, self._reduced.row(r))]
        return [field.scalar(x) for x in v]

    def contains(self, p: Polynomial) -> bool:
        return not any(self.reduce(p))


def graded_piece(generators: list[Polynomial], degree: int) -> GradedPiece:
    """The degree-t piece of the ideal of nonzero homogeneous generators,
    on the pruned rows of jacobian._macaulay_rows, reduced by rref_reference:
    the Scalar companion of jacobian.ideal_graded_dim."""
    from hypersect.jacobian import _macaulay_rows

    live = [g for g in generators if not g.is_zero()]
    rows = _macaulay_rows([g.numerators for g in live], degree)
    return GradedPiece.of_rows(live[0].field, degree, monomial_basis(live[0].nvars, degree), rows)


# -- the normalize path: the section and criterion form through a full
# change of variables in the ambient ring, the reference for
# Hyperplane.restrict ----------------------------------------------------


def embed_shift(p: Polynomial, nvars: int, shift: int) -> Polynomial:
    """View p inside a larger ring, moving variable i to i+shift."""
    if shift < 0 or p.nvars + shift > nvars:
        raise ArityMismatch(f"cannot shift {p.nvars} variables by {shift} into {nvars}")
    pad_left = (0,) * shift
    pad_right = (0,) * (nvars - p.nvars - shift)
    terms = {pad_left + m + pad_right: c for m, c in p.terms.items()}
    return Polynomial.from_terms(p.field, nvars, terms)


def set_var_zero(p: Polynomial, index: int) -> Polynomial:
    """Restrict to the coordinate hyperplane x_index = 0.

    Monomials containing x_index are dropped; remaining variables are
    reindexed densely, so the result lives in nvars-1 variables.  Its own
    copy, so the normalize path shares no code with Hyperplane.restrict.
    """
    if not 0 <= index < p.nvars:
        raise IndexOutOfRange(f"variable index {index} outside 0..{p.nvars - 1}")
    terms = {}
    for m, c in p.terms.items():
        if m[index]:
            continue
        terms[m[:index] + m[index + 1 :]] = c
    return Polynomial.from_terms(p.field, p.nvars - 1, terms)


def normalize_hyperplane(f: Polynomial, hyperplane) -> Polynomial:
    """Rewrite f through a linear change taking {x0 = 0} onto the hyperplane.

    The change swaps x0 with the pivot variable and shears the remaining
    coefficients away, so the returned form has the given hyperplane as its
    x0 = 0 section.  A permutation times a unit shear is invertible by
    construction, so the variables' images are substituted directly,
    without a LinearChange and its rank check.
    """
    if hyperplane.nvars != f.nvars:
        raise ArityMismatch(
            f"hyperplane on {hyperplane.nvars} variables, form has {f.nvars}"
        )
    field = f.field
    nv = f.nvars
    coeffs = hyperplane.coefficients()
    j = hyperplane.pivot
    rows = [[0] * nv for _ in range(nv)]
    for i in range(nv):
        if i == j:
            continue
        slot = j if i == 0 else i
        rows[i][slot] = 1
        rows[j][slot] = -coeffs[i].value
    rows[j][0] = 1
    return substitute_linear(f, [linear_form(field, row) for row in rows])


def criterion_form(f_normalized: Polynomial) -> Polynomial:
    """x0-partial of the normalized form, restricted to x0 = 0.

    Degree d-1 in the n section variables; zero exactly on vacuous
    hyperplanes, where first-order data says nothing.
    """
    return set_var_zero(partial_derivative(f_normalized, 0), 0)


def criterion_kernel_reference(f: Polynomial, hyperplane, t_max=None):
    """variation.criterion_kernel through the Scalar graded piece.

    Reduces x_i*q by the degree-d piece of the section's full Jacobian
    ideal (f kept) with GradedPiece.reduce and reads the kernel of the
    residual columns off kernel_reference: Fraction Gauss-Jordan alone,
    so no linalg.integer_kernel runs outside is_smooth.  The oracle for
    the integer Macaulay matrix path.
    """
    from hypersect.jacobian import is_smooth, jacobian_generators
    from hypersect.variation import CriterionReport, CriterionStatus, _check_criterion_domain

    d, n = _check_criterion_domain(f)
    normalized = normalize_hyperplane(f, hyperplane)
    section = set_var_zero(normalized, 0)
    if section.is_zero() or not is_smooth(section, t_max=t_max):
        return CriterionReport(hyperplane, CriterionStatus.SINGULAR_SECTION)
    q = criterion_form(normalized)
    if q.is_zero():
        return CriterionReport(hyperplane, CriterionStatus.VACUOUS, criterion_form=q)
    piece = graded_piece(jacobian_generators(section), d)
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


_POINT_SCAN_LIMIT = 600


def _rational_singular_point(generators: list[Polynomial], field: FieldSpec, nvars: int) -> bool:
    """Scan projective F_p points for a common zero of the generators.

    A hit places the whole ideal inside that point's maximal ideal, so no
    graded piece is ever full.  A miss proves nothing; callers must fall
    through to the rank scan.  Skipped when the point count is large.
    """
    p = field.characteristic
    total = (p**nvars - 1) // (p - 1)
    if total > _POINT_SCAN_LIMIT:
        return False
    top = max(max(m) for g in generators for m in g.terms)
    power = [[pow(r, e, p) for e in range(top + 1)] for r in range(p)]
    gens = [[(c.value, m) for m, c in g.terms.items()] for g in generators]
    for pivot in range(nvars):
        tail = nvars - pivot - 1
        for suffix in itertools.product(range(p), repeat=tail):
            point = (0,) * pivot + (1,) + suffix
            for terms in gens:
                acc = 0
                for coeff, mono in terms:
                    val = coeff
                    for v, e in enumerate(mono):
                        if e:
                            val = val * power[point[v]][e]
                    acc = (acc + val) % p
                if acc:
                    break
            else:
                return True
    return False


def is_smooth_reference(f: Polynomial, t_max: int | None = None) -> bool:
    """Smoothness by the h_t walk, the oracle for the one-piece decision.

    The walk up to the old cap (n+2)(d-1) - n, which has no proof of its
    own when char | d but lies at or above the proven one: it probes the
    CI degree mod linalg.PROBE_PRIME (read at call time), scans rational
    points, then walks h_t.  Over Q a Gotzmann pair h_{t-1} = h_t is
    confirmed by exact ranks at t-1 and at t, and the cap by an exact rank
    at the cap.  A t_max replaces the cap.
    """
    from hypersect import linalg
    from hypersect.jacobian import _macaulay_rows, jacobian_generators

    def rank_q(rows, probe_rank):
        return probe_rank if probe_rank == len(rows) else linalg.rank_mod_p_int(rows, 0)

    d = require_homogeneous(f, 1, "hypersurface form")
    if f.nvars < 2:
        raise NotHomogeneous("need at least two variables for a projective hypersurface")
    n = f.nvars - 1
    if t_max is not None:
        cap = t_max
        if cap < 0:
            return False
    else:
        cap = max((n + 2) * (d - 1) - n, 0)
    p = f.field.characteristic
    gens = [g for g in jacobian_generators(f)[1 if p == 0 or d % p else 0 :] if g]  # f only when char | d
    forms = [g.numerators for g in gens]
    if not gens:
        return False
    probe = p or linalg.PROBE_PRIME
    expected_full = max((n + 1) * (d - 2) + 1, d - 1, 0)
    probed = None
    if expected_full <= cap:
        rows = _macaulay_rows(forms, expected_full)
        rank = None
        if len(rows) >= rows.width:
            rank = linalg.rank_mod_p_int(rows, probe, stop_at=rows.width)
        probed = rows, rank
        if rank == rows.width:
            return True
    if f.field.is_prime_field and _rational_singular_point(gens, f.field, f.nvars):
        return False
    h_prev = rows_prev = rank_prev = h_exact_prev = None
    for t in range(max(d - 1, 0), cap + 1):
        if t == expected_full and probed is not None:
            rows, rank = probed
        else:
            rows, rank = _macaulay_rows(forms, t), None
        if rank is None:
            rank = linalg.rank_mod_p_int(rows, probe) if rows else 0
        h = rows.width - rank
        if h == 0:
            return True
        h_exact = None
        if h_prev == h and h <= t - 1 and t - 1 >= d:
            if p:
                return False
            if h_exact_prev is None:
                cols_prev = len(monomial_basis(f.nvars, t - 1))
                h_exact_prev = cols_prev - rank_q(rows_prev, rank_prev)
            h_exact = rows.width - rank_q(rows, rank)
            if h_exact_prev == 0 or h_exact == 0:
                return True
            if h_exact_prev == h_exact:
                return False
        h_prev, rows_prev, rank_prev, h_exact_prev = h, rows, rank, h_exact
    if p or rows_prev is None or h_exact_prev is not None:
        return False
    cols = len(monomial_basis(f.nvars, cap))
    return rank_q(rows_prev, rank_prev) == cols


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
