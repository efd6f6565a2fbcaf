"""Dense exact linear algebra over a FieldSpec.

Row reduction is plain Gauss-Jordan with first-nonzero pivoting, so the
reduced form, the pivot list, and the kernel basis are deterministic
functions of the input.  No floating point anywhere.

The integer kernels at the bottom serve the smoothness scan's large rank
checks: one vectorized elimination mod p (an int64 array for p < 2^31,
Python ints above; the dtype follows from p alone) and one fraction-free
elimination over Z.  They never replace the Scalar paths for small problems.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .errors import FieldMismatch, SingularMatrix
from .fields import FieldSpec, Scalar


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

    def copy(self) -> "Matrix":
        return Matrix(self.field, self.rows, self.cols, list(self.entries))

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


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot column indices.

    Scans columns left to right and picks the first nonzero entry at or
    below the working row as pivot, so the result is deterministic.
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


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Matrix) -> list[list[Scalar]]:
    """Basis of the right kernel {v : m v = 0}.

    One vector per free column, in ascending free-column order, each
    scaled so its leading (lowest-index) nonzero entry is 1.
    """
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    zero, one = m.field.zero(), m.field.one()
    basis = []
    for fc in free:
        v = [zero] * m.cols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red.at(r, fc)
        lead = next(x for x in v if x)
        if lead != one:
            inv = lead.inv()
            v = [x * inv for x in v]
        basis.append(v)
    return basis


def invert(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises SingularMatrix when rank drops."""
    if m.rows != m.cols:
        raise SingularMatrix(f"cannot invert a {m.rows}x{m.cols} matrix")
    n = m.rows
    aug_rows = []
    ident = Matrix.identity(m.field, n)
    for i in range(n):
        aug_rows.append(m.row(i) + ident.row(i))
    red, pivots = rref(Matrix.from_rows(m.field, aug_rows))
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is not invertible")
    inv_rows = [red.row(i)[n:] for i in range(n)]
    return Matrix.from_rows(m.field, inv_rows)


def mat_vec(m: Matrix, v: list[Scalar]) -> list[Scalar]:
    if len(v) != m.cols:
        raise ValueError("length mismatch")
    out = []
    for i in range(m.rows):
        acc = m.field.zero()
        row = m.row(i)
        for x, y in zip(row, v):
            if x and y:
                acc = acc + x * y
        out.append(acc)
    return out


# -- fast integer kernels ----------------------------------------------------

# probe prime for rank lower bounds on integer matrices: full rank mod a
# prime certifies full rank over Q, never the other way around
PROBE_PRIME = 2**31 - 1

_INT64_PRIME_LIMIT = 2**31  # below it (p-1)^2 + p stays inside int64


def rank_mod_p_int(rows: list[list[int]], p: int, stop_at: int | None = None) -> int:
    """Rank mod p of an integer matrix by vectorized forward elimination.

    Entries are any ints.  Below 2^31 the array is int64, and entries too
    large for it are reduced mod p first; above, it holds Python ints
    (dtype object).  Stops once the rank reaches stop_at.
    """
    if not rows:
        return 0
    if p < _INT64_PRIME_LIMIT:
        try:
            a = np.array(rows, dtype=np.int64) % p
        except OverflowError:
            a = np.array([[x % p for x in row] for row in rows], dtype=np.int64)
    else:
        a = np.array(rows, dtype=object) % p
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r, c:] = a[r, c:] * inv % p
        below = np.nonzero(a[r + 1 :, c])[0]
        if below.size:
            idx = r + 1 + below
            factors = a[idx, c][:, None]
            a[idx, c:] = (a[idx, c:] - factors * a[r, c:]) % p
        r += 1
        if stop_at is not None and r >= stop_at:
            break
    return r


def rank_int_exact(rows: list[list[int]]) -> int:
    """Exact rank over Q of an integer matrix, fraction-free elimination.

    Row contents are stripped by gcd after each update to keep entries small.
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
