"""Exact linear algebra on sparse integer rows, over F_p or Q.

An integer matrix is one SparseRows: flat arrays of row lengths, int64
columns, ascending in each row, and values (int64, or Python ints past
it), as GBLA (Boyer-Eder-Faugere-Lachartre-Martani, ISSAC 2016) keeps its
matrices.  Pair lists, each row a list of (column, value) pairs, are
converted once, where rank_mod_p_int and integer_kernel take them.  There
is one elimination, a pivot split (Faugere-Lachartre) run forward on the
arrays: the rows with distinct leading columns stay sparse as pivots and
clear their columns in the dense block of the other rows level by level,
all pivots of a level at once, and a vectorized column loop mod p brings
the Schur complement they leave to echelon form (int64 for p < 2^31, Python ints above).  The split's
clearing and the column loop delay their % p where int64 allows it
(_delays: ncols*(p-1)^2 < 2^62, after FFLAS-FFPACK): an update only
subtracts, and entries are reduced when their column is searched for a
pivot, when their row becomes the pivot row, and once at the end.  Every
block delays at the probe prime, the largest prime below 2^20, and at
each prime below it, where the lift over Q goes on.  Blocks wider than
_PANEL_CROSSOVER go in panels of _PANEL columns when _PANEL*(p-1)^2 <
2^53 (_panels): the loop on the panel, then one float64 matrix product
for the columns past it, which carries only integers below 2^53 and so
is exact (proof in _eliminate).  The rank mod p is the split's pivot
count.  Back substitution through the echelon rows gives
the one kernel primitive, integer_kernel: the Schur rows one at a time,
then the sparse pivot rows one array step per piece of a level, the
levels of the split's clearing walked from the highest down (Anderson-
Saad level scheduling).  It gives the residues over F_p, and over
Q vectors lifted from several primes, the probe prime first, and
verified exactly over Z, so the exact rank over Q rests on checked
vectors, not on a prime.  Every result is a deterministic function of
the input, the same with or without panels.
"""

from __future__ import annotations

import itertools
from math import isqrt, lcm, prod

import numpy as np

from .fields import _is_prime

Row = list[tuple[int, int]]  # a sparse integer row: (column, value) pairs, columns ascending


def integers(values) -> np.ndarray:
    """Python ints as int64, or as Python ints when one passes int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


class SparseRows:
    """Sparse integer rows over width columns as flat arrays, row after row:
    lengths, int64 columns (ascending in each row) and values.  Read as a
    sequence, a row is a list of (column, value) pairs."""

    def __init__(self, lengths: np.ndarray, cols: np.ndarray, values: np.ndarray, width: int, starts=None):
        self.lengths, self.cols, self.values, self.width = lengths, cols, values, width
        self.starts = lengths.cumsum() - lengths if starts is None else starts
        self._by_level = None  # _levels(self), once levels() needs it; set here so all instances keep one layout

    @classmethod
    def of(cls, rows: SparseRows | list[Row], width: int | None = None) -> SparseRows:
        """rows if they are SparseRows, else pair lists over width columns, by default past the last one."""
        if isinstance(rows, SparseRows):
            if width not in (None, rows.width):
                raise ValueError(f"rows over {rows.width} columns, not {width}")
            return rows
        flat = list(itertools.chain.from_iterable(rows))
        cols = np.array([c for c, _ in flat], dtype=np.int64)
        width = int(cols.max(initial=-1)) + 1 if width is None else width
        return cls(np.array([len(row) for row in rows], dtype=np.int64), cols, integers([x for _, x in flat]), width)

    def take(self, index: np.ndarray) -> SparseRows:
        """The rows at index, in its order."""
        lengths = self.lengths[index]
        starts = lengths.cumsum() - lengths
        shift = (self.starts[index] - starts).repeat(lengths)
        entries = np.arange(shift.size) + shift
        return SparseRows(lengths, self.cols[entries], self.values[entries], self.width, starts)

    def transpose(self) -> SparseRows:
        """The columns as rows, each column's entries in row order: one stable argsort."""
        order = self.cols.argsort(kind="stable")
        rows = np.arange(len(self)).repeat(self.lengths)[order]
        return SparseRows(np.bincount(self.cols, minlength=self.width), rows, self.values[order], len(self))

    def levels(self, width: int) -> list[np.ndarray]:
        """_levels of these rows as pivot rows, computed on the first call and
        kept, each level cut into pieces of at most width positions."""
        if self._by_level is None:
            self._by_level = _levels(self)
        return [at[i : i + width] for at in self._by_level for i in range(0, len(at), width)]

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, i: int) -> Row:
        start, end = self.starts[i], self.starts[i] + self.lengths[i]
        return list(zip(self.cols[start:end].tolist(), self.values[start:end].tolist()))

    def __iter__(self):
        pairs = list(zip(self.cols.tolist(), self.values.tolist()))
        return (pairs[s : s + n] for s, n in zip(self.starts.tolist(), self.lengths.tolist()))


# probe prime for rank lower bounds on integer matrices: full rank mod a
# prime certifies full rank over Q, never the other way around.  The
# largest prime below 2^20, so the column loop delays its % p (_delays)
PROBE_PRIME = 1_048_573

_INT64_PRIME_LIMIT = 2**31  # below it (p-1)^2 + p stays inside int64

# _eliminate runs blocks wider than _PANEL_CROSSOVER columns in panels of
# _PANEL columns (measured, see _panels)
_PANEL = 32
_PANEL_CROSSOVER = 192
# entries per scatter in _split, float64 entries per product in _trailing,
# products per step of integer_kernel's back substitution
_CHUNK = 1 << 14
_BLOCK = 1 << 18  # entries of one dense block in _split, 2 MiB of int64


def _delays(a: np.ndarray, p: int) -> bool:
    """Whether updates of the block a mod p may skip their % p: an int64
    block with ncols*(p-1)^2 < 2^62 (proof in _eliminate).  True for any
    block under 2^22 columns at the probe prime and every prime below it;
    in Python-int blocks every update is reduced."""
    return a.dtype == np.int64 and a.shape[1] * (p - 1) ** 2 < 2**62


def _panels(a: np.ndarray, p: int) -> bool:
    """Whether _eliminate runs the block a mod p in float64 GEMM panels: a
    delaying block wider than _PANEL_CROSSOVER columns with
    _PANEL*(p-1)^2 < 2^53 (proof in _eliminate), so p <= 16,777,213.

    Measured on one core of a shared 2-core Xeon VM, at the probe prime:
    the 492 x 340 Schur block of a dense (3,5) probe takes 48-62 ms in
    the loop and 17-20 ms in panels.  The benchmark's blocks of 86 to 140
    columns go either way by up to 20% (192 x 136: 3.9 ms in the loop,
    4.6 in panels; 414 x 126: 7.2 and 6.2).  Random 1.45n x n blocks break
    even near n = 100 and gain 1.4x at n = 192.  So the loop keeps every
    block up to 192 columns, among them all blocks of certify and of the
    exact ranks over Q in the benchmark."""
    return a.shape[1] > _PANEL_CROSSOVER and _delays(a, p) and _PANEL * (p - 1) ** 2 < 2**53


def _eliminate(a: np.ndarray, p: int) -> list[int]:
    """Bring the residues a mod p to row echelon form in place; return the pivot columns.

    Columns go left to right and the first nonzero entry at or below the
    working row is the pivot, its row scaled to 1, so the result is
    deterministic.  Entries below each pivot are cleared, so the i-th row
    leads with 1 at the i-th pivot.  Stops once every row is a pivot row.
    On return every entry is a residue in [0, p).

    The columns go in panels: of _PANEL columns when _panels, else one
    panel of the whole block.  In a panel the column loop clears each
    pivot's column on the panel's columns only, and keeps each factor in
    place of the entry it cleared (the multiplier) until the panel ends.
    The pivot row is scaled from the panel's first column on, so its
    trailing part (past the panel) is its scaled value before the panel,
    and its multipliers are scaled too.  When the panel ends, _trailing
    applies its k pivots to the columns past it: the pivot rows' final
    trailing parts E solve E_j = D_j - sum_(i<j) N_ji*E_i, with D the
    scaled trailing parts and N the scaled multipliers, a strictly lower
    triangle, so E = (I+N)^-1 D, and (I+N)^-1 = sum_t (-N)^t = prod_s
    (I + (-N)^(2^s)) over 2^s < k, as N^k = 0.  Each row below then takes
    sum_i f_i*E_i, f its multipliers: one product below -= L21 @ E.  Then
    the multipliers are zeroed.  Every row ends as the same combination of
    the input rows as in the loop, so pivots and residues are the loop's
    exactly.

    Delayed reduction (Dumas-Giorgi-Pernet, FFLAS-FFPACK): when _delays,
    an update only subtracts factor * pivot row, with no % p.  The column
    searched for a pivot is reduced first, so the pivot and the factors
    are residues, and so is the pivot row once scaled; the block is
    reduced once at the end.  No overflow: every entry starts in [0, p),
    a reduction brings it back there, and an update subtracts a product
    of two residues, at most (p-1)^2.  An entry takes one product per pivot,
    so at most ncols, and stays in [-ncols*(p-1)^2, p), inside int64 since
    ncols*(p-1)^2 < 2^62.  Every step agrees mod p with the reduced one,
    so the pivots, found on reduced columns, and the final residues are
    those of reducing every update.  A panel's product subtracts one
    product per pivot of the panel, so the count holds there too.

    Why the panels' float64 products are exact.  Every operand is a
    residue: the multipliers, E and the powers of -N are reduced.  A
    product of two k-column operands, k <= _PANEL, sums k products of two
    residues, each at most (p-1)^2, so every partial sum, in whatever
    order and with or without fused multiply-adds, is an integer of size
    at most _PANEL*(p-1)^2 < 2^53, which float64 holds exactly.  The int64
    products of k x k matrices in (I+N)^-1 are under the same bound.
    """
    nrows, ncols = a.shape
    delay = _delays(a, p)
    panels = _panels(a, p)
    width = _PANEL if panels else max(ncols, 1)
    pivots: list[int] = []
    for c0 in range(0, ncols, width):
        c1, r0 = min(c0 + width, ncols), len(pivots)
        for c in range(c0, c1):
            r = len(pivots)
            if r == nrows:
                break
            if delay:
                a[r:, c] %= p
            nz = a[r:, c].nonzero()[0]
            if nz.size == 0:
                continue
            pr = r + int(nz[0])
            if pr != r:
                a[[r, pr]] = a[[pr, r]]
            inv = pow(int(a[r, c]), -1, p)
            row = a[r, c0 if panels else c :]  # a panel scales its multipliers too
            row %= p
            row *= inv
            row %= p
            idx = r + nz[1:]  # the rows below with an entry at c: the swap moved a zero
            if idx.size:
                lo = c + 1 if panels else c  # a panel keeps each factor in place of the entry it clears
                update = a[idx, c][:, None] * a[r, lo:c1]
                if delay:
                    a[idx, lo:c1] -= update
                else:
                    a[idx, lo:c1] = (a[idx, lo:c1] - update) % p
            pivots.append(c)
        new = pivots[r0:]
        if panels and new:
            if c1 < ncols:
                _trailing(a, p, r0, new, c1)
            a[r0:, new] = np.triu(a[r0:, new])  # zero the multipliers
        if len(pivots) == nrows:
            break
    if delay:
        a %= p
    return pivots


def _trailing(a: np.ndarray, p: int, r0: int, cols: list[int], c1: int) -> None:
    """Apply a panel's pivots, rows r0.. at columns cols, to the columns
    from c1 on (the panel step of _eliminate, proofs there)."""
    k = len(cols)
    x = -np.tril(a[r0 : r0 + k, cols], -1) % p  # -N
    inverse = np.eye(k, dtype=np.int64) + x
    for _ in range(1, (k - 1).bit_length()):
        x = x @ x % p
        inverse = inverse @ (np.eye(k, dtype=np.int64) + x) % p
    d = a[r0 : r0 + k, c1:]
    d[:] = (inverse.astype(np.float64) @ d.astype(np.float64)).astype(np.int64) % p  # E
    e = d.astype(np.float64)
    step = max(_CHUNK // e.shape[1], 1)  # rows per product
    for start in range(r0 + k, a.shape[0], step):
        rows = slice(start, start + step)
        a[rows, c1:] -= (a[rows, cols].astype(np.float64) @ e).astype(np.int64)


def _levels(pivots: SparseRows) -> list[np.ndarray]:
    """The positions of the pivot rows (leads ascending) level by level,
    ascending in each level.  A pivot's level is one more than the highest
    level of a pivot row with an entry at its column, 0 if there is none;
    such a row leads before it, so one pass over those entries finds all."""
    at = np.zeros(pivots.width, dtype=np.int64)  # one past the position of the pivot at each column
    at[pivots.cols[pivots.starts]] = np.arange(1, len(pivots) + 1)
    source = np.arange(len(pivots)).repeat(pivots.lengths)
    target = at[pivots.cols] - 1
    edge = target > source  # an entry past its row's lead at a pivot column
    level = [0] * len(pivots)
    for i, j in zip(source[edge].tolist(), target[edge].tolist()):
        if level[j] <= level[i]:
            level[j] = level[i] + 1
    level = np.array(level, dtype=np.int64)
    by_level = level.argsort(kind="stable")
    bounds = itertools.pairwise(itertools.accumulate(np.bincount(level).tolist(), initial=0))
    return [by_level[lo:hi] for lo, hi in bounds]


def _split(rows: SparseRows, ncols: int, p: int):
    """The pivot split (Faugere-Lachartre) of ncols-column sparse integer rows mod p.

    Entries are any ints.  Each is reduced mod p first and zero residues
    are dropped, so every row leads with a unit.  Of the rows leading at
    the same column the sparsest is a pivot, the first on a tie: one
    stable sort of the rows by (lead, length) puts it first among them.
    The k pivots stay sparse and are never changed.  The other m rows, in
    the sort's order, go into dense blocks of ncols columns (int64 below 2^31, Python ints above),
    as many rows at a time as fit in _BLOCK entries, the only dense arrays
    built from sparse rows.  Multiples of the pivot rows clear the pivot
    columns in each block, level by level (pivots.levels): a pivot's level is
    one more than the highest level of a pivot row with an entry at its
    column, 0 if there is none.  The pivots of one level clear the block
    together, in pieces whose columns hold at most _CHUNK entries of it.
    A block lays its columns out in that clearing order, each piece's
    pivot columns one slice, then the non-pivot columns: the nonzero
    entries of a piece's slice, each reduced, give its factors (a
    multiple of p that a delayed update left gives 0 and changes
    nothing), and each factor times its pivot row's tail is subtracted by
    one scatter per chunk of about _CHUNK entries.  Products are reduced
    only when the block does not delay (_delays).  Each block's trailing
    slice, its non-pivot columns, goes into the m-row Schur complement,
    reduced once all are in, and the column loop brings it to echelon
    form.  With no non-pivot column or no other row there is no block.

    Returns (pivots, others, schur, leads): pivots holds the pivot rows of
    residues, leads ascending, as SparseRows; others lists the non-pivot columns, schur is
    the eliminated complement on them (no rows if nothing was left) and
    leads the positions in others of its pivots.

    Why the levels clear the block.  A pivot row with an entry at the
    column of another pivot leads before it, and that pivot's level is
    higher than its own.  So the pivot rows that change a pivot's column
    are all of lower levels.  When its level comes, they have all been
    applied and no later one touches the column: the factors read then
    are final, the same as clearing the pivots one at a time in column
    order, and the pivots of one level, which change none of each other's
    columns, can clear together.  Afterwards the block is zero mod p on
    every pivot column.  The pivot columns are never read again, so a
    pivot row's lead, which only zeroes its own column, is left out of
    the update.  No overflow: an entry takes at most one product per
    pivot, so the delayed-reduction bound of _eliminate holds; without
    delay each product is reduced, and k products of at most p-1 fit in
    int64 for p < 2^31.

    Why the rank is k plus the rank of the Schur complement.  The pivot
    rows lead at distinct columns, so on the pivot columns, in order, they
    form a triangular matrix with units on its diagonal: they are
    independent.  Subtracting multiples of pivot rows from the other rows
    keeps the row space and so the rank, and the block ends zero on every
    pivot column.  In a vanishing combination of pivot rows and block rows
    the pivot rows then combine to zero on the pivot columns, where the
    triangle is invertible, so their part is zero: the rank is k plus the
    rank of the block, which lives on the non-pivot columns.  The cleared
    rows are unique, as the multiples that zero the pivot columns are
    fixed by the triangle, so the levels give the residues of clearing one
    pivot at a time, and each row is cleared on its own, so splitting the
    rows into blocks changes none of them.

    Why the order of the other rows changes no result.  The pivot rows
    are chosen by lead and length alone.  The leads of the column loop
    are the column rank profile of the Schur complement, the columns that
    raise the rank of those before them, and ranks do not depend on row
    order.  A kernel vector is fixed by its free entries, so back
    substitution through the echelon rows gives the same residues
    whatever rows they are.  Only the echelon rows of schur follow the
    order.
    """
    dtype = np.int64 if p < _INT64_PRIME_LIMIT else object
    residues = rows.values % p
    kept = residues != 0
    counts = np.bincount(np.arange(len(rows)).repeat(rows.lengths)[kept], minlength=len(rows))
    rows = SparseRows(counts[counts > 0], rows.cols[kept], residues[kept].astype(dtype), ncols)
    # rows by (lead, length), input order on a tie; the first row of each lead is its pivot
    lead = rows.cols[rows.starts]
    order = (lead * (int(rows.lengths.max(initial=0)) + 1) + rows.lengths).argsort(kind="stable")
    lead = lead[order]
    first = lead != np.concatenate(([-1], lead[:-1]))
    pivots, rest, lead = rows.take(order[first]), order[~first], lead[first]
    others = (np.bincount(lead, minlength=ncols) == 0).nonzero()[0]
    if not (rest.size and others.size):
        return pivots, others, np.zeros((0, len(others)), dtype=dtype), []
    lengths, starts, cols, values = pivots.lengths, pivots.starts, pivots.cols, pivots.values
    inverses = np.array([pow(x, -1, p) for x in values[starts].tolist()], dtype=dtype)
    step = max(_CHUNK // int(lengths.max()), 1)  # (row, pivot) pairs per scatter
    height = min(max(_BLOCK // ncols, 1), len(rest))  # rows per dense block
    levels = pivots.levels(max(_CHUNK // height, 1))
    # the block's columns in clearing order, each piece's pivot columns one slice, then others
    slot = np.concatenate((lead[np.concatenate(levels)], others)).argsort()  # each column's place
    cols, ends = slot[cols], list(itertools.accumulate(map(len, levels)))
    schur = np.empty((len(rest), len(others)), dtype=dtype)
    for top in range(0, len(rest), height):
        # column-major for the levels, which read columns; the column
        # loop gathers rows, so the Schur complement is kept row-major
        m = min(height, len(rest) - top)
        block = np.zeros((m, ncols), dtype=dtype, order="F")
        part = rows.take(rest[top : top + m])
        block[np.arange(m).repeat(part.lengths), slot[part.cols]] = part.values
        delay = _delays(block, p)
        flat = block.T.reshape(-1)  # entry (i, c) at c*m + i
        for at, end in zip(levels, ends):
            column = block[:, end - len(at) : end]
            hit, j = column.nonzero()
            source = at[j]
            factors = column[hit, j] % p * inverses[source] % p
            for lo in range(0, hit.size, step):
                piv = source[lo : lo + step]
                count = lengths[piv] - 1  # each pivot row's tail, past its lead
                pair = np.arange(count.size).repeat(count)
                entry = np.arange(pair.size) + (starts[piv] + 1 + count - count.cumsum())[pair]
                update = factors[lo : lo + step][pair] * values[entry]
                if not delay:
                    update %= p
                np.subtract.at(flat, cols[entry] * m + hit[lo : lo + step][pair], update)
        schur[top : top + m] = block[:, len(pivots) :]
    del block, flat  # not kept while the complement is eliminated
    schur %= p
    return pivots, others, schur, _eliminate(schur, p)


def rank_mod_p_int(rows: SparseRows | list[Row], p: int, stop_at: int | None = None) -> int:
    """Rank of sparse integer rows mod a prime p or, for p = 0, over Q: the
    pivot count of their split, or of integer_kernel, exact.  The whole
    rank is computed and then capped at stop_at, so a smaller result is
    the whole rank; a stop_at <= 0 gives 0.  Callers pass stop_at as the
    width they test for (a probe), which the benchmark's trace counts."""
    if stop_at is not None and stop_at <= 0:
        return 0
    rows = SparseRows.of(rows)
    # no rank changes past the last column with an entry, and those columns would cost work
    rows = SparseRows(rows.lengths, rows.cols, rows.values, int(rows.cols.max(initial=-1)) + 1, rows.starts)
    if p:
        pivots, _, _, leads = _split(rows, rows.width, p)
        rank = len(pivots) + len(leads)
    else:
        rank = len(integer_kernel(rows, rows.width, 0)[0])
    return rank if stop_at is None else min(rank, stop_at)


def _primes_below(q: int):
    """The primes below q, descending, then those above q, ascending: every prime but q once, no end."""
    for c in itertools.chain(range(q - 1, 1, -1), itertools.count(q + 1)):
        if _is_prime(c):
            yield c


def _rational(u: int, m: int, bound: int) -> tuple[int, int] | None:
    """(n, d) with n = d*u mod m, |n| <= bound and 0 < d <= bound, or None.

    Wang's rational reconstruction: the extended Euclidean algorithm on
    (m, u), stopped at the first remainder within the bound.  With
    2*bound^2 < m such a fraction is unique when it exists.
    """
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _lift_kernel(residues: np.ndarray, modulus: int, pivots: list[int], free: list[int]):
    """Integer kernel candidates from the residues mod modulus of the kernel vectors at the pivots.

    Vector k is the denominator lcm times: 1 at free column k, and at pivot
    column i the rational reconstruction of residues[i, k].  Only nonzero
    residues are reconstructed.  None when one has no reconstruction yet.
    """
    bound = isqrt(modulus // 2)
    vectors = []
    for k, fc in enumerate(free):
        column = residues[:, k]
        entries = {fc: (1, 1)}
        for i in np.flatnonzero(column).tolist():
            q = _rational(int(column[i]), modulus, bound)
            if q is None:
                return None
            entries[pivots[i]] = q
        scale = lcm(*(d for _, d in entries.values()))
        vectors.append({j: n * (scale // d) for j, (n, d) in entries.items()})
    return vectors


def _annihilates(rows: SparseRows, vectors: list[dict[int, int]]) -> bool:
    """Whether row * v = 0 over Z for every row and every sparse vector v
    {column: value}, in exact Python ints from the rows themselves, one
    vector at a time."""
    heads = rows.starts[rows.lengths > 0]
    for vector in vectors:
        v = np.zeros(rows.width, dtype=object)
        v[list(vector)] = list(vector.values())
        if np.add.reduceat(rows.values * v[rows.cols], heads).any():
            return False
    return True


def integer_kernel(rows: SparseRows | list, ncols: int, p: int) -> tuple[list[int], list[int], list[dict[int, int]]]:
    """Pivots, free columns and a kernel basis of ncols-column sparse integer
    rows over F_p or, for p = 0, Q.

    The basis holds one integer vector {column: value} per free column,
    nonzero there and zero at the other free columns.  Mod a prime the
    forward split gives the rank r_p, the pivots and the echelon rows, the
    sparse pivot rows and the Schur rows.  For each of the k = cols - r_p
    free columns, back substitution through them gives a kernel vector mod
    the prime, 1 there and 0 at the other free columns: the Schur rows one
    at a time, last pivot first, fix the entries on the non-pivot columns;
    then each sparse pivot row fixes the entry at its lead, minus its tail
    (the entries past the lead) times the vector, divided by its lead
    entry.  Those rows go by the levels of the split's clearing, from the
    highest down, all rows of one piece of a level in one array step:
    gather their tails, multiply by the vector's entries there, reduce
    each product, sum each row, and scale by the leads' inverses.  A piece
    holds at most _CHUNK tail entries times free columns, unless one row's
    tail does.
    They match Gauss-Jordan: the echelon rows lead at the columns that
    raise the rank of those before them, the pivots of the reduced form,
    and a kernel vector is fixed by its free entries, so these are the
    reduced form's vectors, minus its free columns at the pivots.  Over
    F_p these residues are the answer.  Over Q the primes are the probe
    prime, then the primes below it, descending, then those above it, none
    tried twice (_primes_below); residues of primes with the same (rank,
    pivots) are combined by CRT, lifted by rational reconstruction
    (Wang-Guy-Davenport 1982; Monagan, ISSAC 2004), cleared of
    denominators and checked, A*v = 0, exactly over Z.

    Why the levels may go in reverse.  A tail entry of a pivot row sits on
    a non-pivot column, fixed before any pivot row is read, or on the lead
    of another pivot row.  That row leads later, and its level is strictly
    higher: a pivot's level is one more than the highest level of a pivot
    row with an entry at its column.  So once the levels above one are
    done, every entry a row of that level reads is final, and the rows of
    one level read none of each other's leads.  Each lead's entry is then
    the one value its row fixes, the same, residue for residue, as going
    through the rows one at a time, last lead first.

    Why the answer over Q is exact.  r_p <= rank_Q for every prime, as a
    minor that is nonzero mod p is nonzero over Z, so a prime with no free
    column ends the search.  The k vectors that pass the check lie in the
    kernel over Q, and they are independent, since each is nonzero at its
    own free column and zero at the others.  So rank_Q <= cols - k = r_p,
    and the rank is pinned.  Nothing else is trusted: a wrong lift fails
    the check and costs one more prime.

    Why the loop ends.  Let rank_Q = r with pivots P, the reduced form over
    Q.  The i-th pivot is the first column that raises the rank of the
    columns before it, and mod p each of those ranks can only drop.  So a
    prime gives rank r and pivots P (good), or a lower rank or a
    lexicographically later pivot list (bad).  Bad primes are discarded,
    and a prime that does better than the residues kept so far replaces
    them, so once a good prime is met only good primes are combined.  Fix
    a nonzero r x r minor M of A on the columns P.  A prime not dividing M
    keeps those columns independent, so each rank of the first columns is
    as over Q and the prime is good: every bad prime divides M.  Let H^2
    be the product of the min(rows, cols) largest nonzero squared row
    norms; by Hadamard's inequality every r x r minor is at most H, M
    included.  Distinct primes kept under one bad key all divide M, so
    their product is at most H.  By Cramer's rule every entry of the
    reduced form is a ratio of two r x r minors, so its numerator and
    denominator are at most H.  Once the combined modulus exceeds 2*H^2
    the key is therefore good, reconstruction returns those entries, and
    the true kernel vectors pass the check.  The prime sequence has no
    end, so this point is always reached; a check failing past it proves
    a defect here, and raises RuntimeError rather than trying primes
    forever.  H^2 is computed only once a check has failed.
    """
    rows = SparseRows.of(rows, ncols)
    kept = residues = modulus = hadamard2 = None
    for prime in (p,) if p else itertools.chain((PROBE_PRIME,), _primes_below(PROBE_PRIME)):
        pivot_rows, others, schur, leads = _split(rows, ncols, prime)
        lead = pivot_rows.cols[pivot_rows.starts]
        pivots = sorted([*lead.tolist(), *others[leads].tolist()])
        free_at = sorted(set(range(len(others))) - set(leads))
        if not free_at:
            return pivots, [], []
        key = (-len(pivots), pivots)  # smaller is better: higher rank, then earlier pivots
        if kept is not None and key > kept:
            continue
        # back substitution: the Schur rows, which lead with 1, on the other
        # columns, then the sparse pivot rows; each product is reduced before
        # the sum, as int64 holds one (p-1)^2, not two
        free = others[free_at].tolist()
        w = np.zeros((len(others), len(free)), dtype=schur.dtype)
        w[free_at, np.arange(len(free))] = 1
        for j in reversed(range(len(leads))):
            k = leads[j]
            w[k] = -(schur[j, k + 1 :, None] * w[k + 1 :] % prime).sum(0) % prime
        v = np.zeros((ncols, len(free)), dtype=schur.dtype)
        v[others] = w
        lengths, starts, cols, values = pivot_rows.lengths, pivot_rows.starts, pivot_rows.cols, pivot_rows.values
        tailed = lengths > 1  # a pivot row without a tail leaves 0 at its lead
        if tailed.any():
            width = max(_CHUNK // (int(lengths.max() - 1) * len(free)), 1)  # rows per piece
            for at in reversed(pivot_rows.levels(width)):
                at = at[tailed[at]]
                if not at.size:
                    continue
                count = lengths[at] - 1
                bounds = count.cumsum() - count
                entry = np.arange(count.sum()) + (starts[at] + 1 - bounds).repeat(count)
                total = np.add.reduceat(values[entry, None] * v[cols[entry]] % prime, bounds) % prime
                inverses = np.array([pow(x, -1, prime) for x in values[starts[at]].tolist()], dtype=v.dtype)
                v[lead[at]] = -total * inverses[:, None] % prime
        block = v[pivots]
        if p:
            return pivots, free, [
                {fc: 1} | {pivots[i]: int(block[i, k]) for i in np.flatnonzero(block[:, k]).tolist()}
                for k, fc in enumerate(free)
            ]
        if kept is None or key < kept:
            kept, residues, modulus = key, block, prime
        else:
            old = residues.astype(object)  # the modulus outgrows int64
            residues = old + modulus * ((block - old) * pow(modulus, -1, prime) % prime)
            modulus *= prime
        vectors = _lift_kernel(residues, modulus, pivots, free)
        if vectors is not None and _annihilates(rows, vectors):
            return pivots, free, vectors
        if hadamard2 is None:
            norms = np.add.reduceat(rows.values.astype(object) ** 2, rows.starts[rows.lengths > 0])
            norms = sorted(norms.tolist(), reverse=True)
            hadamard2 = prod(n for n in norms[:ncols] if n)
        if modulus > 2 * hadamard2:
            raise RuntimeError(f"kernel lift failed its check past 2*H^2 = {2 * hadamard2}")
