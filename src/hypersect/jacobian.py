"""Graded pieces of Jacobian ideals and the smoothness decision.

For a form f of degree d in x0..xn the Jacobian ideal is generated by f
together with all first partials.  The projective hypersurface f = 0 is
smooth over the algebraic closure exactly when that ideal is irrelevant,
i.e. when some graded piece fills the whole space of forms of its degree.
Fullness of a graded piece is a rank condition on a matrix defined over
the base field, so it is insensitive to field extension and can be decided
here exactly.

Fullness is monotone in the degree: a full piece stays full after
multiplying by the variables.  And a smooth f fills by a proven degree,
(n+1)(d-2) + 1, one more when char | d (default_degree_cap has both
proofs).  So one graded piece, at that degree, decides smoothness: f is
smooth exactly when it is full.

Every matrix holds the monomial multiples of the generators in one degree,
less those the leading-term (Koszul/F5) criterion shows redundant: fewer
rows, same span.  Unless char | d, the rows drop f, which Euler's identity
puts in the ideal of its partials (_integer_generators).  Before the
smoothness piece, the criterion matrix and ideal_graded_dim, each group
of generators of one degree whose leading terms collide is replaced by
its reduced row echelon form (_interreduce, as in Faugere's F4): the same
span in that degree, so the same ideal and the same piece J_t for every
t.  All partials of a dense form lead at x0^(d-1); interreduced, they
lead at distinct monomials, so the pivot split finds sparse pivots for
the multiples of each, and the dense block it leaves is far smaller.  The generators
enter as integer forms, {monomial: int}: the numerators of a Polynomial,
or the integer partials of a form's numerators (_integer_generators),
each a nonzero constant times the generator it stands for, which changes
no span and no rank.  No column is computed per matrix: the column of
every product m*x^a of one shape (nvars, t, generator degree e) sits in
one read-only table, cached by that shape alone and never by
coefficients or leading terms (_column_table), and each matrix gathers
its generators' columns from it.

Every piece is ranked exactly by one linalg.rank_mod_p_int call: mod p
over F_p, and over Q (denominators cleared) the pivot count of the kernel
lift, whose first prime is linalg.PROBE_PRIME.  Full rank mod that prime
proves full rank over Q after one elimination; short of full, the kernel
vectors are lifted to Q and verified over Z, so a "not smooth" over Q
rests on checked kernel vectors and every returned verdict is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations_with_replacement
from math import comb, gcd

import numpy as np

from . import linalg
from .errors import InhomogeneousGenerator, NotHomogeneous, require_memory
from .fields import FieldSpec
from .poly import (
    Monomial,
    Polynomial,
    _integer_partial,
    monomial_basis,
    partial_derivative,
    require_homogeneous,
)


def jacobian_generators(f: Polynomial) -> list[Polynomial]:
    """[f, df/dx0, ..., df/dxn]; partials may vanish in small characteristic."""
    require_homogeneous(f, 1, "hypersurface form")
    return [f] + [partial_derivative(f, i) for i in range(f.nvars)]


def _integer_generators(form: dict[Monomial, int], degree: int, p: int) -> list[dict[Monomial, int]]:
    """The Jacobian generators of a nonzero integer form of the given
    degree that span its ideal, residues over F_p: its nonzero partials,
    after the form itself only when char | d (by Euler, sum_i x_i*df/dx_i =
    d*f puts f in the ideal of its partials otherwise).  The numerators of
    a Polynomial are one such form, and for any nonzero scale s each
    generator is a nonzero constant times the matching one of form/s."""
    partials = (_integer_partial(form, i, p) for i in range(len(next(iter(form)))))
    return ([form] if p and degree % p == 0 else []) + [g for g in partials if g]


def default_degree_cap(nvars: int, degree: int, characteristic: int = 0) -> int:
    """The degree where the Jacobian ideal of a smooth form fills up: with
    n = nvars-1 and e = (n+1)(d-2) + 1, it is e, or e+1 when char | d, and
    0 for linear forms (a nonzero constant partial fills degree 0).

    char does not divide d.  By Euler, d*f = sum_i x_i*df/dx_i, so the
    partials generate the ideal.  If f is smooth they have no common
    projective zero, so the n+1 partials of degree d-1 generate an
    m-primary ideal of the polynomial ring in n+1 variables: a system of
    parameters, hence a regular sequence.  The Hilbert series of the
    quotient is then ((1-t^(d-1))/(1-t))^(n+1), a polynomial of degree
    (n+1)(d-2), so the ideal is full past (n+1)(d-2), at e.

    char divides d.  Work over the algebraic closure, and write V(df) for
    the common zeros of the partials.  If f is smooth, V(df) misses V(f), and a projective set of positive dimension meets
    every hypersurface, so V(df) is finite.  Take n general combinations
    g_1..g_n of the partials: each component of V(g_1..g_(k-1)), k <= n,
    has positive dimension, so it is not inside V(df), and a general g_k
    does not vanish on it; V(g_1..g_n) is finitely many points.  J_d has
    no common zero (x_j*df/dx_i and f all vanish only on V(J), which is
    empty), so a general h in J_d vanishes at none of those points.  Then
    g_1..g_n, h have no common zero: a regular sequence inside J, of
    degrees (d-1)^n and d, whose quotient has Hilbert series
    ((1-t^(d-1))/(1-t))^n * (1-t^d)/(1-t), of degree n(d-2) + d-1 = e.
    It is full at e+1, so J is too.  Fullness is a rank condition on a
    matrix over the base field, so the cap holds there as well.
    """
    n = nvars - 1
    cap = (n + 1) * (degree - 2) + 1
    if characteristic and degree % characteristic == 0:
        cap += 1
    return max(cap, 0)


@dataclass(frozen=True)
class GradedDim:
    """Degree-t piece of a homogeneous ideal: the degree-t monomials
    (grlex descending), the one listing of a piece's monomials (the rows
    only count them), and the exact dimension of the piece in their span."""

    degree: int
    basis: list[Monomial]
    dimension: int


@lru_cache(maxsize=64)
def _positions(nvars: int, degree: int) -> dict[Monomial, int]:
    """Each degree-e monomial's column in the grlex-descending basis, read at
    generator degrees only; the keys, in order, are monomial_basis(nvars,
    degree), which refuses a basis past the memory budget."""
    return {m: i for i, m in enumerate(monomial_basis(nvars, degree))}


def _tails(nvars: int, degree: int) -> np.ndarray:
    """tails[j, i] = e_(i+1) + ... + e_(n-1) for the j-th monomial e of
    monomial_basis(nvars, degree), for i < n-1: the degree less the partial
    sums e_0 + ... + e_i that monomial_basis is built on, read in its order
    with no tuple per monomial.  Refused with ResourceLimit before anything
    is allocated when its 8-byte entries pass the memory budget."""
    shape = comb(nvars - 1 + degree, degree), nvars - 1
    require_memory(8 * shape[0] * shape[1], f"the {shape[0]} x {shape[1]} tails of degree {degree}")
    sums = chain.from_iterable(combinations_with_replacement(range(degree + 1), nvars - 1))
    return degree - np.fromiter(sums, np.int64, shape[0] * shape[1]).reshape(shape)[::-1]


@lru_cache(maxsize=64)
def _column_table(nvars: int, degree: int, e: int) -> np.ndarray:
    """table[i, j] = the column of m_i*x^a_j in the degree-t basis, for
    m_i the degree-(t-e) monomials and x^a_j the degree-e ones, both
    grlex-descending: a read-only int64 array of
    C(nvars-1+t-e, t-e) * C(nvars-1+e, e) entries, built once per
    (nvars, t, e) while it stays in the cache.

    A degree-t monomial x^b sits in the basis after those with the same
    b_0..b_(i-1) and a larger b_i, for each i < n-1: C(T_i+k-1, k) of them,
    with k = n-1-i later variables and T_i = b_(i+1) + ... + b_(n-1) the
    degree they share.  So its column is the sum of those counts, and as
    T_i(m*x^a) = T_i(m) + T_i(x^a) the whole table is a sum of n-1 lookups
    in the counts.  Each count, and the column, is below the basis length,
    so int64 holds them for any number of variables.

    The build peaks at three tables of 8-byte entries (the index sum, the
    gathered counts and the table), and is refused with ResourceLimit
    before anything is allocated when that passes the memory budget.
    """
    shape = comb(nvars - 1 + degree - e, degree - e), comb(nvars - 1 + e, e)
    what = f"building the {shape[0]} x {shape[1]} column table of degree {degree} in {nvars} variables"
    require_memory(3 * 8 * shape[0] * shape[1], what)
    below = np.array(
        [[comb(s + k - 1, s - 1) if s else 0 for s in range(degree + 1)] for k in range(nvars)], dtype=np.int64
    )
    m_tails, a_tails = _tails(nvars, degree - e), _tails(nvars, e)
    table = np.zeros((len(m_tails), len(a_tails)), dtype=np.int64)
    for i in range(nvars - 1):
        table += below[nvars - 1 - i][m_tails[:, i, None] + a_tails[:, i]]
    table.flags.writeable = False
    return table


def _macaulay_rows(generators: list[dict[Monomial, int]], degree: int) -> linalg.SparseRows:
    """Sparse integer rows spanning the ideal's degree-t piece.

    The generators are homogeneous integer forms, {monomial: int}: the
    numerators of Polynomials, whose one denominator only scales a row, or
    _integer_generators of them; at least one is nonzero.  Over F_p they
    are residues.  The rows are one linalg.SparseRows over the degree-t
    basis, counted and never listed: width C(nvars-1+t, t), 0 below degree
    0.  Row m*g_i holds the coefficients of m*g_i, columns ascending, as
    the terms of g_i are sorted by their column in the grlex-descending
    degree-e basis, multiplying by m keeps that order, and the degree-t
    basis is grlex-descending too.  Zero generators are skipped, and so is
    m*g_i when LT(g_j) divides m for some j < i (grlex leading terms, the
    first in that order; the Koszul/F5 criterion).  The span stays the
    same over any field: with u = m/LT(g_j) and c = LC(g_j),
    m*g_i = (u*g_i/c)*g_j + (m - u*g_j/c)*g_i, rows of g_j plus rows of g_i
    at monomials below m; induct on (i, m).  Mod a prime where an LC
    vanishes the rank can only drop, so it still bounds the rank over Q.
    A generator of degree above t has no multiplier, and its leading term
    divides no multiplier of a later one (their degrees are at most t), so
    it is skipped too.

    No column is computed here and no Python object is made per entry.  A
    generator's rows are the columns of its terms in the per-shape
    _column_table(nvars, t, e), with its coefficients, and the multipliers
    that LT(g_j), of degree e_j, divides are the multiples u*LT(g_j): the
    column of LT(g_j) in _column_table(nvars, t-e, e_j).  Each call
    gathers from tables of C(nvars-1+t-e, t-e) * C(nvars-1+e, e) int64
    entries per generator degree e.
    """
    nvars = len(next(m for g in generators for m in g))
    # each generator's rows (columns, values), after an empty block for a piece with no row; each lead (degree, column)
    tables, values, leads = [np.zeros((0, 0), dtype=np.int64)], [np.zeros((0, 0), dtype=np.int64)], []
    for g in generators:
        if not g or (e := sum(next(iter(g)))) > degree:
            continue
        index = _positions(nvars, e)
        columns, coeffs = zip(*sorted((index[mono], c) for mono, c in g.items()))
        table = _column_table(nvars, degree, e).take(columns, axis=1)
        divisors = [(el, column) for el, column in leads if el <= degree - e]
        if divisors:
            keep = np.ones(len(table), dtype=bool)
            for el, column in divisors:
                keep[_column_table(nvars, degree - e, el)[:, column]] = False
            table = table[keep]
        tables.append(table)
        values.append(linalg.integers(coeffs)[None].repeat(len(table), axis=0))  # row m*g_i has g_i's values
        leads.append((e, columns[0]))
    lengths = np.array([t.shape[1] for t in tables]).repeat([len(t) for t in tables])
    cols, values = (np.concatenate(x, axis=None) for x in (tables, values))
    return linalg.SparseRows(lengths, cols, values, comb(nvars - 1 + degree, degree) if degree >= 0 else 0)


def _interreduce(generators: list[dict[Monomial, int]], p: int) -> list[dict[Monomial, int]]:
    """The nonzero homogeneous integer forms, with each degree group whose
    leading terms collide replaced by its reduced row echelon form: the
    same span in every degree, over the field of characteristic p, and
    distinct leads in every group.

    A degree group holds the forms of one degree (so f is a group of its
    own beside its partials when char | d).  If the grlex leading terms of
    a group are distinct it is kept: the same dicts, in the same order.
    Otherwise its rows are the nonzero rows of the reduced echelon form of
    its coefficient matrix, columns in grlex-descending order, rows in
    pivot order: mod p over F_p, leads 1; exact over Q, each row scaled to
    a primitive integer row with a positive lead (the RREF row, whose
    denominators are cleared and content divided out).  The groups are
    concatenated in the order of their first forms, so a list whose groups
    are contiguous (as _integer_generators makes them) keeps its order; a
    form the others span drops out.  When no group collides the input list
    itself is returned.

    Why ranks are kept.  Row operations keep a group's span, and over Q a
    nonzero scale per row does too, so the groups span the same forms of
    their degrees; the generators then span the same ideal, whose piece
    J_t, spanned by the products m*g of every generator g with every
    monomial m of degree t - deg g, is the same for every t.  The
    Koszul/F5 mask of _macaulay_rows keeps the span for any generator
    list, so the rows of the result span J_t too.  Why the result is
    faster: _split makes a sparse pivot of one row per leading column, and
    the partials of a dense form all lead at x0^(d-1), so only one
    partial's multiples become pivots and the rest fill the dense Schur
    block; distinct leads give every generator's multiples pivots, and the
    mask drops the multiples of more leads.  The elimination here is of
    one group, (n+1) x C(n+d-1, d-1) at most: small next to the matrix.
    """
    groups: dict[int, list[dict[Monomial, int]]] = {}
    for g in generators:
        groups.setdefault(sum(next(iter(g))), []).append(g)
    out, collided = [], False
    for group in groups.values():
        if len({max(g) for g in group}) < len(group):  # in one degree the grlex lead is the largest tuple
            group, collided = _reduced_echelon(group, p), True
        out += group
    return out if collided else generators


def _reduced_echelon(group: list[dict[Monomial, int]], p: int) -> list[dict[Monomial, int]]:
    """The nonzero rows of the reduced echelon form of forms of one degree,
    columns grlex-descending (in one degree, the tuples in reverse order),
    rows in pivot order, each _normalized.  A row is updated fraction-free,
    row*a - top*b for the pivot row top with lead a, and normalized again:
    a nonzero scale per row, so each final row is the normalized multiple
    of its RREF row, which is unique."""
    monos = sorted({m for g in group for m in g}, reverse=True)
    rows = [_normalized([g.get(m, 0) for m in monos], p) for g in group]
    rank = 0
    for j in range(len(monos)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i, row in enumerate(rows):
            if i != rank and (b := row[j]):
                rows[i] = _normalized([top[j] * x - b * y for x, y in zip(row, top)], p)
        rank += 1
    return [{m: x for m, x in zip(monos, row) if x} for row in rows[:rank]]


def _normalized(row: list[int], p: int) -> list[int]:
    """The multiple of a row whose first nonzero entry is 1, as residues mod
    a prime p; over Q (p = 0) the primitive integer multiple whose first
    nonzero entry is positive.  A zero row stays zero."""
    if p:
        row = [x % p for x in row]
    lead = next((x for x in row if x), 0)
    if not lead:
        return row
    if p:
        inverse = pow(lead, -1, p)
        return [x * inverse % p for x in row]
    content = gcd(*row) if lead > 0 else -gcd(*row)
    return [x // content for x in row]


def ideal_graded_dim(
    generators: list[Polynomial],
    degree: int,
    field: FieldSpec | None = None,
    nvars: int | None = None,
) -> GradedDim:
    """Degree-t piece of the ideal spanned by homogeneous generators.

    Generators of degree above t contribute nothing; zero generators are
    skipped.  field/nvars are only needed when the list is empty.  All
    generators must share one ring, the given field/nvars where given
    (FieldMismatch, ArityMismatch otherwise), and be homogeneous
    (InhomogeneousGenerator).  The dimension is one exact rank of the
    Macaulay rows of their integer forms, interreduced as for is_smooth
    (_interreduce keeps every graded piece), linalg.rank_mod_p_int over
    the field.
    """
    if generators:
        field = generators[0].field if field is None else field
        nvars = generators[0].nvars if nvars is None else nvars
    elif field is None or nvars is None:
        raise ValueError("empty generator list needs explicit field and nvars")
    ring = Polynomial.zero(field, nvars)
    for g in generators:
        ring._check(g)
        if not g.is_homogeneous():
            raise InhomogeneousGenerator(f"generator {g} is not homogeneous")
    live, p = [g.numerators for g in generators if g], field.characteristic
    basis = monomial_basis(nvars, degree)  # refused past the memory budget before any row is built
    rows = _macaulay_rows(_interreduce(live, p), degree) if live else []
    return GradedDim(degree, basis, linalg.rank_mod_p_int(rows, p))


def is_smooth(f: Polynomial, t_max: int | None = None) -> bool:
    """Whether the projective hypersurface f = 0 is smooth.

    Equivalent to: the graded piece of the Jacobian ideal at
    default_degree_cap is full (fullness is monotone, and a smooth f fills
    by that degree).  The verdict holds over the algebraic closure as well,
    since fullness is a rank condition over the base field.  A t_max only
    lowers the degree; below the proven cap a False means "not full by
    t_max", not a proof of a singular point.

    The piece is built once, from the interreduced generators
    (_interreduce), which span it as the generators do.  Fewer rows than
    columns cannot fill it; otherwise one exact rank of its rows over the
    field decides (linalg.rank_mod_p_int, capped at the full width).
    """
    d, p = require_homogeneous(f, 1, "hypersurface form"), f.field.characteristic
    return _is_smooth(_interreduce(_integer_generators(f.numerators, d, p), p), f.nvars, d, p, t_max)


def _is_smooth(
    generators: list[dict[Monomial, int]], nvars: int, degree: int, p: int, t_max: int | None = None
) -> bool:
    """is_smooth of a nonzero degree-d form in nvars variables over the
    field of characteristic p, given _interreduce of the _integer_generators
    of its numerators, or of any nonzero multiple of them: each a nonzero
    constant times a Jacobian generator, whose rows span the same piece.
    Interreduction keeps each degree group's span, so the ideal and its
    piece at every degree are kept too, and the Koszul/F5 mask keeps the
    span for any generator list.  Over Q the interreduced rows are integer
    rows, so the probe mod linalg.PROBE_PRIME and the kernel lift still
    share one set of rows and one forward pass."""
    if nvars < 2:
        raise NotHomogeneous("need at least two variables for a projective hypersurface")
    cap = default_degree_cap(nvars, degree, p)
    if t_max is not None:
        if t_max < 0:
            return False
        cap = min(cap, t_max)
    # never empty: all partials vanish only when char | d, and then f is kept
    rows = _macaulay_rows(generators, cap)
    if len(rows) < rows.width:
        return False
    return linalg.rank_mod_p_int(rows, p, stop_at=rows.width) == rows.width
