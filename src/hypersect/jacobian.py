"""Graded pieces of Jacobian ideals and the smoothness decision.

For a form f of degree d in x0..xn the Jacobian ideal is generated by f
together with all first partials.  The projective hypersurface f = 0 is
smooth over the algebraic closure exactly when that ideal is irrelevant,
i.e. when some graded piece fills the whole space of forms of its degree.
Fullness of a graded piece is a rank condition on a matrix defined over
the base field, so it is insensitive to field extension and can be decided
here exactly.

Three facts keep the decision cheap:

* Fullness is monotone in the degree: a full piece stays full after
  multiplying by the variables.  So "full at some t <= T" is equivalent
  to "full at T".
* When f is smooth and the characteristic does not divide d, the partials
  form a regular sequence, and the first full degree is exactly
  (n+1)(d-2) + 1.  Probing that degree first settles almost every smooth
  input with the smallest possible matrix.
* Quotient dimensions obey Macaulay growth, and growth that achieves the
  Macaulay bound persists (Gotzmann).  Two consecutive equal quotient
  dimensions c <= t-1 past the generator degrees therefore pin the
  quotient at c forever, certifying the singular case from small matrices
  instead of one large elimination at the cap.  Over Q the walk sees
  quotient dimensions mod a prime, which bound the exact ones from above;
  one exact rank at the upper degree t of such a pair settles it, since an
  exact value c at t forces the exact value c at t-1 (is_smooth has the
  proof).

Every matrix holds the monomial multiples of the generators in one degree,
less those the leading-term (Koszul/F5) criterion shows redundant: fewer
rows, same span.  Unless char | d, the scan and the criterion drop f, which
Euler's identity puts in the ideal of its partials (_spanning_generators).

Over a small prime field, singular inputs are also screened by scanning
projective rational points for a common zero of the generators.  Over Q,
ranks of the Macaulay rows (denominators cleared) are probed mod
linalg.PROBE_PRIME, the largest prime below 2^20, where the elimination
delays its reductions: full rank mod any prime certifies full rank over
Q, and a rank drop only sends the walk on.  A pair or the
cap is confirmed by one exact rank over Q of the rows already probed
(linalg.rank_q_certified): kernels mod p, lifted to Q and verified over Z,
so a "not smooth" over Q rests on checked kernel vectors and every
returned verdict is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, lru_cache
from math import comb, lcm

import numpy as np

from . import linalg
from .errors import InhomogeneousGenerator, NotHomogeneous
from .fields import FieldSpec
from .linalg import PROBE_PRIME
from .poly import (
    Monomial,
    Polynomial,
    grlex_key,
    monomial_basis,
    partial_derivative,
    require_homogeneous,
)


def jacobian_generators(f: Polynomial) -> list[Polynomial]:
    """[f, df/dx0, ..., df/dxn]; partials may vanish in small characteristic."""
    require_homogeneous(f, 1, "hypersurface form")
    return [f] + [partial_derivative(f, i) for i in range(f.nvars)]


def _spanning_generators(f: Polynomial) -> list[Polynomial]:
    """The nonzero Jacobian generators of f, f dropped unless char | d
    (Euler's sum_i x_i*df/dx_i = d*f puts f in the ideal of its partials)."""
    d, p = f.degree(), f.field.characteristic
    skip_f = 1 if p == 0 or d % p else 0
    return [g for g in jacobian_generators(f)[skip_f:] if not g.is_zero()]


def default_degree_cap(nvars: int, degree: int) -> int:
    """Last degree the smoothness scan inspects: (n+2)(d-1) - n for n = nvars-1."""
    n = nvars - 1
    return (n + 2) * (degree - 1) - n


@dataclass(frozen=True)
class GradedDim:
    """Degree-t piece of a homogeneous ideal: the degree-t monomials
    (grlex descending) and the exact dimension of the piece in their span."""

    degree: int
    basis: list[Monomial]
    dimension: int


@lru_cache(maxsize=64)
def _exponent_array(nvars: int, degree: int) -> np.ndarray:
    """monomial_basis(nvars, degree) as a read-only int64 array, a row per
    monomial, built once per (nvars, degree) while it stays in the cache."""
    exponents = np.array(monomial_basis(nvars, degree), dtype=np.int64).reshape(-1, nvars)
    exponents.flags.writeable = False
    return exponents


@lru_cache(maxsize=64)
def _below(nvars: int, degree: int) -> np.ndarray:
    """below[k, s] = C(s+k-1, k), the count of monomials in k variables of
    degree under s, for k < nvars and s <= degree."""
    counts = [[comb(s + k - 1, s - 1) if s else 0 for s in range(degree + 1)] for k in range(nvars)]
    return np.array(counts, dtype=np.int64)


def _tails(exponents: np.ndarray) -> np.ndarray:
    """tails[..., i] = e_(i+1) + ... + e_(n-1), for i < n-1."""
    return exponents.sum(-1, keepdims=True) - np.cumsum(exponents[..., :-1], axis=-1)


def _macaulay_rows(
    generators: list[Polynomial], degree: int
) -> tuple[list[Monomial], list[linalg.Row]]:
    """Degree-t monomial basis and sparse integer rows spanning the ideal's piece.

    Row m*g_i holds m*g_i with g_i's denominators cleared, as (column,
    value) pairs over the basis, columns ascending: the terms of g_i are
    sorted grlex-descending once, multiplying by m keeps that order, and
    the basis is grlex-descending.  Zero generators are skipped, and so is
    m*g_i when LT(g_j) divides m for some j < i (grlex leading terms; the
    Koszul/F5 criterion).  The span stays the
    same over any field: with u = m/LT(g_j) and c = LC(g_j),
    m*g_i = (u*g_i/c)*g_j + (m - u*g_j/c)*g_i, rows of g_j plus rows of g_i
    at monomials below m; induct on (i, m).  Mod a prime where an LC
    vanishes the rank can only drop, so it still bounds the rank over Q.

    The multipliers m of each generator come as one array, the criterion
    as one mask over it.  A degree-t monomial e sits in the basis after
    those with the same e_0..e_(i-1) and a larger e_i, for each i < n-1:
    C(T_i+k-1, k) of them, with k = n-1-i later variables and T_i =
    e_(i+1) + ... + e_(n-1) the degree they share (_below).  So its column
    is the sum of those counts, and as T_i(m*x^a) = T_i(m) + T_i(x^a) the
    columns of a whole generator are a sum of n-1 table lookups.  Each
    count, and the column, is below the basis length, so int64 holds them
    for any number of variables.
    """
    nvars = generators[0].nvars
    basis = list(map(tuple, _exponent_array(nvars, degree).tolist()))
    below = _below(nvars, degree)
    shared = np.arange(len(basis), dtype=object)  # one int object per column, for every row
    rows: list[linalg.Row] = []
    leads: list[Monomial] = []
    for g in generators:
        if g.is_zero():
            continue
        e = g.degree()
        if not g.is_homogeneous(e):
            raise InhomogeneousGenerator(f"generator {g} is not homogeneous")
        monos = sorted(g.terms, key=grlex_key, reverse=True)
        if e <= degree:
            scale = lcm(*(c.value.denominator for c in g.terms.values()))  # 1 over F_p
            coeffs = [int(g.terms[mono].value * scale) for mono in monos]
            multipliers = _exponent_array(nvars, degree - e)
            if leads:
                divided = (multipliers[:, None, :] >= np.array(leads)).all(-1).any(-1)
                multipliers = multipliers[~divided]
            m_tails, g_tails = _tails(multipliers), _tails(np.array(monos, dtype=np.int64))
            columns = np.zeros((len(multipliers), len(monos)), dtype=np.int64)
            for i in range(nvars - 1):
                columns += below[nvars - 1 - i][m_tails[:, i, None] + g_tails[:, i]]
            rows.extend(list(zip(row, coeffs)) for row in shared[columns].tolist())
        leads.append(monos[0])
    return basis, rows


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
    (FieldMismatch, ArityMismatch otherwise).  The dimension is one exact
    rank of the Macaulay rows: mod p over F_p, linalg.rank_q_certified
    over Q.
    """
    if generators:
        field = generators[0].field if field is None else field
        nvars = generators[0].nvars if nvars is None else nvars
    elif field is None or nvars is None:
        raise ValueError("empty generator list needs explicit field and nvars")
    ring = Polynomial.zero(field, nvars)
    for g in generators:
        ring._check(g)
    live = [g for g in generators if not g.is_zero()]
    basis, rows = _macaulay_rows(live, degree) if live else (monomial_basis(nvars, degree), [])
    p = field.characteristic
    rank = linalg.rank_mod_p_int(rows, p) if p else linalg.rank_q_certified(rows, len(basis))
    return GradedDim(degree, basis, rank)


# -- fast fullness ------------------------------------------------------------


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


def is_smooth(f: Polynomial, t_max: int | None = None) -> bool:
    """Whether the projective hypersurface f = 0 is smooth.

    Equivalent to: some graded piece of the Jacobian ideal with degree at
    most the cap is full.  The verdict holds over the algebraic closure as
    well, since fullness is a rank condition over the base field.

    The scan first probes the degree where a smooth hypersurface away from
    char | d must fill up, (n+1)(d-2) + 1.  Failing that, it walks the
    quotient dimensions h(t) upward, each degree built and ranked mod the
    probe prime once (p over F_p, PROBE_PRIME over Q); h(t) = 0 certifies
    smoothness.  h_exact(t), the exact quotient dimension, equals h(t) over
    F_p and whenever the rows are independent mod the probe; otherwise it
    is an exact rank over Q (linalg.rank_q_certified, kernel vectors
    verified over Z).  One exact rank decides a pair:

    A rank mod p never exceeds the rank over Q, so h_Q <= h at every
    degree.  Let t-1 >= d and h(t-1) = h(t) = c <= t-1.  If h_Q(t) = c,
    then h_Q(t-1) <= c <= t-1.  Macaulay's bound gives h_Q(t) <=
    h_Q(t-1)^<t-1>, and a value at most t-1 is its own <t-1> bound, so
    h_Q(t) <= h_Q(t-1), and h_Q(t-1) = c.  That is maximal growth past the
    generator degrees, so by Gotzmann persistence h_Q stays c > 0 for ever
    and f is singular.  If h_Q(t) = 0 the piece is full and f is smooth.
    Any other exact value decides nothing and the walk goes on.  Over F_p
    h_exact = h = c, so the same test returns False at once.  Past the
    walk, the cap decides by its exact quotient dimension.
    """
    d = require_homogeneous(f, 1, "hypersurface form")
    if f.nvars < 2:
        raise NotHomogeneous("need at least two variables for a projective hypersurface")
    n = f.nvars - 1
    if t_max is not None:
        cap = t_max
        if cap < 0:
            return False
    else:
        # the formula goes negative only for linear forms; degree 0 suffices there
        cap = max(default_degree_cap(f.nvars, d), 0)
    p = f.field.characteristic
    gens = _spanning_generators(f)
    if not gens:
        return False
    probe = p or PROBE_PRIME
    expected_full = max((n + 1) * (d - 2) + 1, d - 1, 0)
    pieces = {}  # degree -> (basis, rows), dropped once the walk passes the degree

    @cache
    def h(t: int) -> int:
        """Quotient dimension at t mod the probe: exact over F_p, an upper bound over Q."""
        basis, rows = pieces[t] = _macaulay_rows(gens, t)
        # a failed stop_at probe runs on to the whole rank mod the probe
        full = len(basis) if t == expected_full and len(rows) >= len(basis) else None
        return len(basis) - (linalg.rank_mod_p_int(rows, probe, full) if rows else 0)

    @cache
    def h_exact(t: int) -> int:
        c = h(t)
        basis, rows = pieces[t]
        # a rank over Q lies between the rank mod the probe and the row count
        if p or c == len(basis) - len(rows):
            return c
        return len(basis) - linalg.rank_q_certified(rows, len(basis))

    if expected_full <= cap and h(expected_full) == 0:
        return True
    if f.field.is_prime_field and _rational_singular_point(gens, f.field, f.nvars):
        return False
    for t in range(max(d - 1, 0), cap + 1):
        pieces.pop(t - 1, None)
        c = h(t)
        if c == 0:
            return True
        if t - 1 >= d and c <= t - 1 and h(t - 1) == c and h_exact(t) in (0, c):
            return h_exact(t) == 0
    return h_exact(cap) == 0

