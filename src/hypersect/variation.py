"""First-order variation of smooth hyperplane sections.

Fix a smooth degree-d form f in x0..xn (n >= 3, d >= 3) and a hyperplane
H whose pivot x_j is its first variable with a nonzero coefficient.
Moving H infinitesimally and following the section X cap H gives a
first-order deformation of the section.  On H, in n section coordinates,
the section is g = f|H, and the deformation along the direction l is
trivial exactly when q*l falls into the degree-d piece of g's Jacobian
ideal, where q = (df/dx_j)|H is the derivative of f across H, restricted
to H (Hyperplane.restrict gives both).  The linear forms l with q*l in
that piece form the criterion kernel, the first-order Kodaira-Spencer
test of Carlson-Griffiths; a zero kernel at a single smooth, non-vacuous
section certifies that sections vary maximally in moduli near H.

A zero kernel computed over Q or over F_p stays zero over every field
extension (kernel dimension is a rank computation over the base field),
so the positive certificate is sound over the algebraic closure.

Each trial runs on integer forms, {monomial: int}: the numerators of the
section g and of q, which Hyperplane.restrict computes in ints, residues
over F_p.  The section's generators are the integer partials of its
numerators, after the numerators themselves when char | d: each is a
nonzero constant times the matching Jacobian generator of g, and
interreducing them keeps each degree's span, so the span of every
graded piece, the smoothness rank and the criterion's ranks and kernel
are g's.  The kernel basis is read off the kernel vectors divided by
their lead entries, so no constant survives into the report.
"""

from __future__ import annotations

import dataclasses
import operator
import random
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from itertools import chain, count
from math import comb

import numpy as np

from . import linalg
from .errors import (
    DegreeTooSmall,
    DimensionTooSmall,
    NotHomogeneous,
    SingularInput,
    ZeroHyperplane,
)
from .fields import FieldSpec, Scalar
from .jacobian import _integer_generators, _interreduce, _is_smooth, _macaulay_rows, is_smooth
from .poly import (
    Monomial,
    Polynomial,
    _product,
    linear_coefficients,
    linear_form,
    partial_derivative,
    require_homogeneous,
)


class Hyperplane:
    """A projective hyperplane, stored as a pivot-normalized linear form.

    The lowest-index nonzero coefficient is scaled to 1, so proportional
    forms compare equal.
    """

    __slots__ = ("form", "pivot")

    def __init__(self, form: Polynomial):
        if form.is_zero():
            raise ZeroHyperplane("the zero form defines no hyperplane")
        d = require_homogeneous(form, 1, "hyperplane form")
        if d != 1:
            raise NotHomogeneous(f"hyperplane form has degree {d}, need a linear form")
        lead = max(form.numerators)  # x_pivot: the lowest index is the grlex-largest
        if form.numerators[lead] != form.denominator:
            form = Polynomial.from_integers(form.field, form.nvars, form.numerators, form.numerators[lead])
        self.form = form
        self.pivot = lead.index(1)

    @classmethod
    def from_coefficients(cls, field: FieldSpec, coefficients) -> "Hyperplane":
        return cls(linear_form(field, coefficients))

    @classmethod
    def coordinate(cls, field: FieldSpec, nvars: int, index: int) -> "Hyperplane":
        return cls(Polynomial.variable(field, nvars, index))

    @property
    def nvars(self) -> int:
        return self.form.nvars

    def coefficients(self) -> list[Scalar]:
        return linear_coefficients(self.form)

    def restrict(self, f: Polynomial) -> Polynomial:
        """f restricted to the hyperplane, in its n section coordinates.

        With pivot j and coefficients c (c_j = 1) the hyperplane is
        x_j = -sum_{i != j} c_i x_i.  Every other x_i becomes one section
        coordinate y_{s(i)}, where x0 takes the pivot's slot, s(0) = j - 1,
        and s(i) = i - 1 otherwise; x_j becomes -sum_{i != j} c_i y_{s(i)}.

        These images are those of the change phi that swaps x0 with x_j
        and shears, phi(x_i) = x_{s(i)+1} for i != j and phi(x_j) =
        x0 - sum_{i != j} c_i x_{s(i)+1}, followed by x0 = 0: restrict(f)
        is the x0 = 0 section of f moved by phi.  Only phi(x_j) contains
        x0, with coefficient 1, so the chain rule gives d(f o phi)/dx0 =
        (df/dx_j) o phi, and restrict(df/dx_j) is the x0-partial of the
        moved form on x0 = 0, polynomial for polynomial: the criterion
        form.

        The work is in ints.  The form's numerators a over its denominator
        D (a_j = D, since c_j = 1) make D*x_j the integer linear form
        L = -sum_{i != j} a_i y_{s(i)}.  With e the degree of f, a
        numerator c of x^m with k = m_j then gives c * D^(e-k) * y^r * L^k,
        r the other exponents in their slots s(i), over f's denominator
        times D^e: one power of L per k.  f must share the hyperplane's
        ring (ArityMismatch, FieldMismatch).
        """
        self.form._check(f)
        j, p, n = self.pivot, f.field.characteristic, self.nvars - 1
        scale, degree = self.form.denominator, max(f.degree(), 0)
        line = {}
        for m, a in self.form.numerators.items():
            if (i := m.index(1)) != j:
                slot = (j if i == 0 else i) - 1
                line[tuple(int(k == slot) for k in range(n))] = -a % p if p else -a
        powers = [{(0,) * n: 1}]
        for _ in range(max((m[j] for m in f.numerators), default=0)):
            powers.append(_product(powers[-1], line, p))
        out: dict[Monomial, int] = {}
        for m, c in f.numerators.items():
            k = m[j]
            rest = m[1:] if j == 0 else m[1:j] + (m[0],) + m[j + 1 :]
            c *= scale ** (degree - k)
            for mono, v in powers[k].items():
                key = tuple(map(operator.add, rest, mono))
                out[key] = out.get(key, 0) + c * v
        return Polynomial.from_integers(f.field, n, out, f.denominator * scale**degree)

    def __eq__(self, other) -> bool:
        return isinstance(other, Hyperplane) and self.form == other.form

    def __hash__(self):
        return hash(self.form)

    def __str__(self) -> str:
        return self.form.to_text()

    def __repr__(self) -> str:
        return f"Hyperplane({self.form.to_text()})"


class CriterionStatus(str, Enum):
    SINGULAR_SECTION = "singular_section"
    VACUOUS = "vacuous"
    COMPUTED = "computed"


class _OnFirstRead:
    """CriterionReport.kernel_basis: the basis given to the constructor or,
    when the report holds a lift, the lift's result, computed on the first
    read and kept."""

    def __get__(self, report, owner=None):
        if report is None:
            return None  # the field's default
        if report._lift is not None:
            report._basis, report._lift = report._lift(), None
        return report._basis

    def __set__(self, report, value):
        report._basis, report._lift = value, None


@dataclass
class CriterionReport:
    """Outcome of the first-order criterion at one hyperplane.

    kernel fields are populated only when status is COMPUTED; the kernel
    basis vectors are linear forms in the n section variables, normalized
    with leading coefficient 1.  criterion_kernel may leave the basis to
    be lifted on the first read of kernel_basis, by _lift, which takes no
    part in comparisons or repr; these read kernel_basis, and so lift it.
    kernel_dim and graded_ideal_dim are exact either way.
    """

    hyperplane: Hyperplane
    status: CriterionStatus
    criterion_form: Polynomial | None = None
    kernel_basis: list[Polynomial] | None = _OnFirstRead()
    kernel_dim: int | None = None
    graded_ideal_dim: int | None = None
    _lift: Callable[[], list[Polynomial]] | None = dataclasses.field(default=None, init=False, compare=False, repr=False)


def _check_criterion_domain(f: Polynomial) -> tuple[int, int]:
    d = require_homogeneous(f, 1, "hypersurface form")
    n = f.nvars - 1
    if n <= 2 or d <= 2:
        raise DimensionTooSmall(
            f"criterion needs ambient dimension n >= 3 and degree d >= 3, got n={n}, d={d}"
        )
    return d, n


def criterion_kernel(
    f: Polynomial, hyperplane: Hyperplane, t_max: int | None = None
) -> CriterionReport:
    """Run the first-order criterion for f at one hyperplane.

    The section is hyperplane.restrict(f) and the criterion form q is
    hyperplane.restrict(df/dx_pivot); restrict checks that f shares the
    hyperplane's ring (ArityMismatch, FieldMismatch).  Reports
    SINGULAR_SECTION when the section is not smooth, VACUOUS when q
    vanishes, and otherwise the exact kernel of l -> class of q*l in the
    degree-d piece of the section's Jacobian ring.

    What the kernel measures (Carlson-Griffiths, 1980).  A first-order
    change g + e*h of the section's form g is induced by a linear change
    of its n coordinates exactly when h = sum a_ij x_i dg/dx_j, that is
    when h lies in J_d, the degree-d piece of the Jacobian ideal: J_d is
    the tangent space to g's orbit under GL_n.  So (R/J)_d, R the
    polynomial ring, is the tangent space at the section to the moduli of
    degree-d forms in n variables, and class of q*l in it is the
    first-order change of moduli as the hyperplane moves along l.  The
    kernel is the directions along which the section's moduli do not
    move to first order.

    One integer Macaulay matrix serves it, built from the section's
    generators interreduced once (jacobian._interreduce), the list its
    smoothness test ranks too: the m rows spanning the degree-d piece J_d
    of the section's Jacobian ideal, then x_0*q, ..., x_{n-1}*q (never
    pruned: no generator of degree >= 2 has a leading term dividing a
    linear monomial), over the N = dim R_d monomials of degree d.  With
    r the rank of all rows, x_i*q raises the rank exactly when it is not
    in J_d plus the span of the earlier x_k*q, so kernel_dim = n - (r -
    dim J_d).

    Why dim J_d = m when char does not divide d.  A True from _is_smooth
    is a full piece at some degree, under a t_max too, so the section g
    has no singular point over the algebraic closure; by Euler, d*g =
    sum_i x_i*dg/dx_i, so its n partials have no common zero there.  Then
    none is zero, and, n forms in n variables, they are a regular
    sequence.  Their syzygies are Koszul, generated by dg/dx_j*e_i -
    dg/dx_i*e_j, of degree d-1 >= 2, so none is linear, and the n^2
    products x_k*dg/dx_i are independent over the base field.
    Interreduction keeps n forms of the same span, and no Koszul mask
    applies to linear multipliers, so the J_d rows are n^2 independent
    products in another basis of the partials: m = n^2 <= N = C(n+d-1,
    d).  When char p divides d, g is a generator itself, and Euler's
    identity is a linear syzygy of the partials, so dim J_d is the rank
    mod p of the first m rows.

    Why one rank fixes the kernel.  r is the rank of all rows mod p over
    F_p, exact, and over Q mod linalg.PROBE_PRIME (linalg.rank_mod_p_int).
    A minor that is nonzero mod a prime is nonzero over Z, so r <= r_Q,
    and counting bounds r_Q <= min(N, m + n).  When r reaches that bound,
    r_Q = r and kernel_dim over Q is n - (r - m), with no lift: the
    maximal rank, kernel_dim = max(n - (N - n^2), 0), as N - n^2 is the
    moduli count.  Otherwise, over Q, the basis is lifted at once and
    kernel_dim is its length.

    The basis.  The criterion rows transposed, one stable argsort of the
    entries by column (linalg.SparseRows.transpose), have one vector in
    linalg.integer_kernel per free column fc >= m: fc is free exactly when
    x_{fc-m}*q lies in J_d plus the span of the earlier q columns.
    Restricted to the last n coordinates it is a form l with q*l in J_d,
    nonzero at x_{fc-m} and 0 at the other free q columns, and these forms
    span the criterion kernel.  A kernel member is fixed by its
    coefficients at the free columns, so, scaled to leading coefficient 1,
    they are the basis kernel_basis reads off the residues of x_i*q modulo
    J_d, whatever rows span J_d.  When the rank fixed kernel_dim, the
    transpose is built and its integer_kernel run only when kernel_basis
    is first read, which certify never does.

    Over Q and over its algebraic closure the answer is the same: a rank
    is the size of the largest nonzero minor, and a minor of a rational
    matrix is one rational number whichever field holds it, so the ranks,
    the kernel dimension and a basis over Q stay those over any extension.
    """
    d, n = _check_criterion_domain(f)
    section = hyperplane.restrict(f)
    if not section:
        return CriterionReport(hyperplane, CriterionStatus.SINGULAR_SECTION)
    p = f.field.characteristic
    generators = _interreduce(_integer_generators(section.numerators, d, p), p)
    if not _is_smooth(generators, n, d, p, t_max):
        return CriterionReport(hyperplane, CriterionStatus.SINGULAR_SECTION)
    q = hyperplane.restrict(partial_derivative(f, hyperplane.pivot))
    if not q:
        return CriterionReport(hyperplane, CriterionStatus.VACUOUS, criterion_form=q)
    rows = _macaulay_rows(generators + [q.numerators], d)
    m = len(rows) - n
    g = linalg.rank_mod_p_int(rows.take(np.arange(m)), p) if p and d % p == 0 else m
    r = linalg.rank_mod_p_int(rows, p or linalg.PROBE_PRIME)
    report = CriterionReport(
        hyperplane, CriterionStatus.COMPUTED, criterion_form=q, kernel_dim=n - (r - g), graded_ideal_dim=g
    )
    report._lift = lambda: _kernel_forms(rows, m, n, f.field)
    if not p and r < min(rows.width, m + n):
        report.kernel_dim = len(report.kernel_basis)
    return report


def _kernel_forms(rows: linalg.SparseRows, m: int, n: int, field: FieldSpec) -> list[Polynomial]:
    """The criterion kernel basis, off integer_kernel of the criterion rows
    transposed: m columns spanning J_d, then the n columns x_i*q
    (criterion_kernel)."""
    matrix = rows.transpose()
    _, free, vectors = linalg.integer_kernel(matrix, matrix.width, field.characteristic)
    units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    kernel = []
    for fc, v in zip(free, vectors):
        if fc >= m:
            entries = {u: x for i, u in enumerate(units) if (x := v.get(m + i))}
            kernel.append(Polynomial.from_integers(field, n, entries, next(iter(entries.values()))))
    return kernel


class CertifyVerdict(str, Enum):
    CERTIFIED = "certified"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ScanStrategy:
    """Deterministic trial schedule: coordinates, small perturbations of x0,
    then seeded random hyperplanes, up to the trial budget."""

    seed: int = 0
    trial_budget: int = 64


@dataclass
class CertifyReport:
    verdict: CertifyVerdict
    witness: Hyperplane | None
    trials: list[CriterionReport]
    seed: int
    trial_budget: int


def _hyperplane_schedule(field: FieldSpec, nvars: int, strategy: ScanStrategy):
    """The trial hyperplanes, from integer coefficient rows: the coordinate
    planes, x0 + x_i for each i, (1, 1, 2, 3, ...), all ones, then seeded
    random rows, residues over F_p and integers in [-5, 5] over Q, with
    all-zero draws skipped."""
    p = field.characteristic
    units = [tuple(int(k == i) for k in range(nvars)) for i in range(nvars)]
    rng = random.Random(strategy.seed)
    draws = (tuple(rng.randrange(p) if p else rng.randint(-5, 5) for _ in range(nvars)) for _ in count())
    fixed = [*units, *((1, *unit[1:]) for unit in units[1:]), (1, *range(1, nvars)), (1,) * nvars]
    for row in chain(fixed, filter(any, draws)):
        yield Hyperplane(Polynomial.from_integers(field, nvars, dict(zip(units, row))))


def certify_max_variation(
    f: Polynomial, strategy: ScanStrategy = ScanStrategy(), t_max: int | None = None
) -> CertifyReport:
    """Scan hyperplanes until one certifies maximal variation of sections.

    A trial certifies when its section is smooth, the criterion form is
    nonzero, and the criterion kernel is zero.  Trials are deterministic
    given the strategy; every trial, conclusive or not, counts against the
    budget.  With no certifying trial the verdict is INCONCLUSIVE, which
    carries no negative claim.
    """
    _check_criterion_domain(f)
    if not is_smooth(f, t_max=t_max):
        raise SingularInput("the ambient hypersurface must be smooth")
    trials: list[CriterionReport] = []
    for hyperplane in _hyperplane_schedule(f.field, f.nvars, strategy):
        if len(trials) >= strategy.trial_budget:
            break
        report = criterion_kernel(f, hyperplane, t_max=t_max)
        trials.append(report)
        if report.status is CriterionStatus.COMPUTED and report.kernel_dim == 0:
            return CertifyReport(
                CertifyVerdict.CERTIFIED, hyperplane, trials, strategy.seed, strategy.trial_budget
            )
    return CertifyReport(
        CertifyVerdict.INCONCLUSIVE, None, trials, strategy.seed, strategy.trial_budget
    )


def survey_kernels(
    f: Polynomial, hyperplanes, t_max: int | None = None
) -> list[CriterionReport]:
    """Criterion reports for each hyperplane, in the given order."""
    return [criterion_kernel(f, h, t_max=t_max) for h in hyperplanes]


def moduli_dim(d: int, n: int) -> int:
    """Moduli count for degree-d hypersurfaces in P^n: C(n+d, d) - (n+1)^2."""
    if d < 3:
        raise DegreeTooSmall(f"moduli counts need degree d >= 3, got {d}")
    if n < 1:
        raise DimensionTooSmall(f"need n >= 1, got {n}")
    return comb(n + d, d) - (n + 1) ** 2


def sections_exceed_moduli(d: int, n: int) -> bool:
    """Whether the n-dimensional family of hyperplane sections of a
    degree-d hypersurface in P^n outnumbers the moduli of degree-d
    hypersurfaces in P^{n-1}."""
    return n > moduli_dim(d, n - 1)
