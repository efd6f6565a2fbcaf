"""hypersect: exact first-order variation of hyperplane sections.

Certifies, by exact linear algebra in graded pieces of Jacobian rings,
that the smooth hyperplane sections of a smooth projective hypersurface
vary maximally in moduli.  Works over Q and over prime fields F_p.
"""

from .errors import (
    ArityMismatch,
    BadCharacteristic,
    CompositeCharacteristic,
    DegreeTooSmall,
    DimensionTooSmall,
    DivisionByZero,
    FieldMismatch,
    HypersectError,
    IndexOutOfRange,
    InhomogeneousGenerator,
    NotHomogeneous,
    ParseError,
    ResourceLimit,
    SingularInput,
    SingularMatrix,
    UnknownVariable,
    UsageError,
    ZeroHyperplane,
)
from .fields import FieldSpec, Scalar, make_field
from .parsing import parse_poly
from .poly import (
    LinearChange,
    Monomial,
    Polynomial,
    linear_coefficients,
    linear_form,
    monomial_basis,
    partial_derivative,
    substitute_linear,
)
from .jacobian import (
    default_degree_cap,
    ideal_graded_dim,
    is_smooth,
    jacobian_generators,
)
from .variation import (
    CertifyReport,
    CertifyVerdict,
    CriterionReport,
    CriterionStatus,
    Hyperplane,
    ScanStrategy,
    certify_max_variation,
    criterion_kernel,
    moduli_dim,
    sections_exceed_moduli,
    survey_kernels,
)
from . import fixtures

__all__ = [
    "ArityMismatch",
    "BadCharacteristic",
    "CertifyReport",
    "CertifyVerdict",
    "CompositeCharacteristic",
    "CriterionReport",
    "CriterionStatus",
    "DegreeTooSmall",
    "DimensionTooSmall",
    "DivisionByZero",
    "FieldMismatch",
    "FieldSpec",
    "Hyperplane",
    "HypersectError",
    "IndexOutOfRange",
    "InhomogeneousGenerator",
    "LinearChange",
    "Monomial",
    "NotHomogeneous",
    "ParseError",
    "Polynomial",
    "ResourceLimit",
    "Scalar",
    "ScanStrategy",
    "SingularInput",
    "SingularMatrix",
    "UnknownVariable",
    "UsageError",
    "ZeroHyperplane",
    "certify_max_variation",
    "criterion_kernel",
    "default_degree_cap",
    "fixtures",
    "ideal_graded_dim",
    "is_smooth",
    "jacobian_generators",
    "linear_coefficients",
    "linear_form",
    "make_field",
    "moduli_dim",
    "monomial_basis",
    "parse_poly",
    "partial_derivative",
    "sections_exceed_moduli",
    "substitute_linear",
    "survey_kernels",
    "__version__",
]

__version__ = "0.1.0"
