"""Exception types shared across the library, and its one memory budget.

Every error raised deliberately by hypersect derives from HypersectError,
so callers (and the CLI) can catch one base class and map each condition
to a stable code: the class name.
"""

import os

try:
    import resource
except ImportError:  # not on every platform
    resource = None


class HypersectError(Exception):
    """Base class for all hypersect errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


class CompositeCharacteristic(HypersectError):
    """Field characteristic was neither 0 nor a prime."""


class FieldMismatch(HypersectError):
    """Two operands live over different fields."""


class DivisionByZero(HypersectError, ZeroDivisionError):
    """A denominator that vanishes in the field."""


class ArityMismatch(HypersectError):
    """Operands disagree on the number of variables."""


class IndexOutOfRange(HypersectError, IndexError):
    """A variable index is outside 0..nvars-1."""


class NotHomogeneous(HypersectError):
    """A polynomial required to be homogeneous (of positive degree) is not."""


class InhomogeneousGenerator(NotHomogeneous):
    """An ideal generator fails the homogeneity requirement."""


class ParseError(HypersectError):
    """Polynomial text does not conform to the input grammar.

    `position` is the 0-based character offset where scanning failed.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class UnknownVariable(ParseError):
    """A variable token names an index outside the declared ring."""


class ZeroHyperplane(HypersectError):
    """The zero linear form does not define a hyperplane."""


class SingularMatrix(HypersectError):
    """A square matrix required to be invertible is not."""


class DimensionTooSmall(HypersectError):
    """The criterion needs ambient dimension n >= 3 and degree d >= 3."""


class DegreeTooSmall(HypersectError):
    """Moduli counts are only defined for degree d >= 3."""


class SingularInput(HypersectError):
    """The ambient hypersurface must be smooth before hyperplanes are scanned."""


class BadCharacteristic(HypersectError):
    """A fixture or operation is restricted to particular characteristics."""


class ResourceLimit(HypersectError):
    """A request exceeds a limit of the running process or machine, such as
    the number of digits Python converts from one integer to text, or the
    memory budget (require_memory) a term, a list or a table would pass."""


def require_memory(nbytes: int, what: str) -> None:
    """Raise ResourceLimit when nbytes, a lower bound on what `what` takes,
    passes the memory budget: the smaller of the physical memory os.sysconf
    reports and the soft RLIMIT_AS address-space limit, of those known."""
    limits = []
    try:
        limits.append(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, OSError, ValueError):
        pass
    if resource is not None and (soft := resource.getrlimit(resource.RLIMIT_AS)[0]) != resource.RLIM_INFINITY:
        limits.append(soft)
    if limits and nbytes > min(limits):
        raise ResourceLimit(f"{what} needs more than the {min(limits)} bytes of this process's memory budget")


class UsageError(HypersectError):
    """Malformed command-line request."""
