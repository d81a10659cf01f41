"""Exception types shared across the package."""


class BlendsError(Exception):
    """Base class for all library errors."""


class CompatibilityError(BlendsError, ValueError):
    """Operands do not share the layout an operation requires (knots, grades, lengths)."""


class SeriesDivisionError(BlendsError, ZeroDivisionError):
    """Series division attempted with a zero constant term in the divisor."""


class EvalOverflowError(BlendsError, OverflowError):
    """A blend evaluation produced a non-finite intermediate or result.

    Raised instead of silently returning inf/nan; typically triggered by the
    power coefficients, which grow like C(m+n, m) (from grade 514 when m = n).
    """


class OffPathError(BlendsError, ValueError):
    """Requested evaluation point does not lie on (or near) any segment."""


class DocumentError(BlendsError, ValueError):
    """A serialized document failed to parse or validate; the message carries a location."""


class SolveError(BlendsError, RuntimeError):
    """The marching solver could not complete (stepsize underflow, singular system, ...)."""
