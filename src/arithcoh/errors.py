"""Exception types shared across the package."""


class ArithcohError(Exception):
    """Base class for all errors raised by this package."""


class NotPositiveDefinite(ArithcohError):
    """A Gram matrix failed Cholesky factorization (pivot <= 0).

    Signals an invalid metric or an ideal basis that is not full rank.
    """


class EnumerationBudgetExceeded(ArithcohError):
    """Lattice enumeration would produce more points than the configured cap.

    The metric is too flat for direct summation at the requested tolerance.
    """


class ToleranceUnreachable(ArithcohError):
    """The enumeration radius growth stalled before the tail bound met tol."""


class CertificationFailed(ArithcohError):
    """A computed value broke a bound that holds in exact arithmetic.

    The message carries the value and its certified error, so the fault can
    be traced; this signals a numerical defect, not bad input.
    """


class InvalidFieldSpec(ArithcohError):
    """A field specification is malformed (e.g. non-squarefree quadratic d)."""


class DescriptorInconsistent(ArithcohError):
    """A descriptor file failed a cross-check; the message names the invariant."""


class UnsupportedField(ArithcohError):
    """The requested operation needs splitting data the field does not carry."""


class InvalidDivisor(ArithcohError):
    """A divisor descriptor is malformed or refers to nonexistent primes."""


class InvalidGhostSpace(ArithcohError):
    """A ghost-space descriptor violates one of its invariants (named in msg)."""
