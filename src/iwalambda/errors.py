"""Error taxonomy, aligned with the CLI exit codes.

All errors subclass ValueError so plain library users can catch them
without importing this module.
"""


class IwalambdaError(ValueError):
    """Base class for package errors, and itself malformed input: the
    constructors that read command-line data raise it directly."""

    exit_code = 1


class FieldError(IwalambdaError):
    """Invalid field specification (bad conductor, subgroup, or parity data)."""

    exit_code = 2


class PrimeSetError(IwalambdaError):
    """Invalid prime set (duplicates, wild prime where a tame one is required, ...)."""

    exit_code = 3


class ScaleError(IwalambdaError):
    """Requested computation exceeds the supported desk scale."""

    exit_code = 4


class InconsistentDataError(IwalambdaError):
    """Input data contradicts a structural constraint (e.g. negative group order)."""

    exit_code = 5
