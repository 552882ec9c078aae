"""Exception types shared across the package.

The CLI maps these onto exit codes: input/format problems exit 1,
violated operation preconditions exit 2, refused oversize instances exit 3.
A failed internal self-check raises ``AssertionError`` and exits 4.
"""


class DynmonoError(Exception):
    """Base class for all errors raised by this package."""


class InputFormatError(DynmonoError, ValueError):
    """Malformed input document (edge list, seed set, rho string, config)."""


class PreconditionError(DynmonoError, ValueError):
    """An operation was called on inputs outside its stated domain."""


class SizeLimitError(DynmonoError, RuntimeError):
    """An exhaustive computation was refused because the instance is too large."""
