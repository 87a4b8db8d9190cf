"""Shared exception types."""


class DsubError(Exception):
    """Base class for the errors this package raises on bad input."""


class InternalLimit(RuntimeError):
    """A recursion-depth safety valve fired.

    Reaching this limit on any well-formed input is a bug, never an
    expected outcome, so it is no :class:`DsubError`: callers should let it
    propagate, and the CLI reports it as an internal error.
    """
