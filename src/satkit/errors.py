"""Exception taxonomy shared by the whole package.

ParseError (and its ValidationError subclass) map to CLI exit code 2,
DomainError to exit code 1, and InternalError (a broken invariant inside
satkit's own construction code, never a fault of the input) to exit code 3.
"""


class SatkitError(Exception):
    """Base class for all errors raised by satkit."""


class ParseError(SatkitError):
    """Malformed input text.  ``position`` is a character offset when known."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class ValidationError(ParseError):
    """Structurally well-formed input that violates a diagram invariant."""


class DomainError(SatkitError):
    """Operation precondition violated (bad component, wrong winding, ...)."""


class InternalError(SatkitError):
    """An internal invariant failed: a construction produced an inconsistent
    wiring.  This is a bug in satkit, not malformed input."""


def built(cls, *args):
    """Construct an object satkit assembled itself.  Its validation can
    then fail only through a satkit bug, so a ``ValidationError`` is raised
    again as an ``InternalError``."""
    try:
        return cls(*args)
    except ValidationError as exc:
        raise InternalError(f"built an invalid {cls.__name__}: {exc}") from exc
