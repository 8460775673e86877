"""Exception taxonomy shared by the whole package, and the frozen record
base its value classes derive from.

ParseError (and its ValidationError subclass) map to CLI exit code 2,
DomainError to exit code 1, and InternalError (a broken invariant inside
satkit's own construction code, never a fault of the input) to exit code 3.
"""

from operator import attrgetter


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


_set = object.__setattr__


class Record:
    """A frozen value class.  A subclass's own annotations are its fields,
    in order, and a class attribute gives a field its default.

    ``__init__`` takes the fields by position or keyword, a missing, extra
    or unknown one raising ``TypeError``, then runs ``__post_init__``, which
    may check the fields and normalize them with ``object.__setattr__``.
    Records are equal only to records of the same class with equal fields,
    hash as the tuple of their fields and reject assignment and deletion.
    Nothing is compiled per class, so defining one costs no ``exec``."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        get = attrgetter(*fields)
        cls._fields = fields
        cls._defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
        # the field tuple, also for one field, where attrgetter gives the
        # value; an attrgetter is no descriptor, so it needs no staticmethod
        cls._values = get if len(fields) > 1 else staticmethod(lambda r: (get(r),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        for name, value in zip(fields, args):
            _set(self, name, value)
        if kwargs or len(args) != len(fields):
            if len(args) > len(fields):
                raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, got {len(args)}")
            for name in fields[len(args):]:
                if name in kwargs:
                    value = kwargs.pop(name)
                elif name in self._defaults:
                    value = self._defaults[name]
                else:
                    raise TypeError(f"{type(self).__name__} missing field {name!r}")
                _set(self, name, value)
            if kwargs:
                raise TypeError(f"{type(self).__name__} got unexpected fields {', '.join(map(repr, kwargs))}")
        self.__post_init__()

    def __post_init__(self):
        """Check or normalize the fields just set; nothing by default."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")
