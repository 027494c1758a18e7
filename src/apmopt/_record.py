"""Frozen records, with no code generated per class (``@dataclass``
compiles each class's methods at import).  A subclass's fields are its
annotations, in order; a class attribute gives a field's default.
"""

import inspect


class FrozenInstanceError(AttributeError):
    """Raised on an assignment to, or a deletion of, a record's attribute."""


class Record:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))
        cls.__signature__ = inspect.Signature([
            inspect.Parameter(n, inspect.Parameter.POSITIONAL_OR_KEYWORD,
                              default=getattr(cls, n, inspect.Parameter.empty))
            for n in cls._fields])

    def __init__(self, *args, **kwargs):
        """Bind the arguments as the signature does (a missing, unknown or
        repeated one raises TypeError), then run ``__post_init__``."""
        bound = self.__signature__.bind(*args, **kwargs)
        bound.apply_defaults()
        self.__dict__.update(bound.arguments)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(self.__dict__[n] for n in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        """Pickle and copy the fields, and rebuild through ``__init__``, so
        the checks and what ``__post_init__`` derives run again."""
        return type(self), self._values()

    def replace(self, **changes):
        """A copy with the given fields changed, built and checked anew."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})
