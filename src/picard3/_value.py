"""The base of the frozen value types, and the integer rule of the exact API."""

from operator import attrgetter


def check_ints(*xs):
    """Raise TypeError unless type(x) is int for each x (so no bool either)."""
    for x in xs:
        if type(x) is not int:
            raise TypeError(f"int arguments required, not {x!r}")


def _restore(cls, values):
    """The instance of cls with these field values, as pickled."""
    x = object.__new__(cls)
    for name, v in zip(cls._fields, values):
        object.__setattr__(x, name, v)
    return x


class Value:
    """A frozen value: equal, with equal hashes, to an instance of the same
    class with equal fields (the names in ``_fields``).  Each subclass
    declares ``__slots__ = _fields``, so an instance holds its fields and
    nothing else, and its ``__init__`` sets them by ``object.__setattr__``;
    after that, assignment and deletion raise AttributeError.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)   # reads the fields at C speed

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _restore, (type(self), tuple(getattr(self, f) for f in self._fields))
