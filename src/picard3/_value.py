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
    Value.__init__(x, *values)
    return x


class Value:
    """A frozen value: equal, with equal hashes, to an instance of the same
    class with equal fields (the names in ``_fields``).  Each subclass
    declares ``__slots__ = _fields``, so an instance holds its fields and
    nothing else.  ``Value.__init__`` takes the fields positionally, in
    ``_fields`` order, and sets them; a subclass that checks its arguments
    checks them first and then calls it.  Only the three hot constructors,
    ``Isometry3``, ``CliffordElement`` and ``clifford._element``, write
    their fields directly.  After that, assignment and deletion raise
    AttributeError.
    """

    __slots__ = ()

    def __init__(self, *values):
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__qualname__} takes {len(fields)} "
                            f"fields, not {len(values)}")
        for name, v in zip(fields, values):
            object.__setattr__(self, name, v)

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
