"""The immutable base of the package's records.

A record names its fields in ``__slots__`` and takes them, in that order,
in ``__init__``, which validates them and hands them to Record.__init__.
Fields are then read-only: assigning or deleting one raises
AttributeError. A record shows its fields in its repr, compares equal to a
record of its own class with equal fields, and hashes its fields, so a
record of hashable fields is a value.
"""


class Record:
    """Base of an immutable record whose fields are its ``__slots__``."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        # copy and pickle rebuild a record through its __init__, since
        # restoring its slots one by one would assign to them
        return type(self), self._fields()
