"""The frozen record base shared by the package's value classes."""

import numpy as np


def _rebuild(cls, values):
    """A record of class cls holding values, restored without running __init__.

    Arrays come back from pickle and deepcopy writeable; they are made
    read-only again, as every array a record holds is.
    """
    for value in values:
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    record = object.__new__(cls)
    record._fill(*values)
    return record


class Record:
    """A frozen value whose fields are the names in its class's __slots__.

    A subclass lists its fields in order in __slots__ and writes its own
    __init__, which checks the arguments and stores the fields with _fill
    (or object.__setattr__ on hot paths). Assigning or deleting an attribute
    raises AttributeError; == and hash go by class and fields; repr reads
    Name(field=value, ...); pickle and copy restore the fields, arrays
    read-only, without running __init__ again.
    """

    __slots__ = ()

    def _fill(self, *values) -> None:
        """Store values in the fields, in __slots__ order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return _rebuild, (type(self), self._values())
