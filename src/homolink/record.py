"""The base of the package's immutable value records.

A record is a `__slots__` class whose `__init__` sets each field once,
through `set_field`, and whose `_key` returns the tuple of the fields it
is compared and hashed by. Records of one class are equal when their keys
are, and never equal to an object of another class; assigning or deleting
an attribute raises AttributeError; the repr is `Name(field=value, ...)`
over every field, in slot order.

The records are not dataclasses: `dataclasses` imports `inspect`, and
each decorated class runs generated code at import, which together cost
more than the rest of the package's start-up.
"""

# Sets a field in __init__, past the refusal of Record.__setattr__.
set_field = object.__setattr__


class Record:
    __slots__ = ()

    def _fields(self):
        return [(name, getattr(self, name)) for name in self.__slots__
                if name != "__dict__"]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in self._fields())
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild a record through __init__; their default
        # path would set its slots through the refused __setattr__
        return self.__class__, tuple(value for _, value in self._fields())
