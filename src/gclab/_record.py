"""The base of gclab's record classes: repr, value equality and immutability.

A record's fields are its public instance attributes, in the order its
__init__ sets them; a name starting with "_" (Graph's cache) is no field.
"""

import numpy as np


def _value_key(value, contents: bool = True):
    """value as equality sees it, a tuple item by item: an ndarray as (dtype, shape, bytes).

    Without contents, as the hash sees it, an ndarray is (dtype, shape), which a write in place keeps.
    """
    if isinstance(value, np.ndarray):
        return (value.dtype, value.shape, value.tobytes()) if contents else (value.dtype, value.shape)
    if isinstance(value, tuple):
        return tuple([_value_key(item, contents) for item in value])
    return value


class _Frozen:
    """A hashable record whose __init__ sets every field through _set; none is reassigned or deleted.

    Repr, equality and the hash are over the fields. Equality compares a
    key in which an array is its dtype, shape and bytes as they are at the
    call, and a nested tuple or record is compared through its items. The
    hash reads that key without the arrays' bytes, so equal records hash
    equally, and a record keeps its hash, and its place in a set, when an
    array field is written in place. The records are plain classes on
    purpose. Made by the standard library's data-class decorator, every
    class exec-compiles generated methods each time gclab is imported, which
    was about a third of the import without a bytecode cache (README,
    "Start-up"). Keep them hand-written.
    """

    def _fields(self) -> dict:
        return {name: value for name, value in vars(self).items() if name[0] != "_"}

    def _key(self, contents: bool = True) -> tuple:
        return _value_key(tuple(self._fields().values()), contents)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self._fields().items())
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def _set(self, **fields) -> None:
        vars(self).update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._key(contents=False))
