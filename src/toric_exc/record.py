"""Read-only value classes, with the semantics of a frozen dataclass.

Every command builds these values, so the module that defines them is on
every command's import path. A frozen `@dataclass` generates its methods
with `exec` when the class is made, and importing `dataclasses` loads
`inspect` and `ast`; together that was most of the package's start-up.
`Record` gives the same equality, hash, repr and read-only fields with
plain methods instead.
"""

from __future__ import annotations


class Record:
    """A value that compares, hashes and prints as the tuple of its fields.

    A subclass names its fields, in order, in `_fields`, and its own
    `__init__` stores them, since assignment raises AttributeError: with
    `vars(self).update(...)`, the quickest way to set several, or with
    `object.__setattr__` for a field read on a hot path (reading the
    instance `__dict__` makes CPython keep a real dict there, and every
    later attribute read slower). Equality holds only between instances
    of one class with equal field tuples, the hash is the hash of the
    field tuple and repr is `Name(field=value, ...)`: what a frozen
    dataclass gives.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = zip(self._fields, self._values())
        return f"{self.__class__.__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
