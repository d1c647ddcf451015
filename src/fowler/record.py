"""Immutable records, defined without generating code at import.

Records that validate their fields, hold arrays or serve the stepper
subclass Record: the class names its fields in __slots__, in the order of
its __init__ parameters, and __init__ stores them with _fill, then
validates.  Record compares, hashes and prints them by those fields,
rejects assignment, and _replace(**changes) builds a copy through __init__,
so a copy with changes is validated again.  Scalar records that nothing
validates are typing.NamedTuple classes, which behave the same way, down to
their own _replace.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """Base of the package's immutable records (module docstring)."""

    __slots__ = ()

    def _fill(self, *values) -> None:
        """Store values in the fields, in __slots__ order."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _replace(self, **changes):
        """A copy with changes to some fields, built and validated by __init__."""
        return type(self)(**dict(zip(self.__slots__, self._values())) | changes)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
