"""The base of the records that check or normalize their fields.

Plain value records are `typing.NamedTuple`s. The others subclass
`Record`: each writes its own `__init__`, which stores the fields in the
instance dict, and names them in `_fields`, which equality, hashing and
repr read. Either kind refuses attribute assignment with AttributeError,
and neither needs `dataclasses`, which writes each class's methods as
source and execs them at import.
"""


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"
