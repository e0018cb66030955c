"""Record and value classes without ``dataclasses``, which imports
``inspect`` (with ``ast``, ``dis`` and ``tokenize``) and execs generated
source per class: costs that every CLI process pays at start-up.

A subclass declares its fields as class annotations, in order.  A field
with a class-level value is optional and defaults to it; a dict default is
copied for each record.
"""

from __future__ import annotations


class Record:
    """Mutable record: a constructor over the fields, positional or keyword;
    == compares the type and every field."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        cls = type(self)
        given = dict(zip(cls._fields, args))
        if len(args) > len(cls._fields) or given.keys() & kwargs.keys():
            raise TypeError(f"{cls.__name__}() got too many or repeated arguments")
        given.update(kwargs)
        state = {}
        for name in cls._fields:
            if name in given:
                state[name] = given.pop(name)
            elif name in cls.__dict__:
                default = cls.__dict__[name]
                state[name] = default.copy() if isinstance(default, dict) else default
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if given:
            raise TypeError(f"{cls.__name__}() got unexpected arguments {sorted(given)}")
        object.__setattr__(self, "__dict__", state)

    def _values(self) -> tuple:
        return tuple(self.__dict__[name] for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Value(Record):
    """Immutable record, hashed by its fields.  Assigning or deleting a field
    raises; pickling and copying restore the fields without assigning."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return hash(self._values())
