"""Immutable value classes built without generated code.

Every trisect value type (fractions, curve systems, plan blocks, slide
states, ...) subclasses `Record`.  A subclass names its fields in
`__slots__`, in order, and writes its own `__init__`, which validates the
arguments and stores each field with `object.__setattr__`.  `Record` adds
what a frozen dataclass would:

- `__eq__`: the same class and equal field tuples, else NotImplemented;
- `__hash__`: the hash of the field tuple;
- `__repr__`: `Name(field=value, ...)`;
- `__match_args__`: the field names;
- assignment and deletion raise AttributeError;
- `__reduce__`: `(class, field values)`, so copy, deepcopy and pickle
  rebuild an instance through `__init__` and so validate it again.

Nothing is exec'ed or compiled when a class is created.  Generating
these methods from source, as `dataclasses` does, costs close to 1 ms a
class at import, and every `trisect` command pays it before it starts.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        names = cls.__slots__
        values = attrgetter(*names)
        if len(names) == 1:  # attrgetter of one name returns the bare value
            value = values

            def values(self):
                return (value(self),)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        def __hash__(self):
            return hash(values(self))

        cls.__eq__ = __eq__
        cls.__hash__ = __hash__
        cls.__match_args__ = names
        cls._values = staticmethod(values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (type(self), self._values(self))
