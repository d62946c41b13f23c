"""Immutable value classes built without generated code.

Every trisect value type (fractions, curve systems, plan blocks, slide
states, ...) subclasses `Record` and names its fields in `__slots__`, in
order.  From them `Record` derives what a frozen dataclass would have:

- `_store(self, *values)`: sets the fields in slot order through the
  slot descriptors, the one place a field is ever written;
- `__init__`, for a class whose body defines none: binds positional and
  keyword arguments to the fields as a Python signature would, with the
  defaults in the class's `_defaults` dict, and raises TypeError on a
  missing, extra, unknown or repeated argument.  A class that checks its
  fields writes its own `__init__` and ends it with one `_store`;
- `_trusted(*values)`: `_store` on a bare instance, with no `__init__`
  and so no checks; only for values derived from values already checked;
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

        setters = tuple(cls.__dict__[name].__set__ for name in names)

        def _store(self, *values):
            for set_field, v in zip(setters, values):
                set_field(self, v)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        def __hash__(self):
            return hash(values(self))

        cls._store = _store
        cls.__eq__ = __eq__
        cls.__hash__ = __hash__
        cls.__match_args__ = names
        cls._values = staticmethod(values)
        if "__init__" not in cls.__dict__:
            cls.__init__ = _init(cls.__name__, names, setters, cls.__dict__.get("_defaults", {}))

    @classmethod
    def _trusted(cls, *values):
        self = object.__new__(cls)
        self._store(*values)
        return self

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (type(self), self._values(self))


def _init(cls_name, names, setters, defaults):
    """The __init__ of a class that only stores its fields."""

    def bind(args, kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls_name}() takes {len(names)} arguments, got {len(args)}")
        for key in kwargs:
            if key not in names[len(args):]:
                problem = "multiple values for" if key in names else "an unexpected keyword"
                raise TypeError(f"{cls_name}() got {problem} argument {key!r}")
        bound = {**defaults, **dict(zip(names, args)), **kwargs}
        for name in names:
            if name not in bound:
                raise TypeError(f"{cls_name}() missing argument {name!r}")
        return [bound[name] for name in names]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(setters):
            args = bind(args, kwargs)
        for set_field, v in zip(setters, args):
            set_field(self, v)

    return __init__
