"""Frozen records, built without dataclasses.

_frozen gives a class whose body annotates its fields what
dataclass(frozen=True) gave it here:
- __init__ takes the fields by position or keyword, in annotation order, fills
  in the class-level defaults, then runs __post_init__ if the class has one.
  A class that is built in hot loops may define its own __init__ instead,
  taking exactly its fields in order and writing them into self.__dict__;
- == and hash read the fields in order, and == holds only within one class;
- repr is ClassName(field=value, ...);
- assigning or deleting any attribute raises AttributeError.  An instance
  keeps its __dict__, so cached_property and writes into __dict__ work, and
  pickling copies that __dict__ as it did.

The methods are closures over the field names: no exec and no inspect, so a
module of records imports as fast as its class statements run.  A record
class has no record base class.
"""

from __future__ import annotations

from operator import attrgetter


def _frozen(cls):
    names = tuple(vars(cls).get("__annotations__", ()))
    n = len(names)
    post = vars(cls).get("__post_init__")
    get = attrgetter(*names)
    values = get if n > 1 else lambda self: (get(self),)

    init = vars(cls).get("__init__")
    if init is None:
        def __init__(self, *args, **kwargs):
            # a call that passes every field by position skips _bind
            if kwargs or len(args) != n:
                args = _bind(cls, args, kwargs)
            self.__dict__.update(zip(names, args))
            if post is not None:
                post(self)

        init = __init__
    elif init.__code__.co_varnames[1:init.__code__.co_argcount] != names:
        # the class writes its fields into __dict__ itself, by these names
        raise TypeError(f"{cls.__qualname__}.__init__ must take the fields {names}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    for method in (init, __eq__, __hash__, __repr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__setattr__ = _no_assign
    cls.__delattr__ = _no_delete
    cls._fields = names
    return cls


def _bind(cls, args: tuple, kwargs: dict) -> list:
    """The field values of cls(*args, **kwargs) in field order, defaults filled in."""
    names = cls._fields
    if len(args) > len(names):
        raise TypeError(f"{cls.__qualname__}() takes {len(names)} arguments "
                        f"but {len(args)} were given")
    out = list(args)
    for name in names[len(args):]:
        if name in kwargs:
            out.append(kwargs.pop(name))
        elif name in vars(cls):
            out.append(vars(cls)[name])
        else:
            raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
    for name in kwargs:
        problem = "multiple values for" if name in names else "an unexpected keyword"
        raise TypeError(f"{cls.__qualname__}() got {problem} argument {name!r}")
    return out


def _no_assign(self, name: str, value) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _no_delete(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def _asdict(record) -> dict:
    """{field: value} in field order, as dataclasses.asdict gave it: a record
    inside becomes a dict too, and a tuple is rebuilt item by item."""
    return {name: _plain(getattr(record, name)) for name in record._fields}


def _plain(value):
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    return _asdict(value) if hasattr(value, "_fields") else value
