"""Immutable value records: the frozen-dataclass semantics the value types
need, without importing dataclasses (which pulls in inspect, ast and dis).

A subclass lists its fields as annotations, in order, with or without a
default, as for a dataclass.  When the class is created, its __init__,
__eq__ and __hash__ are compiled for exactly those fields, as straight-line
code:

- positional or keyword construction with the defaults, then __post_init__
  if the class has one;
- equality only between instances of one class, by their field tuples, and
  the hash of the field tuple.

The repr is the dataclass text, ``Name(field=value, ...)``.  Assigning or
deleting an attribute raises AttributeError; __post_init__ may still set a
field through object.__setattr__.  Instances keep a __dict__, so
functools.cached_property works on them.  A changed copy is built with the
constructor, reading the field names from ``_fields``.
"""


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        fields = tuple(cls.__annotations__)
        ns = {"_set": object.__setattr__}
        params = []
        for f in fields:
            if f in cls.__dict__:  # a default; compile rejects one before a required field
                ns["_default_" + f] = cls.__dict__[f]
                params.append("%s=_default_%s" % (f, f))
            else:
                params.append(f)

        def values(owner):
            return "(%s)" % "".join("%s.%s, " % (owner, f) for f in fields)

        lines = ["def __init__(self, %s):" % ", ".join(params)]
        lines += ["    _set(self, %r, %s)" % (f, f) for f in fields]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        lines += [
            "def __eq__(self, other):",
            "    if other.__class__ is self.__class__:",
            "        return %s == %s" % (values("self"), values("other")),
            "    return NotImplemented",
            "def __hash__(self):",
            "    return hash(%s)" % values("self"),
        ]
        exec("\n".join(lines), ns)
        cls._fields = fields
        for name in ("__init__", "__eq__", "__hash__"):
            setattr(cls, name, ns[name])

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)
