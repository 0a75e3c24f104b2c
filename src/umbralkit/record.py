"""The immutable record base of the DSL nodes, the family specs, the
registry rows and reports, and the Sheffer pair.

A subclass lists its fields as class annotations, in order; a class
attribute of the same name is that field's default.  A record is built from
its fields by position or keyword, equals another record of the same class
with equal fields, hashes as the tuple of its fields, repr's as
``Name(field=value, ...)``, and raises AttributeError on assignment.  The
instance ``__dict__`` holds exactly the fields, in order.
"""


class Record:
    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args):]):
            raise TypeError(f"{name} takes the fields {fields}, got {args} and {kwargs}")
        values = {**self._defaults, **kwargs, **dict(zip(fields, args))}
        try:
            self.__dict__.update({f: values[f] for f in fields})
        except KeyError as e:
            raise TypeError(f"{name} missing field {e}") from None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(self.__dict__.values()) == tuple(other.__dict__.values())

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        inner = ", ".join(f"{f}={v!r}" for f, v in self.__dict__.items())
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")
