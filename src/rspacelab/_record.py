"""Frozen record classes without code generation.

A drop-in for the subset of ``dataclasses.dataclass`` that the package
uses: frozen classes with value or identity equality, class-attribute
defaults and ``__post_init__``.  The stdlib decorator writes and ``exec``s
source for every class, about 4 ms of import per command over the
package's records; here the methods are closures over the field names,
built in microseconds.
"""


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of a frozen record."""


def dataclass(*, frozen=True, eq=True):
    """Decorator making a class a frozen record over its annotated fields.

    eq=True gives value ``==`` and ``hash`` over the tuple of fields;
    eq=False keeps identity.
    """
    if not frozen:
        raise TypeError("only frozen records are supported")
    return lambda cls: _build(cls, eq)


def _build(cls, eq):
    names = tuple(cls.__annotations__)
    defaults = {n: vars(cls)[n] for n in names if n in vars(cls)}
    qualname = cls.__qualname__
    post_init = hasattr(cls, "__post_init__")

    def bind(args, kwargs):
        if len(args) > len(names):
            raise TypeError(f"{qualname}() takes {len(names)} arguments but "
                            f"{len(args)} were given")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError(f"{qualname}() missing argument {name!r}")
        if kwargs:
            bad = next(iter(kwargs))
            why = "multiple values for" if bad in names else "unexpected"
            raise TypeError(f"{qualname}() got {why} argument {bad!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init:
            self.__post_init__()

    def __repr__(self):
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def astuple(self):
        return tuple(getattr(self, n) for n in names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return astuple(self) == astuple(other)

    def __hash__(self):
        return hash(astuple(self))

    methods = [__init__, __repr__, __setattr__, __delattr__]
    if eq:
        methods += [__eq__, __hash__]
    for fn in methods:
        setattr(cls, fn.__name__, fn)
    return cls
