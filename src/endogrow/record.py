"""Frozen value classes built from closures, not ``dataclasses``, whose import
and per-class ``exec`` cost every CLI call about 50 ms of start-up."""


def record(cls):
    """Give cls the behaviour of ``@dataclass(frozen=True)`` on the fields its own
    body annotates, in order, with a class attribute of a field's name as its
    default: ``__init__`` by position or keyword, then ``__post_init__`` if any;
    equality and hashing on the field tuple; the dataclass ``repr``; and no
    setting or deleting of attributes.  A method cls writes itself is kept."""
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = hasattr(cls, "__post_init__")
    qualname = cls.__qualname__

    def bind(args, kwargs):
        if len(args) > len(names):
            raise TypeError(f"{qualname}() takes {len(names)} arguments but {len(args)} were given")
        for key in kwargs:
            if key not in names[len(args):]:
                raise TypeError(f"{qualname}() got an unexpected or repeated argument {key!r}")
        values = list(args)
        for name in names[len(args):]:
            if name not in kwargs and name not in defaults:
                raise TypeError(f"{qualname}() missing required argument {name!r}")
            values.append(kwargs[name] if name in kwargs else defaults[name])
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init:
            self.__post_init__()

    def values(self):
        return tuple(map(self.__dict__.__getitem__, names))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{type(self).__qualname__}({body})"

    def frozen(self, name, *value):
        raise AttributeError(f"cannot assign or delete field {name!r} of a frozen {qualname}")

    methods = {"__init__": __init__, "__eq__": __eq__, "__hash__": __hash__,
               "__repr__": __repr__, "__setattr__": frozen, "__delattr__": frozen}
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


def replace(obj, **changes):
    """obj with some fields changed, built again so that its checks run."""
    return type(obj)(**{**asdict(obj), **changes})


def asdict(obj):
    """The record obj's fields as a flat dict, in field order."""
    return {name: obj.__dict__[name] for name in type(obj).__annotations__}
