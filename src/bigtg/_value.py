"""Frozen value classes, built from closures.

``@frozen`` turns a class whose body annotates its fields into an
immutable value class, as ``@dataclass(frozen=True)`` would: ``__init__``
takes the fields in declaration order, by position or by name, with the
defaults the body gives (``field(default_factory=f)`` calls ``f`` for each
instance), then calls ``__post_init__`` if the class defines one.
``__eq__`` and ``__hash__`` compare the tuple of field values between
instances of the same class, ``__repr__`` names every field, and
assigning or deleting an attribute raises :class:`FrozenInstanceError`.
``copy``, ``deepcopy`` and ``pickle`` rebuild a value from its fields
through the class (``__reduce__``), so what a value keeps beside its
fields (an index, a kept report) never travels with it.
``replace`` copies a value with some fields changed, ``cls._fields``
names the fields, and ``cls._adopt`` builds a value from fresh field
values without copying or checking them. ``check_each`` with the type
sets and ``is_int`` is the one type check that each
``__post_init__`` runs, and ``check_keys`` and ``check_within`` the one
test that a graph's maps are total on its elements.

The methods are closures over the field names: no source text is
generated and compiled per class, and nothing here imports ``inspect``,
so a command-line child starts without either cost.
"""

from __future__ import annotations

from itertools import filterfalse
from operator import attrgetter
from reprlib import recursive_repr


class FrozenInstanceError(AttributeError):
    """An attribute of a frozen value was assigned or deleted."""


class _Factory:
    """A field default that is made anew for each instance."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def field(*, default_factory):
    """A field default made for each instance by calling ``default_factory()``."""
    return _Factory(default_factory)


def frozen(cls):
    """Make ``cls`` a frozen value class over its annotated fields."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults: dict = {}
    for name in names:
        if name in cls.__dict__:
            defaults[name] = cls.__dict__[name]
            if isinstance(defaults[name], _Factory):
                delattr(cls, name)
    n = len(names)
    # The defaults of each suffix of the fields that needs no factory, so a
    # positional call that omits only those fields is one tuple concatenation.
    tails: dict[int, tuple] = {n: ()}
    for k in range(n - 1, -1, -1):
        if names[k] not in defaults or isinstance(defaults[names[k]], _Factory):
            break
        tails[k] = (defaults[names[k]],) + tails[k + 1]

    def bind(args: tuple, kwargs: dict) -> list:
        """Every field's value, in order, from a call's arguments and the
        defaults; a call that does not fit raises ``TypeError`` as a
        function of those parameters would."""
        if len(args) > n:
            raise TypeError(f"{cls.__name__}() takes {n} positional arguments but {len(args)} were given")
        bound = list(args)
        for name in names[len(args) :]:
            if name in kwargs:
                bound.append(kwargs.pop(name))
            elif name in defaults:
                default = defaults[name]
                bound.append(default.make() if isinstance(default, _Factory) else default)
            else:
                raise TypeError(f"{cls.__name__}() missing required argument: {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            problem = "multiple values for argument" if name in names else "an unexpected keyword argument"
            raise TypeError(f"{cls.__name__}() got {problem} {name!r}")
        return bound

    setter = object.__setattr__
    post_init = cls.__dict__.get("__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = args + tails[len(args)] if not kwargs and len(args) in tails else bind(args, kwargs)
        # One attribute at a time, in declaration order, so that instances
        # of a class share their attribute-name keys.
        for name, value in zip(names, args):
            setter(self, name, value)
        if post_init is not None:
            post_init(self)

    if n > 1:
        values = attrgetter(*names)
    else:
        # attrgetter would return a lone field bare; compare and hash a tuple.
        def values(self) -> tuple:
            return tuple([getattr(self, name) for name in names])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    @recursive_repr()
    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, name) for name in names])

    def _adopt(cls, *args):
        """A value whose fields are ``args``, in declaration order, taken as
        they are: ``__post_init__`` does not run. For a builder in this
        package that has just made each value fresh, of the type that
        ``__post_init__`` would make, so no field is copied twice."""
        self = object.__new__(cls)
        for name, value in zip(names, args, strict=True):
            setter(self, name, value)
        return self

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__, __reduce__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls._adopt = classmethod(_adopt)
    cls._fields = names
    return cls


def check_each(owner: object, field: str, fits, what: str, *columns) -> None:
    """Raise ``TypeError`` when a value of one of ``columns`` (collections,
    each read again to name its offender) does not fit. ``fits`` is a
    predicate, or a set of types (:data:`STR`, :data:`SCALAR`) of which
    each value's type must be one exactly, tested in one C-level pass; so
    a subclass, such as a ``bool`` for an ``int`` or a subclass of ``str``,
    does not fit. The message names the class of ``owner``, the ``field``
    and the first refusing column's smallest refused value by ``repr``, so
    it does not depend on the order of a set or dict."""
    exact = isinstance(fits, frozenset)
    for values in columns:
        if not (fits.issuperset(map(type, values)) if exact else all(map(fits, values))):
            refused = (lambda v: type(v) not in fits) if exact else (lambda v: not fits(v))
            bad = min(filter(refused, values), key=repr)
            raise TypeError(f"{type(owner).__qualname__}.{field} holds {bad!r}, which is not {what}")


def check_within(owner: object, field: str, within: frozenset, what: str, values, of: str = "") -> None:
    """Raise ``ValueError`` unless each of ``values`` (a collection, read
    again to name its offender) is in ``within``, by one C-level
    ``issuperset``: the message names the class of ``owner``, the
    ``field`` and the smallest value not in ``within`` by ``repr``, after
    ``of``."""
    if not within.issuperset(values):
        bad = min(filterfalse(within.__contains__, values), key=repr)
        raise ValueError(f"{type(owner).__qualname__}.{field} holds {of}{bad!r}, which is not {what}")


def check_keys(owner: object, field: str, mapping: dict, elements: frozenset, what: str) -> None:
    """Raise ``ValueError`` unless the keys of ``mapping`` are exactly
    ``elements``, by one C-level comparison: a key that is no element is
    named first (:func:`check_within`), then the smallest element by
    ``repr`` that has no entry."""
    if mapping.keys() != elements:
        check_within(owner, field, elements, what, mapping.keys())
        bad = min(elements - mapping.keys(), key=repr)
        raise ValueError(f"{type(owner).__qualname__}.{field} lacks {bad!r}, which is {what}")


def as_dict(value) -> dict:
    """``dict(value)``, a copy of a mapping or the dict of a sequence of
    pairs, that raises ``TypeError`` for any other value: also for a
    sequence whose items are no pairs, where ``dict`` raises ``ValueError``."""
    try:
        return dict(value)
    except ValueError as exc:
        raise TypeError(str(exc)) from None


#: The type of an id or a type name, for :func:`check_each`: exactly
#: ``str``, as the readers give it.
STR = frozenset({str})

#: The types of an attribute value or a place, for :func:`check_each`:
#: exactly ``int`` or ``str`` (a ``bool`` is no ``int``).
SCALAR = frozenset({int, str})


def is_int(value: object) -> bool:
    """Whether ``value`` is exactly an ``int`` (a ``bool`` is not)."""
    return type(value) is int


def replace(obj, /, **changes):
    """A copy of the value ``obj`` with the fields named in ``changes`` set
    to new values; it is built by the class, so ``__post_init__`` runs."""
    return obj.__class__(*[changes.pop(name) if name in changes else getattr(obj, name) for name in obj._fields], **changes)
