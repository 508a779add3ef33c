"""Frozen value objects built without generated code.

The model's configs and specs (:mod:`repro.config`, the topology,
fleet, traffic and SLO specs) are immutable values: compared and
hashed by their fields, copied with changes through :meth:`Value.
replace`, and fingerprinted field by field by :mod:`repro.cache`.
:class:`Value` gives them that behaviour from one set of ordinary
methods.  A subclass declares its fields as annotated class attributes,
as a dataclass would, and may define ``__post_init__`` to validate or
normalise them (``object.__setattr__`` writes a normalised field).

Unlike ``dataclasses``, nothing is compiled when a subclass is
defined: ``__init_subclass__`` only reads the field names and defaults
once, which is what keeps building a simulated world cheap.  A default
is shared by every instance that takes it, so defaults must themselves
be immutable (a nested :class:`Value`, a tuple, a number).
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

__all__ = ["Value"]


class Value:
    """Base of an immutable record with value semantics.

    Subclasses get keyword and positional construction (positional in
    field order), defaults, a ``__post_init__`` hook run after every
    construction, an :class:`AttributeError` on assignment, ``==`` and
    ``hash`` over the fields, a dataclass-style ``repr``,
    :meth:`replace`, and :attr:`FIELDS`.
    """

    __slots__ = ()

    #: Field names in declaration order, base class fields first.
    FIELDS: Tuple[str, ...] = ()
    #: Field name -> default, for the fields that have one.
    _defaults: Dict[str, Any] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        names = list(cls.FIELDS)
        defaults = dict(cls._defaults)
        own = vars(cls)
        for name in own.get("__annotations__", {}):
            if name not in names:
                names.append(name)
            if name in own:
                defaults[name] = own[name]
            else:
                defaults.pop(name, None)
        cls.FIELDS = tuple(names)
        cls._defaults = defaults

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        cls = self.__class__
        names = cls.FIELDS
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__name__}() takes {len(names)} positional arguments "
                f"but {len(args)} were given"
            )
        values = dict(zip(names, args))
        defaults = cls._defaults
        for name in names[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in defaults:
                values[name] = defaults[name]
            else:
                raise TypeError(
                    f"{cls.__name__}() missing required argument {name!r}"
                )
        if kwargs:
            name = next(iter(kwargs))
            problem = (
                "got multiple values for argument"
                if name in values
                else "got an unexpected keyword argument"
            )
            raise TypeError(f"{cls.__name__}() {problem} {name!r}")
        # Observers build specs too (``SloSpec``); the only state this
        # writes is the instance it is building.
        self.__dict__.update(values)  # noqa: PUR501
        post_init = getattr(cls, "__post_init__", None)
        if post_init is not None:
            post_init(self)  # noqa: PUR504 - the subclass's own validation

    def _values(self) -> Tuple[Any, ...]:
        state = self.__dict__
        return tuple([state[name] for name in self.FIELDS])

    def replace(self, **changes: Any) -> Any:
        """A copy with ``changes`` applied, validated like a new value."""
        state = self.__dict__
        values = {name: state[name] for name in self.FIELDS}
        values.update(changes)
        return self.__class__(**values)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        state = self.__dict__
        fields = ", ".join(f"{name}={state[name]!r}" for name in self.FIELDS)
        return f"{self.__class__.__qualname__}({fields})"
