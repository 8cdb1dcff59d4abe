"""Slot-class bases for the value types every one-shot command loads.

The paper's tool chain runs one ``ezrt`` process per step, and a
``@dataclass`` pays for its generated methods (built through ``exec``)
each time its module is imported: about 22 ms of a cold ``ezrt
schedule @fig3`` for the 24 value types it loads (2-vCPU x86-64 host,
Python 3.11).  The value types on that path are plain ``__slots__``
classes with a hand-written ``__init__`` instead, and these two bases
give them the dataclass behaviour their callers use:

* ``repr`` is ``Name(field=value, ...)``;
* ``==`` holds only between instances of the same class, field by
  field;
* a :class:`Record` is mutable and unhashable;
* a :class:`FrozenRecord` rejects assignment with
  :class:`AttributeError`, hashes by value and pickles (and copies)
  through its constructor.

The fields are the class's ``__slots__`` in order; a slot whose name
starts with ``_`` is a cache, neither shown nor compared.  A frozen
type's ``__init__`` takes every field positionally, in that order, and
stores each with ``object.__setattr__``.

Importing ``dataclasses`` costs a one-shot command ~9 ms more, for
``inspect`` and what it loads, so no value type on that path is a
dataclass, ``SchedulerConfig`` included.  A record whose callers may
still hand it to ``dataclasses`` (``replace``, ``fields``,
``is_dataclass``, ``asdict``: benches and user scripts derive search
configs this way) sets ``__dataclass_fields__ = DataclassFields()``:
only a caller that has already imported ``dataclasses`` reads that
attribute, and its first read builds the field map.
"""

from __future__ import annotations

from typing import Any, ClassVar, cast


class Record:
    """Mutable slot class: field ``repr`` and ``==``.

    Defining ``__eq__`` leaves ``__hash__`` ``None``: instances are
    unhashable, as a mutable ``@dataclass`` is.
    """

    __slots__: tuple[str, ...] = ()

    #: the shown and compared slots, in order
    _fields: ClassVar[tuple[str, ...]] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(
            name for name in cls.__slots__ if not name.startswith("_")
        )

    def _values(self) -> tuple[object, ...]:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields
        )
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == cast(Record, other)._values()


class FrozenRecord(Record):
    """Immutable slot class: hashable by value, pickled by constructor."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple[type[FrozenRecord], tuple[object, ...]]:
        return (type(self), self._values())


class DataclassFields:
    """``__dataclass_fields__`` of a :class:`Record`, built on first read.

    ``dataclasses`` treats any class with this attribute as a
    dataclass, so ``dataclasses.replace``, ``fields``, ``is_dataclass``
    and ``asdict`` accept the record.  The first read (from the class
    or an instance) takes the field map from a ``make_dataclass``
    mirror of the record's fields, with the defaults of an instance
    built without arguments and the annotations of its ``__init__``,
    and stores it on the class in place of this descriptor.
    """

    def __get__(
        self, instance: object, owner: type[Record]
    ) -> dict[str, Any]:
        import dataclasses

        default = owner()
        annotations = owner.__init__.__annotations__
        mirror = dataclasses.make_dataclass(
            owner.__name__,
            [
                (
                    name,
                    annotations[name],
                    dataclasses.field(default=getattr(default, name)),
                )
                for name in owner._fields
            ],
        )
        fields: dict[str, Any] = getattr(mirror, "__dataclass_fields__")
        setattr(owner, "__dataclass_fields__", fields)
        return fields
