"""Frozen records whose construction stays in C once it is entered.

The protocol builds a frozen record per transmission (an
:class:`~repro.net.message.EventMessage`, sometimes its
:class:`~repro.net.message.Scope`) and per publication (an
:class:`~repro.core.events.Event`). ``@dataclass(frozen=True, slots=True)``
generates an ``__init__`` that writes each field with
``object.__setattr__(self, "name", value)``, a name lookup through the
class per field. :func:`frozen_record` is that dataclass with one
difference: its ``__init__`` writes each field through the slot's member
descriptor directly. Everything else — ``__eq__``, ``__hash__``,
``__repr__``, ordering, pickling, ``FrozenInstanceError`` on assignment,
``__post_init__``, the signature ``inspect.signature`` reports — is the
dataclass's own.

What the replacement ``__init__`` would not reproduce is refused with a
``TypeError`` when the class is created: ``default_factory``,
``init=False``, ``kw_only`` and ``InitVar`` fields.
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import Callable, TypeVar

T = TypeVar("T")


def _slot_setter(cls: type, name: str) -> Callable[[object, object], None]:
    """The bound ``__set__`` of the member descriptor holding ``name`` (a
    field inherited from a record base lives in the base's slots)."""
    owner = next(klass for klass in cls.__mro__ if name in klass.__dict__)
    return owner.__dict__[name].__set__


def _refuse_unsupported(cls: type, signature: inspect.Signature) -> None:
    fields = dataclasses.fields(cls)
    for field in fields:
        where = f"frozen_record {cls.__name__}.{field.name}"
        if field.default_factory is not dataclasses.MISSING:
            raise TypeError(f"{where}: default_factory is not supported")
        if not field.init:
            raise TypeError(f"{where}: init=False is not supported")
        if field.kw_only:
            raise TypeError(f"{where}: kw_only is not supported")
    if [name for name in signature.parameters][1:] != [f.name for f in fields]:
        raise TypeError(
            f"frozen_record {cls.__name__}: InitVar fields are not supported"
        )


def _slot_init(cls: type) -> Callable[..., None]:
    """An ``__init__`` for ``cls`` with the dataclass one's parameters,
    defaults and annotations, writing each field through its slot."""
    generated = cls.__init__
    signature = inspect.signature(generated)
    _refuse_unsupported(cls, signature)
    names = [field.name for field in dataclasses.fields(cls)]
    setters = {f"_set_{name}": _slot_setter(cls, name) for name in names}
    body = [f"_set_{name}(self, {name})" for name in names]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    # the setters are closure cells of the generated function, not globals
    source = (
        f"def __create__({', '.join(setters)}):\n"
        f"  def __init__({', '.join(['self', *names])}):\n"
        + "".join(f"    {line}\n" for line in body or ["pass"])
        + "  return __init__\n"
    )
    namespace: dict = {}
    exec(compile(source, f"<frozen_record {cls.__qualname__}>", "exec"), namespace)
    init = namespace["__create__"](**setters)
    init.__defaults__ = generated.__defaults__
    init.__annotations__ = dict(generated.__annotations__)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def frozen_record(cls: type[T] | None = None, /, *, order: bool = False):
    """``@dataclass(frozen=True, slots=True, order=order)`` whose
    ``__init__`` fills the slots directly (module docstring)."""

    def wrap(cls: type[T]) -> type[T]:
        cls = dataclasses.dataclass(frozen=True, slots=True, order=order)(cls)
        cls.__init__ = _slot_init(cls)
        return cls

    return wrap if cls is None else wrap(cls)
