"""``frozen_record``: the frozen slotted dataclass, with an ``__init__`` that
writes each field through its slot.

Every record made per transmission or per publication is declared with it.
For each one, what the dataclass decorator would have generated —
signature, ``__eq__``, ``__hash__``, ``__repr__``, ordering, pickling and
``FrozenInstanceError`` — is compared with a reference class
``dataclasses.make_dataclass`` builds from the same fields. What the
replacement ``__init__`` cannot reproduce is refused at class creation.
"""

import dataclasses
import inspect
import pickle

import pytest

from repro.core.events import Event, EventId
from repro.membership.view import ProcessDescriptor
from repro.net import control as control_module
from repro.net import message as message_module
from repro.net.control import (
    AnsContact,
    JoinRequest,
    MembershipGossip,
    NewProcessReply,
    NewProcessRequest,
    Ping,
    Pong,
    ReqContact,
)
from repro.net.message import EventMessage, Message, Scope
from repro.records import frozen_record
from repro.topics.topic import Topic

T1 = Topic.parse(".rec")
T2 = Topic.parse(".rec.sub")
DESCRIPTOR = ProcessDescriptor(4, T2)
EVENT = Event(EventId(7, 1), T2, "payload", 1.5)

#: a value for every field name the records use
VALUES = {
    "kind": "inter",
    "group": T2,
    "super_group": T1,
    "sender": 3,
    "event": EVENT,
    "scope": Scope("intra", T2),
    "hops": 2,
    "requester": 5,
    "topics": (T1, T2),
    "request_id": 11,
    "ttl": 4,
    "answered_topic": T1,
    "contacts": (DESCRIPTOR,),
    "wanted": 3,
    "nonce": 9,
    "view_sample": (DESCRIPTOR,),
    "super_sample": (DESCRIPTOR, ProcessDescriptor(1, T1)),
    "reply_expected": True,
    "joiner": DESCRIPTOR,
    "event_id": EventId(7, 2),
    "topic": T1,
    "payload": ("x", 1),
    "published_at": 2.5,
    "pid": 6,
}

MESSAGES = [
    EventMessage, ReqContact, AnsContact, NewProcessRequest, NewProcessReply,
    Ping, Pong, MembershipGossip, JoinRequest,
]
RECORDS = [Scope, Message, *MESSAGES, Event, ProcessDescriptor]
#: a different value for each record's first field
OTHER_FIRST = {"kind": "intra", "sender": 99, "event_id": EventId(9, 9), "pid": 99}


def reference(cls):
    """What ``@dataclass(frozen=True, slots=True, order=...)`` generates for
    ``cls``'s fields, under ``cls``'s name."""
    specs = [
        (f.name, f.type, dataclasses.field(default=f.default))
        if f.default is not dataclasses.MISSING
        else (f.name, f.type)
        for f in dataclasses.fields(cls)
    ]
    return dataclasses.make_dataclass(
        cls.__name__,
        specs,
        frozen=True,
        slots=True,
        order=cls.__dataclass_params__.order,
        namespace={"__post_init__": cls.__post_init__}
        if hasattr(cls, "__post_init__")
        else None,
    )


def args_of(cls) -> list:
    return [VALUES[f.name] for f in dataclasses.fields(cls)]


def _records_of(module) -> set:
    return {
        value
        for value in vars(module).values()
        if isinstance(value, type)
        and dataclasses.is_dataclass(value)
        and value.__module__ == module.__name__
    }


def test_every_message_class_is_covered():
    # (the dataclass decorator replaces each class by a slotted copy; the
    # module holds the copy, __subclasses__ may still list the original)
    modules = {module.__name__: module for module in (message_module, control_module)}
    assert {
        getattr(modules[cls.__module__], cls.__name__)
        for cls in Message.__subclasses__()
    } == set(MESSAGES)
    # the flood's records stay in message, the dynamic protocol's in control
    assert _records_of(message_module) == {Scope, Message, EventMessage}
    assert _records_of(control_module) == set(MESSAGES) - {EventMessage}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestEveryRecord:
    def test_declared_with_frozen_record(self, cls):
        assert cls.__init__.__code__.co_filename == (
            f"<frozen_record {cls.__qualname__}>"
        )
        assert cls.__dataclass_params__.frozen
        assert "__slots__" in cls.__dict__

    def test_signature_is_the_dataclass_one(self, cls):
        assert inspect.signature(cls) == inspect.signature(reference(cls))

    def test_positional_keyword_and_default_construction(self, cls):
        fields = dataclasses.fields(cls)
        positional = cls(*args_of(cls))
        keyword = cls(**{f.name: VALUES[f.name] for f in fields})
        assert positional == keyword
        for f in fields:
            assert getattr(positional, f.name) is VALUES[f.name]
        required = {
            f.name: VALUES[f.name]
            for f in fields
            if f.default is dataclasses.MISSING
        }
        if cls is Scope:
            required["kind"] = "intra"  # "inter" needs its super_group
        minimal = cls(**required)
        for f in fields:
            if f.default is not dataclasses.MISSING:
                assert getattr(minimal, f.name) == f.default

    def test_assignment_raises_frozen_instance_error(self, cls):
        record = cls(*args_of(cls))
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f.name, VALUES[f.name])
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, f.name)

    def test_eq_hash_repr_match_the_dataclass(self, cls):
        record, same = cls(*args_of(cls)), cls(*args_of(cls))
        ref = reference(cls)(*args_of(cls))
        assert record == same and not record != same
        assert record != ref  # a dataclass compares its own class only
        assert repr(record) == repr(ref)
        assert hash(record) == hash(same) == hash(ref)
        _, *rest = args_of(cls)
        other = cls(OTHER_FIRST[dataclasses.fields(cls)[0].name], *rest)
        assert other != record and not other == record

    def test_pickling_round_trips(self, cls):
        record = cls(*args_of(cls))
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(record, protocol))
            assert type(copy) is cls
            assert copy == record


def test_process_descriptor_orders_like_the_dataclass():
    ref = reference(ProcessDescriptor)
    pairs = [(2, T1), (1, T2), (1, T1), (3, Topic.parse(".a"))]
    mine = sorted(ProcessDescriptor(*pair) for pair in pairs)
    theirs = sorted(ref(*pair) for pair in pairs)
    assert [(d.pid, d.topic) for d in mine] == [(d.pid, d.topic) for d in theirs]
    assert ProcessDescriptor(1, T1) <= ProcessDescriptor(1, T1)
    assert ProcessDescriptor(1, T1) < ProcessDescriptor(1, T2)


def test_post_init_still_runs():
    with pytest.raises(ValueError, match="super_group"):
        Scope("inter", T2)
    assert Scope("inter", T2, T1).super_group is T1


def test_disseminate_builds_messages_positionally():
    message = EventMessage(3, EVENT, VALUES["scope"], 2)
    assert message == EventMessage(
        sender=3, event=EVENT, scope=VALUES["scope"], hops=2
    )
    assert EventMessage(3, EVENT, VALUES["scope"]).hops == 1


@pytest.mark.parametrize(
    "declare, refused",
    [
        (lambda: dataclasses.field(default_factory=list), "default_factory"),
        (lambda: dataclasses.field(default=0, init=False), "init=False"),
        (lambda: dataclasses.field(default=0, kw_only=True), "kw_only"),
    ],
)
def test_unsupported_fields_are_refused(declare, refused):
    with pytest.raises(TypeError, match=refused):

        @frozen_record
        class Bad:
            value: int = declare()


def test_initvar_is_refused():
    with pytest.raises(TypeError, match="InitVar"):

        @frozen_record
        class Bad:
            value: dataclasses.InitVar[int]
