"""Per-pid test actors on a network that holds blocks only.

A test's recorders — anything with a ``pid`` and a ``handle_message`` —
join a network as one :class:`PerPidBlock` over their consecutive pids,
which hands each target every message, events included, in target order.
"""


class PerPidBlock:
    """A block actor that hands each target its message through
    ``handle_message``, as one delivery per pid would."""

    __slots__ = ("actors",)

    def __init__(self, actors):
        self.actors = actors

    def handle_batch(self, sender, targets, message):
        actors = self.actors
        for pid in targets:
            actors[pid].handle_message(message)


def register_actors(network, actors) -> PerPidBlock:
    """Register ``actors`` (consecutive pids, in pid order) on ``network``
    as one block, and return the block."""
    block = PerPidBlock({actor.pid: actor for actor in actors})
    start = actors[0].pid
    stop = start + len(actors)
    assert list(block.actors) == list(range(start, stop)), "pids must be consecutive"
    network.register_block(block, start, stop)
    return block
