"""Per-pid test actors on a network that holds blocks only.

A test's recorders — anything with a ``pid`` and a ``handle_message`` —
join a network the way dynamic daMulticast's processes do: as one
:class:`~repro.core.process.ProcessBlock` over their consecutive pids,
which hands each target its message in target order.
"""

from repro.core.process import ProcessBlock


def register_actors(network, actors) -> ProcessBlock:
    """Register ``actors`` (consecutive pids, in pid order) on ``network``
    as one block, and return the block."""
    block = ProcessBlock({actor.pid: actor for actor in actors})
    start = actors[0].pid
    stop = start + len(actors)
    assert list(block.processes) == list(range(start, stop)), "pids must be consecutive"
    network.register_block(block, start, stop)
    return block
