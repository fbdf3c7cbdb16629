"""KEEP_TABLE_UPDATED — the supertopic-table maintenance task of Fig. 6.

Repeatedly (every ``maintain_interval``), each process:

* restarts FIND_SUPER_CONTACT when its supertopic table is empty
  (lines 12–14);
* otherwise, with probability ``p_sel`` (line 16 — the paper writes
  ``RAND() ≥ p_sel`` but means the check happens with probability
  ``p_sel``, so that on average ``g`` processes per group probe per period;
  DESIGN.md note 1), probes the liveness of its supertopic entries by
  pinging them and counting Pongs within ``ping_timeout`` (the CHECK
  function, footnote 7);
* if at most ``τ`` entries prove alive, asks each live superprocess for
  ``z − τ`` fresh supergroup members (lines 18–21); replies are merged with
  the MERGE semantics (favorites kept, failed replaced — footnote 5);
* if *nothing* proves alive, the table is cleared so the next tick
  restarts the bootstrap search.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.control import NewProcessReply, NewProcessRequest, Ping
from repro.sim.clock import PeriodicTask
from repro.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.process import DaMulticastProcess


class KeepTableUpdated:
    """The per-process maintenance task."""

    def __init__(
        self,
        process: "DaMulticastProcess",
        *,
        interval: float,
        ping_timeout: float,
    ):
        check_positive(interval, "interval")
        check_positive(ping_timeout, "ping_timeout")
        self._process = process
        self._interval = interval
        self._ping_timeout = ping_timeout
        self._task: PeriodicTask | None = None
        #: also the Ping nonce: per prober, so the same on every run
        self.probes_started = 0
        self.refreshes_requested = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the periodic maintenance loop (no-op once started, and for
        root processes, whose supertopic table does not exist)."""
        if self._task is not None or self._process.topic.is_root:
            return
        self._task = self._process.engine.every(self._interval, self._tick)

    # ------------------------------------------------------------------
    # The periodic body (Fig. 6 lines 10-25)
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        process = self._process
        table = process.super_table
        if table.is_empty:
            process.find_super_contact.start()
            return
        if process.rng.random() < process.params.p_sel(process.group_size):
            self._probe()

    def _probe(self) -> None:
        """Ping every supertopic entry (one batched multicast), then
        evaluate after the timeout."""
        process = self._process
        self.probes_started += 1
        process.multicast(
            process.super_table.pids,
            Ping(sender=process.pid, nonce=self.probes_started),
        )
        process.engine.schedule(self._ping_timeout, self._evaluate)

    def _evaluate(self) -> None:
        process = self._process
        table = process.super_table
        now = process.engine.now
        alive = table.check(now, self._ping_timeout)
        if alive > process.params.tau:
            return  # enough live superprocesses; nothing to do
        live_pids = table.alive_pids(now, self._ping_timeout)
        if not live_pids:
            # Everyone is gone: restart the search from scratch.
            table.clear()
            process.find_super_contact.start()
            return
        wanted = max(1, process.params.z - alive)
        self.refreshes_requested += 1
        process.multicast(
            live_pids, NewProcessRequest(sender=process.pid, wanted=wanted)
        )

    # ------------------------------------------------------------------
    # Message handlers (wired by the process)
    # ------------------------------------------------------------------
    def on_new_process_request(self, message: NewProcessRequest) -> None:
        """Superprocess side (Fig. 6 lines 2-5): answer with known members."""
        process = self._process
        sample = process.topic_table().sample(message.wanted, process.rng)
        contacts = (process.descriptor, *sample)
        process.send(
            message.sender,
            NewProcessReply(sender=process.pid, contacts=contacts),
        )

    def on_new_process_reply(self, message: NewProcessReply) -> None:
        """Subscriber side (Fig. 6 lines 6-9): MERGE fresh entries in."""
        process = self._process
        table = process.super_table
        now = process.engine.now
        table.record_proof_of_life(message.sender, now)
        stale = table.stale_pids(now, 2 * self._ping_timeout)
        table.merge_fresh(stale, message.contacts)
