"""Crash/recover timelines (churn).

The paper's model (§III-A) allows processes to crash *and recover*. The
figure experiments only need stillborn failures, but the dynamic protocol
(bootstrap + table maintenance) is exercised under churn by the tests and
the failure-injection example. A :class:`ChurnSchedule` is a per-process
sorted list of state transitions; liveness queries binary-search it.
"""

from __future__ import annotations

import bisect
import random
from typing import Sequence

from repro.errors import ConfigError
from repro.validation import check_non_negative, check_positive


class ChurnSchedule:
    """Per-process crash/recover transition timelines.

    Processes are alive initially unless :meth:`crash_at` is scheduled at
    time 0. Transitions must be added in any order; queries sort lazily.
    """

    def __init__(self) -> None:
        # pid -> sorted list of (time, alive_after) transitions
        self._transitions: dict[int, list[tuple[float, bool]]] = {}
        self._dirty: set[int] = set()

    def crash_at(self, pid: int, time: float) -> "ChurnSchedule":
        """Schedule ``pid`` to crash at ``time`` (chainable)."""
        return self._add(pid, time, alive_after=False)

    def recover_at(self, pid: int, time: float) -> "ChurnSchedule":
        """Schedule ``pid`` to recover at ``time`` (chainable)."""
        return self._add(pid, time, alive_after=True)

    def _add(self, pid: int, time: float, alive_after: bool) -> "ChurnSchedule":
        # A NaN passes `time < 0` (all ordered comparisons on NaN are
        # False) and would silently corrupt the binary-searched timeline:
        # sorting puts NaN entries in an arbitrary position and
        # bisect_right's comparisons against them are meaningless.
        check_non_negative(time, "transition time")
        self._transitions.setdefault(pid, []).append((time, alive_after))
        self._dirty.add(pid)
        return self

    def _timeline(self, pid: int) -> list[tuple[float, bool]]:
        timeline = self._transitions.get(pid)
        if timeline is None:
            return []
        if pid in self._dirty:
            timeline.sort(key=lambda entry: entry[0])
            self._dirty.discard(pid)
        return timeline

    # ------------------------------------------------------------------
    # FailureModel interface
    # ------------------------------------------------------------------
    def is_alive(self, pid: int, now: float) -> bool:
        timeline = self._timeline(pid)
        if not timeline:
            return True
        # Find the last transition at or before `now`.
        index = bisect.bisect_right(timeline, now, key=lambda entry: entry[0])
        if index == 0:
            return True
        return timeline[index - 1][1]

    def transmission_blocked(
        self, sender: int, target: int, now: float, rng: random.Random
    ) -> bool:
        return False

    # ------------------------------------------------------------------
    # Generators
    # ------------------------------------------------------------------
    @classmethod
    def random_churn(
        cls,
        pids: Sequence[int],
        rng: random.Random,
        *,
        crash_probability: float,
        horizon: float,
        recover_probability: float = 0.5,
    ) -> "ChurnSchedule":
        """Each pid crashes once with ``crash_probability`` at a uniform time
        in ``[0, horizon]``, then recovers with ``recover_probability`` at a
        uniform later time."""
        if not 0.0 <= crash_probability <= 1.0:
            raise ConfigError("crash_probability must be in [0,1]")
        if not 0.0 <= recover_probability <= 1.0:
            raise ConfigError("recover_probability must be in [0,1]")
        check_positive(horizon, "horizon")
        schedule = cls()
        for pid in pids:
            if rng.random() >= crash_probability:
                continue
            crash_time = rng.uniform(0.0, horizon)
            schedule.crash_at(pid, crash_time)
            if rng.random() < recover_probability:
                schedule.recover_at(pid, rng.uniform(crash_time, horizon))
        return schedule
