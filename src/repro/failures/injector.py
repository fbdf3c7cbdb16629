"""Declarative failure campaigns against a running system.

The figure experiments sample failures up-front; the dynamic-protocol
tests and examples need *orchestrated* faults: "kill 30 % of group X at
t=50", "kill every superprocess group Y points at, at t=40". A
:class:`FailureCampaign` collects such actions against a
:class:`~repro.failures.churn.ChurnSchedule` (which the system's network
must use as its failure model) and schedules them on the engine, so
campaigns compose with everything else deterministic in a run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.failures.churn import ChurnSchedule
from repro.validation import check_non_negative


def _validate_action_time(at: float) -> None:
    """Campaign action times must be finite and non-negative.

    The same NaN hazard as :meth:`ChurnSchedule._add`: ``nan < 0`` is
    False, so an unguarded action time would be scheduled at a NaN
    timestamp, poisoning the engine's heap ordering and every crash/recover
    transition the action records.
    """
    check_non_negative(at, "action time")


@dataclass
class CampaignLog:
    """What a campaign actually did (for assertions and reports)."""

    actions: list[tuple[float, str, tuple[int, ...]]] = field(
        default_factory=list
    )

    def killed_pids(self) -> set[int]:
        """Every pid crashed by any action."""
        result: set[int] = set()
        for _, kind, pids in self.actions:
            if kind.startswith("crash"):
                result.update(pids)
        return result


class FailureCampaign:
    """Schedules crash/recover actions against a daMulticast-style system.

    ``system`` must expose ``engine``, ``group_pids(topic)``, ``group(topic)``
    and its network's failure model must be ``schedule`` (the campaign
    validates this, because faults applied to a different model would
    silently do nothing).
    """

    def __init__(self, system, schedule: ChurnSchedule, rng: random.Random):
        if system.network.failure_model is not schedule:
            raise ConfigError(
                "the system's network must use this campaign's ChurnSchedule "
                "as its failure model"
            )
        self._system = system
        self._schedule = schedule
        self._rng = rng
        self.log = CampaignLog()

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------
    def kill_fraction(
        self, at: float, fraction: float, topic=None
    ) -> "FailureCampaign":
        """Crash a uniform ``fraction`` of a group (or of everyone) at ``at``."""
        _validate_action_time(at)
        if not 0.0 <= fraction <= 1.0:
            raise ConfigError(f"fraction must be in [0,1], got {fraction}")

        def action() -> None:
            if topic is None:
                pids = [p.pid for p in self._system.processes]
            else:
                pids = self._system.group_pids(topic)
            alive = [
                pid for pid in pids if self._schedule.is_alive(pid, at)
            ]
            count = round(len(alive) * fraction)
            victims = tuple(self._rng.sample(alive, count)) if count else ()
            for pid in victims:
                self._schedule.crash_at(pid, at)
            self.log.actions.append((at, "crash_fraction", victims))

        self._system.engine.schedule_at(at, action)
        return self

    def kill_super_links(self, at: float, topic) -> "FailureCampaign":
        """Crash every process referenced by ``topic``'s supertopic tables.

        This is the adversarial fault for daMulticast: it severs every
        existing inter-group link of a group at once, forcing the
        maintenance/bootstrap machinery to rebuild from scratch. Only a
        dynamic-mode system keeps supertopic tables; any other is refused
        here, when the action is added.
        """
        _validate_action_time(at)
        if getattr(self._system, "mode", None) != "dynamic":
            raise ConfigError(
                "kill_super_links needs a mode='dynamic' system: a static "
                "process keeps no supertopic table, only its row"
            )

        def action() -> None:
            victims: set[int] = set()
            for process in self._system.group(topic):
                victims.update(process.super_table.pids)
            # repro-lint: allow[DET003]: victims holds int pids; int hashes are unsalted, so set order is PYTHONHASHSEED-independent
            live = tuple(
                pid for pid in victims if self._schedule.is_alive(pid, at)
            )
            for pid in live:
                self._schedule.crash_at(pid, at)
            self.log.actions.append((at, "crash_super_links", live))

        self._system.engine.schedule_at(at, action)
        return self

    def recover(self, at: float, pids) -> "FailureCampaign":
        """Bring the listed pids back at ``at``."""
        _validate_action_time(at)
        frozen = tuple(pids)

        def action() -> None:
            for pid in frozen:
                self._schedule.recover_at(pid, at)
            self.log.actions.append((at, "recover", frozen))

        self._system.engine.schedule_at(at, action)
        return self

    def recover_fraction(self, at: float, fraction: float) -> "FailureCampaign":
        """Bring back a uniform ``fraction`` of the currently-dead victims.

        Victims are the pids this campaign crashed that are still dead at
        ``at``; the sample is drawn from the campaign's RNG, so recoveries
        are as deterministic as the kills.
        """
        _validate_action_time(at)
        if not 0.0 <= fraction <= 1.0:
            raise ConfigError(f"fraction must be in [0,1], got {fraction}")

        def action() -> None:
            dead = sorted(
                pid
                for pid in self.log.killed_pids()
                if not self._schedule.is_alive(pid, at)
            )
            count = round(len(dead) * fraction)
            chosen = tuple(self._rng.sample(dead, count)) if count else ()
            for pid in chosen:
                self._schedule.recover_at(pid, at)
            self.log.actions.append((at, "recover", chosen))

        self._system.engine.schedule_at(at, action)
        return self

    def recover_all(self, at: float) -> "FailureCampaign":
        """Bring every previously crashed process back at ``at``."""
        _validate_action_time(at)

        def action() -> None:
            victims = tuple(self.log.killed_pids())
            for pid in victims:
                self._schedule.recover_at(pid, at)
            self.log.actions.append((at, "recover", victims))

        self._system.engine.schedule_at(at, action)
        return self
