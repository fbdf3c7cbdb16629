"""Failure models: who is alive, and who *looks* alive to whom.

The paper evaluates two regimes:

* **Stillborn failures** (Figs. 8–10): a fraction of processes "fail at the
  very beginning" and the frozen membership tables keep pointing at them.
  → :class:`~repro.failures.stillborn.StillbornFailures`.
* **Dynamic failures** (Fig. 11): "a process can appear to be failed for a
  process while appearing alive for another one (to simulate a weakly
  consistent membership algorithm)".
  → :class:`~repro.failures.dynamic.DynamicFailures` with ``per_attempt``
  (transient, re-sampled per transmission) and ``per_pair`` (each observer
  holds a fixed wrong opinion) interpretations.

Beyond the paper's figures, :class:`~repro.failures.churn.ChurnSchedule`
models crash/recover timelines (§III-A allows crash-recovery), used by the
dynamic-protocol tests and the failure-injection example.
"""

from repro._exports import lazy_exports

__all__ = lazy_exports(
    __name__,
    {
        "repro.failures.model": ("FailureModel", "AlwaysAlive"),
        "repro.failures.stillborn": ("StillbornFailures", "sample_stillborn"),
        "repro.failures.dynamic": ("DynamicFailures",),
        "repro.failures.churn": ("ChurnSchedule",),
        "repro.failures.injector": ("FailureCampaign",),
    },
)
