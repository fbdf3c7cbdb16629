"""Network substrate: unreliable best-effort channels between processes.

The paper's model (§III-A) is processes communicating over *unreliable,
best-effort channels* that may lose messages, with crash-recovery failures.
:class:`~repro.net.network.Network` implements exactly that on top of the
simulation engine: a message is counted as *sent*, then survives (in order)
the failure model, the partition model and the channel-loss coin
(``p_success``, the paper's ``p_succ`` — 0.85 in §VII), and finally gets
delivered after a latency sampled from a :mod:`~repro.net.latency` model.

All accounting needed by the evaluation (per-kind counters, per-group
intra/inter-group event counts for Figs. 8–9) lives in
:class:`~repro.net.stats.NetworkStats`.
"""

from repro._exports import lazy_exports

__all__ = lazy_exports(
    __name__,
    {
        "repro.net.faults": (
            "LinkFaultModel",
            "NoFaults",
            "NO_FAULTS",
            "BernoulliLoss",
            "GilbertElliott",
            "DuplicateModel",
            "DelaySpike",
            "FaultPipeline",
            "LinkClassFaults",
        ),
        "repro.net.latency": (
            "LatencyModel",
            "ConstantLatency",
            "UniformLatency",
            "ExponentialLatency",
            "LinkClassLatency",
            "ZERO_LATENCY",
        ),
        "repro.net.control": (
            "JoinRequest",
            "ReqContact",
            "AnsContact",
            "NewProcessRequest",
            "NewProcessReply",
            "MembershipGossip",
            "Ping",
            "Pong",
        ),
        "repro.net.message": ("Message", "EventMessage"),
        "repro.net.network": ("Network",),
        "repro.net.partitions": ("PartitionModel", "StaticPartition"),
        "repro.net.stats": ("NetworkStats",),
    },
)
