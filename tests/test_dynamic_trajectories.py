"""Trajectory pins for dynamic-mode daMulticast (the full protocol).

One cell per latency (zero, U[0.1, 0.5]) × channel (``p_succ`` 1.0,
0.85) × churn (none, one kill-and-recover campaign), on a 4/8/16 chain
whose processes join 0.3 apart: after a 12 s warmup, a burst of three
publications on the bottom topic and one on the mid-level topic, with
the campaign's crash and recovery falling between them. A cell digests
what a run leaves behind — every event's receivers with their delivery
times and hop counts, ``NetworkStats.as_dict()``, the end time,
``engine.processed`` and the network stream's state — so a change to
how a dynamic process is reached (its registration, the delivery path,
the order in which co-delivered targets are handled) moves a digest even
where ``metrics_digest``, which hashes end-of-run counters only, would
hold.
"""

import hashlib
import itertools
import json

import pytest

from repro.workloads.spec import compile_spec

LATENCIES = {
    "zero": None,
    "uniform": {"kind": "uniform", "low": 0.1, "high": 0.5},
}
CHANNELS = (1.0, 0.85)
CHURN = {
    "none": None,
    "campaign": {
        "actions": [
            {"kind": "kill_fraction", "at": 13.0, "fraction": 0.25},
            {"kind": "recover", "at": 17.0, "fraction": 1.0},
        ]
    },
}


def _spec(latency: str, p_success: float, churn: str) -> dict:
    spec = {
        "name": "dynamic-trajectory",
        "mode": "dynamic",
        "topics": {"kind": "chain", "depth": 2, "prefix": "t"},
        "subscriptions": {"kind": "per_level", "counts": [4, 8, 16]},
        "publications": {
            "kind": "mixed",
            "parts": [
                {"kind": "burst", "level": -1, "count": 3, "start": 0.0,
                 "spacing": 4.0},
                {"kind": "single", "level": 1, "at": 2.0},
            ],
        },
        "dynamic": {
            "bootstrap": {"kind": "staggered", "start": 0.0, "spacing": 0.3},
            "warmup": 12.0,
            "settle": 8.0,
        },
        "p_success": p_success,
    }
    if LATENCIES[latency] is not None:
        spec["latency"] = LATENCIES[latency]
    if CHURN[churn] is not None:
        spec["campaign"] = CHURN[churn]
    return spec


def trajectory_digest(spec: dict, seed: int = 7) -> str:
    """SHA-256 over everything one run of ``spec`` leaves behind."""
    built = compile_spec(spec).build(seed)
    try:
        built.execute()
        system = built.system
        tracker = system.tracker
        record = {
            "events": [
                [
                    str(event.event_id),
                    sorted(tracker.receivers(event.event_id).items()),
                    sorted(tracker.delivery_hops(event.event_id).items()),
                ]
                for event in built.published
            ],
            "stats": system.stats.as_dict(),
            "now": system.engine.now,
            "processed": system.engine.processed,
            "network_rng": system.harness.rngs.stream("network").getstate(),
        }
    finally:
        built.system.close()
    blob = json.dumps(record, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


CELLS = [
    "/".join((latency, str(p_success), churn))
    for latency, p_success, churn in itertools.product(
        LATENCIES, CHANNELS, CHURN
    )
]

#: ``trajectory_digest`` of every cell
DIGESTS = {
    "zero/1.0/none": "6baf238fd52ed1ea93fc12fde7042e2f043ed21bec861d46563d4c64c2627bbd",
    "zero/1.0/campaign": "3964bdcca703e2e6ef76a6c968b30773a0f2d821d6035bdd653d3182caa517f7",
    "zero/0.85/none": "7fe3be123eb627b34ab2506b69defff01f711c8b4be0b845b8326bbea74a6f78",
    "zero/0.85/campaign": "2d3a8ac0e5ebd82e0ca50f010094b6da56b72620a737a75f97e379837dbfb2bc",
    "uniform/1.0/none": "dd50bf8f24b69b261020cb7b90519550fde8bdbf197b81104af57055ae108676",
    "uniform/1.0/campaign": "85246086efc4a132a3e8039952b960badbe7400fc241b096b8e46b9f92987357",
    "uniform/0.85/none": "cc06564c790e49bc8d6094d07df0b9bb366c13dac29eaa9c6827bd7952b2e849",
    "uniform/0.85/campaign": "8ddf9b7715f8adc4aa78bfebf442cfbc245095a3bb9adeafed1cd21d901b53d9",
}


@pytest.mark.parametrize("cell", CELLS)
def test_dynamic_trajectory_holds(cell):
    latency, p_success, churn = cell.split("/")
    spec = _spec(latency, float(p_success), churn)
    assert trajectory_digest(spec) == DIGESTS[cell]
