"""Trajectory pins for the four §VI-E baselines.

One cell per protocol × latency (zero, U[0.1, 0.5]) × channel
(``p_succ`` 1.0, 0.85) × alive fraction (1.0, 0.6), on an 8/40/200
chain: a single publication on the bottom topic and a burst of three on
the mid-level one. A cell digests what a run leaves behind — every
event's receivers with their delivery times and hop counts,
``NetworkStats.as_dict()``, the end time, ``engine.processed`` and the
network stream's state — so a change to how a baseline floods (its
actor, its dedup, its stream seeding, its fan-out order) moves a digest
even where every metric would hold.
"""

import hashlib
import itertools
import json

import pytest

from repro.workloads.spec import compile_spec

PROTOCOLS = {
    "broadcast": "broadcast",
    "multicast": "multicast",
    "hierarchical": {"name": "hierarchical", "n_clusters": 3},
    "naive": "naive",
}
LATENCIES = {
    "zero": None,
    "uniform": {"kind": "uniform", "low": 0.1, "high": 0.5},
}
CHANNELS = (1.0, 0.85)
ALIVE = (1.0, 0.6)


def _spec(protocol: str, latency: str, p_success: float, alive: float) -> dict:
    spec = {
        "name": f"baseline-trajectory-{protocol}",
        "protocol": PROTOCOLS[protocol],
        "topics": {"kind": "chain", "depth": 2, "prefix": "t"},
        "subscriptions": {"kind": "per_level", "counts": [8, 40, 200]},
        "publications": {
            "kind": "mixed",
            "parts": [
                {"kind": "single", "level": -1},
                {"kind": "burst", "level": 1, "count": 3, "start": 0.5},
            ],
        },
        "failures": {"kind": "stillborn", "alive_fraction": alive},
        "params": {"b": 3, "c": 5, "fanout_log_base": 10},
        "p_success": p_success,
    }
    if LATENCIES[latency] is not None:
        spec["latency"] = LATENCIES[latency]
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
    "/".join((protocol, latency, str(p_success), str(alive)))
    for protocol, latency, p_success, alive in itertools.product(
        PROTOCOLS, LATENCIES, CHANNELS, ALIVE
    )
]

#: ``trajectory_digest`` of every cell
DIGESTS = {
    "broadcast/zero/1.0/1.0": "3a65737f9a2a06e9dc772a118496c9d4516090e03dd137990c4a2dd631e1368d",
    "broadcast/zero/1.0/0.6": "201eafb9a668b480be92f60eced3933011d214924647718f0b84d8f06cc448af",
    "broadcast/zero/0.85/1.0": "69736f00ce3516fe3c6cfac30108c1629695ce6aa6f24779e6f37805ef16cf4c",
    "broadcast/zero/0.85/0.6": "9b0dedccbfcdcb194424acce367d397b35ccf23d7351df8b48252c699cc51f4e",
    "broadcast/uniform/1.0/1.0": "fc04c74a94a4b8f9791f24927fb1c9331d27a7e1373b5219c918cf4d7dfcc54c",
    "broadcast/uniform/1.0/0.6": "57d15763b171d4fa07e23c9c2e7ccff809ef791eec3ea974874342b3cb797482",
    "broadcast/uniform/0.85/1.0": "d40592a229f4714d359ca42c6e68c95cb35d831ea5129defd4557a2cc2a1fef4",
    "broadcast/uniform/0.85/0.6": "bfe3936f78d674158163866b63a9e4a8fd279e2484c14c9aa1f1841420503659",
    "multicast/zero/1.0/1.0": "23406d6db486678b2787c2aa8e0439933c693e95c627b670426d2ad78a178e98",
    "multicast/zero/1.0/0.6": "5020dce2c26260782b177cf64c44ba291cbfaab098e73f95f366ce7e59ce8bca",
    "multicast/zero/0.85/1.0": "627af5cdecea768e223b427363acb2f9045707242433bc3a6adf099e0b14d45b",
    "multicast/zero/0.85/0.6": "538d90ba9c110a41218276bd80b05942a2de7aca5d49ce51af23c571922a1508",
    "multicast/uniform/1.0/1.0": "11d0f57ed51adc783a64997a2301bc4a96021b7f1a8c2543516d2262227ea7cc",
    "multicast/uniform/1.0/0.6": "fe5c9e4f6d2cc5e728f52992c193589c7aa3ba6d2c415018734918bf7db56129",
    "multicast/uniform/0.85/1.0": "44dd2b1389bf05a78b5953bce6a19f04e1b25f109c7a88925679bbe37dcaefaa",
    "multicast/uniform/0.85/0.6": "17be24c52204ec33e59205e308486c954dc449ec6d5e949b2d1275285d0a8adb",
    "hierarchical/zero/1.0/1.0": "8105fe524a4d6289d0e9b2fe20e9b64007cc3c12dcdee661243748268d44e881",
    "hierarchical/zero/1.0/0.6": "906d1e7cd521b72ff86bf236c74113fb7fbdb5336051878c4032cd8dbb2954d3",
    "hierarchical/zero/0.85/1.0": "1aef2dcf1d1d97f964374da9be296f951ebeedf4ac4e9e7843aae5dfcb8eb54b",
    "hierarchical/zero/0.85/0.6": "a5f748010bc7a34917406ebeb986d176a2cb5410c322fd51e18401c2afe9e71f",
    "hierarchical/uniform/1.0/1.0": "6f24dbdacfefdc409d217c799511eafe41bf163109c8c3bd53772fa3ce67ee91",
    "hierarchical/uniform/1.0/0.6": "8afea7d0a3bf764175343519e699ef47f18d5ba3eaf3c92666384186387d4167",
    "hierarchical/uniform/0.85/1.0": "30d154b91ee88a525b2f34b4abc51d297beb25d629751837e367ff0496482b3c",
    "hierarchical/uniform/0.85/0.6": "48b644b4620b425c5291b9778001d5c77d138bfcb9a40cc05c5750e38338ec8d",
    "naive/zero/1.0/1.0": "d7b97bcdf308a71ee9a95eb960525d800b0f8ab89f7109d99d1b1839df5b7eb7",
    "naive/zero/1.0/0.6": "fcc680c57329c2ed0103edae766dc951ef8ffbbf233e8850be564cfc3663261d",
    "naive/zero/0.85/1.0": "ab558a2342528b9f6f6ebe239c98700ee55ccb25b95706eb74bb8fbd23268699",
    "naive/zero/0.85/0.6": "f7fc9ec28bf833d3c702e8629720105b2b4972fff1d34d32bbe1a8a222745610",
    "naive/uniform/1.0/1.0": "a2780687f36229918224a8f4af8108b88d101e146568df3bf3a550d2cf108174",
    "naive/uniform/1.0/0.6": "4b03888b403077c7717d079bc1f07178c9849ea23bb0c3e4ba211ec493996c65",
    "naive/uniform/0.85/1.0": "349e0970b09165149b9409694482cfd5ae0cebbd251a682814da85424c8ed5c7",
    "naive/uniform/0.85/0.6": "ec7d52a140b46169bcfdb243ba733239402e0c4633848411f533f5cc421fb0b7",
}


@pytest.mark.parametrize("cell", CELLS)
def test_baseline_trajectory_holds(cell):
    protocol, latency, p_success, alive = cell.split("/")
    spec = _spec(protocol, latency, float(p_success), float(alive))
    assert trajectory_digest(spec) == DIGESTS[cell]
