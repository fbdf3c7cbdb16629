"""'Speed only' as a tier-1 check: the ledger's ``sim_digest`` per workload.

A change that claims a gain must leave every simulated trajectory where it
was. The six digests below were recorded on the commit *before* the
general-channel cuts touched ``src/`` (``run_once`` at seed 0 with a zero
window: exactly the warm-up and two timed chunks, the ``DIGEST_CHUNKS`` every
ledger run reaches), at full workload size. A digest that moves here means
an RNG draw, a drop reason, a counter or a delivery order moved — re-record
only in a PR that says why the trajectory changed.
"""

import pathlib
import sys

import pytest

LEDGER = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "ledger"
sys.path.insert(0, str(LEDGER))

import run  # noqa: E402  (the ledger, imported the way its own tests do)

RECORDED = {
    "paper_sweep": "c05b0a7f3689d6a26f65c318bd429d3442b07e541d6b2aeb0c7d549d4b1f9fd1",
    "cached_sweep": "83508d22621e5d47ab534ea8bbf5a3b2b1a629b59c5c0c16938dce8157c9f648",
    "columnar_scale": "0cd3a560a8969bb275ffa1a28f76cf7f661c2e64facfa05ad6394099c4676cd0",
    "lossy_stream": "738c494f560c391abc588f5b7e53aca258cd6d1297f05eae7bfe6000b6eb82c4",
    "dynamic_repair": "5530f30d692061df78b878cb55771ee42f3e40b709673f1fbad4cec83259f33d",
    "live_pubsub": "3410676ca470754583d8452d6e41c2416b221ab5316310813eb1c602ec3c083a",
}


def test_every_benchmark_workload_has_a_recorded_digest():
    assert set(RECORDED) == {w["name"] for w in run.load_contract()["workloads"]}


@pytest.mark.parametrize("workload", sorted(RECORDED))
def test_sim_digest_unchanged(workload):
    record = run.run_once(
        workload, seed=0, seconds=0, trace=False, setup_repeats=False
    )
    assert record["digest_chunks"] == run.DIGEST_CHUNKS
    assert record["correct"], record["problems"]
    assert record["sim_digest"] == RECORDED[workload]
