"""The contract of the function-level reachability gate
(``tests/function_reach.py``): its allowlist is well-formed, and its hook
records what the gate depends on — calls in forkserver pool workers and
calls made while the ledger's profiler is installed.

The gate itself runs every entry point under the hook and takes minutes,
so it is a CI job of its own (``function-reach``), not a tier-1 test.
"""

import subprocess
import sys

import pytest

import function_reach
from function_reach import ALLOWED_UNREACHED, REPO

_PROFILED_CALL = """\
import cProfile
from repro.sim.rng import derive_seed
profiler = cProfile.Profile()
profiler.enable()
derive_seed(0, "profiled")
profiler.disable()
"""


class TestAllowlist:
    def test_every_key_names_a_def(self):
        assert set(ALLOWED_UNREACHED) <= set(function_reach.all_defs())

    def test_no_key_names_a_protocol_method(self):
        assert not set(ALLOWED_UNREACHED) & function_reach.protocol_stubs()

    def test_every_reason_is_stated(self):
        assert all(reason.strip() for reason in ALLOWED_UNREACHED.values())


def _hooked_run(tmp_path, *args: str) -> set[tuple[str, int]]:
    """Run ``python *args`` under the gate's hook; what it entered."""
    out_dir, hook_dir = tmp_path / "records", tmp_path / "hook"
    out_dir.mkdir()
    hook_dir.mkdir()
    subprocess.run(
        [sys.executable, *args],
        cwd=REPO,
        env=function_reach.hooked_env(hook_dir, out_dir),
        check=True,
        capture_output=True,
        timeout=300,
    )
    return function_reach.entered(out_dir)


@pytest.fixture(scope="module")
def defs():
    return function_reach.all_defs()


class TestHook:
    def test_pool_workers_flush_their_record(self, tmp_path, defs):
        # _run_chunk runs only inside forkserver workers, which leave
        # through os._exit: an atexit-only hook never records it. Two runs:
        # a single cell never starts the pool
        entered = _hooked_run(
            tmp_path, "-m", "repro", "--jobs", "2", "fig10",
            "--runs", "2", "--sizes", "3", "8", "20", "--grid", "1.0",
        )
        assert defs["repro.experiments.executor:_run_chunk"] in entered

    def test_calls_under_the_profiler_are_recorded(self, tmp_path, defs):
        # cProfile installs itself with setprofile; a setprofile hook is
        # displaced by it, a settrace hook is not
        entered = _hooked_run(tmp_path, "-c", _PROFILED_CALL)
        assert defs["repro.sim.rng:derive_seed"] in entered
