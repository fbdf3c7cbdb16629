"""``python -m repro`` with the artifact store's first ``put`` held at a barrier.

Usage::

    python tests/barrier_sweep.py BARRIER_DIR PARTIES <repro arguments...>

Each process, on its first ``ArtifactStore.put``, drops a file named
after its pid into ``BARRIER_DIR`` and waits until ``PARTIES`` files are
there (60 s at most, then it exits non-zero). Started together on one
empty ``--cache``, every sweep therefore misses and computes at least
its first cell before any of them stores one, so they are known to
write the store at the same time. Later puts are not held.
"""

import os
import runpy
import sys
import time

from repro.experiments.artifacts import ArtifactStore


def main() -> None:
    barrier, parties = sys.argv[1], int(sys.argv[2])
    real_put = ArtifactStore.put
    waited = []

    def put(self, *args, **kwargs):
        if not waited:
            waited.append(True)
            open(os.path.join(barrier, str(os.getpid())), "w").close()
            deadline = time.monotonic() + 60
            while len(os.listdir(barrier)) < parties:
                if time.monotonic() > deadline:
                    sys.exit("barrier: another sweep never reached its first put")
                time.sleep(0.01)
        return real_put(self, *args, **kwargs)

    ArtifactStore.put = put
    sys.argv = ["repro", *sys.argv[3:]]
    runpy.run_module("repro", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
