"""Run functions the pool tests ship to worker processes.

Pool workers start from a forkserver and import the module a pickled
run function names. A test module imports pytest and hypothesis, about
0.3 s per worker; this one imports only the stdlib, so a fresh worker
is ready in milliseconds.
"""

import os
import signal


def poly(point, seed):
    # Deterministic, seed- and point-sensitive, with several metrics so
    # dict-ordering bugs are visible.
    return {
        "m": (seed % 9973) * point,
        "b": float(seed % 7),
        "alpha": point + (seed % 3),
    }


def echo_seed(point, seed):
    return {"seed": float(seed)}


def worker_pid(point, seed):
    return {"pid": float(os.getpid()), "seed": float(seed)}


def fail_at_two(point, seed):
    if point == 2.0:
        raise ValueError("boom")
    return {"y": 1.0}


def unpicklable_result(point, seed):
    return {"y": lambda: None}


def scaled(point, seed, *, factor):
    return {"y": point * factor + (seed % 11)}


def dies_while_sentinel(point, seed, *, sentinel):
    # Point 2.0 SIGKILLs the worker running it while the sentinel exists.
    if point == 2.0 and os.path.exists(sentinel):
        os.kill(os.getpid(), signal.SIGKILL)
    return {"y": point + (seed % 5)}
