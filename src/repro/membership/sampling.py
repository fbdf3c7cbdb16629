"""The one uniform sampler under every membership table.

``random.Random.sample(population, k)`` is positional: the draws it makes and
the *positions* it selects depend only on ``(len(population), k)``, never on
the elements. :func:`sample_from` writes its two branches out once — over a
window ``seq[start:start + n]`` of any indexable, so that Fig. 7's gossip
over a slice of a flat pid column or a view's pid list
(:func:`repro.core.group_actor.forward`), a baseline's
(:meth:`ColumnarGroupTables.sample_row`), a descriptor tuple
(:meth:`PartialView.sample`) and bare positions (the columnar builders) are
all sampled by the same loop, with
the same ``getrandbits`` stream and the same end state as the stdlib call —
without its ``isinstance(population, Sequence)`` ABC check and its
``_randbelow`` frame per selection.

The equivalence is pinned against ``random.Random.sample`` itself, selections
*and* ``getstate()``, by tests/test_property_views.py and
tests/test_membership_equivalence.py.
"""

from __future__ import annotations

import random
from typing import Any, Sequence


def sample_from(
    seq: Sequence[Any] | None, start: int, n: int, k: int, rng: random.Random
) -> list[Any]:
    """``rng.sample(seq[start:start + n], k)``, draw for draw; with ``seq``
    ``None``, ``rng.sample(range(n), k)`` — the positions themselves, for
    a caller that maps them with arithmetic of its own.

    Caller guarantees ``0 <= k <= n``. Every ``_randbelow(m)`` of the stdlib
    is ``getrandbits(m.bit_length())`` with rejection of values ``>= m``.
    """
    getrandbits = rng.getrandbits
    chosen = [None] * k
    # The stdlib's branch threshold (stable since CPython 2.x): populations
    # larger than it use the selection-set branch, smaller ones the pool
    # branch, and the two consume the RNG differently. CPython computes
    # ``21 + 4 ** ceil(log(3k, 4))`` for ``k > 5`` — the smallest power of
    # four >= 3k, found here on the integer (3k is never itself a power of
    # four, so there is no rounding edge).
    setsize = 21  # size of a small set minus size of an empty list
    if k > 5:
        bits = (3 * k - 1).bit_length()
        setsize += 1 << (bits + (bits & 1))  # table size for big sets
    if n <= setsize:
        # Pool branch: a partial shuffle of a copy of the window (a list's
        # slice is one already); each vacancy is refilled from the pool's
        # tail. ``n.bit_length()`` only changes when ``n`` drops below
        # ``low``, the power of two it counts down from (``low`` is 0 for
        # an empty window).
        if type(seq) is list:
            pool = seq[start : start + n]
        else:
            pool = list(range(n) if seq is None else seq[start : start + n])
        nbits = n.bit_length()
        low = 1 << nbits >> 1
        for t in range(k):
            r = getrandbits(nbits)
            while r >= n:
                r = getrandbits(nbits)
            chosen[t] = pool[r]
            n -= 1
            pool[r] = pool[n]
            if n < low:
                nbits -= 1
                low >>= 1
        return chosen
    # Selection-set branch: distinct positions by rejection of repeats,
    # looked up afterwards in one pass.
    nbits = n.bit_length()
    selected: set[int] = set()
    selected_add = selected.add
    for t in range(k):
        r = getrandbits(nbits)
        while r >= n:
            r = getrandbits(nbits)
        while r in selected:
            r = getrandbits(nbits)
            while r >= n:
                r = getrandbits(nbits)
        selected_add(r)
        chosen[t] = r
    if seq is None:
        return chosen
    if start:
        seq = seq[start : start + n]
    return list(map(seq.__getitem__, chosen))
