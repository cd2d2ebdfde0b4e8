"""Binary relations over event ids, as bitmask rows.

A relation over events ``0 .. n-1`` is a list of ``n`` ints: bit ``b`` of
``rows[a]`` is set when ``(a, b)`` is in the relation.  Union is ``|`` row
by row and restriction to a set of events is ``&`` with its mask.  Graphs
have at most a couple dozen events, so every row fits in a machine word.
"""

from __future__ import annotations

from typing import Iterator

Rows = list[int]


def bits(mask: int) -> Iterator[int]:
    """The ids in ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_acyclic(rows: Rows, nodes: int = -1) -> bool:
    """Whether the relation restricted to the ``nodes`` mask has no cycle.
    Sinks are peeled until none is left; sweeping from the highest id down
    peels a chain running up in id order, like program order, in one go."""
    alive = nodes & ((1 << len(rows)) - 1)
    while alive:
        left = rest = alive
        while rest:
            a = rest.bit_length() - 1
            rest ^= 1 << a
            if not rows[a] & alive:
                alive ^= 1 << a
        if alive == left:
            return False
    return True
