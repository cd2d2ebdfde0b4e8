"""A fixed reference loop that measures how fast the machine runs right now.

On a shared virtual machine the same code runs up to 1.7 times slower in
spells that last from under a second to minutes (NOTES.md).  The benchmark
times this loop between ops, and scales each op time by the loop's nominal
time over its time measured next to the op.  The loop does the kind of work
litmusdiff's models do, on its own data: tuple-keyed dicts and sets,
relation composition and closure over small graphs, so that a slow spell
slows it about as much as it slows the program.  It never calls litmusdiff,
so a change to the program does not change it.
"""

from __future__ import annotations

import gc
import itertools
import random
import time

# About the loop's median time on the reference machine, a 2-vCPU Xeon
# (2.0 GHz) virtual machine, which ran it in 1.6-4.5 ms.  A scaled time is
# the time an op takes at the speed at which the loop takes this long.
REFERENCE_S = 0.003

_rng = random.Random(20140101)
_KEYS = [tuple(_rng.randrange(600) for _ in range(3)) for _ in range(600)]
_GRAPH = {(_rng.randrange(10), _rng.randrange(10)) for _ in range(16)}


def _compose(first, second):
    by_source = {}
    for a, b in second:
        by_source.setdefault(a, set()).add(b)
    return {(a, c) for a, b in first for c in by_source.get(b, ())}


def _closure(relation):
    succ = {}
    for a, b in relation:
        succ.setdefault(a, set()).add(b)
    closure = set()
    for start in succ:
        frontier, reached = list(succ[start]), set()
        while frontier:
            node = frontier.pop()
            if node not in reached:
                reached.add(node)
                frontier.extend(succ.get(node, ()))
        closure.update((start, node) for node in reached)
    return closure


def reference_loop() -> int:
    counts, shapes = {}, set()
    for key in _KEYS:
        counts[key] = counts.get(key, 0) + 1
        shapes.add(frozenset(key))
    acyclic = 0
    for perm in itertools.permutations(range(4)):
        moved = {(perm[a % 4], b) for a, b in _GRAPH}
        acyclic += all(a != b for a, b in _closure(_compose(moved, _GRAPH)
                                                    | _GRAPH))
    return len(counts) + len(shapes) + acyclic


def loop_seconds() -> float:
    """One timed run of the reference loop, with the garbage collector off,
    so that objects the program left behind cannot trigger a collection
    inside it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
