"""Axiomatic consistency for the asm dialect.

Ordered-before style model: external communication (obs) plus barrier and
acquire/release ordering (bob) must be acyclic, and per-location ordering
plus communication must agree with program order (internal consistency).
Exchanges must be atomic, by the same axiom as the source model.

Relations are bitmask rows (see ``relations``).  Only obs and internal
depend on rf and co: obs is ``com`` less each event's own thread, and
internal is the check this model shares with c11,
``execution.eco_respected``, over po-loc.  bob depends on the events
alone, so ``barrier_order`` builds it once per event graph and
zero-register reading, in the graph's memo.

The zero register is the one subtlety.  A load-acquire barrier orders loads
that actually read into a register; an exchange whose destination is WZR
performs its memory read without being regarded as a register-writing read,
so it is dropped from the read sets bob draws on.  ``legacy_zero_register``
restores the older behaviour where such reads still participate.

The model is antitone in ``(com, eco_before)`` under either reading: obs
only grows with ``com``, and every axiom forbids edges, so dropping any
edges of a consistent execution leaves it consistent.  ``allowed_outcomes``
relies on this when a rejected meet rejects a whole product, and any new
axiom must keep it (``check_antitone_law`` in ``tests/support.py`` tests
it).
"""

from __future__ import annotations

from .execution import Execution, atomicity_holds, eco_respected
from .litmus import Dialect, DmbDomain
from .relations import Rows, bits, is_acyclic


def _barrier_ordered(graph, legacy_zero_register: bool) -> Rows:
    po, masks = graph.po, graph.masks
    # Barriers order a thread's own accesses; init writes belong to no thread.
    writes = masks["W"] & ~masks["init"]
    memory = masks["R"] | writes
    register_reads = (masks["R"] if legacy_zero_register
                      else masks["R"] & ~masks["zero_dest"])
    acquires = register_reads & masks["acquire"]
    releases = masks["W"] & masks["release"]

    bob = [0] * len(po)
    for f, domain in graph.domains.items():
        if domain is DmbDomain.SY:
            before, after = memory, memory
        elif domain is DmbDomain.LD:
            before, after = register_reads, memory
        else:
            before, after = writes, writes
        for a in bits(before):
            if po[a] >> f & 1:
                bob[a] |= po[f] & after
    # An acquire orders everything after it, a release everything before.
    for e in bits(memory):
        bob[e] |= po[e] & (memory if acquires >> e & 1 else releases)
    return bob


def barrier_order(graph, legacy_zero_register: bool = False) -> Rows:
    """bob as rows, built once per graph and zero-register reading."""
    key = ("aarch64.bob", legacy_zero_register)
    if key not in graph.memo:
        if graph.test.dialect is not Dialect.ASM:
            raise ValueError(
                "the ordered-before relations are defined over asm tests")
        graph.memo[key] = _barrier_ordered(graph, legacy_zero_register)
    return graph.memo[key]


def aarch64_consistent(
    execution: Execution, *, legacy_zero_register: bool = False
) -> bool:
    graph = execution.graph
    bob = barrier_order(graph, legacy_zero_register)
    # obs is com between threads; init writes have a tid of their own, so
    # they are external to every thread.
    return (is_acyclic([c & ~t | b for c, t, b in
                        zip(execution.com, graph.same_thread, bob)])
            and eco_respected(execution, graph.po_loc)
            and atomicity_holds(execution))
