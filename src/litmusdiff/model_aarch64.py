"""Axiomatic consistency for the asm dialect.

Ordered-before style model: external communication (obs) plus barrier and
acquire/release ordering (bob) must be acyclic, and per-location ordering
plus communication must agree with program order (internal consistency).
Exchanges must be atomic, by the same axiom as the source model.

Relations are bitmask rows (see ``relations``).  Only obs and internal
depend on rf and co: obs is ``com`` less each event's own thread, and
internal holds when no po-loc pair goes down in coherence key, which is
exact since com runs up in key.  bob depends on the events alone, so it is
built once per event graph and zero-register reading, in the graph's memo.

The zero register is the one subtlety.  A load-acquire barrier orders loads
that actually read into a register; an exchange whose destination is WZR
performs its memory read without being regarded as a register-writing read,
so it is dropped from the read sets bob draws on.  ``legacy_zero_register``
restores the older behaviour where such reads still participate.
"""

from __future__ import annotations

import dataclasses

from .execution import EventKind, Execution, atomicity_holds
from .litmus import Dialect, DmbDomain
from .relations import Rows, bits, is_acyclic


@dataclasses.dataclass
class ObRelations:
    obs: Rows
    bob: Rows


@dataclasses.dataclass(frozen=True)
class EffectiveSets:
    """Event ids the barrier edges draw on; membership depends only on the
    events themselves, never on rf or coherence choices."""

    register_reads: frozenset[int]
    acquires: frozenset[int]
    releases: frozenset[int]


def effective_sets(graph, *, legacy_zero_register: bool = False) -> EffectiveSets:
    reads = [r for r in graph.reads if legacy_zero_register or not r.zero_dest]
    return EffectiveSets(frozenset(r.eid for r in reads),
                         frozenset(r.eid for r in reads if r.acquire),
                         frozenset(w.eid for w in graph.writes if w.release))


def _barrier_ordered(graph, legacy_zero_register: bool) -> Rows:
    po = graph.po
    sets = effective_sets(graph, legacy_zero_register=legacy_zero_register)
    # Barriers order a thread's own accesses; init writes belong to no thread.
    memory = sum(1 << e.eid for e in graph.events
                 if e.kind is not EventKind.FENCE and not e.is_init)
    writes = sum(1 << e.eid for e in graph.writes if not e.is_init)
    register_reads = sum(1 << eid for eid in sets.register_reads)

    bob = [0] * len(graph.events)
    for f in graph.fences:
        if f.domain is DmbDomain.SY:
            before, after = memory, memory
        elif f.domain is DmbDomain.LD:
            before, after = register_reads, memory
        else:
            before, after = writes, writes
        for a in bits(before):
            if po[a] >> f.eid & 1:
                bob[a] |= po[f.eid] & after
    for e in bits(memory):
        if e in sets.acquires:
            bob[e] |= po[e] & memory
        elif e in sets.releases:
            for m in bits(memory):
                if po[m] >> e & 1:
                    bob[m] |= 1 << e
    return bob


def derive_ob(
    execution: Execution, *, legacy_zero_register: bool = False
) -> ObRelations:
    graph = execution.graph
    if graph.test.dialect is not Dialect.ASM:
        raise ValueError("the ordered-before relations are defined over asm tests")
    key = ("aarch64.bob", legacy_zero_register)
    if key not in graph.memo:
        graph.memo[key] = _barrier_ordered(graph, legacy_zero_register)
    # Init writes have a tid of their own, so they are external to every thread.
    obs = [c & ~t for c, t in zip(execution.com, graph.same_thread)]
    return ObRelations(obs, graph.memo[key])


def internal_holds(execution: Execution) -> bool:
    """``po-loc | com`` is acyclic: no po-loc pair runs against eco, that
    is, ``po_loc[a] & eco_before[a] == 0`` for every event ``a``."""
    return not any(p & b for p, b in zip(execution.graph.po_loc,
                                         execution.eco_before))


def aarch64_consistent(
    execution: Execution, *, legacy_zero_register: bool = False
) -> bool:
    rel = derive_ob(execution, legacy_zero_register=legacy_zero_register)
    return (is_acyclic([o | b for o, b in zip(rel.obs, rel.bob)])
            and internal_holds(execution) and atomicity_holds(execution))
