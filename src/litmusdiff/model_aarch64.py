"""Axiomatic consistency for the asm dialect.

Ordered-before style model: external communication (obs) plus barrier and
acquire/release ordering (bob) must be acyclic, and per-location ordering
plus communication must agree with program order (internal consistency).
Exchanges must be atomic, by the same axiom as the source model.

Only obs and internal depend on a candidate's rf and co; they are derived
per candidate.  bob depends on the events alone, so it is built once per
event graph and zero-register reading, and kept in the graph's memo.

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
from .relations import Relation, is_acyclic

@dataclasses.dataclass
class ObRelations:
    obs: Relation
    bob: Relation
    internal: Relation


@dataclasses.dataclass(frozen=True)
class EffectiveSets:
    """Event ids the barrier edges draw on; membership depends only on the
    events themselves, never on rf or coherence choices."""

    register_reads: frozenset[int]
    acquires: frozenset[int]
    releases: frozenset[int]


def effective_sets(graph, *, legacy_zero_register: bool = False) -> EffectiveSets:
    reads: set[int] = set()
    acquires: set[int] = set()
    releases: set[int] = set()
    for e in graph.events:
        if e.kind is EventKind.READ:
            if legacy_zero_register or not e.zero_dest:
                reads.add(e.eid)
                if e.acquire:
                    acquires.add(e.eid)
        elif e.kind is EventKind.WRITE and e.release:
            releases.add(e.eid)
    return EffectiveSets(frozenset(reads), frozenset(acquires), frozenset(releases))


def _barrier_ordered(graph, legacy_zero_register: bool) -> frozenset:
    po = graph.po_pairs
    sets = effective_sets(graph, legacy_zero_register=legacy_zero_register)
    # Barriers order a thread's own accesses; init writes belong to no thread.
    memory = [e for e in graph.events
              if e.kind is not EventKind.FENCE and not e.is_init]
    writes = [e for e in memory if e.kind is EventKind.WRITE]
    register_reads = [e for e in memory if e.eid in sets.register_reads]

    bob: Relation = set()
    for f in graph.fences:
        if f.domain is DmbDomain.SY:
            before, after = memory, memory
        elif f.domain is DmbDomain.LD:
            before, after = register_reads, memory
        else:
            before, after = writes, writes
        pre = [e.eid for e in before if (e.eid, f.eid) in po]
        post = [e.eid for e in after if (f.eid, e.eid) in po]
        bob.update((a, b) for a in pre for b in post)
    for e in memory:
        if e.eid in sets.acquires:
            bob.update((e.eid, m.eid) for m in memory if (e.eid, m.eid) in po)
        elif e.eid in sets.releases:
            bob.update((m.eid, e.eid) for m in memory if (m.eid, e.eid) in po)
    return frozenset(bob)


def derive_ob(
    execution: Execution, *, legacy_zero_register: bool = False
) -> ObRelations:
    graph = execution.graph
    if graph.test.dialect is not Dialect.ASM:
        raise ValueError("the ordered-before relations are defined over asm tests")
    key = ("aarch64.bob", legacy_zero_register)
    if key not in graph.memo:
        graph.memo[key] = _barrier_ordered(graph, legacy_zero_register)
    com = execution.rf_pairs() | execution.co_pairs() | execution.fr_pairs()
    # Init writes have a tid of their own, so they are external to every thread.
    events = graph.events
    obs = {(a, b) for a, b in com if events[a].tid != events[b].tid}
    return ObRelations(obs, graph.memo[key], graph.po_loc | com)


def aarch64_consistent(
    execution: Execution, *, legacy_zero_register: bool = False
) -> bool:
    rel = derive_ob(execution, legacy_zero_register=legacy_zero_register)
    return (is_acyclic(rel.obs | rel.bob) and is_acyclic(rel.internal)
            and atomicity_holds(execution))
