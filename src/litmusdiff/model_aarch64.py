"""Axiomatic consistency for the asm dialect.

Ordered-before style model: external communication (obs) plus barrier and
acquire/release ordering (bob) must be acyclic, and per-location ordering
plus communication must agree with program order (internal consistency).

The zero register is the one subtlety.  A load-acquire barrier orders loads
that actually read into a register; an exchange whose destination is WZR
performs its memory read without being regarded as a register-writing read,
so it is dropped from the read sets bob draws on.  ``legacy_zero_register``
restores the older behaviour where such reads still participate.
"""

from __future__ import annotations

import dataclasses

from .execution import Event, EventKind, Execution
from .litmus import Dialect, DmbDomain
from .relations import Relation, is_acyclic, transitive_closure

@dataclasses.dataclass
class ObRelations:
    obs: Relation
    bob: Relation
    ob: Relation
    internal: Relation


def _external(a: Event, b: Event) -> bool:
    # Init writes belong to no thread, so they are external to every thread.
    if a.is_init or b.is_init:
        return True
    return a.tid != b.tid


def _observed(execution: Execution) -> Relation:
    graph = execution.graph
    obs: Relation = set()
    for a, b in execution.rf_pairs() | execution.co_pairs() | execution.fr_pairs():
        if _external(graph.event(a), graph.event(b)):
            obs.add((a, b))
    return obs


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


def _barrier_ordered(execution: Execution, legacy_zero_register: bool) -> Relation:
    graph = execution.graph
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
    return bob


def derive_ob(
    execution: Execution, *, legacy_zero_register: bool = False
) -> ObRelations:
    if execution.graph.test.dialect is not Dialect.ASM:
        raise ValueError("the ordered-before relations are defined over asm tests")
    graph = execution.graph
    obs = _observed(execution)
    bob = _barrier_ordered(execution, legacy_zero_register)
    ob = transitive_closure(obs | bob)
    internal = (graph.po_loc | execution.rf_pairs() | execution.co_pairs()
                | execution.fr_pairs())
    return ObRelations(obs, bob, ob, internal)


def _atomicity_holds(execution: Execution) -> bool:
    # Between an exchange's rf source and its own write, no other thread's
    # write may appear in coherence order.
    graph = execution.graph
    for r_eid, w_eid in graph.rmw_pairs:
        source = execution.rf[r_eid]
        order = execution.co[graph.event(w_eid).loc]
        between = order[order.index(source) + 1:order.index(w_eid)]
        own_tid = graph.event(w_eid).tid
        if any(graph.event(x).tid != own_tid for x in between):
            return False
    return True


def aarch64_consistent(
    execution: Execution, *, legacy_zero_register: bool = False
) -> bool:
    rel = derive_ob(execution, legacy_zero_register=legacy_zero_register)
    if not is_acyclic(rel.ob):
        return False
    if not is_acyclic(rel.internal):
        return False
    return _atomicity_holds(execution)
