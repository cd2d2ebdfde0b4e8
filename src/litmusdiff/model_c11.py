"""Axiomatic consistency for the source dialect.

Release/acquire style model over candidate executions: happens-before is
built from program order and synchronizes-with edges, where a release write
(or fence) synchronizes with an acquire read (or fence) through a release
sequence.  Release sequences follow chains of read-modify-writes, so an
exchange that picks up a release store passes its ordering along.
"""

from __future__ import annotations

import dataclasses

from .execution import Execution
from .litmus import Dialect
from .relations import (
    Relation,
    is_acyclic,
    is_irreflexive,
    restrict,
    transitive_closure,
)

@dataclasses.dataclass
class C11Relations:
    sb: Relation
    rf: Relation
    mo: Relation
    fr: Relation
    sw: Relation
    hb: Relation
    eco: Relation


def _release_sequence(execution: Execution, head: int) -> set[int]:
    """Writes whose ordering the head write carries: the head itself plus
    every RMW write reached by an unbroken rf chain of RMWs."""
    graph = execution.graph
    rmw_write_of_read = {r: w for r, w in graph.rmw_pairs}
    readers: dict[int, list[int]] = {}
    for r_eid, w_eid in execution.rf.items():
        readers.setdefault(w_eid, []).append(r_eid)
    sequence = {head}
    frontier = [head]
    while frontier:
        w = frontier.pop()
        for r in readers.get(w, ()):
            follow = rmw_write_of_read.get(r)
            if follow is not None and follow not in sequence:
                sequence.add(follow)
                frontier.append(follow)
    return sequence


def _synchronizes_with(execution: Execution) -> Relation:
    graph = execution.graph
    po = graph.po_pairs
    acquire_fences = [f.eid for f in graph.fences if f.acquire]
    release_fences = [f.eid for f in graph.fences if f.release]

    # Release side: a release write heads its own sequence; a release fence
    # adopts every write program-ordered after it.
    heads: list[tuple[int, int]] = []  # (sync source event, head write)
    for w in graph.writes:
        if w.release:
            heads.append((w.eid, w.eid))
    for f in release_fences:
        for w in graph.writes:
            if (f, w.eid) in po:
                heads.append((f, w.eid))

    sw: Relation = set()
    for source, head in heads:
        sequence = _release_sequence(execution, head)
        for r_eid, w_eid in execution.rf.items():
            if w_eid not in sequence:
                continue
            read = graph.event(r_eid)
            if read.acquire:
                sw.add((source, r_eid))
            for f in acquire_fences:
                if (r_eid, f) in po:
                    sw.add((source, f))
    return sw


def derive_hb(execution: Execution) -> C11Relations:
    if execution.graph.test.dialect is not Dialect.SOURCE:
        raise ValueError("c11 relations are defined over source tests")
    sb = set(execution.graph.po_pairs)
    rf = execution.rf_pairs()
    mo = execution.co_pairs()
    fr = execution.fr_pairs()
    sw = _synchronizes_with(execution)
    hb = transitive_closure(sb | sw)
    eco = transitive_closure(rf | mo | fr)
    return C11Relations(sb, rf, mo, fr, sw, hb, eco)


def _atomicity_holds(execution: Execution) -> bool:
    # No write may slip in coherence order between what an exchange read
    # and the write it installed.
    for r_eid, w_eid in execution.graph.rmw_pairs:
        source = execution.rf[r_eid]
        order = execution.co[execution.graph.event(w_eid).loc]
        between = order[order.index(source) + 1:order.index(w_eid)]
        if between:
            return False
    return True


def c11_consistent(execution: Execution) -> bool:
    """COHERENCE, ATOMICITY, NO-THIN-AIR, and the global seq_cst order."""
    rel = derive_hb(execution)
    if not is_irreflexive(rel.hb):
        return False
    # hb followed by an optional eco step must not loop back.
    for a, b in rel.hb:
        if (b, a) in rel.eco:
            return False
    if not _atomicity_holds(execution):
        return False
    if not is_acyclic(rel.sb | rel.rf):
        return False
    sc_events = {e.eid for e in execution.graph.events if e.seq_cst}
    if not is_acyclic(restrict(rel.hb | rel.mo | rel.fr, sc_events)):
        return False
    return True
