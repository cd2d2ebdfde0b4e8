"""Axiomatic consistency for the source dialect.

Release/acquire style model over candidate executions: happens-before is
built from program order and synchronizes-with edges, where a release write
(or fence) synchronizes with an acquire read (or fence) through a release
sequence.  Release sequences follow chains of read-modify-writes, so an
exchange that picks up a release store passes its ordering along.

What sw draws on apart from rf (release heads, acquire ends, the rmw map)
and the seq_cst events are built once per event graph and kept in the
graph's memo; each candidate adds only its rf, mo and fr.
"""

from __future__ import annotations

import dataclasses

from .execution import Execution, atomicity_holds
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


def _sync_sets(graph):
    """(heads, ends, rmw_write, sc_events): each release head as (sync
    source, head write), where a release write heads its own sequence and a
    release fence adopts every write program-ordered after it; the acquire
    ends of each read (itself if acquire, then every acquire fence after
    it); each exchange read's write; and the seq_cst events."""
    po = graph.po_pairs
    heads = [(w.eid, w.eid) for w in graph.writes if w.release]
    heads += [(f.eid, w.eid) for f in graph.fences if f.release
              for w in graph.writes if (f.eid, w.eid) in po]
    acquire_fences = [f.eid for f in graph.fences if f.acquire]
    ends = {
        r.eid: ([r.eid] if r.acquire else [])
        + [f for f in acquire_fences if (r.eid, f) in po]
        for r in graph.reads
    }
    sc_events = {e.eid for e in graph.events if e.seq_cst}
    return heads, ends, dict(graph.rmw_pairs), sc_events


def _graph_sync_sets(graph):
    if "c11.sync" not in graph.memo:
        graph.memo["c11.sync"] = _sync_sets(graph)
    return graph.memo["c11.sync"]


def _synchronizes_with(execution: Execution, sync_sets) -> Relation:
    """Each head's release sequence is the head plus every RMW write reached
    by an unbroken rf chain of RMWs; its source synchronizes with the acquire
    ends of every read of a write in the sequence."""
    heads, ends, rmw_write, _ = sync_sets
    readers: dict[int, list[int]] = {}
    for r_eid, w_eid in execution.rf.items():
        readers.setdefault(w_eid, []).append(r_eid)
    sw: Relation = set()
    for source, head in heads:
        sequence = {head}
        frontier = [head]
        while frontier:
            for r in readers.get(frontier.pop(), ()):
                sw.update((source, end) for end in ends[r])
                follow = rmw_write.get(r)
                if follow is not None and follow not in sequence:
                    sequence.add(follow)
                    frontier.append(follow)
    return sw


def derive_hb(execution: Execution) -> C11Relations:
    graph = execution.graph
    if graph.test.dialect is not Dialect.SOURCE:
        raise ValueError("c11 relations are defined over source tests")
    sb = graph.po_pairs
    rf = execution.rf_pairs()
    mo = execution.co_pairs()
    fr = execution.fr_pairs()
    sw = _synchronizes_with(execution, _graph_sync_sets(graph))
    hb = transitive_closure(sb | sw)
    eco = transitive_closure(rf | mo | fr)
    return C11Relations(sb, rf, mo, fr, sw, hb, eco)


def c11_consistent(execution: Execution) -> bool:
    """COHERENCE, ATOMICITY, NO-THIN-AIR, and the global seq_cst order."""
    rel = derive_hb(execution)
    if not is_irreflexive(rel.hb):
        return False
    # hb followed by an optional eco step must not loop back.
    for a, b in rel.hb:
        if (b, a) in rel.eco:
            return False
    if not atomicity_holds(execution):
        return False
    if not is_acyclic(rel.sb | rel.rf):
        return False
    *_, sc_events = _graph_sync_sets(execution.graph)
    if not is_acyclic(restrict(rel.hb | rel.mo | rel.fr, sc_events)):
        return False
    return True
