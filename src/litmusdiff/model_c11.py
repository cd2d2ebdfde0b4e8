"""Axiomatic consistency for the source dialect.

Release/acquire style model over candidate executions: happens-before is
built from program order and synchronizes-with edges, where a release write
(or fence) synchronizes with an acquire read (or fence) through a release
sequence.  Release sequences follow chains of read-modify-writes, so an
exchange that picks up a release store passes its ordering along.

Relations are bitmask rows (see ``relations``).  What sw draws on apart
from rf (release heads, acquire ends, the rmw map) and the read, write and
seq_cst masks are built once per event graph and kept in the graph's memo.
Per candidate, sw reads rf off the ``com`` rows.  Since po is transitive,
``happens_before`` closes ``po | sw`` over the few sw sources only, and is
po itself when sw is empty.  eco is never built: coherence is the check
this model shares with aarch64, ``execution.eco_respected``, over hb.

The model is antitone in ``(com, eco_before)``: sw, and so hb, only grow
with ``com``, and every axiom forbids edges, so dropping any edges of a
consistent execution leaves it consistent.  ``allowed_outcomes`` relies on
this when a rejected meet rejects a whole product, and any new axiom must
keep it (``check_antitone_law`` in ``tests/support.py`` tests it).
"""

from __future__ import annotations

from .execution import Execution, atomicity_holds, eco_respected
from .litmus import Dialect
from .relations import Rows, bits, is_acyclic


def _sync_sets(graph):
    """(heads, ends, rmw_write, reads, writes, sc): each release head as
    (sync source, head write), where a release write heads its own sequence
    and a release fence adopts every write program-ordered after it; the
    mask of acquire ends of each read (itself if acquire, then every acquire
    fence after it); each exchange read's write; and the masks of the reads,
    the writes and the seq_cst events."""
    po, masks = graph.po, graph.masks
    reads, writes, fences = masks["R"], masks["W"], masks["F"]
    acquire = masks["acquire"]
    heads = [(w, w) for w in bits(writes & masks["release"])]
    heads += [(f, w) for f in bits(fences & masks["release"])
              for w in bits(po[f] & writes)]
    ends = [0] * len(po)
    for r in bits(reads):
        ends[r] = (acquire & 1 << r) | (po[r] & fences & acquire)
    return (heads, ends, dict(graph.rmw_pairs), reads, writes,
            masks["seq_cst"])


def _graph_sync_sets(graph):
    if "c11.sync" not in graph.memo:
        if graph.test.dialect is not Dialect.SOURCE:
            raise ValueError("c11 relations are defined over source tests")
        graph.memo["c11.sync"] = _sync_sets(graph)
    return graph.memo["c11.sync"]


def _synchronizes_with(execution: Execution) -> Rows:
    """Each head's release sequence is the head plus every RMW write reached
    by an unbroken rf chain of RMWs; its source synchronizes with the acquire
    ends of every read of a write in the sequence."""
    heads, ends, rmw_write, reads, *_ = _graph_sync_sets(execution.graph)
    com = execution.com
    sw = [0] * len(com)
    for source, head in heads:
        sequence = {head}
        frontier = [head]
        while frontier:
            for r in bits(com[frontier.pop()] & reads):
                sw[source] |= ends[r]
                follow = rmw_write.get(r)
                if follow is not None and follow not in sequence:
                    sequence.add(follow)
                    frontier.append(follow)
    return sw


def happens_before(execution: Execution) -> Rows:
    """hb, ``(po | sw)+``, as rows: ``po[a]`` and the ``reach`` of each sw
    source in ``a | po[a]``, where ``reach[s]`` is the sw targets of ``s``
    and their po-successors, closed over the sources among them."""
    po = execution.graph.po
    reach = {}
    for s, targets in enumerate(_synchronizes_with(execution)):
        if targets:
            reach[s] = targets
            for t in bits(targets):
                reach[s] |= po[t]
    if not reach:
        return po
    for k, via in reach.items():
        for s, row in reach.items():
            if row >> k & 1:
                reach[s] = row | via
    sources = sum(1 << s for s in reach)
    hb = []
    for a, row in enumerate(po):
        hit = (row | 1 << a) & sources
        if hit:
            for s in bits(hit):
                row |= reach[s]
        hb.append(row)
    return hb


def c11_consistent(execution: Execution) -> bool:
    """COHERENCE, ATOMICITY, NO-THIN-AIR, and the global seq_cst order."""
    hb = happens_before(execution)
    *_, reads, writes, sc = _graph_sync_sets(execution.graph)
    com = execution.com
    # com into reads is rf; com into writes is mo | fr.
    return (eco_respected(execution, hb) and atomicity_holds(execution)
            and is_acyclic([p | c & reads
                            for p, c in zip(execution.graph.po, com)])
            and (not sc or is_acyclic([h | c & writes
                                       for h, c in zip(hb, com)], sc)))
