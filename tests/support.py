"""Corpus construction and outcome plumbing shared across test modules."""

import dataclasses
import enum
import functools
import itertools
import json
import math
import operator
import random
import re
from typing import NamedTuple

import interleaving_oracle
import naive_oracle
import pytest
import reference_reader
from litmusdiff import difftest, execution, model_aarch64, model_c11, model_sc
from litmusdiff.difftest import (
    check_refinement,
    translate_outcome,
)
from litmusdiff.execution import (
    MODEL_AARCH64,
    MODEL_C11,
    MODEL_SC,
    Execution,
    Search,
    allowed_outcomes,
    atomicity_holds,
    build_events,
    eco_respected,
    enumerate_candidates,
    final_state,
)
from litmusdiff.litmus import (
    Dialect,
    DmbDomain,
    FENCE_ORDERS,
    LOAD_ORDERS,
    LitmusError,
    STORE_ORDERS,
    SWP_ACQUIRE,
    SWP_FAMILY,
    SWP_RELEASE,
    ZERO_REGISTER,
    MemoryObservable,
    MemoryOrder,
    Mnemonic,
    StmtKind,
    condition_observables,
    observable_label,
    validate_test,
)
from litmusdiff.lowering import dead_register_pass, lower_test
from litmusdiff.model_aarch64 import aarch64_consistent
from litmusdiff.model_c11 import (
    _synchronizes_with,
    c11_consistent,
    happens_before,
)
from litmusdiff.model_sc import sc_consistent
from litmusdiff.relations import bits
from litmusdiff.syntax import parse_litmus, render_litmus
from litmusdiff.testgen import GenParams, Variant, generate_mp_family

# Every variant crossed with a spread of orders per slot.  216 tests, each
# with at most 8 events, so exhaustive enumeration stays cheap.
CORPUS_PARAMS = GenParams(
    variants=(Variant.HISTORIC, Variant.DISCARD, Variant.OBSERVE),
    data_store_orders=(MemoryOrder.RELAXED, MemoryOrder.RELEASE),
    flag_store_orders=(MemoryOrder.RELEASE, MemoryOrder.SEQ_CST),
    flag_op_orders=(MemoryOrder.RELEASE, MemoryOrder.ACQ_REL,
                    MemoryOrder.SEQ_CST),
    fence_orders=(MemoryOrder.ACQUIRE, MemoryOrder.SEQ_CST, None),
    data_load_orders=(MemoryOrder.RELAXED, MemoryOrder.ACQUIRE),
)


def legal(orders):
    return tuple(o for o in MemoryOrder if o in orders)


# Every legal order in every slot: the 2,025-test exchange family, the one
# perfbench samples its mp-corpus from.
EXCHANGE_FAMILY = GenParams(
    variants=tuple(Variant),
    data_store_orders=legal(STORE_ORDERS),
    flag_store_orders=legal(STORE_ORDERS),
    flag_op_orders=tuple(MemoryOrder),
    fence_orders=legal(FENCE_ORDERS) + (None,),
    data_load_orders=legal(LOAD_ORDERS),
)


def from_pairs(pairs, size):
    """Rows over events ``0 .. size-1`` from a set of pairs."""
    rows = [0] * size
    for a, b in pairs:
        rows[a] |= 1 << b
    return rows


def pairs(rows):
    """The set of pairs that rows hold."""
    return {(a, b) for a, row in enumerate(rows) for b in bits(row)}


def make_corpus():
    return [test for test, _ in generate_mp_family(CORPUS_PARAMS)]


def source_outcomes(test):
    return allowed_outcomes(test, MODEL_C11).outcomes


def lowered_outcomes(test, *, dead=False, legacy=False):
    """AArch64 outcomes of the lowering, translated back to source labels."""
    compiled, mapping = lower_test(test)
    if dead:
        compiled = dead_register_pass(compiled)
    raw = allowed_outcomes(compiled, MODEL_AARCH64,
                           legacy_zero_register=legacy).outcomes
    labels = {asm: label for label, asm in mapping.observables.items()}
    return frozenset(translate_outcome(o, labels) for o in raw)


def strengthen(test):
    """The same test with every memory order raised to seq_cst, which is
    legal in every statement slot."""
    threads = []
    for thread in test.threads:
        stmts = tuple(
            dataclasses.replace(s, order=MemoryOrder.SEQ_CST)
            for s in thread.stmts)
        threads.append(dataclasses.replace(thread, stmts=stmts))
    return dataclasses.replace(test, threads=tuple(threads))


def pair_closure(pairs):
    """Transitive closure of a set of pairs: compose until nothing is new."""
    closure = set(pairs)
    while True:
        extra = {(a, d) for a, b in closure for c, d in closure
                 if b == c} - closure
        if not extra:
            return closure
        closure |= extra


def pair_acyclic(pairs, nodes=None):
    """Whether a set of pairs, restricted to ``nodes`` if given, has no
    cycle: nodes without a predecessor are peeled until none is left."""
    if nodes is None:
        nodes = {n for edge in pairs for n in edge}
    pairs = {(a, b) for a, b in pairs if a in nodes and b in nodes}
    nodes = set(nodes)
    while nodes:
        sources = {n for n in nodes
                   if not any(b == n and a in nodes for a, b in pairs)}
        if not sources:
            return False
        nodes -= sources
    return True


def po_loc_pairs(events):
    """Program order between a thread's own accesses to one location, over
    ``naive_oracle.flatten_events`` dicts."""
    accesses = [e for e in events if e["kind"] in ("R", "W")]
    return {(a["id"], b["id"]) for a in accesses for b in accesses
            if a["tid"] == b["tid"] != "init" and a["loc"] == b["loc"]
            and a["id"] < b["id"]}


def com_pairs(events, rf, co):
    """rf | co | fr of a candidate, pair by pair."""
    edges = {(w, r) for r, w in rf.items()}
    for order in co.values():
        edges.update(itertools.combinations(order, 2))
    for r, w in rf.items():
        order = co[events[r]["loc"]]
        edges.update((r, later) for later in order[order.index(w) + 1:])
    return edges


def coherent(events, rf, co):
    """Whether po-loc | rf | co | fr is acyclic, for a naive candidate over
    ``naive_oracle.flatten_events`` dicts.  Kept free of package code: the
    edges are listed pair by pair and cycles found by peeling sources."""
    return pair_acyclic(po_loc_pairs(events) | com_pairs(events, rf, co))


def naive_choices(test):
    """How many (co, rf) choices ``naive_oracle.naive_candidates`` walks:
    per location, the orders of its writes after init times one of its
    writes for each of its reads."""
    events, _, _ = naive_oracle.flatten_events(test)
    count = 1
    for loc in test.locations:
        kinds = [e["kind"] for e in events if e["loc"] == loc]
        writes = kinds.count("W")
        count *= math.factorial(writes - 1) * writes ** kinds.count("R")
    return count


def naive_examined_choices(test):
    """The reference for ``EventGraph.examined_choices``, over
    ``naive_oracle.flatten_events`` dicts: per location, the permutations
    of its non-init writes that keep each thread's writes in program order,
    times one of its writes (init included) for each of its reads that is
    not an exchange's."""
    events, rmw_pairs, _ = naive_oracle.flatten_events(test)
    exchange_reads = {r for r, _ in rmw_pairs}
    total = 0
    for loc in test.locations:
        init, *writes = [e for e in events
                         if e["kind"] == "W" and e["loc"] == loc]
        orders = sum(
            all(a["id"] < b["id"] for a, b in itertools.combinations(order, 2)
                if a["tid"] == b["tid"])
            for order in itertools.permutations(writes))
        plain = [e for e in events if e["kind"] == "R" and e["loc"] == loc
                 and e["id"] not in exchange_reads]
        total += orders * (1 + len(writes)) ** len(plain)
    return total


def free_choices(test):
    """Every coherence order (init first) and every reads-from choice, the
    exchange reads' included, as (events, rmw_pairs, rf, co): a superset
    of ``naive_oracle.naive_candidates``, incoherent choices and value
    cycles included."""
    events, rmw_pairs, _ = naive_oracle.flatten_events(test)
    reads = [e["id"] for e in events if e["kind"] == "R"]
    writes = {loc: [e["id"] for e in events
                    if e["kind"] == "W" and e["loc"] == loc]
              for loc in sorted(test.locations)}
    co_choices = [[(init, *rest) for rest in itertools.permutations(rest)]
                  for init, *rest in writes.values()]
    for co_combo in itertools.product(*co_choices):
        co = dict(zip(writes, co_combo))
        for sources in itertools.product(
                *(writes[events[r]["loc"]] for r in reads)):
            yield events, rmw_pairs, dict(zip(reads, sources)), co


def pair_atomicity(events, rmw_pairs, rf, co):
    """No write lies strictly between an exchange's rf source and its own
    write in coherence order, over ``naive_oracle.flatten_events`` dicts."""
    for r, w in rmw_pairs:
        order = co[events[w]["loc"]]
        if order[order.index(rf[r]) + 1:order.index(w)]:
            return False
    return True


def check_row_laws(test):
    """Over ``free_choices``: the ``com`` rows are rf | co | fr, the
    ``eco_before`` masks transposed are their closure, ``eco_respected``
    over ``po_loc`` agrees with acyclicity of po-loc | com, and the
    row-based ``atomicity_holds`` with ``pair_atomicity``.  Returns the
    numbers of incoherent and of non-atomic choices seen, so callers can
    tell the laws were not vacuous."""
    graph = build_events(test)
    incoherent = torn = 0
    for events, rmw_pairs, rf, co in free_choices(test):
        # rows read only rf and co, so values are left out
        execution = Execution(graph, rf, co, {}, {})
        com = com_pairs(events, rf, co)
        assert pairs(execution.com) == com, (test.name, rf, co)
        assert {(b, a) for a, b in pairs(execution.eco_before)} \
            == pair_closure(com), (test.name, rf, co)
        ok = pair_acyclic(po_loc_pairs(events) | com)
        assert eco_respected(execution, graph.po_loc) == ok, \
            (test.name, rf, co)
        atomic = pair_atomicity(events, rmw_pairs, rf, co)
        assert atomicity_holds(execution) == atomic, (test.name, rf, co)
        incoherent += not ok
        torn += not atomic
    return incoherent, torn


def pairwise_location_rows(co, rf, size):
    """The reference for ``execution._location_rows``: ``com`` and
    ``eco_before`` rows of a location's events from their coherence keys,
    twice its co position for a write and one more than its rf source's
    for a read, compared pair by pair.  ``eco_before`` runs from every lower
    key; ``com`` runs up in key, never between reads (odd keys) nor into a
    read from other than its rf source."""
    key = {w: 2 * i for i, w in enumerate(co)}
    key.update((r, key[w] + 1) for r, w in rf if w in key)
    com = [0] * size
    before = [0] * size
    for a, ka in key.items():
        for b, kb in key.items():
            if ka < kb:
                before[b] |= 1 << a
                if kb % 2 == 0 or kb == ka + 1:
                    com[a] |= 1 << b
    return com, before


def check_location_rows_law(test):
    """For every ``(co, rf)`` choice that ``_location_choices`` yields on
    each location, ``_location_rows`` equals ``pairwise_location_rows``.
    Returns the number of choices, so callers can tell the law was not
    vacuous."""
    graph = build_events(test)
    size = len(graph.po)
    checked = 0
    for loc in test.sorted_locations():
        groups = execution._location_choices(graph, loc, set())
        for co, rf in itertools.chain.from_iterable(groups.values()):
            assert execution._location_rows(co, rf, size) \
                == pairwise_location_rows(co, rf, size), (test.name, co, rf)
            checked += 1
    return checked


def filtered_location_choices(graph, loc, drawn):
    """The reference for ``execution._location_choices``: over each
    coherence order, every rf tuple of the location's plain reads, with
    every event keyed (twice its co position for a write, one more than
    its rf source's key for a read) and each tuple where some po-loc pair
    goes down in key dropped (CoWR, CoRW, CoRR), grouped by the same
    signatures.  The location's reads and writes are those of
    ``reference_build_events``."""
    init, chains, _ = graph.shapes[loc]
    events, _ = reference_build_events(graph.test)
    own = [e for e in events if e.loc == loc]
    plain = [e.eid for e in own if e.kind is EventKind.READ and e.rmw is None]
    exchanges = [(e.rmw, e.eid) for e in own
                 if e.kind is EventKind.WRITE and e.rmw is not None]
    rf_reads = [*plain, *(r for r, _ in exchanges)]
    signed = [(i, r) for i, r in enumerate(rf_reads) if r in drawn]
    value_src = {w: events[w].value_src
                 for w in (init, *itertools.chain(*chains.values()))}
    po_loc = [(a, b) for a in (*value_src, *rf_reads)
              for b in bits(graph.po_loc[a])]
    groups = {}
    for tail in execution._merges(list(chains.values())):
        co = (init, *tail)
        key = {w: 2 * i for i, w in enumerate(co)}
        fixed = []
        for r, w in exchanges:
            source = co[co.index(w) - 1]
            key[r] = key[source] + 1
            fixed.append((r, source))
        last = ((loc, value_src[co[-1]]),) if loc in drawn else ()
        for sources in itertools.product(co, repeat=len(plain)):
            for r, w in zip(plain, sources):
                key[r] = key[w] + 1
            for a, b in po_loc:
                if key[a] > key[b]:
                    break
            else:
                rf = (*zip(plain, sources), *fixed)
                signature = last + tuple(
                    [(r, value_src[rf[i][1]]) for i, r in signed])
                groups.setdefault(signature, []).append((co, rf))
    return groups


def check_location_choices_law(test):
    """On every location, with no read drawn and with every read drawn,
    ``_location_choices`` equals ``filtered_location_choices``: the same
    signatures in the same order, each with the same choices in the same
    order.  Returns the number of choices, which grouping leaves the
    same, and the shape's budget ``examined_choices``, so callers can pin
    both."""
    graph = build_events(test)
    made = 0
    for loc in test.sorted_locations():
        for drawn in (set(), set(bits(graph.masks["R"]))):
            groups = execution._location_choices(graph, loc, drawn)
            assert list(groups.items()) == list(filtered_location_choices(
                graph, loc, drawn).items()), (test.name, loc, drawn)
        made += sum(map(len, groups.values()))
    return made, graph.examined_choices


def check_row_work_law(test, model, **flags):
    """One ``allowed_outcomes`` call, one enumeration, builds each choice's
    ``_location_rows`` at most once and ANDs each group's rows at most
    once.  Counting wrappers sit on ``_location_rows`` and on ``_fold``,
    where an AND is seen by its input rows: distinct choices have distinct
    rows.  Returns the numbers of rows built and of ANDs, one for a
    group's ``com`` rows and one for its ``eco_before`` rows."""
    rows, fold = execution._location_rows, execution._fold
    built, anded = [], []

    def counted_rows(co, rf, size):
        built.append((co, tuple(rf)))
        return rows(co, rf, size)

    def counted_fold(op, parts):
        if op is operator.and_:
            anded.append(tuple(map(tuple, parts)))
        return fold(op, parts)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(execution, "_location_rows", counted_rows)
        patch.setattr(execution, "_fold", counted_fold)
        allowed_outcomes(test, model, **flags)
    assert len(set(built)) == len(built), test.name
    assert len(set(anded)) == len(anded), test.name
    return len(built), len(anded)


INIT_TID = -1


class EventKind(enum.Enum):
    READ = "R"
    WRITE = "W"
    FENCE = "F"


class Event(NamedTuple):
    """One event as ``reference_build_events`` makes it, every property a
    field.  ``build_events`` keeps no such record:
    ``check_build_events_law`` reads each field back off the graph's
    masks and tables.  A value source is ``("const", k)`` or ``("read",
    eid of the read it copies)``."""
    eid: int
    tid: int
    kind: EventKind
    loc: str | None = None
    acquire: bool = False
    release: bool = False
    seq_cst: bool = False
    rmw: int | None = None
    zero_dest: bool = False
    domain: DmbDomain | None = None
    value_src: tuple | None = None


class _ThreadBuilder:
    """Appends a thread's events and tracks its register environment."""

    def __init__(self, tid, events):
        self.tid = tid
        self.events = events
        self.env = {}

    def add(self, kind, **fields):
        eid = len(self.events)
        self.events.append(Event(eid, self.tid, kind, **fields))
        return eid

    def exchange(self, loc, dest, value_src, *, acquire, release,
                 seq_cst=False):
        """A read then a write of ``value_src`` at consecutive ids, both
        tagged with the read's id, and ``dest`` bound to the read's result.
        No destination, or WZR (a read that writes no register), binds none."""
        zero = dest == ZERO_REGISTER
        eid = self.add(EventKind.READ, loc=loc, acquire=acquire,
                       seq_cst=seq_cst, rmw=len(self.events), zero_dest=zero)
        self.add(EventKind.WRITE, loc=loc, release=release, seq_cst=seq_cst,
                 rmw=eid, value_src=value_src)
        if dest is not None and not zero:
            self.env[dest] = ("read", eid)


def _source_events(thread, builder):
    for stmt in thread.stmts:
        order = stmt.order
        acq = order in (MemoryOrder.ACQUIRE, MemoryOrder.ACQ_REL,
                        MemoryOrder.SEQ_CST)
        rel = order in (MemoryOrder.RELEASE, MemoryOrder.ACQ_REL,
                        MemoryOrder.SEQ_CST)
        sc = order is MemoryOrder.SEQ_CST
        if stmt.kind is StmtKind.STORE:
            builder.add(EventKind.WRITE, loc=stmt.location, release=rel,
                        seq_cst=sc, value_src=("const", stmt.value))
        elif stmt.kind is StmtKind.LOAD:
            eid = builder.add(EventKind.READ, loc=stmt.location, acquire=acq,
                              seq_cst=sc)
            builder.env[stmt.dest] = ("read", eid)
        elif stmt.kind is StmtKind.EXCHANGE:
            builder.exchange(stmt.location, stmt.dest, ("const", stmt.value),
                             acquire=acq, release=rel, seq_cst=sc)
        else:
            builder.add(EventKind.FENCE, acquire=acq, release=rel, seq_cst=sc)


def _asm_events(thread, builder):
    bindings = thread.binding_map()

    def register_value(reg):
        if reg == ZERO_REGISTER:
            return ("const", 0)
        return builder.env[reg]

    for instr in thread.stmts:
        m = instr.mnemonic
        if m is Mnemonic.MOV:
            builder.env[instr.dst] = ("const", instr.imm)
        elif m in (Mnemonic.LDR, Mnemonic.LDAR):
            eid = builder.add(EventKind.READ, loc=bindings[instr.addr],
                              acquire=m is Mnemonic.LDAR)
            builder.env[instr.dst] = ("read", eid)
        elif m in (Mnemonic.STR, Mnemonic.STLR):
            builder.add(EventKind.WRITE, loc=bindings[instr.addr],
                        release=m is Mnemonic.STLR,
                        value_src=register_value(instr.src))
        elif m in SWP_FAMILY:
            builder.exchange(bindings[instr.addr], instr.dst,
                             register_value(instr.src),
                             acquire=m in SWP_ACQUIRE,
                             release=m in SWP_RELEASE)
        else:
            builder.add(EventKind.FENCE, domain=instr.domain)


def reference_build_events(test):
    """The reference for the events and final register environment
    ``build_events`` makes: one keyword-built ``Event`` per ``add`` call
    of a per-thread builder, a statement at a time.  Init writes come
    first, one per location in sorted order; MOV produces no event, only
    register state.  Returns the events and ``final_defs``."""
    events = []
    for loc in test.sorted_locations():
        events.append(Event(len(events), INIT_TID, EventKind.WRITE, loc=loc,
                            value_src=("const", test.locations[loc])))
    final_defs = {}
    for thread in test.threads:
        builder = _ThreadBuilder(thread.tid, events)
        if test.dialect is Dialect.SOURCE:
            _source_events(thread, builder)
        else:
            _asm_events(thread, builder)
        for reg, src in builder.env.items():
            final_defs[(thread.tid, reg)] = src
    return tuple(events), final_defs


def event_mask(events):
    """The mask of the events' ids."""
    return sum(1 << e.eid for e in events)


def reference_tables(test):
    """The reference for the tables ``EventGraph`` makes in one pass over
    the statements: each derived on its own from the events and
    ``final_defs`` of ``reference_build_events``, one walk or more per
    table, the way the graph once derived them lazily."""
    events, final_defs = reference_build_events(test)
    shapes = {}
    open_runs = {}
    for e in events:
        key = (e.loc, e.tid)
        if e.tid == INIT_TID:
            shapes[e.loc] = (e.eid, {}, [])
        elif e.kind is EventKind.WRITE:
            shapes[e.loc][1].setdefault(e.tid, []).append(e.eid)
            if key in open_runs:
                open_runs.pop(key)[1] = e.eid
        elif e.kind is EventKind.READ and e.rmw is None:
            init, chains, runs = shapes[e.loc]
            if key not in open_runs:
                a = chains[e.tid][-1] if e.tid in chains else init
                runs.append(open_runs.setdefault(key, [a, None, []]))
            open_runs[key][2].append(e.eid)
    writes = [e for e in events if e.kind is EventKind.WRITE]
    rmw_pairs = tuple((w.rmw, w.eid) for w in writes if w.rmw is not None)
    of = {}
    for e in events:
        of[e.tid] = of.get(e.tid, 0) | 1 << e.eid
    same_thread = [of[e.tid] for e in events]
    everything = (1 << len(events)) - 1
    po = [(everything if e.tid == INIT_TID else same) & -(2 << e.eid)
          for e, same in zip(events, same_thread)]
    at = {}
    for e in events:
        if e.loc is not None:
            at[e.loc] = at.get(e.loc, 0) | 1 << e.eid
    po_loc = [row & at[e.loc] if e.loc is not None and e.tid != INIT_TID
              else 0 for e, row in zip(events, po)]
    masks = {kind.value: event_mask(e for e in events if e.kind is kind)
             for kind in EventKind}
    masks["init"] = event_mask(e for e in events if e.tid == INIT_TID)
    for flag in ("acquire", "release", "seq_cst", "zero_dest"):
        masks[flag] = event_mask(e for e in events if getattr(e, flag))
    return {
        "masks": masks, "shapes": shapes,
        "exchanges": {loc: [(r, w) for r, w in rmw_pairs
                            if events[r].loc == loc] for loc in shapes},
        "rmw_pairs": rmw_pairs,
        "value_srcs": {w.eid: w.value_src for w in writes},
        "domains": {e.eid: e.domain for e in events
                    if e.kind is EventKind.FENCE},
        "same_thread": same_thread, "po": po, "po_loc": po_loc,
        "final_defs": final_defs,
    }


def reference_sync_sets(events, po):
    """The reference for ``model_c11._sync_sets``, over the events of
    ``reference_build_events`` and the ``po`` of ``reference_tables``:
    release heads, acquire ends per read, the rmw map, and the read,
    write and seq_cst masks."""
    reads, writes, fences = ([e for e in events if e.kind is kind]
                             for kind in EventKind)
    heads = [(w.eid, w.eid) for w in writes if w.release]
    heads += [(f.eid, w) for f in fences if f.release
              for w in bits(po[f.eid] & event_mask(writes))]
    acquire_fences = event_mask(f for f in fences if f.acquire)
    ends = [0] * len(events)
    for r in reads:
        ends[r.eid] = ((1 << r.eid if r.acquire else 0)
                       | po[r.eid] & acquire_fences)
    return (heads, ends, {w.rmw: w.eid for w in writes if w.rmw is not None},
            event_mask(reads), event_mask(writes),
            event_mask(e for e in events if e.seq_cst))


def reference_barrier_order(events, po, legacy_zero_register):
    """The reference for ``model_aarch64._barrier_ordered``, over the
    events of ``reference_build_events`` and the ``po`` of
    ``reference_tables``."""
    reads, writes, fences = ([e for e in events if e.kind is kind]
                             for kind in EventKind)
    memory = event_mask(e for e in events
                        if e.kind is not EventKind.FENCE
                        and e.tid != INIT_TID)
    own_writes = event_mask(w for w in writes if w.tid != INIT_TID)
    reads = [r for r in reads if legacy_zero_register or not r.zero_dest]
    register_reads = event_mask(reads)
    acquires = event_mask(r for r in reads if r.acquire)
    releases = event_mask(w for w in writes if w.release)
    bob = [0] * len(events)
    for f in fences:
        if f.domain is DmbDomain.SY:
            before, after = memory, memory
        elif f.domain is DmbDomain.LD:
            before, after = register_reads, memory
        else:
            before, after = own_writes, own_writes
        for a in bits(before):
            if po[a] >> f.eid & 1:
                bob[a] |= po[f.eid] & after
    for e in bits(memory):
        bob[e] |= po[e] & (memory if acquires >> e & 1 else releases)
    return bob


def ordered(table):
    """A table with every dict turned into its list of items, so that two
    tables are equal only when their dicts list their keys in one order."""
    if isinstance(table, dict):
        return [(key, ordered(value)) for key, value in table.items()]
    if type(table) in (list, tuple):
        return type(table)(map(ordered, table))
    return table


def events_from_tables(graph):
    """Every event read back as an ``Event``, each field off a table
    ``check_tables_law`` compares: ``eid`` off the row's index; ``kind``
    off the R/W/F masks; ``loc`` off ``shapes`` (init writes, write chains
    and runs of plain reads) and ``exchanges``; ``tid`` off ``same_thread``,
    as the lowest id of the event's thread (the chain keys in ``shapes``
    carry the number of each thread that writes); the flags off their
    masks; ``rmw`` off ``rmw_pairs``; ``value_src`` off ``value_srcs``; and
    ``domain`` off ``domains``.  Every field of ``Event`` is read back."""
    masks = graph.masks
    locs = {}
    for loc, (init, chains, runs) in graph.shapes.items():
        for eid in (init, *itertools.chain(*chains.values(),
                                           *(run[2] for run in runs),
                                           *graph.exchanges[loc])):
            locs[eid] = loc
    rmw = {eid: r for r, w in graph.rmw_pairs for eid in (r, w)}
    events = []
    for eid, row in enumerate(graph.same_thread):
        kinds = [kind for kind in EventKind if masks[kind.value] >> eid & 1]
        assert len(kinds) == 1, (graph.test.name, eid, kinds)
        fields = {
            "eid": eid, "tid": (row & -row).bit_length() - 1,
            "kind": kinds[0], "loc": locs.get(eid), "rmw": rmw.get(eid),
            "domain": graph.domains.get(eid),
            "value_src": graph.value_srcs.get(eid),
            **{flag: bool(masks[flag] >> eid & 1) for flag in
               ("acquire", "release", "seq_cst", "zero_dest")}}
        assert sorted(fields) == sorted(Event._fields)
        events.append(Event(**fields))
    return events


def check_tables_law(test):
    """``build_events`` makes the tables and ``final_defs`` of
    ``reference_tables``, with their types and in their order, and the
    models' per-graph memos equal their references: c11's sync sets on a
    source test, aarch64's bob under either zero-register reading on an
    asm test."""
    graph = build_events(test)
    reference = reference_tables(test)
    assert ordered({name: getattr(graph, name) for name in reference}) \
        == ordered(reference), test.name
    events, _ = reference_build_events(test)
    po = reference["po"]
    if test.dialect is Dialect.SOURCE:
        assert model_c11._graph_sync_sets(graph) \
            == reference_sync_sets(events, po), test.name
    else:
        for legacy in (False, True):
            assert model_aarch64.barrier_order(graph, legacy) \
                == reference_barrier_order(events, po, legacy), \
                (test.name, legacy)


def check_build_events_law(test):
    """The tables ``build_events`` makes carry every field of every event
    of ``reference_build_events``: ``events_from_tables`` reads them back,
    each event's thread named by its lowest id."""
    events, _ = reference_build_events(test)
    first = {}
    for e in events:
        first.setdefault(e.tid, e.eid)
    assert events_from_tables(build_events(test)) \
        == [e._replace(tid=first[e.tid]) for e in events], test.name


def observed_sources(graph):
    """Per label of the exists clause, what its final value comes from: a
    location's co-last write, or a register's value source."""
    return {label: ("location", obs.location)
            if isinstance(obs, MemoryObservable)
            else graph.final_defs[(obs.thread, obs.register)]
            for label, obs in graph.final_observables}


# What the rf and co search and the outcome read of an event graph, apart
# from its observables.
SEARCHED_TABLES = ("same_thread", "po", "po_loc", "rmw_pairs", "shapes",
                   "exchanges", "value_srcs")


def check_event_correspondence_law(test):
    """``build_events`` of a source test, of its lowering and of the
    lowering's dead-register rewrite agree on the R, W and F masks and on
    ``SEARCHED_TABLES``, dict order included; every observable of the
    source condition that the lowering's mapping pairs reads the same
    location or value source on all three.  So a compiled execution names
    the source events it runs.  Returns the number of events."""
    compiled, mapping = lower_test(test)
    source, *lowered = [build_events(subject) for subject in
                        (test, compiled, dead_register_pass(compiled))]
    observed = observed_sources(source)
    for graph in lowered:
        for kind in ("R", "W", "F"):
            assert graph.masks[kind] == source.masks[kind], (test.name, kind)
        for name in SEARCHED_TABLES:
            assert ordered(getattr(graph, name)) \
                == ordered(getattr(source, name)), (test.name, name)
        asm_observed = observed_sources(graph)
        for label, asm_label in mapping.observables.items():
            if label in observed:
                assert asm_observed[asm_label] == observed[label], \
                    (test.name, label, asm_label)
    return len(source.po)


def hand_execution(test, rf, co):
    """Assemble a candidate directly, bypassing the enumerator's filters.
    Values come from the brute-force oracle's resolver."""
    graph = build_events(test)
    events, _, _ = naive_oracle.flatten_events(test)
    values = naive_oracle._resolve(events, rf)
    assert values is not None
    registers = {k: (s[1] if s[0] == "const" else values[s[1]])
                 for k, s in graph.final_defs.items()}
    return Execution(graph, rf, co, values, registers)


def coherent_naive_fingerprints(test):
    """Fingerprints of the brute-force candidates that are coherent."""
    events, _, _ = naive_oracle.flatten_events(test)
    return {
        naive_oracle.fingerprint(rf, co, values)
        for rf, co, values, _ in naive_oracle.naive_candidates(test)
        if coherent(events, rf, co)
    }


def candidates(graph, limit=None):
    """Every candidate the enumerator yields, class by class and product
    by product."""
    return [ex for _, products in enumerate_candidates(Search(graph, limit))
            for product in products for ex in product]


def fingerprint(ex):
    return naive_oracle.fingerprint(ex.rf, ex.co, ex.values)


def check_class_law(test):
    """The enumerator's classes have distinct outcomes and no class or
    product is empty, each product's length is its number of candidates,
    every member's ``final_state`` is its class's outcome, and the members
    together are the coherent brute-force candidates, each once.  Returns
    the numbers of classes and of candidates."""
    classes = [(outcome, list(products)) for outcome, products
               in enumerate_candidates(Search(build_events(test)))]
    outcomes = [outcome for outcome, _ in classes]
    assert len(set(outcomes)) == len(outcomes), test.name
    fingerprints = []
    for outcome, products in classes:
        assert products, (test.name, outcome)
        for product in products:
            members = list(product)
            assert members and len(members) == len(product), \
                (test.name, outcome)
            for ex in members:
                assert final_state(ex) == outcome, \
                    (test.name, fingerprint(ex))
                fingerprints.append(fingerprint(ex))
    assert len(set(fingerprints)) == len(fingerprints), test.name
    assert set(fingerprints) == coherent_naive_fingerprints(test), test.name
    return len(classes), len(fingerprints)


MODEL_CHECKS = {
    MODEL_C11: (model_c11, "c11_consistent"),
    MODEL_AARCH64: (model_aarch64, "aarch64_consistent"),
    MODEL_SC: (model_sc, "sc_consistent"),
}


def rows_of(ex):
    """An execution's ``com`` and ``eco_before`` rows, as tuples."""
    return tuple(ex.com), tuple(ex.eco_before)


def intersection(members):
    """The AND, row by row, of the members' ``com`` and ``eco_before``."""
    return tuple(tuple(functools.reduce(operator.and_, column)
                       for column in zip(*rows))
                 for rows in zip(*map(rows_of, members)))


def is_meet(ex):
    """Whether an execution is a product's meet: it carries rows only, no
    location choices."""
    return "choices" not in vars(ex)


def expected_calls(graph, members, check):
    """The calls the model-call law lets ``check`` see on one product's
    members, each a fingerprint or ``("meet", com, eco_before)``, and
    whether one of them succeeds."""
    first, *rest = members
    calls = [fingerprint(first)]
    if check(first):
        return calls, True
    if rest:
        meet = intersection(members)
        calls.append(("meet", *meet))
        if not check(Execution.of_rows(graph, [map(list, meet)])):
            return calls, False
    for ex in rest:
        calls.append(fingerprint(ex))
        if check(ex):
            return calls, True
    return calls, False


def check_model_call_law(test, model, **flags):
    """``allowed_outcomes`` takes each class's products in order until one
    allows the outcome.  In a product the model predicate sees, in
    enumeration order, the candidates up to and including the first
    consistent one, with one exception: when the product holds more than
    one candidate and its first is rejected, the next call is its meet,
    whose rows are the intersection of the candidates' rows, and a
    rejected meet ends the product.  The outcomes of the classes where a
    call succeeds are allowed, and ``final_state`` is never called.  The
    predicate and ``final_state`` are replaced where their modules define
    them, since per-layer tracing wraps them there.  Returns the numbers of
    model calls on candidates and on meets."""
    module, name = MODEL_CHECKS[model]
    check = getattr(module, name)
    graph = build_events(test)
    expected, allowed = [], set()
    for outcome, products in enumerate_candidates(Search(graph)):
        for product in products:
            calls, ok = expected_calls(
                graph, list(product), functools.partial(check, **flags))
            expected += calls
            if ok:
                allowed.add(outcome)
                break
    calls, projected = [], []

    def counted(ex, **kwargs):
        calls.append(("meet", *rows_of(ex)) if is_meet(ex)
                     else fingerprint(ex))
        return check(ex, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, name, counted)
        patch.setattr(execution, "final_state", projected.append)
        assert allowed_outcomes(test, model, **flags).outcomes == allowed
    assert calls == expected, test.name
    assert projected == [], test.name
    meets = sum(call[0] == "meet" for call in calls)
    return len(calls) - meets, meets


def two_search(call, *args, **kwargs):
    """``call`` with ``check_refinement``'s shared listing withheld, so that
    each side is searched on its own: the reference for the shared path.
    ``Search.share`` still makes every check, then returns a search of the
    compiled graph's own."""
    share = Search.share

    def own(search, graph, pairs):
        share(search, graph, pairs)
        return Search(graph, search.limit)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Search, "share", own)
        return call(*args, **kwargs)


def check_shared_search_law(source, compiled, mapping=None, **flags):
    """``check_refinement`` gives the same verdict, in text and in JSON,
    whether it lists the source graph's classes once for both sides or
    searches each side on its own.  Returns whether the pair takes the
    shared path, that is, whether ``Search.share`` hands the compiled
    graph's search the source search's listing."""
    share, shared = Search.share, []

    def spy(search, graph, pairs):
        found = share(search, graph, pairs)
        shared.append(found.origin is search)
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Search, "share", spy)
        verdict = check_refinement(source, compiled, mapping, **flags)
    reference = two_search(check_refinement, source, compiled, mapping,
                           **flags)
    assert repr(verdict) == repr(reference), source.name
    assert json.dumps(verdict.to_json_dict()) \
        == json.dumps(reference.to_json_dict()), source.name
    return shared == [True]


def check_one_listing_law(source):
    """One ``Search`` of the source graph serves its c11 outcome set and
    every variant of its lowering: plain and with the dead-register
    rewrite, each under both zero-register readings.  Each outcome set
    read off the shared listing is the one ``allowed_outcomes`` finds on
    its own, and each choice's rows are built at most once across them
    all.  Returns the number of variants."""
    compiled, mapping = lower_test(source)
    variants = [(subject, legacy)
                for subject in (compiled, dead_register_pass(compiled))
                for legacy in (False, True)]
    alone = [allowed_outcomes(source, MODEL_C11)] + [
        allowed_outcomes(subject, MODEL_AARCH64, legacy_zero_register=legacy)
        for subject, legacy in variants]
    rows, built = execution._location_rows, []

    def counted_rows(co, rf, size):
        built.append((co, tuple(rf)))
        return rows(co, rf, size)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(execution, "_location_rows", counted_rows)
        search = Search(build_events(source))
        shared = [allowed_outcomes(source, MODEL_C11, search=search)]
        for subject, legacy in variants:
            lowered = search.share(build_events(subject), mapping.observables)
            assert lowered.origin is search, subject.name
            shared.append(allowed_outcomes(
                subject, MODEL_AARCH64, legacy_zero_register=legacy,
                search=lowered))
    assert shared == alone, source.name
    assert len(built) == len(set(built)), source.name
    return len(variants)


def check_mapping_law(source, compiled, mapping):
    """``check_refinement``'s mapping check accepts ``mapping`` on this
    pair, and reads each observable of the compiled condition back as the
    source observable the mapping sends to it, one to one onto the source
    condition's."""
    labels = difftest._check_mapping(source, compiled, mapping)
    observed = [{observable_label(obs, test.dialect)
                 for obs in condition_observables(test.final)}
                for test in (source, compiled)]
    assert labels.keys() == observed[1], source.name
    assert sorted(labels.values()) == sorted(observed[0]), source.name
    assert all(mapping.observables[label] == asm
               for asm, label in labels.items()), source.name


def check_shared_work_law(source, compiled, mapping, **flags):
    """On the shared path ``check_refinement`` builds each choice's
    ``_location_rows`` at most once for both sides, and each model sees
    the calls, in order, that ``allowed_outcomes`` alone shows it.
    Returns the numbers of rows built by the shared and by the two-search
    path."""
    rows = execution._location_rows
    built, calls = [], {MODEL_C11: [], MODEL_AARCH64: []}

    def counted_rows(co, rf, size):
        built.append((co, tuple(rf)))
        return rows(co, rf, size)

    def spy(model):
        check = getattr(*MODEL_CHECKS[model])

        def counted(ex, **kwargs):
            calls[model].append(("meet", *rows_of(ex)) if is_meet(ex)
                                else fingerprint(ex))
            return check(ex, **kwargs)
        return counted

    def run(call, *args, **kwargs):
        built.clear()
        for seen in calls.values():
            seen.clear()
        call(*args, **kwargs)
        return len(built), len(set(built)), \
            {model: list(seen) for model, seen in calls.items()}

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(execution, "_location_rows", counted_rows)
        for model in calls:
            patch.setattr(*MODEL_CHECKS[model], spy(model))
        shared, distinct, shared_calls = run(
            check_refinement, source, compiled, mapping, **flags)
        reference, *_ = run(two_search, check_refinement, source, compiled,
                            mapping, **flags)
        _, _, alone = run(allowed_outcomes, source, MODEL_C11)
        _, _, compiled_alone = run(allowed_outcomes, compiled, MODEL_AARCH64,
                                   **flags)
    assert shared == distinct, source.name
    assert shared_calls == {MODEL_C11: alone[MODEL_C11],
                            MODEL_AARCH64: compiled_alone[MODEL_AARCH64]}, \
        source.name
    return shared, reference


def budget(test):
    """The candidate budget ``check_refinement`` charges on a test: the
    shape's ``examined_choices`` plus the combinations of its coherent
    choices."""
    graph = build_events(test)
    return graph.examined_choices + math.prod([
        sum(map(len, execution._location_choices(graph, loc, set()).values()))
        for loc in graph.shapes])


def dialect_predicates(test):
    """The consistency predicates of a test's dialect: c11 for a source
    test, aarch64 under either zero-register reading for an asm test."""
    if test.dialect is Dialect.SOURCE:
        return [c11_consistent]
    return [functools.partial(aarch64_consistent, legacy_zero_register=legacy)
            for legacy in (False, True)]


def check_meet_law(test, predicates=None):
    """For every product of more than one candidate, its meet's rows are
    the intersection of its candidates' rows, so contained in each of
    them, and whenever one of ``predicates`` (by default those of
    ``dialect_predicates``) rejects the meet it rejects every candidate,
    checked one by one.  Returns the numbers of meets and of (meet,
    predicate) rejections, so callers can tell the law was not vacuous."""
    if predicates is None:
        predicates = dialect_predicates(test)
    meets = rejected = 0
    for _, products in enumerate_candidates(Search(build_events(test))):
        for product in products:
            if len(product) == 1:
                continue
            members = list(product)
            meet = product.meet()
            meets += 1
            assert rows_of(meet) == intersection(members), test.name
            for ex in members:
                assert all(m & ~e == 0 for m, e in zip(
                    meet.com + meet.eco_before, ex.com + ex.eco_before)), \
                    (test.name, fingerprint(ex))
            for check in predicates:
                if not check(meet):
                    rejected += 1
                    assert not any(map(check, members)), test.name
    return meets, rejected


def drop_bits(ex, rng):
    """The execution with a random subset of its ``com`` and ``eco_before``
    bits dropped; each bit is kept with probability 1/2, 3/4 or 7/8."""
    size = len(ex.com)
    depth = rng.randint(1, 3)

    def thin(rows):
        return [row & functools.reduce(operator.or_, (
            rng.getrandbits(size) for _ in range(depth))) for row in rows]

    return Execution.of_rows(ex.graph, [(thin(ex.com), thin(ex.eco_before))])


def check_antitone_law(test, seed, trials=3, predicates=None):
    """Every enumerated candidate that one of ``predicates`` (by default
    those of ``dialect_predicates``) accepts stays accepted with any
    seeded-random subset of its ``com`` and ``eco_before`` bits dropped,
    ``trials`` subsets per candidate and predicate.  This is the contract
    that makes a rejected meet reject its whole product.  Returns the
    number of (candidate, predicate) pairs accepted, so callers can tell
    the law was not vacuous."""
    if predicates is None:
        predicates = dialect_predicates(test)
    rng = random.Random(seed)
    accepted = 0
    for ex in candidates(build_events(test)):
        for check in predicates:
            if check(ex):
                accepted += 1
                for _ in range(trials):
                    assert check(drop_bits(ex, rng)), \
                        (test.name, fingerprint(ex))
    return accepted


def assert_outcomes_match_brute_force(test):
    """Pruned outcome sets equal the model applied to every brute-force
    candidate: c11 on the source, aarch64 on its lowering with and without
    the dead-register rewrite."""
    assert allowed_outcomes(test, MODEL_C11).outcomes \
        == naive_oracle.naive_final_states(test, c11_consistent), test.name
    compiled, _ = lower_test(test)
    for subject in (compiled, dead_register_pass(compiled)):
        assert allowed_outcomes(subject, MODEL_AARCH64).outcomes \
            == naive_oracle.naive_final_states(subject, aarch64_consistent), \
            test.name


def check_sc_law(test):
    """The sc model's outcome set equals the sc model applied to every
    brute-force candidate, and the outcomes of every interleaving of the
    test's statements."""
    got = allowed_outcomes(test, MODEL_SC).outcomes
    assert got == naive_oracle.naive_final_states(test, sc_consistent), \
        test.name
    assert got == interleaving_oracle.interleaving_outcomes(test), test.name


def check_sc_inclusion_law(test):
    """Every enumerated candidate that ``sc_consistent`` accepts is accepted
    by each predicate of ``dialect_predicates``: SC is stronger than both
    models candidate by candidate, not only in outcomes.  Returns the
    numbers of candidates accepted by sc and of candidates, so callers can
    tell the law was not vacuous."""
    checks = dialect_predicates(test)
    members = candidates(build_events(test))
    accepted = 0
    for ex in members:
        if sc_consistent(ex):
            accepted += 1
            assert all(check(ex) for check in checks), \
                (test.name, fingerprint(ex))
    return accepted, len(members)


def lenient_atomicity(events, rmw_pairs, rf, co):
    """The asm model's former atomicity rule, kept as a reference over
    ``naive_oracle.flatten_events`` dicts: only a write of the exchange's own
    thread may lie between its rf source and its own write in coherence."""
    for r, w in rmw_pairs:
        order = co[events[w]["loc"]]
        between = order[order.index(rf[r]) + 1:order.index(w)]
        if any(events[x]["tid"] != events[w]["tid"] for x in between):
            return False
    return True


def check_atomicity_law(test):
    """Over ``free_choices``: coherent and lenient <=> coherent and
    ``atomicity_holds``.  Coherence is the asm model's internal axiom.
    Returns how many candidates the two rules alone tell apart."""
    graph = build_events(test)
    apart = 0
    for events, rmw_pairs, rf, co in free_choices(test):
        lenient = lenient_atomicity(events, rmw_pairs, rf, co)
        # atomicity reads only rf and co, so values are left out
        strict = atomicity_holds(Execution(graph, rf, co, {}, {}))
        apart += lenient != strict
        ok = coherent(events, rf, co)
        assert (ok and lenient) == (ok and strict), (test.name, rf, co)
    return apart


def check_hb_law(test):
    """Over every enumerated candidate of a source test, ``happens_before``
    is the closure of ``po | sw`` computed pair by pair.  Returns the number
    of candidates whose sw is not empty, so callers can tell the law was
    not vacuous."""
    graph = build_events(test)
    synced = 0
    for ex in candidates(graph):
        sw = _synchronizes_with(ex)
        assert pairs(happens_before(ex)) \
            == pair_closure(pairs(graph.po) | pairs(sw)), \
            (test.name, fingerprint(ex))
        synced += any(sw)
    return synced


def check_construction_law(test):
    """Every enumerated candidate, rebuilt from its derived rf, co, values
    and registers the way ``naive_oracle`` builds executions, has the same
    ``com`` and ``eco_before`` rows, final state and verdict: under c11 for
    a source test, under aarch64 with either zero-register reading for an
    asm test.  Returns the number of candidates."""
    checks = dialect_predicates(test)
    members = candidates(build_events(test))
    for ex in members:
        rebuilt = Execution(ex.graph, ex.rf, ex.co, ex.values, ex.registers)
        assert (rebuilt.com, rebuilt.eco_before) == (ex.com, ex.eco_before), \
            (test.name, fingerprint(ex))
        assert final_state(rebuilt) == final_state(ex), test.name
        assert [check(rebuilt) for check in checks] \
            == [check(ex) for check in checks], (test.name, fingerprint(ex))
    return len(members)


# -- The reader and the validator against their references ----------------

def raised(call, *args):
    """``call(*args)``'s result, or the class, message, line and column of
    what it raised."""
    try:
        return call(*args)
    except Exception as exc:
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))


def check_reader_law(text):
    """The reader and the reference read ``text``, and the printed form of
    what they read, as equal tests."""
    test = parse_litmus(text)
    assert test == reference_reader.parse_litmus(text)
    printed = render_litmus(test)
    assert parse_litmus(printed) == reference_reader.parse_litmus(printed) == test


# Tokens swapped in for each token of a line: register names the reader
# must refuse or take (among them names whose digit is a non-ASCII decimal
# digit, which ``\d`` takes), an order outside the fragment, punctuation
# and numbers out of range.
MALFORMED_TOKENS = ("WZR", "W31", "X31", "W01", "W14", "W\u0661", "X\u0660",
                    "r\u0661", "memory_order_consume",
                    ";", "}", "{", "(", "-1", "8", "P9", "exists")
_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def malformed_texts(text):
    """The texts one edit away from ``text``: a non-blank line deleted or
    repeated, a line cut after each of its tokens but the last, or one
    token replaced by an entry of ``MALFORMED_TOKENS``; without repeats,
    in a fixed order."""
    lines = text.splitlines(keepends=True)
    edits = {}
    for i, line in enumerate(lines):
        def edit(*new):
            edits.setdefault("".join([*lines[:i], *new, *lines[i + 1:]]))
        if not line.strip():
            continue
        edit()
        edit(line, line)
        tokens = list(_TOKEN_RE.finditer(line))
        for m in tokens[:-1]:
            edit(line[:m.end()] + "\n")
        for m in tokens:
            for new in MALFORMED_TOKENS:
                if new != m.group():
                    edit(line[:m.start()] + new + line[m.end():])
    edits.pop(text, None)
    return list(edits)


def check_malformed_reader_law(text):
    """On every text one edit away from ``text``, the reader and the
    reference return equal tests or raise the same class with the same
    message, line and column.  Returns how many texts were read, and how
    many of them each reader refused."""
    texts = malformed_texts(text)
    refused = 0
    for edited in texts:
        got = raised(parse_litmus, edited)
        assert got == raised(reference_reader.parse_litmus, edited), edited
        refused += isinstance(got, tuple)
    return len(texts), refused


_ENUM_OF_FIELD = {"kind": StmtKind, "order": MemoryOrder,
                  "mnemonic": Mnemonic, "domain": DmbDomain}
_INT_FIELDS = ("value", "imm")
_INT_FIELD_VALUES = (-1, 8, 100, "1", True, 1.0)
_NAME_FIELD_VALUES = ("", "r", "rx", "r00", "r0\n", "x", "z", "q0", "W14",
                      "W29", "W31", "W01", "W1\n", "WZR", "X3", "X31", "X00",
                      "X0\n", "W\u0661", "X\u0660", "r\u0661", "W\u0661\u0660",
                      0, b"x", ["x"])


def statement_mutants(test):
    """``test`` with one field of one statement set to None; an integer
    field to a value out of range or of another type, a name field to a bad
    or unbound name or to no string, an enum field to each member of its
    enum and to each member's value, a string."""
    for t, thread in enumerate(test.threads):
        for i, stmt in enumerate(thread.stmts):
            for field in dataclasses.fields(stmt):
                enum = _ENUM_OF_FIELD.get(field.name)
                values = ((*enum, *(member.value for member in enum))
                          if enum is not None
                          else _INT_FIELD_VALUES if field.name in _INT_FIELDS
                          else _NAME_FIELD_VALUES)
                for value in (None, *values):
                    stmts = list(thread.stmts)
                    stmts[i] = dataclasses.replace(stmt, **{field.name: value})
                    threads = list(test.threads)
                    threads[t] = dataclasses.replace(thread, stmts=tuple(stmts))
                    yield dataclasses.replace(test, threads=tuple(threads))


def check_malformed_statement_law(test):
    """On every statement mutant of ``test``, either ``validate_test``
    refuses it with a ``LitmusError``, or nothing but ``LitmusError`` comes
    out of ``allowed_outcomes`` under the dialect's model and under sc, nor,
    for a source test, out of ``lower_test`` and ``check_refinement``, and
    ``render_litmus`` prints it as a text that reads back as the mutant.
    Returns how many mutants were checked and how many were accepted."""
    native = MODEL_C11 if test.dialect is Dialect.SOURCE else MODEL_AARCH64
    checked = accepted = 0
    for mutant in statement_mutants(test):
        checked += 1
        try:
            validate_test(mutant)
        except LitmusError:
            continue
        accepted += 1
        calls = [functools.partial(allowed_outcomes, mutant, native),
                 functools.partial(allowed_outcomes, mutant, MODEL_SC)]
        if mutant.dialect is Dialect.SOURCE:
            calls.append(lambda: check_refinement(mutant, *lower_test(mutant)))
        for call in calls:
            try:
                call()
            except LitmusError:
                pass
        assert parse_litmus(render_litmus(mutant)) == mutant, mutant
    return checked, accepted


def check_validation_law(test):
    """On every statement mutant of ``test``, ``validate_test`` and the
    reference both pass or both raise the same class with the same
    message.  Returns how many mutants were checked."""
    checked = 0
    for mutant in statement_mutants(test):
        assert raised(validate_test, mutant) == raised(
            reference_reader.validate_test, mutant), mutant
        checked += 1
    return checked
