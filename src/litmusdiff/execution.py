"""Candidate executions and outcome sets.

A test's threads are turned into memory events (reads, writes, fences), and
its coherent candidates are enumerated: each location's coherence orders
and reads-from choices are searched on their own, only those that keep
per-location program order, rf, co and fr acyclic are made, and they are
combined across locations.  Every model demands this per-location
coherence, so the candidates are exactly the coherent brute-force ones.
The candidate limit is checked before any search, against a budget from
the graph's shape, not the number of choices made.  A memory model module
decides which candidates are consistent; the final states of the
survivors form the test's outcome set.

Value flow is static: every write's value is a program constant or a copy
of what an earlier read of its thread returned.  So a candidate's final
state, and whether its values settle at all, follow from a few terms of its
location choices: the value source of each observed location's co-last
write and of the rf source of each read that an observed register or a
copying write draws on.  Choices are grouped by those terms, and each
combination of groups is resolved to its outcome and to the constant each
term comes to before any candidate is built; combinations whose values never
settle (a read feeding its own rf source through a cycle of copies) are
dropped there.  The enumerator yields each outcome once, with its products:
a product is one group per location, and its candidates, built lazily, are
the groups' choices crossed.  A built candidate carries only the ``com``
and ``eco_before`` rows the models read, the unions of its choices' rows,
and its class's resolved sources; rf, co and values follow on demand.  A
choice's rows take one walk up and one walk down its coherence order, and
are built at most once per enumeration, however many candidates and meets
use them.

The models are antitone in ``(com, eco_before)``: removing edges never
turns a consistent execution inconsistent.  A product's ``meet`` has, per
location, the AND of the rows of every choice in the product; locations
touch disjoint events, so it is exactly the intersection of the product's
candidates, and when it is rejected so is every candidate, which
``allowed_outcomes`` then skips.  A group sits in many products, so its
AND is taken once and shared, and a meet only unions its groups' ANDs.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import math
import operator
from functools import cached_property
from typing import Iterator, NamedTuple

from .litmus import (
    Dialect,
    DmbDomain,
    LitmusError,
    LitmusTest,
    MemoryObservable,
    MemoryOrder,
    Mnemonic,
    StmtKind,
    SWP_ACQUIRE,
    SWP_FAMILY,
    SWP_RELEASE,
    ZERO_REGISTER,
    condition_observables,
    observable_label,
)
from .relations import Rows

MODEL_C11 = "c11"
MODEL_AARCH64 = "aarch64"
MODEL_SC = "sc"
KNOWN_MODELS = (MODEL_C11, MODEL_AARCH64, MODEL_SC)

DEFAULT_MAX_CANDIDATES = 1_000_000

INIT_TID = -1


class ResourceLimitError(LitmusError):
    pass


class DialectMismatchError(LitmusError):
    pass


class EventKind(enum.Enum):
    READ = "R"
    WRITE = "W"
    FENCE = "F"


# A value source is ("const", k) or ("read", eid of the read it copies).
ValueSource = tuple


class Event(NamedTuple):
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
    value_src: ValueSource | None = None


_LABEL = operator.itemgetter(0)


@dataclasses.dataclass
class EventGraph:
    """A test's events and final register environment, and every table no
    rf or co choice can change, all made in one pass over the events:

    - ``reads``, ``writes``, ``fences``, and ``masks`` of each kind (``R``,
      ``W``, ``F``), of the init writes and of each bool field of ``Event``;
    - ``shapes``: per location, in program order, its init write, a write
      chain per thread, and runs ``[a, b, reads]``: a thread's plain
      (non-exchange) reads between its writes ``a`` (or init) and ``b`` (or
      None); its ``exchanges``, (read, write) pairs, all in ``rmw_pairs``;
      and each write's value source in ``value_srcs``;
    - rows: ``same_thread``, and ``po`` and ``po_loc``, program order and
      its restriction to a thread's own accesses to one location.  Ids
      follow program order; init writes precede every event and have no
      po-loc, since they precede everything in coherence;
    - ``final_observables``: the exists clause's observables with their
      printed labels, sorted by label.

    ``memo`` holds per-graph results of the model modules, each under keys
    its own module owns; only what no rf or co choice can change belongs
    there."""

    test: LitmusTest
    events: tuple[Event, ...]
    # final register environment per thread: (tid, register) -> value source
    final_defs: dict[tuple[int, str], ValueSource]

    def __post_init__(self) -> None:
        reads, writes, fences, rmw_pairs = [], [], [], []
        self.masks = masks = dict.fromkeys(("R", "W", "F", "init", "acquire",
                                            "release", "seq_cst", "zero_dest"), 0)
        self.shapes, self.exchanges, self.value_srcs = {}, {}, {}
        threads, at, open_runs = {}, {}, {}
        for e in self.events:
            eid, tid, kind, loc, acquire, release, seq_cst, rmw, zero_dest, \
                _, value_src = e
            bit = 1 << eid
            threads[tid] = threads.get(tid, 0) | bit
            masks["acquire"] |= acquire << eid
            masks["release"] |= release << eid
            masks["seq_cst"] |= seq_cst << eid
            if kind is EventKind.FENCE:
                fences.append(e)
                masks["F"] |= bit
                continue
            at[loc] = at.get(loc, 0) | bit
            key = (loc, tid)
            if kind is EventKind.READ:
                reads.append(e)
                masks["R"] |= bit
                masks["zero_dest"] |= zero_dest << eid
                if rmw is None:
                    init, chains, runs = self.shapes[loc]
                    run = open_runs.get(key)
                    if run is None:
                        a = chains[tid][-1] if tid in chains else init
                        run = open_runs[key] = [a, None, []]
                        runs.append(run)
                    run[2].append(eid)
                continue
            writes.append(e)
            masks["W"] |= bit
            self.value_srcs[eid] = value_src
            if tid == INIT_TID:
                masks["init"] |= bit
                self.shapes[loc], self.exchanges[loc] = (eid, {}, []), []
                continue
            self.shapes[loc][1].setdefault(tid, []).append(eid)
            if key in open_runs:
                open_runs.pop(key)[1] = eid
            if rmw is not None:
                self.exchanges[loc].append((rmw, eid))
                rmw_pairs.append((rmw, eid))
        self.reads, self.writes, self.fences = map(tuple, (reads, writes, fences))
        self.rmw_pairs, self.memo = tuple(rmw_pairs), {}
        everything = (1 << len(self.events)) - 1
        self.same_thread = [threads[e.tid] for e in self.events]
        self.po = [(everything if e.tid == INIT_TID else threads[e.tid])
                   & -(2 << e.eid) for e in self.events]
        self.po_loc = [
            row & at[e.loc] if e.loc is not None and e.tid != INIT_TID else 0
            for e, row in zip(self.events, self.po)]
        dialect = self.test.dialect
        self.final_observables = sorted(
            [(observable_label(obs, dialect), obs)
             for obs in condition_observables(self.test.final)],
            key=_LABEL)

    @cached_property
    def examined_choices(self) -> int:
        """A budget worked out from the shape, not the number of choices
        the search makes: per location, the interleavings of its threads'
        write chains times one of its writes (init included) per plain
        read."""
        total = 0
        for _, chains, runs in self.shapes.values():
            orders, placed = 1, 0
            for chain in chains.values():
                placed += len(chain)
                orders *= math.comb(placed, len(chain))
            total += orders * (1 + placed) ** sum(len(r[2]) for r in runs)
        return total


class _ThreadBuilder:
    """Appends a thread's events and tracks its register environment."""

    def __init__(self, tid: int, events: list[Event]):
        self.tid = tid
        self.events = events
        self.env: dict[str, ValueSource] = {}

    def add(self, kind: EventKind, **fields) -> int:
        eid = len(self.events)
        self.events.append(Event(eid, self.tid, kind, **fields))
        return eid

    def exchange(self, loc: str, dest: str | None, value_src: ValueSource, *,
                 acquire: bool, release: bool, seq_cst: bool = False) -> None:
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


def _source_events(thread, builder: _ThreadBuilder) -> None:
    for stmt in thread.stmts:
        order = stmt.order
        acq = order in (MemoryOrder.ACQUIRE, MemoryOrder.ACQ_REL, MemoryOrder.SEQ_CST)
        rel = order in (MemoryOrder.RELEASE, MemoryOrder.ACQ_REL, MemoryOrder.SEQ_CST)
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


def _asm_events(thread, builder: _ThreadBuilder) -> None:
    bindings = thread.binding_map()

    def register_value(reg: str) -> ValueSource:
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
                             acquire=m in SWP_ACQUIRE, release=m in SWP_RELEASE)
        else:
            builder.add(EventKind.FENCE, domain=instr.domain)


def build_events(test: LitmusTest) -> EventGraph:
    """Turn the program into events.  Init writes come first, one per
    location in sorted order; MOV produces no event, only register state."""
    events: list[Event] = []
    for loc in test.sorted_locations():
        events.append(Event(len(events), INIT_TID, EventKind.WRITE, loc=loc,
                            value_src=("const", test.locations[loc])))
    final_defs: dict[tuple[int, str], ValueSource] = {}
    for thread in test.threads:
        builder = _ThreadBuilder(thread.tid, events)
        if test.dialect is Dialect.SOURCE:
            _source_events(thread, builder)
        else:
            _asm_events(thread, builder)
        for reg, src in builder.env.items():
            final_defs[(thread.tid, reg)] = src
    return EventGraph(test, tuple(events), final_defs)


class Execution:
    """One candidate: a coherence order per location, a reads-from map, the
    values they induce, and the ``com`` (``rf | co | fr``) and ``eco_before``
    rows the models read.  A product's candidates carry the rows, their
    choices and their class's resolved ``sources``, and derive the rest on
    first read; a product's meet (``of_rows``) has the rows alone."""

    def __init__(self, graph: EventGraph, rf, co, values, registers):
        self.graph, self.rf, self.co = graph, rf, co
        self.values, self.registers = values, registers
        self.com, self.eco_before = _union([_location_rows(
            order, rf.items(), len(graph.events)) for order in co.values()])

    @classmethod
    def of_rows(cls, graph: EventGraph, rows) -> Execution:
        """An execution with only the ``com`` and ``eco_before`` rows, the
        unions of the given ``(com, eco_before)`` pairs of rows."""
        execution = cls.__new__(cls)
        execution.graph = graph
        execution.com, execution.eco_before = _union(rows)
        return execution

    @cached_property
    def rf(self) -> dict[int, int]:
        return {r: w for _, sources in self.choices for r, w in sources}

    @cached_property
    def co(self) -> dict[str, tuple[int, ...]]:
        return {loc: order for loc, (order, _) in
                zip(self.graph.test.sorted_locations(), self.choices)}

    @cached_property
    def values(self) -> dict[int, int]:
        """Every write's value, a copy's from its class's resolved sources,
        and every read's from its rf source."""
        writes = {w: self.sources[key][1] if kind == "read" else key
                  for w, (kind, key) in self.graph.value_srcs.items()}
        return {**writes, **{r: writes[w] for r, w in self.rf.items()}}

    @cached_property
    def registers(self) -> dict[tuple[int, str], int]:
        return {key: src[1] if src[0] == "const" else self.values[src[1]]
                for key, src in self.graph.final_defs.items()}

    def final_memory(self) -> dict[str, int]:
        return {loc: self.values[order[-1]] for loc, order in self.co.items()}


def eco_respected(execution: Execution, rows: Rows) -> bool:
    """No edge of ``rows`` returns to its source or runs against eco.  Over
    hb this is c11's coherence, ``hb ; eco?`` irreflexive; over po-loc it
    is aarch64's internal axiom, ``po-loc | com`` acyclic."""
    before = execution.eco_before
    for a, row in enumerate(rows):
        if row & (1 << a | before[a]):
            return False
    return True


def atomicity_holds(execution: Execution) -> bool:
    """No write lies in coherence order between an exchange's rf source and
    its own write: ``rmw & (fr; co)`` is empty.  From a read, ``com`` runs
    to exactly the writes co-after its rf source, and a write's
    ``eco_before`` holds the writes co-before it."""
    com, before = execution.com, execution.eco_before
    return not any(com[r] & before[w] for r, w in execution.graph.rmw_pairs)


def _union(rows) -> tuple[Rows, Rows]:
    """The unions of ``(com, eco_before)`` pairs of rows."""
    (com, before), *rest = rows
    for more_com, more_before in rest:
        com = list(map(operator.or_, com, more_com))
        before = list(map(operator.or_, before, more_before))
    return com, before


def _fold(op, parts: list[Rows]) -> Rows:
    rows, *rest = parts
    for more in rest:
        rows = list(map(op, rows, more))
    return rows


def _location_rows(co, rf, size: int) -> tuple[Rows, Rows]:
    """``com`` and ``eco_before`` rows of a location's events, given by its
    ``co`` and the pairs of ``rf`` whose source is in it.  Since ``rf;co``,
    ``rf;rf``, ``co;fr`` and ``fr;fr`` are empty, ``rf;fr`` is in ``co`` and
    ``fr;co`` in ``fr``, so ``eco = rf | (co | fr);rf?`` orders the events
    by coherence key, twice the co position for a write and one more than
    its rf source's for a read, for any co and rf.  One walk up ``co``
    gathers each write's ``eco_before``: the writes co-before it and their
    readers, and for a reader of the write the write too.  One walk down
    gathers ``com``: the writes co-after a write, and for the write alone
    its own readers."""
    readers: dict[int, list[int]] = {w: [] for w in co}
    for r, w in rf:
        if w in readers:
            readers[w].append(r)
    com = [0] * size
    before = [0] * size
    below = 0
    for w in co:
        before[w] = below
        below |= 1 << w
        own = below
        for r in readers[w]:
            before[r] = own
            below |= 1 << r
    above = 0
    for w in reversed(co):
        row = above
        for r in readers[w]:
            com[r] = above
            row |= 1 << r
        com[w] = row
        above |= 1 << w
    return com, before


def _merges(chains: list[list[int]]) -> Iterator[tuple[int, ...]]:
    """Every interleaving of the chains that keeps each chain's own order:
    the first chain takes any set of slots, a merge of the rest the others."""
    if len(chains) <= 1:
        yield tuple(chains[0]) if chains else ()
        return
    first = chains[0]
    size = sum(map(len, chains))
    for tail in _merges(chains[1:]):
        for slots in itertools.combinations(range(size), len(first)):
            merged = list(tail)
            for slot, w in zip(slots, first):
                merged.insert(slot, w)
            yield tuple(merged)


def _location_choices(graph: EventGraph, loc: str, drawn) -> dict:
    """The coherent ``(co, rf)`` choices on one location, grouped by
    signature; ``EventGraph.examined_choices`` is a budget from the shape,
    not the number made.  A coherence order is init, then a merge of the
    threads' write chains (CoWW); an exchange read reads the write just
    before its own (atomicity).  Coherence binds only a thread's own
    accesses: a run of its plain reads between its writes ``a`` and ``b``
    (``EventGraph.shapes``) reads from ``co[pos(a):pos(b)]``, from init
    without ``a`` and to the end without ``b`` (CoWR, CoRW), and never
    below an earlier read's source (CoRR).  So its sources are the
    ``combinations_with_replacement`` of that window, and the rf choices
    the product of the runs'.  Exchanges add no bound beyond their write: a
    read po-before one reads below its write, one po-after at or above it,
    and the write directly follows the exchange read.  Runs list the plain
    reads in id order and windows are in co order, so the choices come in
    the order of ``itertools.product(co, repeat=len(plain))``, filtered.  A
    signature is all the outcome can read of a choice: the co-last write's
    value source if the location is in ``drawn``, then each read in
    ``drawn`` with its rf source's.
    """
    init, chains, runs = graph.shapes[loc]
    drawn_loc = loc in drawn
    plain = [r for *_, reads in runs for r in reads]
    exchanges = graph.exchanges[loc]
    rf_reads = [*plain, *(r for r, _ in exchanges)]
    signed = [(i, r) for i, r in enumerate(rf_reads) if r in drawn]
    value_src = graph.value_srcs
    groups: dict[tuple, list] = {}
    for tail in _merges(list(chains.values())):
        co = (init, *tail)
        fixed = [(r, co[co.index(w) - 1]) for r, w in exchanges]
        last = ((loc, value_src[co[-1]]),) if drawn_loc else ()
        windows = [itertools.combinations_with_replacement(
            co[co.index(a):len(co) if b is None else co.index(b)], len(reads))
            for a, b, reads in runs]
        for picked in itertools.product(*windows):
            rf = (*zip(plain, itertools.chain(*picked)), *fixed)
            signature = last + tuple(
                [(r, value_src[rf[i][1]]) for i, r in signed])
            groups.setdefault(signature, []).append((co, rf))
    return groups


def _class_outcome(combo, terms):
    """The outcome, as its items, of every candidate whose location choices
    have the signatures of ``combo`` (pairs of a signature and its group),
    with the signatures' value sources resolved to constants; None when
    the drawn reads' values copy themselves through rf and never settle.
    Every read on such a copy cycle is drawn, so only then does some
    candidate's value go unsettled."""
    sources: dict = {}
    for signature, _ in combo:
        sources.update(signature)
    for key, src in sources.items():
        hops = 0
        while src[0] == "read":
            hops += 1
            if hops > len(sources):
                return None
            src = sources[src[1]]
        sources[key] = src
    return tuple([(label, sources[src[1]][1] if src[0] == "read" else src[1])
                  for label, src in terms]), sources


class _Group:
    """One location's ``(co, rf)`` choices of one signature.  A group sits
    in every product that crosses it with the other locations' groups, so
    it holds what those products share: each choice's ``_location_rows``
    and the group's meet, the AND of those rows, each built when first
    used and at most once."""

    def __init__(self, choices: list, size: int):
        self.choices, self.size = choices, size
        self.slots: list = [None] * len(choices)

    def __len__(self) -> int:
        return len(self.choices)

    def rows(self, i: int) -> tuple[Rows, Rows]:
        rows = self.slots[i]
        if rows is None:
            rows = self.slots[i] = _location_rows(*self.choices[i], self.size)
        return rows

    @cached_property
    def meet(self) -> tuple[Rows, Rows]:
        return tuple(_fold(operator.and_, rows) for rows in
                     zip(*map(self.rows, range(len(self.choices)))))


class Product:
    """One member of an outcome class: a group of ``(co, rf)`` choices per
    sorted location, all of one signature, crossed.  Its candidates share
    the class's outcome and its resolved value sources."""

    def __init__(self, graph: EventGraph, groups: list[_Group], sources):
        self.graph, self.groups, self.sources = graph, groups, sources

    def __len__(self) -> int:
        return math.prod(map(len, self.groups))

    def __iter__(self) -> Iterator[Execution]:
        graph, groups, sources = self.graph, self.groups, self.sources
        for picked in itertools.product(*[range(len(g)) for g in groups]):
            execution = Execution.__new__(Execution)
            execution.graph, execution.sources = graph, sources
            execution.choices = [g.choices[i] for g, i in zip(groups, picked)]
            execution.com, execution.eco_before = _union(
                [g.rows(i) for g, i in zip(groups, picked)])
            yield execution

    def meet(self) -> Execution:
        """The intersection of the candidates: per location, the AND of the
        rows of every choice in its group."""
        return Execution.of_rows(self.graph,
                                 [group.meet for group in self.groups])


def _charge(examined: int, limit: int) -> None:
    if examined > limit:
        raise ResourceLimitError(
            f"candidate executions exceed the limit of {limit}")


def enumerate_candidates(
    graph: EventGraph, max_candidates: int | None = None
) -> Iterator[tuple[Outcome, list[Product]]]:
    """Yield each outcome of the coherent, value-consistent candidate
    executions once, with the products whose candidates have it, in order.

    Each combination of the groups of ``_location_choices`` is resolved
    once (``_class_outcome``), and combinations with value cycles are
    dropped there.  A candidate is built only when its product's iterator
    reaches it.  A choice's ``_location_rows`` are built when a built
    candidate or a meet first uses them, and a group's AND when a meet
    holding it is first checked; both at most once per call.

    Raises ResourceLimitError, before the first class, once the budget
    exceeds ``max_candidates``: the shape's ``EventGraph.examined_choices``,
    checked before any search, plus the combinations of the coherent
    choices, added once they are grouped.
    """
    limit = DEFAULT_MAX_CANDIDATES if max_candidates is None else max_candidates
    _charge(graph.examined_choices, limit)
    # Where each label's final value comes from: a register's value source,
    # or ("read", location) for the value of the location's co-last write.
    terms = [(label, ("read", obs.location) if isinstance(obs, MemoryObservable)
              else graph.final_defs[(obs.thread, obs.register)])
             for label, obs in graph.final_observables]
    # The reads whose rf source the outcome or a copying write draws on.
    drawn = {key for _, (kind, key) in terms if kind == "read"}
    drawn.update(key for kind, key in graph.value_srcs.values()
                 if kind == "read")
    size = len(graph.events)
    groups = [{signature: _Group(choices, size) for signature, choices
               in _location_choices(graph, loc, drawn).items()}
              for loc in graph.test.sorted_locations()]
    _charge(graph.examined_choices + math.prod(
        sum(map(len, group.values())) for group in groups), limit)
    classes: dict[tuple, list] = {}
    for combo in itertools.product(*(group.items() for group in groups)):
        resolved = _class_outcome(combo, terms)
        if resolved is not None:
            items, sources = resolved
            classes.setdefault(items, []).append(Product(
                graph, [group for _, group in combo], sources))
    for items, products in classes.items():
        yield Outcome(items), products


@dataclasses.dataclass(frozen=True, order=True)
class Outcome:
    """Final values of the observables named by the exists clause, keyed by
    their printed labels and sorted lexicographically."""

    items: tuple[tuple[str, int], ...]

    def as_dict(self) -> dict[str, int]:
        return dict(self.items)

    @staticmethod
    def from_dict(values: dict[str, int]) -> "Outcome":
        return Outcome(tuple(sorted(values.items())))


@dataclasses.dataclass(frozen=True)
class OutcomeSet:
    test: str
    model: str
    outcomes: frozenset[Outcome]

    def sorted_outcomes(self) -> list[Outcome]:
        return sorted(self.outcomes)

    def to_json_dict(self) -> dict:
        return {
            "test": self.test,
            "model": self.model,
            "outcomes": [o.as_dict() for o in self.sorted_outcomes()],
        }


def final_state(execution: Execution) -> Outcome:
    """Project a candidate onto the observables of its test's exists
    clause."""
    memory, registers = execution.final_memory(), execution.registers
    return Outcome(tuple(
        (label, memory[obs.location] if isinstance(obs, MemoryObservable)
         else registers[(obs.thread, obs.register)])
        for label, obs in execution.graph.final_observables))


def allowed_outcomes(
    test: LitmusTest,
    model: str,
    *,
    max_candidates: int | None = None,
    legacy_zero_register: bool = False,
) -> OutcomeSet:
    """Outcome set of a test under one of the axiomatic models: ``c11`` for
    source tests, ``aarch64`` for asm tests and ``sc`` for either.  An
    outcome is allowed when some candidate of its class is consistent.  The
    class's products are taken in order, and each product's candidates are
    built and checked only up to the first consistent one.  When a product
    holds more than one candidate and its first is rejected, its meet is
    checked next; since the models are antitone, a rejected meet rejects
    the whole product.  ``max_candidates`` bounds the choices examined, as
    in ``enumerate_candidates``, under every model; ``legacy_zero_register``
    applies to the aarch64 model only, and under another is an error."""
    if model == MODEL_C11:
        if test.dialect is not Dialect.SOURCE:
            raise DialectMismatchError("the c11 model applies to source tests only")
        from .model_c11 import c11_consistent
        consistent = c11_consistent
    elif model == MODEL_AARCH64:
        if test.dialect is not Dialect.ASM:
            raise DialectMismatchError("the aarch64 model applies to asm tests only")
        from .model_aarch64 import aarch64_consistent

        def consistent(execution):
            return aarch64_consistent(
                execution, legacy_zero_register=legacy_zero_register)
    elif model == MODEL_SC:
        from .model_sc import sc_consistent
        consistent = sc_consistent
    else:
        raise LitmusError(f"unknown model {model!r}")
    if legacy_zero_register and model != MODEL_AARCH64:
        raise LitmusError(
            f"legacy_zero_register applies to the {MODEL_AARCH64} model only")

    def allows(product: Product) -> bool:
        candidates = iter(product)
        if consistent(next(candidates)):
            return True
        return ((len(product) == 1 or consistent(product.meet()))
                and any(map(consistent, candidates)))

    classes = enumerate_candidates(build_events(test), max_candidates)
    return OutcomeSet(test.name, model, frozenset(
        outcome for outcome, products in classes
        if any(map(allows, products))))
